"""Tests for the per-PR trend analytics (``obs/trend.py``)."""

import json

import pytest

from repro import __main__ as cli
from repro.obs import history, metrics, trend


def bench_record(exp_id, cycles, attribution, shape=True):
    top = max(attribution, key=attribution.get)
    return {
        "id": exp_id,
        "title": f"experiment {exp_id}",
        "machine": "prototype",
        "machines": ["prototype"],
        "simulators": 1,
        "total_cycles": cycles,
        "shape_holds": shape,
        "measured": {"cycles": cycles},
        "paper": {"claim": "qualitative"},
        "attribution": dict(attribution),
        "derived": {
            "total_cycles": cycles,
            "attribution": {
                "top": top,
                "shares": {top: round(attribution[top] / cycles, 4)},
            },
            "reload": {"p99": 42},
            "counters": {"tlb_miss": 7},
        },
    }


def ledger_entry(records, label, sha=None):
    doc = metrics.bench_doc(records)
    return history.entry_from_doc(doc, label=label, sha=sha)


@pytest.fixture()
def entries():
    """A synthetic three-entry ledger: a win, an addition, a flip."""
    first = ledger_entry(
        [
            bench_record("E1", 1000, {"tlb-reload": 600, "user-compute": 400}),
            bench_record("E2", 2000, {"user-compute": 2000}),
        ],
        label="PR5", sha="aaaa111",
    )
    second = ledger_entry(
        [
            bench_record("E1", 800, {"tlb-reload": 400, "user-compute": 400}),
            bench_record("E2", 2000, {"user-compute": 2000}),
            bench_record("E3", 500, {"flush": 500}),
        ],
        label="PR6", sha="bbbb222",
    )
    third = ledger_entry(
        [
            bench_record("E1", 800, {"tlb-reload": 400, "user-compute": 400}),
            bench_record("E2", 2200, {"user-compute": 2200}, shape=False),
            bench_record("E3", 500, {"flush": 500}),
        ],
        label="PR7", sha="cccc333",
    )
    return [first, second, third]


class TestStep:
    def test_exact_cycle_deltas(self, entries):
        change = trend.step(entries[0], entries[1])
        e1 = change["experiments"]["E1"]["cycles"]
        assert e1 == {"old": 1000, "new": 800, "delta": -200, "ratio": 0.8}
        assert change["experiments"]["E2"]["cycles"]["delta"] == 0
        assert change["movers"] == [{"id": "E1", "delta": -200}]
        assert change["summary"]["changed"] == 1
        assert change["summary"]["shared"] == 2
        assert change["summary"]["added"] == ["E3"]
        assert change["summary"]["removed"] == []
        assert change["summary"]["total_cycles"] == {
            "old": 3000, "new": 2800,
        }

    def test_category_movers_sum_attributions(self, entries):
        change = trend.step(entries[0], entries[1])
        # Only the shared experiments count; E3's flush cycles do not.
        assert change["category_movers"] == [
            {"category": "tlb-reload", "old": 600, "new": 400, "delta": -200},
        ]

    def test_category_mover_ties_break_in_display_order(self):
        old = {"E1": {"attribution": {"other": 100, "service": 100}}}
        new = {"E1": {"attribution": {"other": 150, "service": 50}}}
        movers = trend._category_movers(old, new, ["E1"])
        assert [m["category"] for m in movers] == ["service", "other"]
        assert [m["delta"] for m in movers] == [-50, 50]

    def test_movers_ranked_by_magnitude_then_id(self, entries):
        change = trend.step(entries[1], entries[2])
        assert change["movers"] == [{"id": "E2", "delta": 200}]

    def test_shape_flip_recorded(self, entries):
        change = trend.step(entries[1], entries[2])
        assert change["experiments"]["E2"]["shape"] == {
            "old": True, "new": False,
        }

    def test_headline_columns_carried(self, entries):
        change = trend.step(entries[0], entries[1])
        headline = change["experiments"]["E1"]["headline"]
        assert set(headline) == set(history.HEADLINE_FIELDS)
        assert headline["top_category"] == {
            "old": "tlb-reload", "new": "tlb-reload",
        }

    def test_identical_entries_have_no_movers(self, entries):
        change = trend.step(entries[0], entries[0])
        assert change["movers"] == []
        assert change["category_movers"] == []
        assert change["summary"]["changed"] == 0


class TestTrendDoc:
    def test_doc_shape(self, entries):
        doc = trend.trend_doc(entries)
        assert [entry["name"] for entry in doc["entries"]] == \
            ["PR5", "PR6", "PR7"]
        assert len(doc["steps"]) == 2
        assert doc["series_window"] == 3
        assert doc["series"]["E1"] == [1000, 800, 800]
        assert doc["series"]["E3"] == [None, 500, 500]
        assert doc["series"]["__total__"] == [3000, 3300, 3500]

    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            trend.trend_doc([])

    def test_names_fall_back_to_sha_then_index(self, entries):
        anonymous = dict(entries[0])
        anonymous["label"] = None
        doc = trend.trend_doc([anonymous])
        assert doc["entries"][0]["name"] == "aaaa111"
        anonymous = dict(anonymous)
        anonymous["git"] = {"sha": None, "parent": None}
        doc = trend.trend_doc([anonymous])
        assert doc["entries"][0]["name"] == "#1"

    def test_doc_is_deterministic(self, entries):
        assert trend.trend_doc(entries) == trend.trend_doc(entries)


class TestSparkline:
    def test_empty_and_gap_handling(self):
        assert trend.sparkline([]) == ""
        assert trend.sparkline([None, None]) == ""
        assert trend.sparkline([1, None, 1]) == "▁ ▁"

    def test_constant_series_renders_low_tick(self):
        assert trend.sparkline([5, 5, 5]) == "▁▁▁"

    def test_extremes_map_to_first_and_last_tick(self):
        line = trend.sparkline([0, 100])
        assert line[0] == trend._TICKS[0]
        assert line[-1] == trend._TICKS[-1]


class TestRenderTrend:
    def test_render_is_byte_deterministic(self, entries):
        doc = trend.trend_doc(entries)
        assert trend.render_trend(doc) == trend.render_trend(doc)

    def test_render_mentions_movers_and_flips(self, entries):
        text = trend.render_trend(trend.trend_doc(entries))
        assert "BENCH history: 3 entries" in text
        assert "PR5 -> PR6:" in text
        assert "added E3" in text
        assert "-200" in text
        assert "tlb-reload" in text
        assert "SHAPE FLIP E2: True -> False" in text

    def test_render_flags_identical_runs(self, entries):
        doc = trend.trend_doc([entries[0], entries[0]])
        assert "bit-identical" in trend.render_trend(doc)


class TestCli:
    def write_doc(self, tmp_path, name, cycles):
        doc = metrics.bench_doc(
            [bench_record("E1", cycles,
                          {"tlb-reload": cycles // 2,
                           "user-compute": cycles - cycles // 2})],
        )
        path = tmp_path / name
        path.write_text(metrics.dumps(doc))
        return path

    def test_append_then_trend_round_trip(self, tmp_path, capsys):
        ledger = tmp_path / "BENCH_history.jsonl"
        for name, cycles, label in (
            ("old.json", 1000, "PR6"), ("new.json", 800, "PR7"),
        ):
            results = self.write_doc(tmp_path, name, cycles)
            assert cli.main([
                "bench", "append", str(results),
                "--history", str(ledger),
                "--label", label, "--sha", f"sha-{label}",
                "--parent", "sha-parent",
            ]) == 0
        out = capsys.readouterr().out
        assert "entry 1" in out and "entry 2" in out

        assert cli.main(["trend", "--history", str(ledger)]) == 0
        text = capsys.readouterr().out
        assert "BENCH history: 2 entries" in text
        assert "PR6 -> PR7:" in text
        assert "-200" in text

        assert cli.main(["trend", "--history", str(ledger),
                         "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in doc["entries"]] == \
            ["PR6", "PR7"]
        (change,) = doc["steps"]
        assert change["experiments"]["E1"]["cycles"]["delta"] == -200

    def test_append_with_verdict(self, tmp_path, capsys):
        ledger = tmp_path / "BENCH_history.jsonl"
        results = self.write_doc(tmp_path, "r.json", 1000)
        verdict = tmp_path / "verdict.json"
        verdict.write_text(json.dumps(
            {"ok": True, "regressions": 0, "equal": 12, "experiments": {}}
        ))
        assert cli.main([
            "bench", "append", str(results), "--history", str(ledger),
            "--sha", "abc", "--parent", "def",
            "--verdict", str(verdict),
        ]) == 0
        capsys.readouterr()
        (entry,) = history.load_history(ledger)
        assert entry["verdict"] == {"ok": True, "regressions": 0}

    def test_append_rejects_bad_results(self, tmp_path, capsys):
        ledger = tmp_path / "BENCH_history.jsonl"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        assert cli.main(["bench", "append", str(bad),
                         "--history", str(ledger)]) == 2
        assert "bench append:" in capsys.readouterr().err
        assert not ledger.exists()

    def test_trend_missing_ledger_is_an_error(self, tmp_path, capsys):
        assert cli.main(["trend", "--history",
                         str(tmp_path / "absent.jsonl")]) == 2
        assert "trend:" in capsys.readouterr().err
