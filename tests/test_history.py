"""Tests for the longitudinal bench ledger (``obs/history.py``)."""

import json
import pathlib
import shutil

import pytest

from repro import __main__ as cli
from repro.obs import history, metrics

#: The committed ledger: its first six lines predate bench schema 5 and
#: carry a legacy ``wall`` section.
COMMITTED_LEDGER = pathlib.Path(__file__).resolve().parents[1] / \
    "BENCH_history.jsonl"


def bench_record(exp_id="E1", cycles=1000, shape=True, top="tlb-reload"):
    """A minimal valid bench record with a derived block."""
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
        "attribution": {top: cycles},
        "derived": {
            "total_cycles": cycles,
            "attribution": {"top": top, "shares": {top: 1.0}},
            "reload": {"p99": 42},
            "counters": {"tlb_miss": 7},
        },
    }


def bench_doc(records):
    return metrics.bench_doc(records)


class TestRecordFields:
    def test_copied_fields_are_required_record_keys(self):
        assert set(history.RECORD_FIELDS) <= set(metrics.RECORD_REQUIRED)


class TestHeadline:
    def test_pulls_derived_metrics(self):
        head = history.headline(bench_record())
        assert head == {
            "top_category": "tlb-reload",
            "top_share": 1.0,
            "reload_p99": 42,
            "tlb_miss": 7,
        }

    def test_absent_sections_yield_none(self):
        record = bench_record()
        record["derived"] = {}
        head = history.headline(record)
        assert set(head) == set(history.HEADLINE_FIELDS)
        assert all(value is None for value in head.values())


class TestEntryFromDoc:
    def test_builds_validated_entry(self):
        doc = bench_doc(
            [bench_record("E1", 1000), bench_record("E2", 2000, shape=False)],
        )
        entry = history.entry_from_doc(
            doc, label="PR7", sha="abc123", parent="def456"
        )
        assert entry["schema_version"] == history.HISTORY_SCHEMA
        assert entry["bench_schema"] == metrics.BENCH_SCHEMA
        assert entry["label"] == "PR7"
        assert entry["git"] == {"sha": "abc123", "parent": "def456"}
        assert entry["experiments"]["E1"]["total_cycles"] == 1000
        assert entry["experiments"]["E2"]["shape_holds"] is False
        assert entry["experiments"]["E1"]["headline"]["tlb_miss"] == 7
        assert entry["summary"] == {
            "experiments": 2, "shapes_holding": 1, "total_cycles": 3000,
        }
        assert "wall" not in entry
        assert entry["verdict"] is None

    def test_verdict_is_summarized(self):
        doc = bench_doc([bench_record()])
        entry = history.entry_from_doc(
            doc, verdict={"ok": False, "regressions": 2, "equal": 9,
                          "experiments": {}},
        )
        assert entry["verdict"] == {"ok": False, "regressions": 2}

    def test_rejects_invalid_doc(self):
        doc = bench_doc([bench_record()])
        doc["summary"]["total_cycles"] = 0
        with pytest.raises(ValueError, match="total_cycles"):
            history.entry_from_doc(doc)


def make_entry(**kwargs):
    cycles = kwargs.pop("cycles", 1000)
    doc = bench_doc([bench_record(cycles=cycles)])
    return history.entry_from_doc(doc, **kwargs)


class TestValidateHistoryEntry:
    def test_counts_returned(self):
        counts = history.validate_history_entry(make_entry())
        assert counts == {
            "experiments": 1, "shapes_holding": 1, "total_cycles": 1000,
        }

    def test_rejects_wrong_schema(self):
        entry = make_entry()
        entry["schema_version"] = history.HISTORY_SCHEMA + 1
        with pytest.raises(ValueError, match="schema_version"):
            history.validate_history_entry(entry)

    def test_rejects_nonpositive_cycles(self):
        entry = make_entry()
        entry["experiments"]["E1"]["total_cycles"] = 0
        entry["summary"]["total_cycles"] = 0
        with pytest.raises(ValueError, match="positive int"):
            history.validate_history_entry(entry)

    def test_rejects_missing_headline_field(self):
        entry = make_entry()
        del entry["experiments"]["E1"]["headline"]["tlb_miss"]
        with pytest.raises(ValueError, match="tlb_miss"):
            history.validate_history_entry(entry)

    def test_rejects_summary_mismatch(self):
        entry = make_entry()
        entry["summary"]["total_cycles"] += 1
        with pytest.raises(ValueError, match="summary.total_cycles"):
            history.validate_history_entry(entry)

    def test_rejects_negative_wall(self):
        entry = make_entry()
        entry["wall"] = {"E1": -0.5}  # a legacy section, still checked
        with pytest.raises(ValueError, match="wall"):
            history.validate_history_entry(entry)

    def test_rejects_malformed_verdict(self):
        entry = make_entry()
        entry["verdict"] = {"regressions": 1}
        with pytest.raises(ValueError, match="verdict"):
            history.validate_history_entry(entry)

    def test_rejects_bad_experiment_id(self):
        entry = make_entry()
        entry["experiments"]["bogus"] = entry["experiments"]["E1"]
        with pytest.raises(ValueError, match="bogus"):
            history.validate_history_entry(entry)


class TestSerialization:
    def test_dumps_is_one_compact_sorted_line(self):
        entry = make_entry(label="PR7")
        line = history.dumps_entry(entry)
        assert line.endswith("\n")
        assert line.count("\n") == 1
        assert ": " not in line and ", " not in line
        assert json.loads(line) == entry

    def test_entry_from_v5_doc_has_no_wall(self):
        entry = make_entry(label="v5")
        assert "wall" not in entry
        assert history.dumps_entry(entry) == \
            history.dumps_entry(make_entry(label="v5"))


class TestAppendLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        first = make_entry(label="PR6", cycles=1000)
        second = make_entry(label="PR7", cycles=900)
        assert history.append_entry(path, first) == 1
        assert history.append_entry(path, second) == 2
        entries = history.load_history(path)
        assert [entry["label"] for entry in entries] == ["PR6", "PR7"]
        assert entries[0] == first
        assert entries[1] == second

    def test_append_is_append_only(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        history.append_entry(path, make_entry(label="PR6"))
        before = path.read_text()
        history.append_entry(path, make_entry(label="PR7"))
        assert path.read_text().startswith(before)

    def test_append_rejects_invalid_entry(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        entry = make_entry()
        entry["summary"]["experiments"] = 5
        with pytest.raises(ValueError):
            history.append_entry(path, entry)
        assert not path.exists()

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        path.write_text(history.dumps_entry(make_entry()) + "{broken\n")
        with pytest.raises(ValueError, match=r":2: not JSON"):
            history.load_history(path)

    def test_load_rejects_invalid_line(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        bad = make_entry()
        bad["experiments"]["E1"]["shape_holds"] = "yes"
        path.write_text(json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=r":1: .*shape_holds"):
            history.load_history(path)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        path.write_text("\n" + history.dumps_entry(make_entry()) + "\n")
        assert len(history.load_history(path)) == 1


class TestCommittedLedger:
    def test_legacy_lines_load_and_trend(self, tmp_path, capsys):
        entries = history.load_history(COMMITTED_LEDGER)
        assert len(entries) >= 6
        assert all(entry["bench_schema"] < 5 and "wall" in entry
                   for entry in entries[:6])
        assert cli.main(["trend", "--history", str(COMMITTED_LEDGER)]) == 0
        assert "wall" not in capsys.readouterr().out

        ledger = tmp_path / "BENCH_history.jsonl"
        shutil.copy(COMMITTED_LEDGER, ledger)
        assert history.append_entry(ledger, make_entry(label="v5")) == \
            len(entries) + 1
        appended = json.loads(ledger.read_text().splitlines()[-1])
        assert appended["bench_schema"] == metrics.BENCH_SCHEMA
        assert "wall" not in appended
        assert cli.main(["trend", "--history", str(ledger)]) == 0
        assert "-> v5:" in capsys.readouterr().out
