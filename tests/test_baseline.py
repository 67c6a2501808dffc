"""Tests for the regression sentinel (``repro bench compare``).

Bench docs are deterministic end to end, so the sentinel is the exact
per-leaf comparison of :func:`repro.obs.diff.compare_docs`.  Verdict
accounting over hand-built bench docs, and the CLI exit-code contract:
0 on a matching pair, 1 on any changed, missing or extra leaf, 2 on
unusable inputs.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

from repro import __main__ as cli
from repro.obs import diff as obs_diff
from repro.obs.metrics import BENCH_SCHEMA, validate_bench_doc


def record(number, cycles=100, shape=True, measured=None):
    return {
        "id": f"E{number}",
        "title": f"experiment {number}",
        "machines": ["604e/200"],
        "total_cycles": cycles,
        "shape_holds": shape,
        "measured": dict(measured or {"ratio": 2.5}),
        "paper": {},
        "attribution": {"tlb-reload": cycles},
        "derived": {"total_cycles": cycles,
                    "counters": {"tlb_miss": 7 * number}},
    }


def doc(records):
    built = {
        "schema_version": BENCH_SCHEMA,
        "source": "test fixture",
        "experiments": records,
        "summary": {
            "experiments": len(records),
            "shapes_holding": sum(
                1 for r in records if r["shape_holds"]
            ),
            "total_cycles": sum(r["total_cycles"] for r in records),
        },
    }
    validate_bench_doc(built)
    return built


class TestCompareDocs:
    def test_identical_docs_are_ok(self):
        fixture = doc([record(1), record(2)])
        verdict = obs_diff.compare_docs(fixture, copy.deepcopy(fixture))
        assert verdict["ok"]
        assert verdict["regressions"] == 0
        assert verdict["equal"] > 0

    def test_perturbed_deterministic_leaf_is_a_regression(self):
        old = doc([record(1)])
        new = copy.deepcopy(old)
        new["experiments"][0]["measured"]["ratio"] = 9.9
        verdict = obs_diff.compare_docs(old, new)
        assert not verdict["ok"]
        assert verdict["regressions"] == 1
        (change,) = verdict["experiments"]["E1"]["changed"]
        assert change["key"] == "measured.ratio"
        assert (change["a"], change["b"]) == (2.5, 9.9)

    def test_shape_flip_is_a_regression(self):
        old = doc([record(1)])
        new = doc([record(1, shape=False)])
        verdict = obs_diff.compare_docs(old, new)
        assert not verdict["ok"]
        assert [change["key"] for change in
                verdict["experiments"]["E1"]["changed"]] == ["shape_holds"]

    def test_missing_and_extra_leaves_are_findings(self):
        old = doc([record(1), record(2)])
        new = doc([record(1)])
        verdict = obs_diff.compare_docs(old, new)
        assert not verdict["ok"]
        assert verdict["experiments"]["E2"]["only_a"] == ["<entire record>"]
        reversed_verdict = obs_diff.compare_docs(new, old)
        assert not reversed_verdict["ok"]
        assert reversed_verdict["experiments"]["E2"]["only_b"] == \
            ["<entire record>"]
        fewer = copy.deepcopy(old)
        del fewer["experiments"][1]["measured"]["ratio"]
        verdict = obs_diff.compare_docs(old, fewer)
        assert verdict["experiments"]["E2"]["only_a"] == ["measured.ratio"]
        assert verdict["regressions"] == 1


class TestRenderVerdict:
    def test_ok_verdict(self):
        verdict = obs_diff.compare_docs(doc([record(1)]),
                                        doc([record(1)]))
        text = obs_diff.render_verdict(verdict, "base.json", "new.json")
        assert "0 changed, missing or extra" in text
        assert text.endswith(
            "VERDICT: ok — the benchmark trajectory matches the baseline"
        )

    def test_regression_verdict_lists_findings(self):
        old = doc([record(1)])
        new = copy.deepcopy(old)
        new["experiments"][0]["total_cycles"] = 1
        new["summary"]["total_cycles"] = 1
        text = obs_diff.render_verdict(
            obs_diff.compare_docs(old, new), "a", "b"
        )
        assert "diff: a:E1  ->  b:E1" in text
        assert "total_cycles  100 -> 1" in text
        assert "REGRESSION" in text.splitlines()[-1]

    def test_finding_limit(self):
        old = doc([record(1, measured={f"k{i}": i for i in range(30)})])
        new = doc([record(1, measured={f"k{i}": i + 1
                                       for i in range(30)})])
        text = obs_diff.render_verdict(
            obs_diff.compare_docs(old, new), "a", "b", limit=5
        )
        assert "... 25 more changed leaves" in text


class TestTotalsCrossCheck:
    """A record whose total misses a CPU's ledger is a producer bug."""

    def under_counted(self):
        # E17 as the benchmark suite once recorded it: CPU 0's ledger
        # and profiler only, against a derived block counting both CPUs.
        built = doc([record(1), record(17, cycles=3_286_694)])
        built["experiments"][1]["derived"]["total_cycles"] = 6_570_273
        return built

    def test_validator_names_the_experiment(self):
        with pytest.raises(ValueError,
                           match=r"^E17: total_cycles 3286694 .*6570273"):
            validate_bench_doc(self.under_counted())

    def test_attribution_must_sum_to_the_total(self):
        built = doc([record(1)])
        built["experiments"][0]["attribution"]["flush"] = 5
        with pytest.raises(ValueError, match=r"^E1: .*attribution's sum 105"):
            validate_bench_doc(built)

    def test_consumers_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "under.json"
        bad.write_text(json.dumps(self.under_counted()))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            doc([record(1), record(17, cycles=6_570_273)])
        ))
        ledger = tmp_path / "h.jsonl"
        html = tmp_path / "r.html"
        assert cli.main(["bench", "compare", str(good), str(bad)]) == 2
        assert cli.main(["report", "--from", str(bad),
                         "--out", str(html)]) == 2
        assert cli.main(["bench", "append", str(bad), "--history",
                         str(ledger), "--sha", "a", "--parent", "b"]) == 2
        assert capsys.readouterr().err.count("E17: total_cycles") == 3
        assert not ledger.exists() and not html.exists()


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", "bench", "compare", *argv],
        capture_output=True, text=True,
    )


class TestCompareCli:
    def write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_matching_pair_exits_zero(self, tmp_path):
        fixture = doc([record(1)])
        a = self.write(tmp_path, "a.json", fixture)
        b = self.write(tmp_path, "b.json", fixture)
        proc = run_cli(a, b)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "VERDICT: ok" in proc.stdout

    def test_regression_exits_one_and_writes_verdict(self, tmp_path):
        old = doc([record(1)])
        new = copy.deepcopy(old)
        new["experiments"][0]["derived"]["counters"]["tlb_miss"] = 1234
        a = self.write(tmp_path, "a.json", old)
        b = self.write(tmp_path, "b.json", new)
        out = tmp_path / "verdict.json"
        proc = run_cli(a, b, "--json", "--out", str(out))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        assert payload["regressions"] == 1
        assert json.loads(out.read_text()) == payload
        prose = run_cli(a, b)
        assert prose.returncode == 1
        assert "derived.counters.tlb_miss  7 -> 1,234" in prose.stdout

    def test_unreadable_input_exits_two(self, tmp_path):
        a = self.write(tmp_path, "a.json", doc([record(1)]))
        broken = tmp_path / "broken.json"
        broken.write_text("not json")
        proc = run_cli(a, str(broken))
        assert proc.returncode == 2

    def test_schema_skew_exits_two(self, tmp_path):
        fixture = doc([record(1)])
        stale = copy.deepcopy(fixture)
        stale["schema_version"] = 2
        a = self.write(tmp_path, "a.json", stale)
        b = self.write(tmp_path, "b.json", fixture)
        proc = run_cli(a, b)
        assert proc.returncode == 2
        assert "schema_version" in proc.stderr
