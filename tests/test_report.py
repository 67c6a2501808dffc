"""Tests for ``repro.obs.report`` and the ``repro report`` CLI.

The dashboard's contract is byte determinism: the renderer is a pure
function of the bench doc, and the bench doc holds no host time — so
repeated invocations, cached or not, serial or parallel, must produce
identical files.  The doc is its one input: E21's record carries the
capacity curves.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

from repro.obs import report
from repro.obs.metrics import BENCH_SCHEMA


def fixture_doc():
    derived = {
        "total_cycles": 1000,
        "machines": ["604e/200"],
        "simulators": 1,
        "attribution": {
            "cycles": {"user-compute": 600, "tlb-reload": 400},
            "shares": {"user-compute": 0.6, "tlb-reload": 0.4},
            "top": "user-compute",
        },
        "counters": {"tlb_miss": 12},
        "spans": {},
        "categories": {
            "tlb-reload": {"count": 4, "total_cycles": 400, "mean": 100.0,
                           "max": 130, "p50": 90, "p90": 120, "p99": 130},
        },
        "reload": {"count": 4, "total_cycles": 400, "mean": 100.0,
                   "max": 130, "p50": 90, "p90": 120, "p99": 130},
        "timeline": {
            "samplers": 1, "samples": 3, "every_us": 500.0,
            "live": {"min": 1, "max": 5, "mean": 3.0, "final": 5},
            "zombie": {"min": 0, "max": 2, "mean": 1.0, "final": 0},
            "occupancy": {"min": 0.1, "max": 0.5, "mean": 0.3,
                          "final": 0.5},
            "series": {"us": [0.0, 500.0, 1000.0],
                       "live": [1, 3, 5], "zombie": [2, 1, 0]},
        },
        "histograms": {
            "occupancy": {"buckets": 4, "total": 6, "nonzero_fraction": 0.5,
                          "max_load": 4, "hot_spot_ratio": 2.67,
                          "top_share": 0.667, "entropy_efficiency": 0.46,
                          "bars": [0, 4, 2, 0]},
            "miss": {"buckets": 4, "total": 0, "nonzero_fraction": 0.0,
                     "max_load": 0, "hot_spot_ratio": 0.0,
                     "top_share": 0.0, "entropy_efficiency": 1.0,
                     "bars": [0, 0, 0, 0]},
        },
    }
    record = {
        "id": "E5",
        "title": "reload path comparison",
        "machines": ["604e/200"],
        "total_cycles": 1000,
        "shape_holds": True,
        "measured": {"ratio": 2.5, "unclaimed": 7},
        "claims": [
            {"name": "ratio", "source": "Table 1", "kind": "band",
             "paper": 2.4, "measured": 2.5, "gate": "> 2",
             "status": "reproduced", "reason": ""},
            {"name": "guess", "source": "§10", "kind": "conjecture",
             "paper": None, "measured": 0.7, "gate": "< 1.0",
             "status": "reproduced", "reason": ""},
        ],
        "attribution": {"user-compute": 600, "tlb-reload": 400},
        "derived": derived,
        "notes": "fixture",
    }
    return {
        "schema_version": BENCH_SCHEMA,
        "source": "test fixture",
        "experiments": [record],
        "summary": {"experiments": 1, "shapes_holding": 1,
                    "total_cycles": 1000},
    }


class TestRenderReport:
    def test_renderer_is_deterministic(self):
        doc = fixture_doc()
        assert report.render_report(doc) == report.render_report(doc)

    def test_self_contained_html(self):
        html = report.render_report(fixture_doc())
        assert html.startswith("<!DOCTYPE html>")
        assert html.endswith("</body></html>\n")
        # Inline assets only: no external references of any kind.
        assert "http" not in html
        assert "<script" not in html

    def test_sections_present(self):
        html = report.render_report(fixture_doc())
        assert 'id="E5"' in html
        assert "paper Table 1" in html
        assert "shape holds" in html
        assert "<svg" in html
        assert "<polyline" in html
        assert "reload path (Table 1)" in html
        assert "entropy efficiency" in html

    def test_empty_histogram_omitted(self):
        html = report.render_report(fixture_doc())
        # The miss histogram has total 0 and must not render a section.
        assert "miss histogram" not in html

    def test_custom_title_escaped(self):
        html = report.render_report(fixture_doc(), title="<tricks>")
        assert "<title>&lt;tricks&gt;</title>" in html

    def test_claims_render_one_row_each(self):
        html = report.render_report(fixture_doc())
        assert ("<tr><td>ratio</td><td>2.4</td><td>2.5</td>"
                "<td>reproduced</td></tr>") in html
        assert ("<tr><td>guess</td><td>&mdash;</td><td>0.7</td>"
                "<td>reproduced</td></tr>") in html
        # A measured value no claim reads gets no row of its own.
        assert "unclaimed" not in html

    def test_shape_broken_badge(self):
        doc = fixture_doc()
        doc["experiments"][0]["shape_holds"] = False
        doc["summary"]["shapes_holding"] = 0
        assert "shape broken" in report.render_report(doc)


def fixture_capacity():
    """A two-strategy, two-point capacity doc (no simulation needed)."""
    from repro.analysis.capacity import (
        CAPACITY_POINT_FIELDS,
        CAPACITY_SCHEMA,
    )

    def point(offered, p99, zombies):
        values = {
            "offered_per_s": offered,
            "throughput_per_s": min(offered, 4_000.0),
            "completed": 40,
            "latency_p50_us": p99 / 10,
            "latency_p90_us": p99 / 2,
            "latency_p99_us": p99,
            "latency_p999_us": p99 * 1.1,
            "queue_wait_p99_us": p99 / 3,
            "queue_depth_max": 4,
            "mmu_cycles_per_request": 900.0,
            "zombie_peak": zombies,
            "zombie_mean": zombies / 2,
            "zombie_queue_correlation": 0.4,
        }
        assert set(values) == set(CAPACITY_POINT_FIELDS)
        return values

    return {
        "schema": CAPACITY_SCHEMA,
        "machine": "604 185MHz",
        "n_cpus": 2,
        "requests": 40,
        "seed": 20,
        "schedule": "exponential",
        "workers_per_cpu": 3,
        "loads": [2_000, 12_000],
        "curves": [
            {"strategy": "broadcast",
             "points": [point(2_000, 300.0, 12),
                        point(12_000, 9_000.0, 150)]},
            {"strategy": "mmap_reuse",
             "points": [point(2_000, 290.0, 40),
                        point(12_000, 8_800.0, 460)]},
        ],
    }


def capacity_fixture_doc(capacity=None):
    """The fixture doc plus an E21 record carrying ``capacity``."""
    doc = fixture_doc()
    record = copy.deepcopy(doc["experiments"][0])
    record.update(
        id="E21", title="capacity curves", claims=[],
        measured={"capacity": fixture_capacity() if capacity is None
                  else capacity},
    )
    doc["experiments"].append(record)
    doc["summary"] = {"experiments": 2, "shapes_holding": 2,
                      "total_cycles": 2000}
    return doc


class TestCapacitySection:
    def test_capacity_section_rendered(self):
        html = report.render_report(capacity_fixture_doc())
        assert 'id="capacity"' in html
        assert "broadcast" in html and "mmap_reuse" in html
        assert "scheduled" in html  # the open-loop note

    def test_every_column_has_a_header(self):
        html = report.render_report(capacity_fixture_doc())
        for title in report.CAPACITY_COLUMNS.values():
            assert title in html or title.replace("↔", "&harr;") in html

    def test_every_column_is_a_recorded_point_field(self):
        from repro.analysis.capacity import CAPACITY_POINT_FIELDS

        assert set(report.CAPACITY_COLUMNS) <= set(CAPACITY_POINT_FIELDS)

    def test_capacity_report_is_deterministic(self):
        doc = capacity_fixture_doc()
        assert report.render_report(doc) == report.render_report(doc)

    def test_capacity_html_stays_self_contained(self):
        html = report.render_report(capacity_fixture_doc())
        assert "http" not in html
        assert "<script" not in html

    def test_empty_capacity_doc_renders_nothing(self):
        for doc in (fixture_doc(), capacity_fixture_doc({"curves": []})):
            assert 'id="capacity"' not in report.render_report(doc)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True,
    )


class TestReportCli:
    def test_from_doc_is_byte_deterministic(self, tmp_path):
        doc_path = tmp_path / "bench.json"
        doc_path.write_text(json.dumps(fixture_doc()))
        outs = []
        for name in ("a.html", "b.html"):
            out = tmp_path / name
            proc = run_cli("report", "--from", str(doc_path),
                           "--out", str(out))
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_invalid_doc_is_an_error(self, tmp_path):
        doc_path = tmp_path / "bench.json"
        doc_path.write_text(json.dumps({"schema_version": 2,
                                        "experiments": []}))
        proc = run_cli("report", "--from", str(doc_path),
                       "--out", str(tmp_path / "x.html"))
        assert proc.returncode != 0

    def test_capacity_report_is_byte_deterministic(self, tmp_path):
        doc_path = tmp_path / "bench.json"
        doc_path.write_text(json.dumps(capacity_fixture_doc()))
        outs = []
        for name in ("a.html", "b.html"):
            out = tmp_path / name
            proc = run_cli("report", "--from", str(doc_path),
                           "--out", str(out))
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b'id="capacity"' in outs[0]

    def test_corrupt_capacity_doc_is_an_error(self, tmp_path):
        doc = capacity_fixture_doc({"schema": 99})
        missing = capacity_fixture_doc()
        del missing["experiments"][1]["measured"]["capacity"]
        for broken in (doc, missing):
            doc_path = tmp_path / "bench.json"
            doc_path.write_text(json.dumps(broken))
            out = tmp_path / "x.html"
            proc = run_cli("report", "--from", str(doc_path),
                           "--out", str(out))
            assert proc.returncode == 2
            assert "E21 capacity" in proc.stderr
            assert not out.exists()
