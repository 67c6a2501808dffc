"""Flamegraph export tests (``obs/flame.py``).

Two layers: synthetic rings (exact span trees, hand-checkable
weights) and real traced runs (exports validate, are deterministic,
and perturb nothing).
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro import __main__ as cli
from repro.kernel.config import KernelConfig
from repro.obs import flame
from repro.obs.events import EventTracer, arg_keys
from repro.params import M604_185
from repro.sim.simulator import Simulator

from tests.test_obs import drive


def publish_at(tracer, cycle, tid):
    """Point the tracer's stub clock and current task at ``cycle``/``tid``."""
    tracer.machine.clock.total = cycle
    tracer.kernel.current_task = SimpleNamespace(pid=tid)
    return tracer


def span_ring(spans, label="fake"):
    """A ring holding exactly ``spans`` ((name, category, start, end,
    tid) each, in that completion order), published over a stub
    machine whose clock the test sets, with a ``None`` for each value
    the span registers."""
    machine = SimpleNamespace(clock=SimpleNamespace(total=0), spec=M604_185)
    tracer = EventTracer(machine, kernel=SimpleNamespace(current_task=None),
                         label=label)
    for name, category, start, end, tid in spans:
        publish_at(tracer, end, tid).complete(
            name, category, end - start, *(None,) * len(arg_keys(name))
        )
    return tracer


NESTED = [
    ("hw-walk", "mmu", 10, 30, 1),
    ("req-run", "service", 0, 100, 1),
    ("page-fault", "fault", 40, 90, 1),
    ("flush-page", "flush", 45, 50, 1),
]


class TestSpanForest:
    def test_containment_nests(self):
        forest = flame.span_forest(span_ring(NESTED))
        (root,) = forest[1]
        assert root.name == "req-run"
        assert [child.name for child in root.children] == \
            ["hw-walk", "page-fault"]
        (leaf,) = root.children[1].children
        assert leaf.name == "flush-page"
        assert root.self_cycles == 100 - 20 - 50
        assert root.children[1].self_cycles == 50 - 5

    def test_partial_overlap_becomes_sibling(self):
        forest = flame.span_forest(span_ring([
            ("flush-mm", "flush", 0, 100, 1),
            ("flush-range", "flush", 50, 150, 1),
        ]))
        assert [span.name for span in forest[1]] == ["flush-mm", "flush-range"]
        assert all(not span.children for span in forest[1])

    def test_lanes_are_independent(self):
        forest = flame.span_forest(span_ring([
            ("flush-mm", "flush", 0, 100, 1),
            ("flush-range", "flush", 10, 20, 2),
        ]))
        assert [span.name for span in forest[1]] == ["flush-mm"]
        assert [span.name for span in forest[2]] == ["flush-range"]

    def test_non_span_events_ignored(self):
        tracer = span_ring([("flush-mm", "flush", 0, 10, 1)])
        publish_at(tracer, 5, 1).on_monitor_event("vsid_bump")
        forest = flame.span_forest(tracer)
        assert [span.name for span in forest[1]] == ["flush-mm"]


class TestFolded:
    def test_weights_are_self_cycles(self):
        lines = flame.folded([span_ring(NESTED)])
        assert lines == [
            "fake/task1;req-run [service] 30",
            "fake/task1;req-run [service];hw-walk [tlb-reload] 20",
            "fake/task1;req-run [service];page-fault [fault] 45",
            "fake/task1;req-run [service];page-fault [fault];"
            "flush-page [flush] 5",
        ]

    def test_identical_stacks_merge(self):
        lines = flame.folded([span_ring([
            ("flush-mm", "flush", 0, 10, 1),
            ("flush-mm", "flush", 20, 35, 1),
        ])])
        assert lines == ["fake/task1;flush-mm [flush] 25"]

    def test_span_category_tags_frames(self):
        (line,) = flame.folded([span_ring([("sw-refill", "mmu", 0, 7, 1)])])
        assert line == "fake/task1;sw-refill [tlb-reload] 7"


class TestSpeedscope:
    def test_document_balances(self):
        doc = flame.speedscope([span_ring(NESTED)], name="unit")
        counts = flame.validate_speedscope(doc)
        assert counts == {"frames": 4, "profiles": 1, "events": 8}
        assert doc["name"] == "unit"
        (profile,) = doc["profiles"]
        assert profile["name"] == "fake/task1"
        assert profile["startValue"] == 0
        assert profile["endValue"] == 100

    def test_overlapping_siblings_stay_monotonic(self):
        doc = flame.speedscope([span_ring([
            ("flush-mm", "flush", 0, 100, 1),
            ("flush-range", "flush", 90, 150, 1),
        ])])
        counts = flame.validate_speedscope(doc)
        assert counts["events"] == 4

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError, match="profiles"):
            flame.validate_speedscope({})
        good = flame.speedscope([span_ring(NESTED)])
        unbalanced = json.loads(json.dumps(good))
        unbalanced["profiles"][0]["events"].pop()
        with pytest.raises(ValueError, match="left open"):
            flame.validate_speedscope(unbalanced)
        backwards = json.loads(json.dumps(good))
        backwards["profiles"][0]["events"][-1]["at"] = -1
        with pytest.raises(ValueError, match="backwards"):
            flame.validate_speedscope(backwards)
        stray = json.loads(json.dumps(good))
        stray["profiles"][0]["events"][0]["frame"] = 99
        with pytest.raises(ValueError, match="out of range"):
            flame.validate_speedscope(stray)


class TestCriticalPath:
    def test_follows_heaviest_chain(self):
        path = flame.critical_path([span_ring(NESTED)])
        assert [record["name"] for record in path] == \
            ["req-run", "page-fault", "flush-page"]
        assert path[0]["share_of_parent"] == 1.0
        assert path[1]["share_of_parent"] == 0.5
        assert path[1]["self_cycles"] == 45

    def test_empty_forest(self):
        assert flame.critical_path([span_ring([])]) == []
        assert "no spans" in flame.render_critical_path([])

    def test_render_mentions_every_level(self):
        text = flame.render_critical_path(
            flame.critical_path([span_ring(NESTED)])
        )
        for name in ("req-run", "page-fault", "flush-page"):
            assert name in text


def traced_sim():
    return drive(Simulator(M604_185, KernelConfig.optimized(), trace=True))


class TestRealRuns:
    def test_folded_matches_span_tree(self):
        tracer = traced_sim().obs.tracer
        lines = flame.folded([tracer])
        assert lines
        exported = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        positive_self = sum(
            max(span.self_cycles, 0)
            for roots in flame.span_forest(tracer).values()
            for root in roots
            for span in _walk(root)
        )
        assert exported == positive_self > 0

    def test_exports_are_deterministic(self):
        first = traced_sim().obs.tracer
        second = traced_sim().obs.tracer
        assert flame.folded([first]) == flame.folded([second])
        assert flame.speedscope([first]) == flame.speedscope([second])

    def test_speedscope_validates_and_roundtrips(self):
        doc = flame.speedscope([traced_sim().obs.tracer])
        counts = flame.validate_speedscope(doc)
        assert counts["events"] > 0
        assert flame.validate_speedscope(json.loads(json.dumps(doc))) \
            == counts

    def test_tracing_and_export_perturb_nothing(self):
        bare = drive(Simulator(M604_185, KernelConfig.optimized()))
        traced = traced_sim()
        flame.folded([traced.obs.tracer])
        flame.speedscope([traced.obs.tracer])
        assert traced.cycles == bare.cycles
        assert traced.counters() == bare.counters()
        assert traced.breakdown() == bare.breakdown()


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


class TestCli:
    def test_trace_writes_flame_exports(self, tmp_path, capsys):
        folded_path = tmp_path / "e1.folded"
        speedscope_path = tmp_path / "e1.speedscope.json"
        assert cli.main([
            "trace", "e1",
            "--out", str(tmp_path / "e1.trace.json"),
            "--folded", str(folded_path),
            "--speedscope", str(speedscope_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        lines = folded_path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert ";" in stack and int(weight) > 0
        doc = json.loads(speedscope_path.read_text())
        assert flame.validate_speedscope(doc)["events"] > 0

    def test_trace_exports_are_byte_identical(self, tmp_path, capsys):
        paths = []
        for tag in ("one", "two"):
            folded_path = tmp_path / f"{tag}.folded"
            assert cli.main([
                "trace", "e1", "--out", str(tmp_path / f"{tag}.trace.json"),
                "--folded", str(folded_path),
            ]) == 0
            paths.append(folded_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
