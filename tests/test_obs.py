"""The MMU flight recorder (``repro.obs``).

Three properties the ISSUE pins down as acceptance criteria:

* **zero perturbation** — a traced/profiled/sampled run is bit-identical
  to a bare run in every monitor counter and in total cycles;
* **attribution completeness** — the profiler's path categories sum
  exactly to ``clock.total``, no residue;
* **determinism** — two identical runs serialize to byte-identical
  traces and records.
"""

from __future__ import annotations

import json
import re

import pytest

from repro import __main__ as cli
from repro import obs
from repro.analysis import engine, specs
from repro.check import parity
from repro.kernel.config import KernelConfig
from repro.obs import metrics
from repro.obs.events import (
    DEFAULT_MONITOR_EVENTS,
    EventRegistryError,
    EventTracer,
    TraceConfig,
    chrome_trace,
    validate_chrome_trace,
)
from repro.obs.profiler import (
    DISPLAY_ORDER,
    PATH_CATEGORIES,
    AttributionError,
    CycleProfiler,
    merge_attributions,
    render_attribution,
)
from repro.params import M603_133, M604_185
from repro.sim.simulator import Simulator


def drive(sim: Simulator, pages: int = 48) -> Simulator:
    """A small but path-rich workload: faults, reloads, idle, flushes."""
    kernel = sim.kernel
    task = kernel.spawn("obs-driver", data_pages=pages)
    kernel.switch_to(task)
    for index in range(pages):
        kernel.user_access(task, 0x10000000 + index * 4096, lines=8,
                           write=True)
    kernel.run_idle(20_000)
    kernel.flush.flush_range(task.mm, 0x10000000, 0x10000000 + pages * 4096)
    for index in range(pages):
        kernel.user_access(task, 0x10000000 + index * 4096, lines=2)
    # A hot set touched round after round: only reuse makes a lost
    # TLB entry cost a miss, so an observer that drops one shows here.
    for _round in range(20):
        for index in range(4):
            kernel.user_access(task, 0x10000000 + index * 4096, lines=8)
    return sim


def ring_names(tracer: EventTracer) -> list:
    """The ring's event names, oldest first."""
    return [tracer.kinds[code].name for code in tracer.column("code")]


class TestZeroPerturbation:
    @pytest.mark.parametrize("spec", [M604_185, M603_133],
                             ids=["604", "603"])
    def test_counters_and_cycles_identical(self, spec):
        bare = drive(Simulator(spec, KernelConfig.optimized()))
        watched = drive(Simulator(
            spec, KernelConfig.optimized(),
            trace=True, profile=True, sample_every_us=5,
        ))
        assert watched.obs is not None
        assert watched.obs.tracer.emitted > 0
        assert watched.obs.sampler.samples
        assert watched.cycles == bare.cycles
        assert watched.counters() == bare.counters()
        assert watched.breakdown() == bare.breakdown()

    def test_untraced_simulator_has_no_recorder(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        assert sim.obs is None
        assert sim.machine.tracer is None
        assert sim.machine.monitor.tracer is None
        assert sim.machine.clock.observer is None


class TestEventTracer:
    def test_ring_capacity_drops_oldest(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        tracer = EventTracer(sim.machine, config=TraceConfig(capacity=4))
        for index in range(10):
            tracer.instant("wakeup", "sched", index)
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        assert list(tracer.column("values")) == [6, 7, 8, 9]

    @pytest.mark.parametrize("capacity", [2.5, True, "8", 0, -1],
                             ids=["float", "bool", "str", "zero", "negative"])
    def test_capacity_must_be_a_positive_int(self, capacity):
        with pytest.raises(ValueError, match=re.escape(repr(capacity))):
            TraceConfig(capacity=capacity)

    def test_complete_span_backdates_start(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        tracer = EventTracer(sim.machine)
        sim.machine.clock.add(1000, "user_compute")
        now = sim.machine.clock.total
        tracer.complete("flush-page", "mmu", 400, 0x1000)
        (ts,), (dur,), (code,) = (
            tracer.column(field) for field in ("ts", "dur", "code")
        )
        ph = tracer.kinds[code].ph
        assert ph == "X"
        assert ts == now - 400
        assert dur == 400

    def test_unregistered_name_raises(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        tracer = EventTracer(sim.machine)
        tracer.instant("wakeup", "sched", 1)
        with pytest.raises(EventRegistryError, match="'mystery'"):
            tracer.instant("mystery", "kernel")
        with pytest.raises(EventRegistryError, match="'mystery'"):
            tracer.complete("mystery", "mmu", 10)
        assert ring_names(tracer) == ["wakeup"]

    def test_unmatched_wildcard_name_raises(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        tracer = EventTracer(sim.machine)
        tracer.instant("syscall:getpid", "kernel")  # a ``*`` entry
        with pytest.raises(EventRegistryError, match="'irq:7'"):
            tracer.instant("irq:7", "kernel")
        assert ring_names(tracer) == ["syscall:getpid"]

    def test_wrong_value_count_raises(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        tracer = EventTracer(sim.machine)
        tracer.instant("wakeup", "sched", 7)
        with pytest.raises(EventRegistryError,
                           match="'wakeup' passes 2 value"):
            tracer.instant("wakeup", "sched", 7, 1)
        with pytest.raises(EventRegistryError,
                           match="'flush-page' passes 0 value"):
            tracer.complete("flush-page", "mmu", 10)
        with pytest.raises(EventRegistryError,
                           match="'htab' passes 1 value"):
            tracer.counter("htab", 3)
        assert tracer.emitted == 1

    def test_default_monitor_events(self):
        assert DEFAULT_MONITOR_EVENTS == {
            "itlb_miss", "dtlb_miss", "htab_search", "htab_hit",
            "htab_miss", "htab_reload", "htab_evict",
            "hash_miss_interrupt", "sw_tlb_miss_interrupt",
            "bat_translation", "page_fault_major", "page_fault_minor",
            "flush_range_search", "flush_range_lazy", "vsid_bump",
            "zombie_reclaimed", "pages_precleared", "precleared_page_used",
            "scavenge_burst", "ipi_sent", "ipi_received",
            "shootdown_deferred", "shootdown_drained",
            "flush_skipped_reuse", "reuse_pool_hit",
        }

    def test_monitor_events_filtered(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        tracer = EventTracer(sim.machine)
        sim.machine.monitor.tracer = tracer
        sim.machine.monitor.count("vsid_bump")
        sim.machine.monitor.count("dcache_miss")  # excluded by default
        assert "dcache_miss" not in DEFAULT_MONITOR_EVENTS
        assert ring_names(tracer) == ["vsid_bump"]

    def test_chrome_export_validates(self):
        sim = drive(Simulator(M604_185, KernelConfig.optimized(),
                              trace=True, sample_every_us=10))
        doc = chrome_trace([sim.obs.tracer])
        counts = validate_chrome_trace(doc)
        assert counts["events"] > 100
        assert counts["spans"] > 0
        assert counts["instants"] > 0
        assert counts["counters"] > 0
        # Round-trips through JSON.
        assert validate_chrome_trace(json.loads(json.dumps(doc))) == counts

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "i", "ts": 0}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "ts": 0, "name": "no-dur", "pid": 0, "tid": 0}
            ]})

    def test_two_runs_byte_identical(self):
        docs = []
        for _attempt in range(2):
            sim = drive(Simulator(M604_185, KernelConfig.optimized(),
                                  trace=True, sample_every_us=10))
            docs.append(json.dumps(chrome_trace([sim.obs.tracer]),
                                   sort_keys=True))
        assert docs[0] == docs[1]


class TestCycleProfiler:
    def test_attribution_sums_exactly(self):
        sim = drive(Simulator(M604_185, KernelConfig.optimized(),
                              profile=True))
        attribution = sim.obs.profiler.attribution()
        assert sum(attribution.values()) == sim.cycles
        assert sim.cycles > 0

    def test_every_ledger_category_is_mapped(self):
        sim = drive(Simulator(M604_185, KernelConfig.optimized(),
                              profile=True))
        for raw in sim.breakdown():
            assert raw in PATH_CATEGORIES, (
                f"ledger category {raw!r} missing from PATH_CATEGORIES"
            )

    def test_unregistered_category_raises(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        profiler = CycleProfiler(sim.machine.clock)
        sim.machine.clock.add(123, "never-seen-before")
        with pytest.raises(AttributionError, match="'never-seen-before'"):
            profiler.attribution()

    def test_nothing_lands_in_other(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        profiler = CycleProfiler(sim.machine.clock)
        with pytest.raises(TypeError):
            sim.machine.clock.add(123)  # no default category
        assert "other" not in DISPLAY_ORDER
        sim.machine.clock.add(123, "other")
        with pytest.raises(AttributionError, match="'other'"):
            profiler.attribution()

    def test_merge_and_render(self):
        merged = merge_attributions([
            {"flush": 10, "idle": 5}, {"flush": 1, "other": 2},
        ])
        assert merged == {"flush": 11, "idle": 5, "other": 2}
        table = render_attribution(merged, "title")
        assert "title" in table
        assert "total" in table
        assert "18" in table  # the exact total row


class TestTimeSeriesSampler:
    def test_samples_on_boundaries(self):
        sim = drive(Simulator(M604_185, KernelConfig.optimized(),
                              sample_every_us=5))
        sampler = sim.obs.sampler
        assert sampler.samples
        cycles = sampler.series("cycle")
        assert cycles == sorted(cycles)
        # One sample per boundary crossing, never two in one interval.
        buckets = [cycle // sampler.every_cycles for cycle in cycles]
        assert len(buckets) == len(set(buckets))
        first = sampler.samples[0]
        assert set(first["htab"]) == {
            "live", "zombie", "valid", "occupancy", "hottest_bucket",
            "vsids",
        }
        assert first["htab"]["valid"] == (
            first["htab"]["live"] + first["htab"]["zombie"]
        )
        assert set(first["htab"]["vsids"]) == {"top", "rest"}

    def test_rejects_nonpositive_interval(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        with pytest.raises(ValueError):
            obs.TimeSeriesSampler(sim.kernel, 0)

    @pytest.mark.parametrize("every_us", [float("nan"), float("inf")])
    def test_rejects_non_finite_interval(self, every_us):
        sim = Simulator(M604_185, KernelConfig.optimized())
        with pytest.raises(ValueError, match="finite"):
            obs.TimeSeriesSampler(sim.kernel, every_us)


class TestGlobalObservability:
    def test_attach_and_drain(self):
        obs.enable_global_observability(profile=True)
        try:
            first = Simulator(M604_185, KernelConfig.optimized())
            second = Simulator(M603_133, KernelConfig.optimized())
            assert first.obs is not None and second.obs is not None
            drained = obs.drain_global_observed()
            assert [o.machine for o in drained] == [
                first.machine, second.machine
            ]
            assert obs.drain_global_observed() == []
        finally:
            obs.disable_global_observability()
        assert Simulator(M604_185, KernelConfig.optimized()).obs is None


class TestObservedExperiments:
    """Experiment-level parity: observed runs equal the bare run."""

    @pytest.mark.parametrize("experiment_id,params", [
        ("E2", {"units": 2}),
        ("E6", None),
        ("E7", {"rounds": 60}),
    ], ids=["E2", "E6", "E7"])
    def test_traced_run_bit_identical(self, experiment_id, params):
        """``repro run``'s recorder, ``repro trace``'s and ``repro
        check``'s sanitizer each leave every output of the bare run."""
        assert parity.compare(experiment_id, params) == {
            mode: [] for mode in parity.MODES
        }

    def test_observed_run_record(self):
        """The engine's record counts every cycle the recorder saw."""
        _result, observed = engine.observe(engine.spec_for("E1"))
        (result,) = engine.run_ids(["E1"], use_cache=False).results
        record = engine.result_record(result)
        assert record["id"] == "E1"
        assert record["total_cycles"] == sum(
            handle.machine.total_cycles_all_cpus() for handle in observed
        ) > 0
        assert record["machines"]
        assert sum(record["attribution"].values()) == record["total_cycles"]
        assert isinstance(record["shape_holds"], bool)
        json.loads(metrics.dumps(record))


class TestMetrics:
    def test_json_safe_handles_oddballs(self):
        coerced = metrics.json_safe({
            1: float("inf"),
            "t": (1, 2),
            "f": float("nan"),
            "ok": 3.5,
        })
        assert coerced["1"] == "inf"
        assert coerced["t"] == [1, 2]
        assert coerced["f"] == "nan"
        assert coerced["ok"] == 3.5
        json.dumps(coerced)

    def test_bench_aggregation(self):
        records = [
            {"id": f"E{number}", "title": f"experiment {number}",
             "machines": ["604e/200"], "total_cycles": cycles,
             "shape_holds": True, "measured": {}, "claims": [],
             "attribution": {"user-compute": cycles},
             "derived": {"total_cycles": cycles}}
            for number, cycles in ((1, 7), (2, 100), (10, 50))
        ]
        doc = metrics.bench_doc(records)
        assert metrics.validate_bench_doc(doc)["experiments"] == 3
        assert doc["schema_version"] == metrics.BENCH_SCHEMA
        assert doc["source"] == "python -m repro run --bench-out"
        assert "timings" not in doc
        assert doc["summary"] == {"experiments": 3, "shapes_holding": 3,
                                  "total_cycles": 157}


class TestSortedIds:
    def test_numeric_order(self):
        ids = specs.sorted_ids()
        assert ids[0] == "E1"
        assert ids == sorted(ids, key=lambda i: int(i[1:]))
        assert set(ids) == set(specs.SPECS)


class TestCli:
    def test_profile_breakdown_sums_to_total(self, capsys):
        assert cli.main(["profile", "e1"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out
        rows = [line for line in out.splitlines()
                if line.startswith("  ") and "category" not in line]
        parsed = [int(row.split()[1].replace(",", "")) for row in rows]
        # Last row is the total; the others are the categories.
        assert sum(parsed[:-1]) == parsed[-1] > 0

    def test_smp_profile_and_record_count_every_cpu(self, capsys):
        _result, observed = engine.observe(engine.spec_for("E17"))
        every_cpu = sum(handle.machine.total_cycles_all_cpus()
                        for handle in observed)
        # The current CPU's ledger alone would under-count this run.
        assert every_cpu > sum(handle.machine.clock.total
                               for handle in observed)
        assert cli.main(["profile", "E17"]) == 0
        total_row = capsys.readouterr().out.splitlines()[-2]
        assert total_row.split()[:2] == ["total", f"{every_cpu:,}"]
        assert cli.main(["run", "E17", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["total_cycles"] == every_cpu
        assert record["derived"]["total_cycles"] == every_cpu
        assert sum(record["attribution"].values()) == every_cpu

    def test_run_json(self, capsys):
        assert cli.main(["run", "e1", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["id"] == "E1"
        assert record["total_cycles"] > 0
        assert sum(record["attribution"].values()) == record["total_cycles"]

    @pytest.mark.parametrize("experiment_id", ["E1", "E17"])
    def test_run_json_prints_the_bench_record(self, experiment_id, tmp_path,
                                              capsys):
        out = tmp_path / "bench.json"
        assert cli.main(["run", experiment_id, "--json", "--no-cache"]) == 0
        printed = capsys.readouterr().out
        assert cli.main(["run", experiment_id, "--no-cache",
                         "--bench-out", str(out)]) == 0
        capsys.readouterr()
        (record,) = json.loads(out.read_text())["experiments"]
        assert printed == metrics.dumps(record)

    def test_run_json_lists_several_and_writes_bench_out(self, tmp_path,
                                                         capsys):
        out = tmp_path / "bench.json"
        assert cli.main(["run", "E1", "E12", "--json",
                         "--bench-out", str(out)]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [record["id"] for record in records] == ["E1", "E12"]
        assert json.loads(out.read_text())["experiments"] == records

    def test_check_rejects_every_id_before_running(self, capsys):
        assert cli.main(["check", "E1", "E99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'E99'" in captured.err

    def test_check_json(self, capsys):
        assert cli.main(["check", "e1", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["ok"] is True
        assert record["experiments"][0]["id"] == "E1"
        assert "seconds" not in record["experiments"][0]

    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "e1.trace.json"
        assert cli.main(["trace", "e1", "--out", str(out),
                         "--sample-us", "50"]) == 0
        doc = json.loads(out.read_text())
        counts = validate_chrome_trace(doc)
        assert counts["events"] > 0
        for event in doc["traceEvents"]:
            assert {"ph", "ts", "name"} <= set(event)
        assert doc["otherData"]["experiment"] == "E1"

    @pytest.mark.parametrize("argv", [
        ["trace", "E1"], ["diff", "E7", "--variant", "a,b"],
    ], ids=["trace", "diff-variant"])
    def test_sample_us_default_is_the_trace_mode_cadence(self, argv,
                                                         monkeypatch):
        """The registry comparison's ``trace`` mode samples at the
        cadence ``repro trace`` and ``diff --variant`` default to."""
        parsed = []
        for command in ("_cmd_trace", "_cmd_diff"):
            monkeypatch.setattr(cli, command, parsed.append)
        cli.main(argv)
        (args,) = parsed
        assert args.sample_us == parity.MODES["trace"]["sample_every_us"]

    def test_trace_unknown_experiment(self, capsys):
        assert cli.main(["trace", "e99", "--out", "/dev/null"]) == 2

    def test_profile_unknown_experiment(self, capsys):
        assert cli.main(["profile", "e99"]) == 2


@pytest.mark.slow
class TestCliAcceptance:
    """The ISSUE's literal acceptance commands (heavier experiments)."""

    def test_trace_e7(self, tmp_path):
        out = tmp_path / "e7.trace.json"
        assert cli.main(["trace", "E7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        counts = validate_chrome_trace(doc)
        assert counts["spans"] > 0 and counts["instants"] > 0

    def test_profile_e6(self, capsys):
        assert cli.main(["profile", "E6"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if line.startswith("  ") and "category" not in line]
        parsed = [int(row.split()[1].replace(",", "")) for row in rows]
        assert sum(parsed[:-1]) == parsed[-1] > 0
