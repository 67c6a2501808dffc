"""The open-loop service workload: arrivals, SLO, capacity, parity.

Covers the request-level telemetry subsystem end to end:

* the seeded arrival generator is deterministic and mean-preserving
  across schedule kinds;
* a service run completes its offered schedule, keeps coherent
  open-loop timestamps, and reproduces byte-identically from the seed;
* the ``sleep_until`` executive action runs straight through past
  deadlines (the open-loop contract);
* the capacity sweep document validates, renders deterministically,
  and rejects malformed ladders;
* an E20 run under the flight recorder is bit-identical to an
  untraced one (zero perturbation at service scale);
* the sampler's per-VSID occupancy detail stays bounded however many
  thousand contexts a run churns.
"""

import random

import pytest

from repro.analysis import engine, specs
from repro.analysis.capacity import (
    CAPACITY_POINT_FIELDS,
    capacity_sweep,
    knee_load,
    render_capacity,
    validate_capacity_doc,
)
from repro.hw.hashtable import HashedPageTable
from repro.hw.pte import HashPte
from repro.kernel.config import KernelConfig, ShootdownStrategy
from repro.obs.sampler import VSID_TOP_K
from repro.params import M604_185
from repro.sim.simulator import Simulator
from repro.workloads.service import (
    SCHEDULE_KINDS,
    arrival_gaps,
    arrival_schedule,
    service_run,
)


class TestArrivalGenerator:
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_deterministic_from_seed(self, kind):
        first = arrival_schedule(kind, 20, 200, 1000.0, 2)
        second = arrival_schedule(kind, 20, 200, 1000.0, 2)
        assert first == second

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_mean_gap_respected(self, kind):
        gaps = arrival_gaps(kind, random.Random(7), 4000, 1000.0)
        mean = sum(gaps) / len(gaps)
        assert 0.8 * 1000.0 < mean < 1.2 * 1000.0

    def test_seed_changes_schedule(self):
        assert arrival_schedule("exponential", 1, 50, 1000.0, 2) != \
            arrival_schedule("exponential", 2, 50, 1000.0, 2)

    def test_round_robin_deal(self):
        per_cpu = arrival_schedule("uniform", 3, 10, 500.0, 4)
        assert [len(cpu) for cpu in per_cpu] == [3, 3, 2, 2]
        # Deadlines are cumulative, so each CPU's list ascends.
        for deadlines in per_cpu:
            assert deadlines == sorted(deadlines)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            arrival_gaps("poissonish", random.Random(0), 4, 100.0)

    def test_burst_alternates_trains_and_silences(self):
        gaps = arrival_gaps("burst", random.Random(5), 16, 800.0)
        short = gaps[0]
        # Three tight arrivals, then a long restorative silence.
        assert gaps[1] == short and gaps[2] == short
        assert gaps[3] > 4 * short


def _boot_service():
    return Simulator(
        M604_185,
        KernelConfig.optimized().with_changes(
            shootdown_strategy=ShootdownStrategy.MMAP_REUSE
        ),
        n_cpus=2,
    )


class TestServiceRun:
    def test_offered_schedule_fully_served(self):
        run = service_run(_boot_service(), 40, 6_000, seed=20)
        summary = run.summary()
        assert summary["completed"] == summary["requests"] == 40
        for record in run.records:
            # Open-loop invariant: arrival never precedes its schedule,
            # and the life-cycle timestamps are ordered on one clock.
            assert record.arrived >= record.scheduled
            assert record.scheduled <= record.arrived <= record.dispatched
            assert record.dispatched <= record.completed
            assert record.latency >= record.queue_wait

    def test_summary_has_capacity_fields(self):
        summary = service_run(_boot_service(), 20, 4_000, seed=20).summary()
        flat = dict(summary)
        flat.update(summary["slo"])
        for field in CAPACITY_POINT_FIELDS:
            assert field in flat

    def test_run_is_deterministic(self):
        first = service_run(_boot_service(), 30, 6_000, seed=20)
        second = service_run(_boot_service(), 30, 6_000, seed=20)
        assert first.summary() == second.summary()
        assert first.latencies_us() == second.latencies_us()
        assert first.queue_depth_timeline() == second.queue_depth_timeline()

    def test_zombies_accrue_under_exec_churn(self):
        run = service_run(_boot_service(), 40, 6_000, seed=20)
        summary = run.summary()
        assert summary["zombie_peak"] > 0
        assert summary["mmu_cycles_total"] > 0

    def test_burst_schedule_has_worse_tail(self):
        smooth = service_run(
            _boot_service(), 40, 4_000, schedule="uniform", seed=20
        ).summary()
        bursty = service_run(
            _boot_service(), 40, 4_000, schedule="burst", seed=20
        ).summary()
        assert bursty["slo"]["latency_p99_us"] > \
            smooth["slo"]["latency_p99_us"]


class TestSleepUntil:
    def test_past_deadline_runs_through(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        trail = []

        def gen(task):
            clock = sim.machine.clock
            yield ("compute", 5_000)
            # A deadline already behind the clock must not block.
            yield ("sleep_until", 100)
            trail.append(clock.total)
            yield ("sleep_until", clock.total + 10_000)
            trail.append(clock.total)
            yield ("exit", 0)

        sim.executive.spawn("deadline", gen)
        sim.run()
        assert len(trail) == 2
        # The future deadline actually slept; the past one did not.
        assert trail[1] >= trail[0] + 10_000


class TestCapacitySweep:
    @pytest.fixture(scope="class")
    def doc(self):
        return capacity_sweep(
            loads=(2_000, 12_000), requests=24, seed=20
        )

    def test_validates_and_counts(self, doc):
        assert validate_capacity_doc(doc) == {"curves": 2, "points": 4}

    def test_points_carry_all_fields(self, doc):
        for curve in doc["curves"]:
            for point in curve["points"]:
                assert set(point) == set(CAPACITY_POINT_FIELDS)

    def test_render_is_deterministic(self, doc):
        text = render_capacity(doc)
        assert text == render_capacity(doc)
        assert "p99 knee" in text
        for curve in doc["curves"]:
            assert curve["strategy"] in text

    def test_sweep_is_deterministic(self, doc):
        again = capacity_sweep(loads=(2_000, 12_000), requests=24, seed=20)
        assert again == doc

    def test_knee_detected_past_saturation(self, doc):
        for curve in doc["curves"]:
            assert knee_load(curve) == 12_000

    def test_non_monotone_ladder_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            capacity_sweep(loads=(6_000, 2_000), requests=8)
        with pytest.raises(ValueError, match="distinct"):
            capacity_sweep(loads=(2_000, 2_000), requests=8)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="'carrier-pigeon' is not a valid"):
            capacity_sweep(strategies=("carrier-pigeon",), requests=8)

    def test_validation_rejects_mutations(self, doc):
        import copy

        broken = copy.deepcopy(doc)
        del broken["curves"][0]["points"][0]["zombie_peak"]
        with pytest.raises(ValueError, match="zombie_peak"):
            validate_capacity_doc(broken)
        reladdered = copy.deepcopy(doc)
        reladdered["loads"] = list(reversed(reladdered["loads"]))
        with pytest.raises(ValueError, match="monotone"):
            validate_capacity_doc(reladdered)
        wrong_schema = copy.deepcopy(doc)
        wrong_schema["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            validate_capacity_doc(wrong_schema)
        # Wrong types fail as ValueError too, never as a crash.
        for key, value, message in (
            ("loads", [2_000, "12000"], "ladder of numbers"),
            ("curves", ["broadcast"], "malformed curve"),
            ("curves", [{"strategy": "broadcast", "points": [5, 6]}],
             "not an object"),
        ):
            mistyped = copy.deepcopy(doc)
            mistyped[key] = value
            with pytest.raises(ValueError, match=message):
                validate_capacity_doc(mistyped)


class TestServiceParity:
    def test_e20_traced_bit_identical(self):
        spec = specs.SPECS["E20"]
        bare, handles = engine.observe(spec)
        baseline = [
            (o.machine.spec.name, o.machine.clock.total, o.counters())
            for o in handles
        ]
        traced, handles = engine.observe(spec, trace=True,
                                         sample_every_us=500)
        watched = [
            (o.machine.spec.name, o.machine.clock.total, o.counters())
            for o in handles
        ]
        assert bare.measured == traced.measured
        assert baseline == watched

    def test_e20_byte_identical_across_jobs(self):
        from repro.obs import metrics

        serial = engine.run_ids(["E20"], jobs=1, use_cache=False)
        fanned = engine.run_ids(["E20"], jobs=2, use_cache=False)
        assert metrics.dumps(
            [engine.result_record(r) for r in serial.results]
        ) == metrics.dumps(
            [engine.result_record(r) for r in fanned.results]
        )

    def test_e20_cache_round_trip_identical(self, tmp_path):
        from repro.analysis.cache import ResultCache
        from repro.obs import metrics

        cache = ResultCache(root=tmp_path)
        cold, hit_cold = engine.run_cached(
            specs.SPECS["E20"], cache=cache
        )
        warm, hit_warm = engine.run_cached(
            specs.SPECS["E20"], cache=cache
        )
        assert (hit_cold, hit_warm) == (False, True)
        assert metrics.dumps(engine.result_record(cold)) == \
            metrics.dumps(engine.result_record(warm))


class TestSamplerScale:
    def test_top_vsid_loads_bounded_at_thousands_of_vsids(self):
        htab = HashedPageTable()
        # Scattered page indices: a structured vsid ^ page pattern can
        # collapse onto a few buckets and evict, distorting populations.
        rng = random.Random(42)
        for vsid in range(1_200):
            htab.insert(
                HashPte(vsid=vsid, page_index=rng.randrange(1 << 16),
                        rpn=1)
            )
        # Give a few VSIDs extra weight so the top-K pick is exercised.
        for vsid in range(4):
            for page in range(1, 5):
                htab.insert(
                    HashPte(vsid=vsid, page_index=page, rpn=1)
                )
        assert htab.evicts == 0
        detail = htab.top_vsid_loads(8, lambda vsid: vsid % 2 == 0)
        assert len(detail["top"]) == 8
        # The heavy VSIDs rank first, count-descending.
        counts = [entry["entries"] for entry in detail["top"]]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 5
        # The remainder is one aggregate bucket, not a per-VSID map,
        # and the fold conserves the table's population exactly.
        assert detail["rest"]["vsids"] >= 1_000
        live, zombie = htab.live_and_zombie_counts(
            lambda vsid: vsid % 2 == 0
        )
        assert sum(counts) + detail["rest"]["entries"] == live + zombie
        assert detail["rest"]["zombie_entries"] <= detail["rest"]["entries"]

    def test_top_vsid_tie_break_is_deterministic(self):
        htab = HashedPageTable()
        for vsid in (9, 3, 7, 1):
            htab.insert(HashPte(vsid=vsid, page_index=vsid, rpn=1))
        detail = htab.top_vsid_loads(2, lambda vsid: True)
        assert [entry["vsid"] for entry in detail["top"]] == [1, 3]

    def test_sampled_service_run_keeps_ticks_bounded(self):
        sim = Simulator(
            M604_185,
            KernelConfig.optimized().with_changes(
                shootdown_strategy=ShootdownStrategy.MMAP_REUSE
            ),
            n_cpus=2,
            sample_every_us=200,
        )
        service_run(sim, 30, 6_000, seed=20)
        samples = sim.obs.sampler.samples
        assert samples, "sampler never ticked"
        for sample in samples:
            vsids = sample["htab"]["vsids"]
            assert len(vsids["top"]) <= VSID_TOP_K
            assert set(vsids["rest"]) == {
                "vsids", "entries", "zombie_entries"
            }
