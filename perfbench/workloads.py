"""The benchmark's three workloads: seeded inputs, drivers and outcomes.

Every workload runs in four steps, so the runner can time the
simulation alone:

* ``generate(seed)`` draws every input from the seed (not timed);
* ``boot(inputs)`` builds a fresh :class:`Simulator` (``new_simulator``,
  the set-up ``setup_s`` times) and installs the driver's tasks on it
  (``install``).  Caches and TLBs start empty;
* ``execute(state)`` runs the simulation (the timed phase);
* ``outcome(state)`` reads the simulated results and checks them.

The drivers are built from the executive's public actions, so their
inputs come only from ``generate``.  Library workloads that draw their
own seeds (``kernel_compile``) are not called.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import KernelConfig, M604_185, obs
from repro.kernel.config import ShootdownStrategy
from repro.kernel.kernel import USER_DATA_BASE, USER_MMAP_BASE, USER_TEXT_BASE
from repro.obs import analytics
from repro.obs.analytics import percentile_permille
from repro.obs.profiler import PATH_CATEGORIES
from repro.params import LINES_PER_PAGE, PAGE_SIZE
from repro.sim.simulator import Simulator
from repro.sim.trace import PageVisit, WorkingSetTrace
from repro.workloads.kbuild import CACHE_RESIDENT, CC1_TEXT_PAGES
from repro.workloads.service import ServiceRun, arrival_gaps

#: Raw ledger categories reported as ``cycles.<category>``; any other
#: category a run charges is folded into ``cycles.other``.
LEDGER_CATEGORIES: Tuple[str, ...] = tuple(PATH_CATEGORIES) + ("other",)

@dataclass
class Outcome:
    """What one pass of a workload produced, already checked."""

    #: Operations attempted and failed in this pass.
    attempted: int
    failed: int
    #: Simulated cycles summed over every CPU.
    sim_cycles: int
    #: Simulated latency of each operation, in µs.
    latencies_us: List[float]
    #: Hash of cycles, per-CPU ledgers, monitor totals and latencies.
    digest: str
    #: Simulated per-layer counters, by ``BENCHMARK.json`` metric name.
    counters: Dict[str, float]
    #: Broken invariants; empty when the pass is correct.
    problems: List[str] = field(default_factory=list)


def _sorted_p99(values: Sequence[int]) -> int:
    return percentile_permille(sorted(values), 990)


def simulated_outcome(
    sim: Simulator,
    latencies: Sequence[int],
    expected_ops: int,
    failed_ops: int,
    problems: List[str],
    extra: Dict[str, float],
) -> Outcome:
    """Check the ledgers, hash the simulated results, read the counters.

    ``latencies`` are per-operation simulated cycles; ``failed_ops`` and
    ``problems`` come from the workload's own checks.  A ledger that
    does not sum to its total fails every operation of the pass.
    """
    machine = sim.machine
    ledgers = [cpu.clock.breakdown() for cpu in machine.cpus]
    sim_cycles = sim.total_cycles
    ledger_problems = [
        f"cpu{index} ledger does not sum to its total"
        for index, (cpu, ledger) in enumerate(zip(machine.cpus, ledgers))
        if sum(ledger.values()) != cpu.clock.total
    ]
    if sum(cpu.clock.total for cpu in machine.cpus) != sim_cycles:
        ledger_problems.append("per-CPU totals do not sum to sim_cycles")
    if ledger_problems:
        problems.extend(ledger_problems)
        failed_ops = expected_ops
    monitor = machine.monitor_totals()
    digest = hashlib.sha256(json.dumps(
        {"cycles": sim_cycles, "ledgers": ledgers, "monitor": monitor,
         "latencies": list(latencies)},
        sort_keys=True,
    ).encode()).hexdigest()
    to_us = sim.spec.cycles_to_us
    counters: Dict[str, float] = {
        "hw.tlb.misses": monitor.get("itlb_miss", 0)
        + monitor.get("dtlb_miss", 0),
        "hw.hashtable.searches": monitor.get("htab_search", 0),
        "hw.hashtable.hit_ratio": _ratio(monitor, "htab_hit", "htab_search"),
        "hw.hashtable.reloads": monitor.get("htab_reload", 0),
        "hw.hashtable.evict_ratio": _ratio(monitor, "htab_evict",
                                           "htab_reload"),
        "hw.cache.misses": monitor.get("icache_miss", 0)
        + monitor.get("dcache_miss", 0),
        "kernel.idle.zombies_reclaimed": monitor.get("zombie_reclaimed", 0),
        "kernel.palloc.precleared": monitor.get("pages_precleared", 0),
        "kernel.palloc.precleared_used_ratio": _ratio(
            monitor, "precleared_page_used", "pages_precleared"),
        "kernel.shootdown.ipis": monitor.get("ipi_sent", 0),
        "kernel.shootdown.deferred": monitor.get("shootdown_deferred", 0),
        "kernel.shootdown.drained": monitor.get("shootdown_drained", 0),
        "kernel.flush.skipped_reuse": monitor.get("flush_skipped_reuse", 0),
        "kernel.vsid.zombie_peak": extra.get("zombie_peak", 0),
        "sim.dispatches": sim.executive.dispatches,
        "sim.arrival_lag_p99_us": to_us(extra.get("arrival_lag_p99", 0)),
        "sim.queue_wait_p99_us": to_us(extra.get("queue_wait_p99", 0)),
    }
    for category in LEDGER_CATEGORIES:
        counters[f"cycles.{category}"] = 0
    for ledger in ledgers:
        for category, cycles in ledger.items():
            if category not in PATH_CATEGORIES:
                category = "other"
            counters[f"cycles.{category}"] += cycles
    return Outcome(
        attempted=expected_ops,
        failed=min(failed_ops, expected_ops),
        sim_cycles=sim_cycles,
        latencies_us=[to_us(cycles) for cycles in latencies],
        digest=digest,
        counters=counters,
        problems=problems,
    )


def _ratio(monitor: Dict[str, int], part: str, base: str) -> float:
    denominator = monitor.get(base, 0)
    return monitor.get(part, 0) / denominator if denominator else 0.0


def _visit_rows(visits: Sequence[PageVisit]) -> List[list]:
    return [[v.ea, v.lines, v.write, v.kind.name, v.first_line]
            for v in visits]


class Workload:
    """One named workload; subclasses fill in the four steps."""

    name = ""
    #: What one operation is (for the human-readable report).
    operation = ""
    #: Layers this workload is chosen to stress: each must record
    #: ``calls > 0`` in a traced run.
    stressed: Tuple[str, ...] = ()

    def generate(self, seed: int):
        raise NotImplementedError

    def serialize(self, inputs) -> bytes:
        """Canonical bytes of generated inputs (for determinism tests)."""
        raise NotImplementedError

    def operations(self, inputs) -> int:
        """Operations one pass attempts."""
        raise NotImplementedError

    def new_simulator(self) -> Simulator:
        """Boot the workload's machine (this is the timed set-up)."""
        return Simulator(M604_185, KernelConfig.optimized())

    def boot(self, inputs):
        """A fresh simulator with the driver installed on it."""
        return self.install(self.new_simulator(), inputs)

    def install(self, sim: Simulator, inputs):
        raise NotImplementedError

    def execute(self, state) -> None:
        state.sim.run()

    def outcome(self, state) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# kbuild — the §4 kernel compile, CACHE_RESIDENT profile
# ---------------------------------------------------------------------------

#: Translation units per compile.
KBUILD_UNITS = 12
KBUILD_PROFILE = CACHE_RESIDENT
#: Pages of object file each unit emits after growing its heap.
KBUILD_EMIT_PAGES = 6
_SOURCE_BUFFER = USER_DATA_BASE
_HEAP_BASE = USER_DATA_BASE + 2 * PAGE_SIZE


@dataclass
class KbuildInputs:
    #: Per unit, per compile phase: the working-set visits.
    units: List[List[List[PageVisit]]]
    #: The visits that write each unit's object file.
    emit: List[PageVisit]


@dataclass
class KbuildState:
    sim: Simulator
    inputs: KbuildInputs
    exit_codes: List[int] = field(default_factory=list)
    zombie_peak: int = 0


class Kbuild(Workload):
    name = "kbuild"
    operation = "compile unit"
    stressed = ("sim", "kernel", "kernel.idle", "kernel.palloc",
                "kernel.flush", "hw.machine", "hw.tlb", "hw.cache")

    def generate(self, seed: int) -> KbuildInputs:
        rng = random.Random(seed)
        profile = KBUILD_PROFILE
        per_phase = max(profile.visits // profile.phases, 1)
        units = []
        for _unit in range(KBUILD_UNITS):
            trace = WorkingSetTrace(
                code_base=USER_TEXT_BASE,
                code_pages=min(24, CC1_TEXT_PAGES),
                data_base=_HEAP_BASE,
                data_pages=profile.data_pages,
                hot_fraction=profile.hot_fraction,
                write_fraction=0.35,
                drift=0.02,
                lines_per_visit=profile.lines_per_visit,
                seed=rng.getrandbits(64),
            )
            units.append([trace.visit_list(per_phase)
                          for _phase in range(profile.phases)])
        emit_base = USER_DATA_BASE + (profile.data_pages + 8) * PAGE_SIZE
        emit = [
            PageVisit(ea=emit_base + page * PAGE_SIZE, lines=LINES_PER_PAGE,
                      write=True)
            for page in range(KBUILD_EMIT_PAGES)
        ]
        return KbuildInputs(units=units, emit=emit)

    def serialize(self, inputs: KbuildInputs) -> bytes:
        return json.dumps({
            "units": [[_visit_rows(phase) for phase in unit]
                      for unit in inputs.units],
            "emit": _visit_rows(inputs.emit),
        }).encode()

    def operations(self, inputs: KbuildInputs) -> int:
        return len(inputs.units)

    def install(self, sim: Simulator, inputs: KbuildInputs) -> KbuildState:
        kernel = sim.kernel
        profile = KBUILD_PROFILE
        for unit in range(len(inputs.units)):
            kernel.fs.create(f"src{unit}.c", profile.source_bytes)
        kernel.create_image("bin:cc1", CC1_TEXT_PAGES)
        state = KbuildState(sim=sim, inputs=inputs)

        def cc1(unit: int, phases: List[List[PageVisit]]):
            yield ("exec", "cc1", {
                "text_pages": CC1_TEXT_PAGES,
                "data_pages": profile.data_pages + 8,
                "stack_pages": 8,
            })
            # Source reads (cold: a disk wait, so an idle window)
            # interleaved with compute phases, as cpp/cc1 pipelines do.
            for phase, visits in enumerate(phases):
                offset = phase * PAGE_SIZE
                if offset < profile.source_bytes:
                    yield ("read_file", f"src{unit}.c", offset, PAGE_SIZE,
                           _SOURCE_BUFFER)
                yield ("work", visits)
            yield ("brk", KBUILD_EMIT_PAGES)
            yield ("work", inputs.emit)
            yield ("exit", 0)

        def make(_task):
            for unit, phases in enumerate(inputs.units):
                yield ("mark", "unit_start")
                child = yield ("fork", lambda task, unit=unit, phases=phases:
                               cc1(unit, phases))
                code = yield ("waitpid", child)
                yield ("mark", "unit_end")
                state.exit_codes.append(code)
                state.zombie_peak = max(state.zombie_peak,
                                        kernel.htab_zombie_stats()[1])

        sim.executive.spawn("make", make, text_pages=12, data_pages=12)
        return state

    def outcome(self, state: KbuildState) -> Outcome:
        sim = state.sim
        expected = len(state.inputs.units)
        latencies = sim.executive.mark_deltas("unit_start", "unit_end")
        problems = []
        failed = expected - len(latencies)
        failed += sum(1 for code in state.exit_codes if code != 0)
        if failed:
            problems.append(f"{failed} compile units failed or never ended")
        return simulated_outcome(
            sim, latencies, expected, failed, problems,
            {"zombie_peak": state.zombie_peak},
        )


# ---------------------------------------------------------------------------
# tlb-storm — 16 processes walking one shared file, one line per page
# ---------------------------------------------------------------------------

STORM_WORKERS = 16
#: 16 mappings of 360 pages = 5,760 translations: 45x the 604's
#: 128-entry data TLB, yet about a third of the 16,384-slot hash table.
STORM_FILE_PAGES = 360
#: A round visits a quarter of the mapping, then yields the CPU; the
#: other workers' rounds evict its entries from the TLB meanwhile.
STORM_SLICES = 4
#: Rounds per worker: 16 x 63 = 1,008 rounds, so the p99 round has ten
#: slower ones beyond it.
STORM_ROUNDS = 63
STORM_FILE = "storm.dat"
STORM_BASE = USER_MMAP_BASE


@dataclass
class StormInputs:
    #: Per worker, per slice: one visit per file page of the slice, in a
    #: seeded order with a seeded line within each page.
    workers: List[List[List[PageVisit]]]


@dataclass
class StormState:
    sim: Simulator
    inputs: StormInputs
    round_cycles: List[int] = field(default_factory=list)
    zombie_peak: int = 0


class TlbStorm(Workload):
    name = "tlb-storm"
    operation = "worker round"
    stressed = ("sim", "hw.machine", "hw.tlb", "hw.walker", "hw.hashtable",
                "hw.cache")

    def generate(self, seed: int) -> StormInputs:
        rng = random.Random(seed)
        workers = []
        for _worker in range(STORM_WORKERS):
            pages = list(range(STORM_FILE_PAGES))
            rng.shuffle(pages)
            visits = [
                PageVisit(ea=STORM_BASE + page * PAGE_SIZE, lines=1,
                          first_line=rng.randrange(LINES_PER_PAGE))
                for page in pages
            ]
            size = STORM_FILE_PAGES // STORM_SLICES
            workers.append([visits[start:start + size]
                            for start in range(0, STORM_FILE_PAGES, size)])
        return StormInputs(workers=workers)

    def serialize(self, inputs: StormInputs) -> bytes:
        return json.dumps([[_visit_rows(s) for s in slices]
                           for slices in inputs.workers]).encode()

    def operations(self, inputs: StormInputs) -> int:
        return len(inputs.workers) * STORM_ROUNDS

    def install(self, sim: Simulator, inputs: StormInputs) -> StormState:
        kernel = sim.kernel
        kernel.fs.create(STORM_FILE, STORM_FILE_PAGES * PAGE_SIZE)
        kernel.fs.prefault(STORM_FILE)
        state = StormState(sim=sim, inputs=inputs)

        def worker(slices: List[List[PageVisit]]):
            yield ("mmap", STORM_FILE_PAGES * PAGE_SIZE, STORM_FILE,
                   STORM_BASE)
            for round_index in range(STORM_ROUNDS):
                cycles = yield ("work", slices[round_index % len(slices)])
                state.round_cycles.append(cycles)
                yield ("yield",)
            state.zombie_peak = max(state.zombie_peak,
                                    kernel.htab_zombie_stats()[1])
            yield ("exit", 0)

        for index, slices in enumerate(inputs.workers):
            sim.executive.spawn(
                f"storm{index}",
                lambda task, slices=slices: worker(slices),
                text_pages=4, data_pages=2, stack_pages=2,
            )
        return state

    def outcome(self, state: StormState) -> Outcome:
        expected = len(state.inputs.workers) * STORM_ROUNDS
        failed = expected - len(state.round_cycles)
        problems = [f"{failed} worker rounds never ran"] if failed else []
        return simulated_outcome(
            state.sim, state.round_cycles, expected, failed, problems,
            {"zombie_peak": state.zombie_peak},
        )


# ---------------------------------------------------------------------------
# service — the open-loop request server on 4 CPUs
# ---------------------------------------------------------------------------

SERVICE_CPUS = 4
#: 1,000 requests: the p99 request has ten slower ones beyond it.
SERVICE_REQUESTS = 1000
#: Offered load in requests per simulated second: below the 4-CPU knee
#: (about 7.2k/s), so requests queue but the backlog does not grow.
SERVICE_RATE = 6000
SERVICE_CONFIG = KernelConfig.optimized().with_changes(
    shootdown_strategy=ShootdownStrategy.MMAP_REUSE
)


@dataclass
class ServiceInputs:
    mean_gap: float
    #: Per-CPU relative arrival cycles, dealt round-robin.
    schedules: List[List[int]]


def fixed_span_schedule(seed: int, requests: int, mean_gap: float,
                        n_cpus: int) -> List[List[int]]:
    """Exponential arrivals rescaled to span exactly ``requests`` gaps.

    This is a Poisson stream conditioned on its length.  An unscaled
    stream's span varies about 3% between seeds, and the idle time that
    fills it moves ``sim_cycles`` by as much; with the span fixed, every
    seed offers exactly the nominal rate and varies only the pattern.
    Dealt to CPUs as ``repro.workloads.service.arrival_schedule`` does.
    """
    gaps = arrival_gaps("exponential", random.Random(seed), requests,
                        mean_gap)
    scale = requests * mean_gap / sum(gaps)
    per_cpu: List[List[int]] = [[] for _ in range(n_cpus)]
    now = 0.0
    for index, gap in enumerate(gaps):
        now += gap * scale
        per_cpu[index % n_cpus].append(max(1, int(now)))
    return per_cpu


@dataclass
class ServiceState:
    sim: Simulator
    run: ServiceRun
    observed: list
    summary: Optional[dict] = None
    derived: Optional[dict] = None


class Service(Workload):
    name = "service"
    operation = "request"
    stressed = ("sim", "kernel", "kernel.fault", "kernel.reload",
                "kernel.flush", "kernel.shootdown", "kernel.idle",
                "kernel.palloc", "hw.hashtable", "obs", "workloads")

    def generate(self, seed: int) -> ServiceInputs:
        mean_gap = M604_185.clock_mhz * 1e6 / SERVICE_RATE
        return ServiceInputs(
            mean_gap=mean_gap,
            schedules=fixed_span_schedule(seed, SERVICE_REQUESTS, mean_gap,
                                          SERVICE_CPUS),
        )

    def serialize(self, inputs: ServiceInputs) -> bytes:
        return json.dumps([inputs.mean_gap, inputs.schedules]).encode()

    def new_simulator(self) -> Simulator:
        # The flight recorder configuration ``repro run`` derives under.
        obs.enable_global_observability(
            trace=True,
            profile=True,
            sample_every_us=analytics.DERIVE_SAMPLE_US,
            trace_config=obs.TraceConfig(monitor_events=frozenset()),
        )
        try:
            return Simulator(M604_185, SERVICE_CONFIG, n_cpus=SERVICE_CPUS)
        finally:
            obs.disable_global_observability()

    def operations(self, inputs: ServiceInputs) -> int:
        return sum(len(schedule) for schedule in inputs.schedules)

    def install(self, sim: Simulator, inputs: ServiceInputs) -> ServiceState:
        # Built with no requests so the schedule is not drawn again from
        # the seed; the pre-generated schedule is handed over instead.
        run = ServiceRun(sim, 0, inputs.mean_gap)
        run.requests = self.operations(inputs)
        run.schedules = [list(s) for s in inputs.schedules]
        run.install()
        return ServiceState(sim=sim, run=run, observed=[sim.obs])

    def execute(self, state: ServiceState) -> None:
        state.sim.run()
        state.summary = state.run.summary()
        state.derived = analytics.derive(state.observed)

    def outcome(self, state: ServiceState) -> Outcome:
        run = state.run
        expected = run.requests
        records = sorted(run.records, key=lambda record: record.rid)
        problems = []
        failed = expected - len(records)
        if failed:
            problems.append(f"{failed} requests never completed")
        misordered = [
            r.rid for r in records
            if not r.scheduled <= r.arrived <= r.dispatched <= r.completed
        ]
        if misordered:
            failed += len(misordered)
            problems.append(f"requests with misordered timestamps: "
                            f"{misordered[:5]}")
        if state.derived is None or state.summary is None:
            failed = expected
            problems.append("summary or derive did not run")
        elif state.summary["completed"] != len(records):
            problems.append("summary disagrees with the request records")
        return simulated_outcome(
            state.sim,
            [r.latency for r in records],
            expected,
            failed,
            problems,
            {
                "zombie_peak": state.summary["zombie_peak"]
                if state.summary else 0,
                "arrival_lag_p99": _sorted_p99(
                    [r.arrived - r.scheduled for r in records]),
                "queue_wait_p99": _sorted_p99(
                    [r.queue_wait for r in records]),
            },
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (Kbuild(), TlbStorm(), Service())
}
