"""Open-loop request-serving workload — the server-scale scenario.

The paper's lazy-flush/VSID-bump/zombie-reclaim tradeoffs (§7) only
bite when many short-lived mm contexts churn VSIDs and zombie entries
saturate the hash table.  This workload builds that pressure: a
deterministic seeded arrival schedule (exponential / uniform / burst
interarrival) drives a service graph of worker tasks over the SMP
executive, and every request's life-cycle is timed open-loop.

Open-loop means the latency clock for request *i* starts at its
*scheduled* arrival time, computed before the run from the seed alone —
never at the moment the saturated system got around to issuing it.
Closed-loop generators silently stretch their schedule when the system
falls behind (coordinated omission) and report fantasy tails; here a
late dispatcher runs straight through past deadlines and the queueing
delay lands in the percentiles where it belongs.

Topology: each CPU hosts one dispatcher task and a small pool of
persistent worker tasks, all pinned (task placement is fixed at spawn).
The dispatcher sleeps to each arrival deadline and appends the request
to its CPU's queue; workers pull requests and run the per-request
recipe — ``exec`` a fresh image (a VSID bump under the lazy kernel:
one short-lived mm context per request), map and touch a scratch
region, compute, unmap.  Keeping every task of a CPU's ecosystem on
that CPU means all of a request's timestamps are read off one cycle
ledger, so latencies are coherent even though SMP clocks drift.

All timing state lives in plain Python records mutated identically on
traced and untraced runs; tracer publication is guarded and read-only,
so the zero-perturbation contract holds for service runs too.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.analytics import (
    SLO_PERMILLES,
    pearson,
    percentile_permille,
    permille_label,
)
from repro.params import PAGE_SIZE
from repro.sim.simulator import Simulator

#: Interarrival schedule kinds the generator knows how to draw.
SCHEDULE_KINDS = ("exponential", "uniform", "burst")

#: Bookkeeping cycles the server runtime charges per request dispatch
#: (queue pop, context hand-off) — the ``service`` ledger category.
DISPATCH_BOOKKEEPING_CYCLES = 180

#: Bookkeeping cycles charged when a request is accepted onto a queue.
ARRIVAL_BOOKKEEPING_CYCLES = 60

#: How long an idle worker sleeps before re-polling its queue.
WORKER_POLL_CYCLES = 2_000

#: Raw ledger categories that make up a request's MMU bill.
_MMU_RAW_CATEGORIES = ("tlb_reload", "scavenge", "flush", "shootdown")

#: Base EA of a task's data segment (same convention the other
#: workloads use).  Each request touches its image's data pages —
#: session state that stays mapped until the *next* request's exec
#: retires the VSID, so every strategy accrues zombie entries under
#: the lazy kernel, not just the ones that skip the munmap flush.
_DATA_BASE = 0x10000000


def arrival_gaps(
    kind: str, rng: random.Random, count: int, mean_gap: float
) -> List[int]:
    """``count`` interarrival gaps in cycles, averaging ``mean_gap``.

    Deterministic given the RNG state; every kind targets the same mean
    so offered load is comparable across schedule shapes.  ``burst``
    alternates tight trains of arrivals with long silences (the same
    mean, a much nastier tail).
    """
    if kind not in SCHEDULE_KINDS:
        raise ValueError(
            f"unknown schedule kind {kind!r}; expected one of "
            f"{SCHEDULE_KINDS}"
        )
    gaps: List[int] = []
    if kind == "exponential":
        for _ in range(count):
            gaps.append(max(1, int(rng.expovariate(1.0 / mean_gap))))
    elif kind == "uniform":
        for _ in range(count):
            gaps.append(max(1, int(rng.uniform(0.5 * mean_gap,
                                               1.5 * mean_gap))))
    else:  # burst
        burst_len = 4
        # A train of near-back-to-back arrivals, then one long gap that
        # restores the mean: gap pattern (g/8, g/8, g/8, g*(4 - 3/8)).
        short = max(1, int(mean_gap / 8))
        long_gap = max(1, int(mean_gap * burst_len - short * (burst_len - 1)))
        for index in range(count):
            if index % burst_len == burst_len - 1:
                jitter = rng.uniform(0.9, 1.1)
                gaps.append(max(1, int(long_gap * jitter)))
            else:
                gaps.append(short)
    return gaps


def arrival_schedule(
    kind: str, seed: int, count: int, mean_gap: float, n_cpus: int
) -> List[List[int]]:
    """Per-CPU lists of *relative* arrival cycles for ``count`` requests.

    One global seeded stream is drawn first and dealt round-robin to
    CPUs, so the same (kind, seed, count, mean_gap) always produces the
    same schedule regardless of how the run is executed — the byte-
    identity the determinism tests pin down.
    """
    rng = random.Random(seed)
    gaps = arrival_gaps(kind, rng, count, mean_gap)
    deadlines: List[int] = []
    now = 0
    for gap in gaps:
        now += gap
        deadlines.append(now)
    per_cpu: List[List[int]] = [[] for _ in range(n_cpus)]
    for index, deadline in enumerate(deadlines):
        per_cpu[index % n_cpus].append(deadline)
    return per_cpu


class RequestRecord:
    """One request's life-cycle timestamps, all on its home-CPU clock."""

    __slots__ = (
        "rid", "cpu", "scheduled", "arrived", "dispatched", "completed",
        "mmu_cycles",
    )

    def __init__(self, rid: int, cpu: int, scheduled: int) -> None:
        self.rid = rid
        self.cpu = cpu
        self.scheduled = scheduled
        self.arrived = 0
        self.dispatched = 0
        self.completed = 0
        self.mmu_cycles = 0

    @property
    def latency(self) -> int:
        """Open-loop latency: completion minus *scheduled* arrival."""
        return self.completed - self.scheduled

    @property
    def queue_wait(self) -> int:
        return self.dispatched - self.arrived

    @property
    def service_cycles(self) -> int:
        return self.completed - self.dispatched


class ServiceRun:
    """One open-loop service run over a booted simulator.

    Construct, :meth:`install` the dispatcher/worker tasks, ``sim.run()``,
    then read :meth:`summary`.
    """

    def __init__(
        self,
        sim: Simulator,
        requests: int,
        mean_gap: float,
        schedule: str = "exponential",
        seed: int = 20,
        workers_per_cpu: int = 3,
        region_pages: int = 4,
        touch_lines: int = 8,
        compute_cycles: int = 6_000,
    ) -> None:
        self.sim = sim
        self.requests = requests
        self.mean_gap = mean_gap
        self.schedule = schedule
        self.seed = seed
        self.workers_per_cpu = workers_per_cpu
        self.region_pages = region_pages
        self.touch_lines = touch_lines
        self.compute_cycles = compute_cycles
        n_cpus = sim.machine.n_cpus
        self.schedules = arrival_schedule(
            schedule, seed, requests, mean_gap, n_cpus
        )
        #: Per-CPU FIFO of pending RequestRecords (plain lists keep the
        #: measurement path free of set iteration).
        self.pending: List[List[RequestRecord]] = [[] for _ in range(n_cpus)]
        self.arrivals_done: List[bool] = [False] * n_cpus
        self.records: List[RequestRecord] = []
        #: Per-CPU (cycle, depth) samples taken at every arrival and
        #: dispatch — the queue-depth timeline.
        self.depth_samples: List[List[Tuple[int, int]]] = [
            [] for _ in range(n_cpus)
        ]
        #: (queue depth, zombie entries) pairs snapshotted at every
        #: arrival — end-of-run stats miss the pressure entirely (the
        #: final idle window reclaims the backlog), so the zombie
        #: trajectory is sampled while the load is on.
        self.pressure_samples: List[Tuple[int, int]] = []

    # -- task bodies ---------------------------------------------------------

    def _dispatcher_body(self) -> Callable:
        run = self
        kernel = self.sim.kernel

        def gen(task):
            cpu = task.cpu
            machine = kernel.machine
            base = machine.clock.total
            deadlines = run.schedules[cpu]
            rid_base = cpu * run.requests  # per-CPU rid namespace
            for index, deadline in enumerate(deadlines):
                scheduled = base + deadline
                yield ("sleep_until", scheduled)
                record = RequestRecord(rid_base + index, cpu, scheduled)
                record.arrived = machine.clock.total
                queue = run.pending[cpu]
                queue.append(record)
                machine.clock.add(ARRIVAL_BOOKKEEPING_CYCLES, "service")
                run.depth_samples[cpu].append(
                    (machine.clock.total, len(queue))
                )
                _live, zombie = kernel.htab_zombie_stats()
                run.pressure_samples.append((len(queue), zombie))
                tracer = machine.tracer
                if tracer is not None:
                    tracer.instant(
                        "req-arrival", "service",
                        record.rid, scheduled, len(queue),
                    )
                    tracer.counter("queue-depth", len(queue))
            run.arrivals_done[cpu] = True
            yield ("exit", 0)

        return gen

    def _worker_body(self) -> Callable:
        run = self
        kernel = self.sim.kernel

        def gen(task):
            cpu = task.cpu
            machine = kernel.machine
            clock = machine.clock
            region_bytes = run.region_pages * PAGE_SIZE
            while True:
                queue = run.pending[cpu]
                if not queue:
                    if run.arrivals_done[cpu]:
                        break
                    yield ("sleep", WORKER_POLL_CYCLES)
                    continue
                record = queue.pop(0)
                clock.add(DISPATCH_BOOKKEEPING_CYCLES, "service")
                record.dispatched = clock.total
                run.depth_samples[cpu].append((clock.total, len(queue)))
                tracer = machine.tracer
                if tracer is not None:
                    tracer.instant(
                        "req-dispatch", "service",
                        record.rid, record.queue_wait,
                    )
                    tracer.complete(
                        "req-queue", "service", record.queue_wait,
                        record.rid,
                    )
                mmu_before = _mmu_cycles(clock.breakdown())
                # The request recipe: a fresh mm context (exec bumps the
                # VSIDs under the lazy kernel — one short-lived context
                # per request), a mapped scratch region touched and torn
                # down (flush/shootdown pressure), and some app compute.
                yield ("exec", "svc-req",
                       {"text_pages": 4, "data_pages": 2, "stack_pages": 2})
                # Session state in the fresh image's data segment: these
                # entries outlive the request and zombify at the next
                # exec's VSID bump.
                for page in range(2):
                    yield ("touch", _DATA_BASE + page * PAGE_SIZE,
                           run.touch_lines, True)
                addr = yield ("mmap", region_bytes, None, None)
                for page in range(run.region_pages):
                    yield ("touch", addr + page * PAGE_SIZE,
                           run.touch_lines, True)
                yield ("compute", run.compute_cycles)
                yield ("munmap", addr, region_bytes)
                record.completed = clock.total
                record.mmu_cycles = (
                    _mmu_cycles(clock.breakdown()) - mmu_before
                )
                run.records.append(record)
                tracer = machine.tracer
                if tracer is not None:
                    tracer.complete(
                        "req-run", "service", record.service_cycles,
                        record.rid, record.mmu_cycles,
                    )
                    tracer.instant(
                        "req-complete", "service",
                        record.rid, record.latency,
                    )
            yield ("exit", 0)

        return gen

    # -- orchestration -------------------------------------------------------

    def install(self) -> None:
        """Spawn one dispatcher and the worker pool per CPU.

        Spawn placement is strict round-robin, so each batch of
        ``n_cpus`` consecutive spawns lands exactly one task per CPU;
        bodies read ``task.cpu`` to find their queue.
        """
        n_cpus = self.sim.machine.n_cpus
        for index in range(n_cpus):
            self.sim.executive.spawn(
                f"svc-dispatch{index}", self._dispatcher_body(),
                text_pages=4, data_pages=2, stack_pages=2,
            )
        for _round in range(self.workers_per_cpu):
            for index in range(n_cpus):
                self.sim.executive.spawn(
                    f"svc-worker{_round}.{index}", self._worker_body(),
                    text_pages=4, data_pages=2, stack_pages=2,
                )

    def run(self, **kwargs) -> None:
        self.install()
        self.sim.run(**kwargs)

    # -- measurement ---------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """The SLO block: open-loop latency quantiles, throughput,
        queue depth, per-request MMU attribution and zombie pressure."""
        sim = self.sim
        records = self.records
        latencies = sorted(record.latency for record in records)
        waits = sorted(record.queue_wait for record in records)
        services = sorted(record.service_cycles for record in records)
        to_us = sim.spec.cycles_to_us
        slo: Dict[str, object] = {}
        for permille in SLO_PERMILLES:
            label = permille_label(permille)
            slo[f"latency_{label}_us"] = round(
                to_us(percentile_permille(latencies, permille)), 3
            )
        slo["queue_wait_p99_us"] = round(
            to_us(percentile_permille(waits, 990)), 3
        )
        slo["service_p50_us"] = round(
            to_us(percentile_permille(services, 500)), 3
        )
        # Throughput over the span from first scheduled arrival to the
        # last completion, per CPU timeline, aggregated conservatively
        # on the busiest CPU's elapsed time.
        elapsed = 0
        for cpu in range(sim.machine.n_cpus):
            cpu_records = [r for r in records if r.cpu == cpu]
            if not cpu_records:
                continue
            start = min(r.scheduled for r in cpu_records)
            end = max(r.completed for r in cpu_records)
            elapsed = max(elapsed, end - start)
        throughput = 0.0
        if elapsed:
            throughput = len(records) / (to_us(elapsed) / 1e6)
        depths = [depth for samples in self.depth_samples
                  for _cycle, depth in samples]
        live, zombie = sim.kernel.htab_zombie_stats()
        zombies = [z for _depth, z in self.pressure_samples]
        arrival_depths = [depth for depth, _z in self.pressure_samples]
        mmu_total = sum(record.mmu_cycles for record in records)
        offered = 0.0
        if self.mean_gap:
            offered = (
                sim.spec.clock_mhz * 1e6 / self.mean_gap
            )
        return {
            "requests": self.requests,
            "completed": len(records),
            "offered_per_s": round(offered, 3),
            "throughput_per_s": round(throughput, 3),
            "slo": slo,
            "queue_depth_max": max(depths) if depths else 0,
            "queue_depth_mean": (
                round(sum(depths) / len(depths), 6) if depths else 0.0
            ),
            "mmu_cycles_total": mmu_total,
            "mmu_cycles_per_request": (
                round(mmu_total / len(records), 3) if records else 0.0
            ),
            "htab_live": live,
            "htab_zombie": zombie,
            "zombie_share": round(
                zombie / (live + zombie), 6
            ) if live + zombie else 0.0,
            "zombie_peak": max(zombies) if zombies else 0,
            "zombie_mean": (
                round(sum(zombies) / len(zombies), 6) if zombies else 0.0
            ),
            "zombie_queue_correlation": round(
                pearson(arrival_depths, zombies), 6
            ),
        }

    def latencies_us(self) -> List[float]:
        """Per-request open-loop latencies in µs, rid order."""
        to_us = self.sim.spec.cycles_to_us
        ordered = sorted(self.records, key=lambda record: record.rid)
        return [round(to_us(record.latency), 3) for record in ordered]

    def queue_depth_timeline(self, points: int = 48) -> List[int]:
        """A merged, downsampled queue-depth series (depth per sample)."""
        merged: List[Tuple[int, int]] = []
        for samples in self.depth_samples:
            merged.extend(samples)
        merged.sort(key=lambda pair: pair[0])
        depths = [depth for _cycle, depth in merged]
        if len(depths) <= points:
            return depths
        last = len(depths) - 1
        return [
            depths[round(index * last / (points - 1))]
            for index in range(points)
        ]


def _mmu_cycles(breakdown: Dict[str, int]) -> int:
    """The MMU bill in a ledger breakdown: reload + flush + shootdown."""
    total = 0
    for raw in _MMU_RAW_CATEGORIES:
        total += breakdown.get(raw, 0)
    return total


def service_run(
    sim: Simulator,
    requests: int,
    offered_per_s: float,
    schedule: str = "exponential",
    seed: int = 20,
    workers_per_cpu: int = 3,
    max_dispatches: Optional[int] = None,
) -> ServiceRun:
    """Boot-to-summary convenience: run an open-loop load and return it.

    ``offered_per_s`` is the offered arrival rate in requests per
    simulated second; the mean interarrival gap follows from the
    machine's clock rate.
    """
    mean_gap = sim.spec.clock_mhz * 1e6 / offered_per_s
    run = ServiceRun(
        sim, requests, mean_gap, schedule=schedule, seed=seed,
        workers_per_cpu=workers_per_cpu,
    )
    kwargs = {}
    if max_dispatches is not None:
        kwargs["max_dispatches"] = max_dispatches
    run.run(**kwargs)
    return run
