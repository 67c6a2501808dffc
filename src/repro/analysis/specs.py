"""The declarative experiment registry (DESIGN.md's E1..E21).

Each entry in :data:`SPECS` is an :class:`ExperimentSpec` — the
machine/config matrix one paper result needs, the workload that
measures it, and the table of paper claims checked over the measured
numbers.  The engine (:mod:`repro.analysis.engine`) executes them all
through one path for every consumer (the CLI, ``repro check``, the obs
session).

Shape checks, not absolute checks: the substrate is a simulator, so a
claim's *gate* is "the paper's qualitative claim is true of the
measured numbers" (who wins, roughly by how much, where the crossover
sits), and its status says how close the magnitude came.  Claims read
only the measured dict, by key, so a cached (JSON round-tripped,
key-sorted) result reproduces the same verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.spec import (
    BAND,
    CONJECTURE,
    DIRECTION,
    EXACT,
    Claim,
    ConfigVariant,
    ExperimentSpec,
    KeyPath,
    Measurement,
    experiment_sort_key,
    lookup,
)
from repro.hw.addr import EA_MASK, decompose_ea, make_virtual_address
from repro.hw.hashtable import primary_hash, secondary_hash
from repro.kernel.config import (
    IdlePageClearPolicy,
    KernelConfig,
    ShootdownStrategy,
    VsidPolicy,
)
from repro.params import (
    HTAB_PTE_SLOTS,
    M603_133,
    M603_180,
    M604_133,
    M604_185,
    M604_200,
    MachineSpec,
    PAGE_SIZE,
    SEGMENT_SHIFT,
    VSID_MASK,
)
from repro.oscompare.runner import PAPER_TABLE3, run_table3
from repro.analysis.capacity import (
    DEFAULT_LOADS,
    DEFAULT_STRATEGIES,
    capacity_sweep,
    knee_load,
)
from repro.perf.histogram import occupancy_histogram
from repro.sim.simulator import Simulator
from repro.sim.trace import WorkingSetTrace
from repro.workloads.service import service_run
from repro.workloads.kbuild import CACHE_RESIDENT, kernel_compile
from repro.workloads.lmbench import (
    LmbenchResult,
    context_switch,
    lmbench_suite,
    mmap_latency,
    pipe_latency,
)
from repro.workloads.mixes import multiprogram_mix


# ---------------------------------------------------------------------------
# Claim helpers
# ---------------------------------------------------------------------------


def _ratio(numerator: KeyPath, denominator: KeyPath):
    """A claim measure: one measured value over another, each by key."""
    return lambda m: lookup(m, numerator) / lookup(m, denominator)  # type: ignore[operator]


def _difference(minuend: KeyPath, subtrahend: KeyPath):
    """A claim measure: one measured value minus another, each by key.

    Exact for orderings: ``a - b > 0`` exactly when ``a > b``.
    """
    return lambda m: lookup(m, minuend) - lookup(m, subtrahend)  # type: ignore[operator]


def _row(label: str, key: str) -> Tuple[str, str, str]:
    """The key path of one variant row's value (``measured["rows"]``)."""
    return ("rows", label, key)


@dataclass(frozen=True)
class _PaperTable:
    """A paper table's cells and where the workload measured them."""

    cells: Mapping[str, Mapping[str, float]]
    #: Table column -> the measured key holding it.
    columns: Dict[str, str]
    source: str
    #: Key path to the measured rows (``measured[*path][row][key]``).
    path: Tuple[str, ...] = ()

    def ratio(self, name: str, row: str, base: str, column: str, gate: str,
              kind: str = BAND) -> Claim:
        """``row`` over ``base`` on one column, measured and in the paper."""
        key = self.columns[column]
        return Claim(
            name, self.cells[row][column] / self.cells[base][column], kind,
            gate, ratio=True,
            measure=_ratio((*self.path, row, key), (*self.path, base, key)),
        )

    def cell_claims(self) -> Tuple[Claim, ...]:
        """One band claim per cell the workload measured."""
        reason = (
            f"a {self.source} cell: compared, not gated (one fixed "
            "calibration serves every cell; the gated claims are the "
            "table's headline)"
        )
        return tuple(
            Claim(f"{row} {column}", cells[column], BAND, reason=reason,
                  measure=(*self.path, row, key))
            for row, cells in self.cells.items()
            for column, key in self.columns.items()
        )


# ---------------------------------------------------------------------------
# E1 — Figure 1: the translation datapath
# ---------------------------------------------------------------------------


def _measure_e1(
    spec: ExperimentSpec, ea: int = 0x30012ABC, vsid: int = 0x123456
) -> Measurement:
    """Figure 1: decompose one EA through the architected datapath."""
    variant = spec.variants[0]
    fields = decompose_ea(ea)
    va = make_virtual_address(vsid, ea)
    h1 = primary_hash(vsid, fields.page_index)
    h2 = secondary_hash(vsid, fields.page_index)
    sim = Simulator(variant.machine, variant.config)
    task = sim.kernel.spawn("fig1", data_pages=8)
    sim.kernel.switch_to(task)
    result = sim.machine.translate(0x10000000)
    lines = [
        "Figure 1 — PowerPC hash-table translation",
        f"  EA        0x{ea:08x}",
        f"  SR#       {fields.segment} (4 bits)",
        f"  page idx  0x{fields.page_index:04x} (16 bits)",
        f"  offset    0x{fields.offset:03x} (12 bits)",
        f"  VSID      0x{vsid:06x} (24 bits)",
        f"  VA        0x{va.value:013x} (52 bits)",
        f"  hash1     0x{h1:05x}   hash2 0x{h2:05x}",
        f"  live translation path: {result.path}, PA 0x{result.pa:08x}",
    ]
    measured = {
        "segment": fields.segment,
        "page_index": fields.page_index,
        "offset": fields.offset,
        "va_bits": va.value.bit_length(),
        "va_width": make_virtual_address(VSID_MASK, EA_MASK).value.bit_length(),
        "live_path": result.path,
        "ea": ea,
        "hash1": h1,
        "hash2": h2,
    }
    return Measurement(measured, lines)


#: Why an architected width is compared but not gated.
_ARCHITECTED = (
    "an architected field width: equal by construction, so not gated"
)

_E1_CLAIMS = (
    Claim("va_width", 52, EXACT, reason=_ARCHITECTED),
    Claim("segment_bits", 4, EXACT, reason=_ARCHITECTED,
          measure=lambda m: decompose_ea(EA_MASK).segment.bit_length()),
    Claim("page_index_bits", 16, EXACT, reason=_ARCHITECTED,
          measure=lambda m: decompose_ea(EA_MASK).page_index.bit_length()),
    Claim("example_va_fits", None, DIRECTION, "<= 52", measure="va_bits"),
    # For the default EA 0x30012ABC, the SR# is 3.
    Claim("sr_is_top_ea_bits", None, DIRECTION, "== true",
          measure=lambda m: m["segment"] == m["ea"] >> SEGMENT_SHIFT),  # type: ignore[operator]
    Claim("hash2_is_ones_complement", None, DIRECTION, "== true",
          measure=lambda m: m["hash2"] == (~m["hash1"]) & ((1 << 19) - 1)),  # type: ignore[operator]
)


# ---------------------------------------------------------------------------
# E2 — §5.1: BAT-mapping the kernel
# ---------------------------------------------------------------------------


def _measure_e2(spec: ExperimentSpec, units: int = 6) -> Measurement:
    """§5.1: kernel BAT map vs PTE-mapped kernel on the compile."""
    no_bat, with_bat = spec.variants
    base = kernel_compile(
        Simulator(no_bat.machine, no_bat.config), units=units,
        label=no_bat.label,
    )
    bat = kernel_compile(
        Simulator(with_bat.machine, with_bat.config), units=units,
        label=with_bat.label,
    )
    tlb_ratio = bat.tlb_misses / max(base.tlb_misses, 1)
    htab_ratio = bat.htab_misses / max(base.htab_misses, 1)
    wall_ratio = bat.wall_ms / base.wall_ms
    lines = [
        "E2 — §5.1 BAT-mapping the kernel (kernel compile)",
        f"  TLB misses      {base.tlb_misses} -> {bat.tlb_misses}"
        f"  (ratio {tlb_ratio:.2f}; paper 219M -> 197M = 0.90)",
        f"  htab misses     {base.htab_misses} -> {bat.htab_misses}"
        f"  (ratio {htab_ratio:.2f}; paper 1M -> 813k = 0.81)",
        f"  kernel TLB slots (high water) {base.kernel_tlb_entries_high_water}"
        f" -> {bat.kernel_tlb_entries_high_water} (paper: ~1/3 of TLB -> <=4)",
        f"  wall            {base.wall_ms:.1f} -> {bat.wall_ms:.1f} ms"
        f"  (ratio {wall_ratio:.2f}; paper 10min -> 8min = 0.80)",
        f"  [trace scale 1/{base.trace_scale}: full-compile equivalents "
        f"{base.full_scale_tlb_misses / 1e6:.0f}M -> "
        f"{bat.full_scale_tlb_misses / 1e6:.0f}M TLB misses, "
        f"{base.full_scale_wall_minutes:.1f} -> "
        f"{bat.full_scale_wall_minutes:.1f} min]",
    ]
    measured = {
        "tlb_ratio": tlb_ratio,
        "htab_ratio": htab_ratio,
        "kernel_tlb_slots_after": bat.kernel_tlb_entries_high_water,
        "wall_ratio": wall_ratio,
    }
    return Measurement(measured, lines)


_E2_CLAIMS = (
    Claim("tlb_ratio", 0.90, BAND, "0.65 <= x <= 0.99", ratio=True),
    Claim("htab_ratio", 0.81, BAND, "<= 1.0", ratio=True),
    Claim("kernel_tlb_slots_after", 4, DIRECTION, "<= 4"),
    Claim("wall_ratio", 0.80, BAND, "<= 1.02", ratio=True, reason=(
        "the scaled compile is cache-bound where the 1999 system was "
        "reload-bound (219M misses, about one per 500 cycles), so removing "
        "kernel TLB misses moves wall time by 0-2%, not 20%; the miss "
        "reductions and the footprint collapse (the mechanism) reproduce"
    )),
)


# ---------------------------------------------------------------------------
# E3 — §5.2: VSID scatter and hash-table occupancy
# ---------------------------------------------------------------------------


def _fill_htab(sim: Simulator, processes: int, pages: int) -> None:
    """Fault ``pages`` pages in each of ``processes`` address spaces.

    Most of each address space is a *shared* library mapping — the same
    physical frames mapped by every process under its own VSIDs, which
    is how a 32 MB machine generates far more PTEs than it has frames
    (each mapping needs its own hash-table entry).
    """
    kernel = sim.kernel
    anon_pages = max(pages // 6, 1)
    shared_pages = pages - anon_pages
    kernel.fs.create("shlib.so", shared_pages * PAGE_SIZE, wired=True)
    kernel.fs.prefault("shlib.so")
    for index in range(processes):
        task = kernel.spawn(
            f"fill{index}", text_pages=8, data_pages=anon_pages + 2
        )
        kernel.scheduler.enqueue(task)
        kernel.switch_to(task)
        for page in range(anon_pages):
            kernel.user_access(task, 0x10000000 + page * PAGE_SIZE, 1, True)
        lib = kernel.sys_mmap(
            task, shared_pages * PAGE_SIZE, file="shlib.so", writable=False
        )
        for page in range(shared_pages):
            kernel.user_access(task, lib + page * PAGE_SIZE, 1, False)


def _measure_e3(
    spec: ExperimentSpec, processes: int = 40, pages_per_process: int = 500
) -> Measurement:
    """§5.2: hash occupancy for power-of-two vs scattered VSIDs vs BAT."""
    rows = []
    occupancies = {}
    for variant in spec.variants:
        sim = Simulator(variant.machine, variant.config)
        _fill_htab(sim, processes, pages_per_process)
        htab = sim.machine.htab
        histogram = occupancy_histogram(htab)
        occupancy = htab.occupancy()
        occupancies[variant.label] = occupancy
        rows.append(
            f"  {variant.label:<40} occupancy {occupancy:5.1%}"
            f"  evicts {htab.evicts:6d}"
            f"  hot-spot ratio {histogram.hot_spot_ratio():4.1f}"
            f"  entropy {histogram.entropy_efficiency():4.2f}"
        )
    lines = [
        "E3 — §5.2 VSID scatter tuning "
        f"({processes} procs x {pages_per_process} pages, "
        f"{processes * pages_per_process} inserts into {HTAB_PTE_SLOTS} slots)",
        *rows,
    ]
    return Measurement(dict(occupancies), lines)


#: E3's variant labels, which key its measured occupancies.
_E3_NAIVE = "pid<<11 (pow2: all pids share buckets)"
_E3_MILD = "pid<<4  (pow2, milder aliasing)"
_E3_SCATTERED = "pid*37  (non-pow2 scatter)"
_E3_BAT = "pid*37 + kernel via BAT"
#: §5.2's occupancies: naive VSIDs, tuned scatter, kernel PTEs removed.
_E3_PAPER = {_E3_NAIVE: 0.37, _E3_SCATTERED: 0.57, _E3_BAT: 0.75}
_E3_LEVELS = (
    "absolute occupancy is compared, not gated: the reproduction claims "
    "the ladder and the scatter gain, not the 1999 levels"
)

_E3_CLAIMS = tuple(
    Claim(name, _E3_PAPER[label], BAND, reason=_E3_LEVELS, measure=label)
    for name, label in (("naive", _E3_NAIVE), ("scattered", _E3_SCATTERED),
                        ("kernel_removed", _E3_BAT))
) + (
    # Each scatter improvement raises occupancy; BAT must not regress it.
    Claim("scatter_ladder", None, DIRECTION, "== true",
          measure=lambda m: m[_E3_NAIVE] < m[_E3_MILD] < m[_E3_SCATTERED]),  # type: ignore[operator]
    Claim("bat_keeps_occupancy", None, DIRECTION, ">= -0.02",
          measure=_difference(_E3_BAT, _E3_SCATTERED)),
    # Power-of-two aliasing costs occupancy against the tuned constant.
    Claim("scatter_gain", _E3_PAPER[_E3_SCATTERED] - _E3_PAPER[_E3_NAIVE],
          BAND, "> 0.25",
          measure=_difference(_E3_SCATTERED, _E3_NAIVE)),
)


# ---------------------------------------------------------------------------
# E4 — §6.1: fast (assembly) miss handlers
# ---------------------------------------------------------------------------


def _measure_e4(spec: ExperimentSpec) -> Measurement:
    """§6.1: C handlers vs hand-scheduled assembly handlers."""
    c_variant, asm_variant = spec.variants
    machine = c_variant.machine
    slow, fast = c_variant.config, asm_variant.config
    ctx_slow = context_switch(Simulator(machine, slow))
    ctx_fast = context_switch(Simulator(machine, fast))
    lat_slow = pipe_latency(Simulator(machine, slow))
    lat_fast = pipe_latency(Simulator(machine, fast))
    wall_slow = kernel_compile(
        Simulator(machine, slow), units=4, label=c_variant.label
    ).wall_ms
    wall_fast = kernel_compile(
        Simulator(machine, fast), units=4, label=asm_variant.label
    ).wall_ms
    ctx_ratio = ctx_fast / ctx_slow
    lat_ratio = lat_fast / lat_slow
    wall_ratio = wall_fast / wall_slow
    lines = [
        "E4 — §6.1 fast TLB reload handlers",
        f"  context switch {ctx_slow:6.1f} -> {ctx_fast:6.1f} us"
        f"  (ratio {ctx_ratio:.2f}; paper -33% = 0.67)",
        f"  pipe latency   {lat_slow:6.1f} -> {lat_fast:6.1f} us"
        f"  (ratio {lat_ratio:.2f}; paper -15% = 0.85)",
        f"  compile wall   {wall_slow:6.1f} -> {wall_fast:6.1f} ms"
        f"  (ratio {wall_ratio:.2f}; paper ~-15% = 0.85)",
    ]
    measured = {
        "ctxsw_ratio": ctx_ratio,
        "pipe_latency_ratio": lat_ratio,
        "compile_ratio": wall_ratio,
    }
    return Measurement(measured, lines)


_E4_CLAIMS = (
    Claim("ctxsw_ratio", 0.67, BAND, "< 0.8", ratio=True),
    Claim("pipe_latency_ratio", 0.85, BAND, "< 0.92", ratio=True),
    Claim("compile_ratio", 0.85, BAND, "< 1.0", ratio=True),
)


# ---------------------------------------------------------------------------
# E5 — Table 1: removing the hash table on the 603
# ---------------------------------------------------------------------------

#: The paper's Table 1 cells.
PAPER_TABLE1 = {
    "603 180MHz (htab)": dict(pstart=1.8, ctxsw=4, pipelat=17, pipebw=69, reread=33),
    "603 180MHz (no htab)": dict(pstart=1.7, ctxsw=3, pipelat=19, pipebw=73, reread=36),
    "604 185MHz": dict(pstart=1.6, ctxsw=4, pipelat=21, pipebw=88, reread=39),
    "604 200MHz": dict(pstart=1.6, ctxsw=4, pipelat=20, pipebw=92, reread=41),
}


def _measure_e5(spec: ExperimentSpec) -> Measurement:
    """Table 1: LmBench summary for direct (no-htab) TLB reloads."""
    results: List[LmbenchResult] = []
    for variant in spec.variants:
        results.append(
            lmbench_suite(
                lambda v=variant: Simulator(v.machine, v.config),
                label=variant.label,
                points=(
                    "ctxsw",
                    "pipe_latency",
                    "pipe_bw",
                    "file_reread",
                    "process_start",
                ),
            )
        )
    lines = ["E5 — Table 1: LmBench summary (htab vs no-htab on the 603)"]
    for result in results:
        paper = PAPER_TABLE1[result.label]
        lines.append(
            f"  {result.label:<22}"
            f" pstart {result.process_start_ms:5.2f} ms ({paper['pstart']})"
            f"  ctxsw {result.ctxsw_us:5.1f} us ({paper['ctxsw']})"
            f"  pipe lat {result.pipe_latency_us:5.1f} us ({paper['pipelat']})"
            f"  pipe bw {result.pipe_bw_mb_s:5.1f} ({paper['pipebw']})"
            f"  reread {result.file_reread_mb_s:5.1f} ({paper['reread']})"
        )
    lines.append("  (parenthesized: paper values)")
    measured = {
        result.label: {
            "pstart_ms": result.process_start_ms,
            "ctxsw_us": result.ctxsw_us,
            "pipe_lat_us": result.pipe_latency_us,
            "pipe_bw": result.pipe_bw_mb_s,
            "reread": result.file_reread_mb_s,
        }
        for result in results
    }
    return Measurement(measured, lines)


_TABLE1 = _PaperTable(PAPER_TABLE1, {
    "pstart": "pstart_ms", "ctxsw": "ctxsw_us", "pipelat": "pipe_lat_us",
    "pipebw": "pipe_bw", "reread": "reread",
}, "Table 1")
_E5_HTAB, _E5_NOHTAB, _E5_604 = (
    "603 180MHz (htab)", "603 180MHz (no htab)", "604 185MHz",
)

_E5_CLAIMS = (
    # The paper's headline: the 180MHz 603 keeps pace with the 604s ...
    _TABLE1.ratio("603_keeps_pace_pipe_bw", _E5_NOHTAB, _E5_604, "pipebw",
                  ">= 0.75", DIRECTION),
    _TABLE1.ratio("603_keeps_pace_ctxsw", _E5_NOHTAB, _E5_604, "ctxsw",
                  "<= 1.6", DIRECTION),
    _TABLE1.ratio("603_keeps_pace_reread", _E5_NOHTAB, _E5_604, "reread",
                  ">= 0.75", DIRECTION),
    # ... and process start improves without the hash table.
    _TABLE1.ratio("no_htab_pstart_ratio", _E5_NOHTAB, _E5_HTAB, "pstart",
                  "<= 1.0"),
) + _TABLE1.cell_claims()


# ---------------------------------------------------------------------------
# E6 — Table 2: lazy flushes + tunable range flushing
# ---------------------------------------------------------------------------

PAPER_TABLE2 = {
    "603 133MHz": dict(mmap=3240, ctxsw=6, pipelat=34, pipebw=52, reread=26),
    "603 133MHz (lazy)": dict(mmap=41, ctxsw=6, pipelat=28, pipebw=57, reread=32),
    "604 185MHz": dict(mmap=2733, ctxsw=4, pipelat=22, pipebw=90, reread=38),
    "604 185MHz (tune)": dict(mmap=33, ctxsw=4, pipelat=21, pipebw=94, reread=41),
}


def _measure_e6(spec: ExperimentSpec) -> Measurement:
    """Table 2: search-flushing vs lazy VSID flushing."""
    results = []
    for variant in spec.variants:
        results.append(
            lmbench_suite(
                lambda v=variant: Simulator(v.machine, v.config),
                label=variant.label,
                points=("mmap_latency", "ctxsw", "pipe_latency", "pipe_bw",
                        "file_reread"),
            )
        )
    lines = ["E6 — Table 2: LmBench summary for tunable TLB range flushing"]
    for result in results:
        paper = PAPER_TABLE2[result.label]
        lines.append(
            f"  {result.label:<20}"
            f" mmap {result.mmap_latency_us:7.1f} us ({paper['mmap']})"
            f"  ctxsw {result.ctxsw_us:5.1f} ({paper['ctxsw']})"
            f"  pipe lat {result.pipe_latency_us:5.1f} ({paper['pipelat']})"
            f"  pipe bw {result.pipe_bw_mb_s:5.1f} ({paper['pipebw']})"
            f"  reread {result.file_reread_mb_s:5.1f} ({paper['reread']})"
        )
    lines.append("  (parenthesized: paper values)")
    by_label = {result.label: result for result in results}
    improvement_603 = (
        by_label["603 133MHz"].mmap_latency_us
        / by_label["603 133MHz (lazy)"].mmap_latency_us
    )
    improvement_604 = (
        by_label["604 185MHz"].mmap_latency_us
        / by_label["604 185MHz (tune)"].mmap_latency_us
    )
    measured = {
        "mmap_improvement_603": improvement_603,
        "mmap_improvement_604": improvement_604,
        "rows": {
            label: {
                "mmap_us": result.mmap_latency_us,
                "pipe_bw": result.pipe_bw_mb_s,
            }
            for label, result in by_label.items()
        },
    }
    return Measurement(measured, lines)


_TABLE2 = _PaperTable(PAPER_TABLE2, {"mmap": "mmap_us", "pipebw": "pipe_bw"},
                      "Table 2", path=("rows",))

_E6_CLAIMS = (
    # The ~80x mmap improvements ...
    _TABLE2.ratio("mmap_improvement_603", "603 133MHz", "603 133MHz (lazy)",
                  "mmap", "> 40"),
    _TABLE2.ratio("mmap_improvement_604", "604 185MHz", "604 185MHz (tune)",
                  "mmap", "> 40"),
    # ... and lazy flushing must not hurt pipe bandwidth (paper: +5 MB/s).
    _TABLE2.ratio("lazy_pipe_bw_ratio", "603 133MHz (lazy)", "603 133MHz",
                  "pipebw", ">= 0.98"),
) + _TABLE2.cell_claims()


# ---------------------------------------------------------------------------
# E7 — §7: idle-task zombie reclaim
# ---------------------------------------------------------------------------


def _measure_e7(
    spec: ExperimentSpec,
    rounds: int = 150,
    churn_every: int = 6,
    think_cycles: int = 120000,
) -> Measurement:
    """§7: zombie PTE reclaim in the idle task."""
    base_variant, reclaim_variant = spec.variants
    no_reclaim = multiprogram_mix(
        Simulator(base_variant.machine, base_variant.config),
        rounds=rounds, churn_every=churn_every, think_cycles=think_cycles,
        label=base_variant.label,
    )
    reclaim = multiprogram_mix(
        Simulator(reclaim_variant.machine, reclaim_variant.config),
        rounds=rounds, churn_every=churn_every, think_cycles=think_cycles,
        label=reclaim_variant.label,
    )
    lines = [
        "E7 — §7 idle-task zombie reclaim (multiprogramming mix)",
        f"  {'':<14}{'valid':>8}{'live':>8}{'zombie':>8}"
        f"{'evict/reload':>14}{'htab hit':>10}",
        f"  {'no reclaim':<14}{no_reclaim.valid_entries:8.0f}"
        f"{no_reclaim.live_entries:8.0f}{no_reclaim.zombie_entries:8.0f}"
        f"{no_reclaim.evict_ratio:14.2f}{no_reclaim.htab_hit_rate:10.2f}",
        f"  {'reclaim':<14}{reclaim.valid_entries:8.0f}"
        f"{reclaim.live_entries:8.0f}{reclaim.zombie_entries:8.0f}"
        f"{reclaim.evict_ratio:14.2f}{reclaim.htab_hit_rate:10.2f}",
        f"  zombies reclaimed: {reclaim.zombies_reclaimed}",
    ]
    measured = {
        "evict_ratio_before": no_reclaim.evict_ratio,
        "evict_ratio_after": reclaim.evict_ratio,
        "valid_before": no_reclaim.valid_entries,
        "valid_after": reclaim.valid_entries,
        "hit_rate_before": no_reclaim.htab_hit_rate,
        "hit_rate_after": reclaim.htab_hit_rate,
        "zombies_reclaimed": reclaim.zombies_reclaimed,
    }
    return Measurement(measured, lines)


#: §7's evict-to-reload ratios without and with the idle-task reclaim.
_E7_EVICT = {"evict_ratio_before": 0.90, "evict_ratio_after": 0.30}
_E7_LEVELS = (
    "an absolute level of the multiprogramming mix, compared, not gated: "
    "the mix is a scaled stand-in for the paper's workload; the gated "
    "claims are the fill and the reclaim's relative effect"
)
_E7_HIT_RATE = (
    "not gated, and short of the paper: the mix's hash-table hit rate "
    "rises only from 0.57 to 0.61 with reclaim, against the paper's "
    "85% -> 98%; the mix is a scaled stand-in for the paper's workload, "
    "and the reproduction claims the fill and the evict-ratio collapse"
)

_E7_CLAIMS = (
    # "Very quickly the entire hash table fills up" without reclaim ...
    Claim("table_fills", None, DIRECTION, "> 0.85",
          measure=lambda m: m["valid_before"] / HTAB_PTE_SLOTS),  # type: ignore[operator]
    Claim("reclaim_frees_slots", None, DIRECTION, "< 0.6",
          measure=_ratio("valid_after", "valid_before")),
    # ... and reclaim collapses the evict ratio.
    Claim("evict_ratio_drop", _E7_EVICT["evict_ratio_after"]
          / _E7_EVICT["evict_ratio_before"], BAND, "< 0.5",
          ratio=True, measure=lambda m: m["evict_ratio_after"]  # type: ignore[operator]
          / max(m["evict_ratio_before"], 1e-9)),  # type: ignore[type-var]
    Claim("zombies_reclaimed", None, DIRECTION, "> 1000"),
) + tuple(
    Claim(name, paper, BAND, reason=_E7_LEVELS)
    for name, paper in _E7_EVICT.items()
) + (
    Claim("hit_rate_before", 0.85, BAND, reason=_E7_HIT_RATE),
    Claim("hit_rate_after", 0.98, BAND, reason=_E7_HIT_RATE),
)


# ---------------------------------------------------------------------------
# E8 — §7: the range-flush cutoff
# ---------------------------------------------------------------------------


def _e8_workload(sim: Simulator, region_pages: int, iterations: int = 8):
    """Map a region, touch part of it, unmap — measuring the pair cost."""
    kernel = sim.kernel
    executive = sim.executive
    kernel.fs.create(f"map{region_pages}.dat", region_pages * PAGE_SIZE)
    touched = min(region_pages, 16)

    def factory(task):
        def body(t):
            for index in range(iterations + 1):
                if index == 1:
                    yield ("mark", "e8_start")
                addr = yield ("mmap", region_pages * PAGE_SIZE,
                              f"map{region_pages}.dat", None)
                for page in range(touched):
                    step = max(region_pages // touched, 1)
                    yield ("touch", addr + page * step * PAGE_SIZE, 4, False)
                yield ("munmap", addr, region_pages * PAGE_SIZE)
            yield ("mark", "e8_end")

        return body(task)

    executive.spawn("e8", factory)
    sim.run()
    delta = executive.mark_deltas("e8_start", "e8_end")[0]
    return (
        sim.cycles_to_us(delta / iterations),
        sim.machine.monitor.total_tlb_misses(),
    )


def _measure_e8(spec: ExperimentSpec) -> Measurement:
    """§7: sweep the range-flush cutoff; mmap latency and TLB misses."""
    large_pages = 1024  # the lat_mmap-style 4 MB region
    small_pages = 8  # under the tuned cutoff
    sweep = []
    for variant in spec.variants:
        # Pure lat_mmap (untouched region: the paper's 80x number) plus
        # a touched variant so the TLB-miss comparison is meaningful.
        pure_us = mmap_latency(Simulator(variant.machine, variant.config))
        large_us, large_misses = _e8_workload(
            Simulator(variant.machine, variant.config), large_pages
        )
        small_us, _ = _e8_workload(
            Simulator(variant.machine, variant.config), small_pages
        )
        sweep.append((variant.label, pure_us, large_us, small_us, large_misses))
    lines = [
        "E8 — §7 tunable range-flush cutoff",
        f"  {'':<20}{'lat_mmap 4MB':>14}{'4MB touched':>14}"
        f"{'32KB touched':>14}{'TLB misses':>12}",
    ]
    for label, pure_us, large_us, small_us, misses in sweep:
        lines.append(
            f"  {label:<20}{pure_us:11.1f} us{large_us:11.1f} us"
            f"{small_us:11.1f} us{misses:12d}"
        )
    by_label = {entry[0]: entry for entry in sweep}
    search = by_label["search (no lazy)"]
    tuned = by_label["cutoff 20 (tuned)"]
    infinite = by_label["cutoff inf"]
    improvement = search[1] / tuned[1]
    measured = {
        "search_us": search[1],
        "cutoff20_us": tuned[1],
        "improvement": improvement,
        "misses_search": search[4],
        "misses_cutoff20": tuned[4],
        "small_region_search_us": search[3],
        "small_region_cutoff20_us": tuned[3],
        "cutoff_inf_us": infinite[1],
    }
    return Measurement(measured, lines)


_E8_CLAIMS = (
    # The 80x-class improvement on big ranges; no cutoff is back to the
    # search cost ...
    Claim("improvement", 80.0, BAND, "> 40", ratio=True),
    Claim("no_cutoff_is_search_cost", None, DIRECTION, "> 5",
          measure=_ratio("cutoff_inf_us", "cutoff20_us")),
    # ... "at no cost to the TLB hit rate", and small ranges stay cheap.
    Claim("tlb_miss_ratio", 1.0, DIRECTION, "<= 1.10",
          measure=_ratio("misses_cutoff20", "misses_search")),
    Claim("small_region_ratio", None, DIRECTION, "<= 1.25",
          measure=_ratio("small_region_cutoff20_us",
                         "small_region_search_us")),
)


# ---------------------------------------------------------------------------
# E9 — §8: cache misuse on page tables
# ---------------------------------------------------------------------------


def _measure_e9(spec: ExperimentSpec) -> Measurement:
    """§8: memory accesses and cache lines created by the refill path."""
    # Part 1: count the architected worst case on one cold miss.
    cold, cached_variant, uncached_variant = spec.variants
    sim = Simulator(cold.machine, cold.config)
    kernel = sim.kernel
    task = kernel.spawn("e9", data_pages=4)
    kernel.switch_to(task)
    # Fault the page in (so the Linux PTE exists), then flush everything
    # so the next access walks hash table (miss) + PTE tree + reinsert.
    kernel.user_access(task, 0x10000000, 1, True)
    sim.machine.htab.invalidate_all()
    sim.machine.invalidate_tlbs()
    # Cold caches: the paper's counting assumes the PTEG and PTE-tree
    # lines are not already resident.
    sim.machine.dcache.flush_all()
    sim.machine.l2.flush_all()
    misses_before = sim.machine.dcache.stats.misses
    kernel.user_access(task, 0x10000000, 1, False)
    # Each data-cache miss on the refill path creates one new line.
    new_lines = sim.machine.dcache.stats.misses - misses_before
    # Architected accounting (§8): 16 (search+miss) + 2..3 (tree) + up
    # to 16 (insert scan) = ~34 memory accesses.
    search_refs = 16  # both PTEGs probed on the miss
    tree_refs = 3
    insert_refs = 16  # worst case scan of both PTEGs
    worst_case = search_refs + tree_refs + insert_refs

    # Part 2: cached vs uncached page tables on a TLB-heavy workload.
    def storm(variant: ConfigVariant):
        sim = Simulator(variant.machine, variant.config)
        kernel = sim.kernel
        task = kernel.spawn("storm", data_pages=402)
        kernel.switch_to(task)
        trace = WorkingSetTrace(
            0x01000000, 12, 0x10000000, 400, hot_fraction=1.0,
            lines_per_visit=4, seed=3,
        )
        mark = sim.machine.clock.snapshot()
        for visit in trace.visits(12000):
            kernel.user_access(task, visit.ea, visit.lines, visit.write,
                               visit.kind, first_line=visit.first_line)
        cycles = sim.machine.clock.since(mark)
        return cycles, sim.machine.dcache.stats.misses

    cached_cycles, cached_misses = storm(cached_variant)
    uncached_cycles, uncached_misses = storm(uncached_variant)
    lines = [
        "E9 — §8 cache misuse on page tables",
        f"  cold refill path: {worst_case} architected memory accesses "
        "(16 search + 3 tree + 16 insert; paper: 34)",
        f"  new data-cache lines created by one refill: {new_lines} "
        "(paper: up to 18)",
        f"  TLB-storm with cached page tables:   {cached_cycles} cycles, "
        f"{cached_misses} dcache misses",
        f"  TLB-storm with uncached page tables: {uncached_cycles} cycles, "
        f"{uncached_misses} dcache misses",
        f"  dcache misses saved by uncaching page tables: "
        f"{cached_misses - uncached_misses}",
    ]
    measured = {
        "worst_case_refs": worst_case,
        "new_cache_lines_per_refill": new_lines,
        "storm_cached_misses": cached_misses,
        "storm_uncached_misses": uncached_misses,
    }
    return Measurement(measured, lines)


_E9_CLAIMS = (
    Claim("worst_case_refs", 34, BAND, "30 <= x <= 36"),
    # "Up to 18" new cache lines per refill, which uncached page tables
    # avoid.
    Claim("new_cache_lines_per_refill", 18, DIRECTION, "1 <= x <= 18"),
    Claim("uncached_miss_ratio", None, DIRECTION, "< 1.0",
          measure=_ratio("storm_uncached_misses", "storm_cached_misses")),
)


# ---------------------------------------------------------------------------
# E10 — §9: idle-task page clearing
# ---------------------------------------------------------------------------


def _pollution_busy(
    machine: MachineSpec, config: KernelConfig, mark_prefix: str = "poll"
) -> int:
    """Steady working set + idle windows under one clearing config.

    Sub-experiment A of E10 (and, with ``mark_prefix='e14'``, the E14
    ablation's harness): warm to steady state, then measure rounds of
    work separated by think-time (idle windows).
    """
    sim = Simulator(machine, config)
    executive = sim.executive
    start_mark = f"{mark_prefix}_start"
    end_mark = f"{mark_prefix}_end"

    def factory(task):
        def body(t):
            trace = WorkingSetTrace(
                0x01000000, 12, 0x10000000, 360, hot_fraction=0.9,
                lines_per_visit=32, drift=0.0, seed=7,
            )
            # Warm up to steady state, then measure rounds of work with
            # think-time (idle windows) between them.
            for _ in range(3):
                yield ("work", trace.visit_list(500))
            yield ("mark", start_mark)
            for _ in range(10):
                yield ("sleep", 900000)
                yield ("work", trace.visit_list(500))
            yield ("mark", end_mark)

        return body(task)

    executive.spawn("steady", factory, data_pages=364)
    sim.run()
    total = executive.mark_deltas(start_mark, end_mark)[0]
    # The sleeps themselves are constant; compare busy time.
    return total - 10 * 900000


def _measure_e10(spec: ExperimentSpec, units: int = 5) -> Measurement:
    """§9: the three page-clearing variants vs the baseline."""
    # Sub-experiment A: pollution (low allocation, idle-heavy).
    busy = {}
    for variant in spec.variants:
        busy[variant.label] = _pollution_busy(variant.machine, variant.config)
    # Sub-experiment B: allocation-heavy compile.
    walls = {}
    for variant in spec.variants:
        config = variant.config.with_changes(idle_zombie_reclaim=True)
        result = kernel_compile(
            Simulator(variant.machine, config), units=units,
            profile=CACHE_RESIDENT, label=variant.label,
        )
        walls[variant.label] = result.wall_ms
    off = IdlePageClearPolicy.OFF.value
    lines = [
        "E10 — §9 idle-task page clearing",
        "  A: steady working set, idle windows (pollution regime); "
        "busy cycles relative to OFF:",
    ]
    for label, value in busy.items():
        lines.append(
            f"    {label:<18} {value:10d} ({value / busy[off]:.3f}x)"
        )
    lines.append(
        "  B: allocation-heavy compile (pre-clear benefit regime); "
        "wall ms relative to OFF:"
    )
    for label, value in walls.items():
        lines.append(
            f"    {label:<18} {value:10.1f} ({value / walls[off]:.3f}x)"
        )
    measured = {
        "pollution_cached_ratio":
            busy[IdlePageClearPolicy.CACHED_LIST.value] / busy[off],
        "pollution_uncached_nolist_ratio":
            busy[IdlePageClearPolicy.UNCACHED_NO_LIST.value] / busy[off],
        "compile_uncached_list_ratio":
            walls[IdlePageClearPolicy.UNCACHED_LIST.value] / walls[off],
        "compile_uncached_nolist_ratio":
            walls[IdlePageClearPolicy.UNCACHED_NO_LIST.value] / walls[off],
        "compile_cached_ratio":
            walls[IdlePageClearPolicy.CACHED_LIST.value] / walls[off],
    }
    return Measurement(measured, lines)


#: §9: clearing pages through the cache made the system ~2x slower.
_E10_CACHED_PENALTY = 2.0
_E10_CONTENTION = (
    "the tag-only cache model carries no bus contention, which the paper's "
    "own SMP footnote names as the other half of the cached-clearing cost"
)

_E10_CLAIMS = (
    # Cached clearing hurts; uncached clearing without the list is a
    # wash; uncached clearing onto the list wins the compile.
    Claim("pollution_cached_ratio", _E10_CACHED_PENALTY, BAND,
          "> 1.05", ratio=True, reason=_E10_CONTENTION),
    Claim("pollution_uncached_nolist_ratio", 1.0, DIRECTION,
          "0.97 < x < 1.03"),
    Claim("compile_uncached_nolist_ratio", 1.0, DIRECTION, "0.97 < x < 1.03"),
    Claim("compile_uncached_list_ratio", 0.9, BAND, "< 0.97", ratio=True),
    Claim("compile_cached_ratio", _E10_CACHED_PENALTY, BAND,
          ratio=True, reason=(
              "not gated, and the compile comes out 3% faster, not 2x "
              "slower: " + _E10_CONTENTION + ", so the pre-cleared pages' "
              "saving (0.90x uncached) outweighs the pollution"
          )),
)


# ---------------------------------------------------------------------------
# E11 — Table 3: OS comparison
# ---------------------------------------------------------------------------


def _measure_e11(spec: ExperimentSpec) -> Measurement:
    """Table 3: Linux/PPC vs unoptimized vs Rhapsody vs MkLinux vs AIX."""
    rows = run_table3()
    lines = ["E11 — Table 3: LmBench summary for Linux/PPC and other OSes"]
    for row in rows:
        paper = PAPER_TABLE3[row.os]
        lines.append(
            f"  {row.os:<22} null {row.null_syscall_us:5.1f} ({paper[0]:2d})"
            f"  ctxsw {row.ctxsw_us:5.1f} ({paper[1]:2d})"
            f"  pipe lat {row.pipe_latency_us:6.1f} ({paper[2]:3d})"
            f"  pipe bw {row.pipe_bw_mb_s:5.1f} ({paper[3]:2d})"
        )
    lines.append("  (parenthesized: paper values; all on a 133MHz 604)")
    measured = {
        row.os: {
            "null_us": row.null_syscall_us,
            "ctxsw_us": row.ctxsw_us,
            "pipe_lat_us": row.pipe_latency_us,
            "pipe_bw": row.pipe_bw_mb_s,
        }
        for row in rows
    }
    return Measurement(measured, lines)


_TABLE3_COLUMNS = {"null": "null_us", "ctxsw": "ctxsw_us",
                   "pipelat": "pipe_lat_us", "pipebw": "pipe_bw"}
_TABLE3 = _PaperTable({
    os_name: dict(zip(_TABLE3_COLUMNS, cells))
    for os_name, cells in PAPER_TABLE3.items()
}, _TABLE3_COLUMNS, "Table 3")
_LINUX = "Linux/PPC"


def _linux_wins_every_point(m: Dict[str, object]) -> bool:
    linux: Dict[str, float] = m[_LINUX]  # type: ignore[assignment]
    return all(
        linux["null_us"] < other["null_us"]  # type: ignore[index]
        and linux["ctxsw_us"] < other["ctxsw_us"]  # type: ignore[index]
        and linux["pipe_lat_us"] < other["pipe_lat_us"]  # type: ignore[index]
        and linux["pipe_bw"] > other["pipe_bw"]  # type: ignore[index]
        for os_name, other in m.items()
        if os_name != _LINUX
    )


def _vs_linux(os_name: str, column: str, gate: str) -> Claim:
    return _TABLE3.ratio(f"{os_name} {column} vs Linux", os_name, _LINUX,
                         column, gate)


_E11_CLAIMS = (
    Claim("linux_wins_every_point", None, DIRECTION, "== true",
          measure=_linux_wins_every_point),
    # The microkernels lose big on switches and IPC (paper: 10x+) ...
    _vs_linux("Rhapsody 5.0", "ctxsw", "> 5"),
    _vs_linux("MkLinux", "ctxsw", "> 5"),
    _vs_linux("Rhapsody 5.0", "pipelat", "> 4"),
    _vs_linux("MkLinux", "pipelat", "> 4"),
    _vs_linux("Rhapsody 5.0", "pipebw", "< 0.4"),
    _vs_linux("MkLinux", "pipebw", "< 0.4"),
    # ... AIX is competitive but behind (paper: ~2-5x on latency points).
    _vs_linux("AIX", "null", "> 3"),
    _vs_linux("AIX", "ctxsw", "> 2"),
) + _TABLE3.cell_claims()


# ---------------------------------------------------------------------------
# E12 — §5.1: BAT-mapping the I/O space
# ---------------------------------------------------------------------------


def _measure_e12(spec: ExperimentSpec) -> Measurement:
    """§5.1: I/O-space BATs 'did not improve these measures significantly'."""
    from repro.kernel.kernel import IO_BASE_EA

    def run(variant: ConfigVariant):
        sim = Simulator(variant.machine, variant.config)
        kernel = sim.kernel
        task = kernel.spawn("xserver", data_pages=66)
        kernel.switch_to(task)
        trace = WorkingSetTrace(
            0x01000000, 12, 0x10000000, 64, hot_fraction=0.5, seed=11,
        )
        mark = sim.machine.clock.snapshot()
        visits = list(trace.visits(4000))
        for index, visit in enumerate(visits):
            kernel.user_access(task, visit.ea, visit.lines, visit.write,
                               visit.kind, first_line=visit.first_line)
            if index % 40 == 39:
                # The occasional framebuffer poke: rare enough that its
                # TLB entries "are quickly displaced by other mappings".
                kernel.machine.access_page(
                    IO_BASE_EA + (index % 64) * PAGE_SIZE, 4, write=True
                )
        cycles = sim.machine.clock.since(mark)
        return cycles, sim.machine.monitor.total_tlb_misses()

    base_variant, bat_variant = spec.variants
    base_cycles, base_misses = run(base_variant)
    bat_cycles, bat_misses = run(bat_variant)
    ratio = bat_cycles / base_cycles
    lines = [
        "E12 — §5.1 BAT-mapping the I/O space",
        f"  without I/O BAT: {base_cycles} cycles, {base_misses} TLB misses",
        f"  with I/O BAT:    {bat_cycles} cycles, {bat_misses} TLB misses",
        f"  cycle ratio {ratio:.3f} "
        "(paper: 'did not improve these measures significantly')",
    ]
    measured = {
        "cycle_ratio": ratio,
        "tlb_misses_saved": base_misses - bat_misses,
    }
    return Measurement(measured, lines)


_E12_CLAIMS = (
    # "Did not improve these measures significantly."
    Claim("cycle_ratio", 1.0, DIRECTION, "0.95 < x < 1.02"),
)


# ---------------------------------------------------------------------------
# E13 — §6.2: removing the hash table (compile -5%)
# ---------------------------------------------------------------------------


def _measure_e13(spec: ExperimentSpec, units: int = 5) -> Measurement:
    """§6.2: the no-htab 603 compile and the 603-vs-604 headline."""
    htab_variant, nohtab_variant, m604_variant = spec.variants
    htab = kernel_compile(
        Simulator(htab_variant.machine, htab_variant.config),
        units=units, label=htab_variant.label,
    )
    nohtab = kernel_compile(
        Simulator(nohtab_variant.machine, nohtab_variant.config),
        units=units, label=nohtab_variant.label,
    )
    m604 = kernel_compile(
        Simulator(m604_variant.machine, m604_variant.config),
        units=units, label=m604_variant.label,
    )
    ratio = nohtab.wall_ms / htab.wall_ms
    vs604 = nohtab.wall_ms / m604.wall_ms
    lines = [
        "E13 — §6.2 removing the hash table on the 603 (kernel compile)",
        f"  603@180 with htab emulation: {htab.wall_ms:8.1f} ms",
        f"  603@180 direct PTE-tree:     {nohtab.wall_ms:8.1f} ms"
        f"  (ratio {ratio:.3f}; paper -5% = 0.95)",
        f"  604@200 (hardware walk):     {m604.wall_ms:8.1f} ms"
        f"  (603 no-htab is {vs604:.2f}x of the 604@200's time)",
    ]
    return Measurement({"compile_ratio": ratio, "vs_604_200": vs604}, lines)


_E13_CLAIMS = (
    # Removing the hash table helps the compile, in the paper's ~5% band,
    # and the no-htab 603@180 keeps pace with the 604@200.
    Claim("compile_ratio", 0.95, BAND, "0.85 <= x < 1.0", ratio=True),
    Claim("vs_604_200", None, DIRECTION, "< 1.35"),
)


# ---------------------------------------------------------------------------
# E14 — §10.1 ablation: uncached idle task
# ---------------------------------------------------------------------------


def _measure_e14(spec: ExperimentSpec) -> Measurement:
    """§10.1: run the idle task cache-inhibited (future-work ablation)."""
    cached_variant, uncached_variant = spec.variants
    normal = _pollution_busy(
        cached_variant.machine, cached_variant.config, mark_prefix="e14"
    )
    uncached = _pollution_busy(
        uncached_variant.machine, uncached_variant.config, mark_prefix="e14"
    )
    ratio = uncached / normal
    lines = [
        "E14 — §10.1 ablation: cache-inhibited idle task",
        f"  idle cached:       busy {normal} cycles",
        f"  idle cache-inhibited: busy {uncached} cycles (ratio {ratio:.3f})",
    ]
    return Measurement({"busy_ratio": ratio}, lines)


_E14_CLAIMS = (
    # Uncaching the idle task avoids polluting the cache.
    Claim("busy_ratio", None, CONJECTURE, "< 1.0"),
)


# ---------------------------------------------------------------------------
# E15 — §10.2 ablation: cache preloads in the switch path
# ---------------------------------------------------------------------------


def _measure_e15(spec: ExperimentSpec) -> Measurement:
    """§10.2: dcbt prefetches at context-switch entry (future work).

    The preloads only matter when the user working sets have evicted the
    switch path's data between switches, so the harness thrashes the L1
    before each measured switch — the cache-hostile regime the paper's
    conjecture targets.
    """
    from repro.params import KERNELBASE

    def switch_cost(variant: ConfigVariant) -> float:
        sim = Simulator(variant.machine, variant.config)
        kernel = sim.kernel
        first = kernel.spawn("a")
        second = kernel.spawn("b")
        kernel.switch_to(first)
        total = 0
        thrash_base = KERNELBASE + 4 * 1024 * 1024
        for iteration in range(40):
            # A user burst large enough to evict the kernel's switch
            # data from the L1 (but not the L2).
            for page in range(12):
                sim.machine.access_page(
                    thrash_base + page * PAGE_SIZE, lines=128, write=True
                )
            target = second if kernel.current_task is first else first
            start = sim.machine.clock.snapshot()
            kernel.switch_to(target)
            total += sim.machine.clock.since(start)
        return total / 40

    base_variant, preload_variant = spec.variants
    base = switch_cost(base_variant)
    preloaded = switch_cost(preload_variant)
    ratio = preloaded / base if base else 1.0
    lines = [
        "E15 — §10.2 ablation: cache preloads in the context-switch path",
        f"  cache-cold switch cost: {base:6.1f} -> {preloaded:6.1f} cycles "
        f"(ratio {ratio:.3f})",
    ]
    measured = {"ctxsw8_ratio": ratio, "base_us": base, "preload_us": preloaded}
    return Measurement(measured, lines)


_E15_CLAIMS = (
    # "Significant gains with intelligent use of cache preloads."
    Claim("ctxsw8_ratio", None, CONJECTURE, "< 0.99"),
)


# ---------------------------------------------------------------------------
# E16 — §7 ablation: the rejected on-demand zombie scavenge
# ---------------------------------------------------------------------------


def _measure_e16(spec: ExperimentSpec) -> Measurement:
    """§7's rejected design: scavenge zombies when space runs out.

    The paper: "performance would also be inconsistent if we had to
    occasionally scan the hash table and invalidate zombie PTEs when we
    needed more space".  We measure per-access latency spikes under both
    designs on a zombie-saturated table.
    """

    def latency_profile(variant: ConfigVariant):
        sim = Simulator(variant.machine, variant.config)
        kernel = sim.kernel
        htab = sim.machine.htab
        task = kernel.spawn("churn", data_pages=120)
        kernel.switch_to(task)
        rng = random.Random(spec.seed)
        pages = list(range(0, 118, 2))
        # Fill the table to the brink with zombie PTEs (context churn),
        # so eviction pressure exists during the measured phase.  Stop at
        # the first evict: under the on-demand design that evict already
        # scavenged, and continuing would just oscillate.
        while (
            htab.valid_entries() < htab.slots - 40 and htab.evicts == 0
        ):
            for page in pages:
                kernel.user_access(
                    task, 0x10000000 + page * PAGE_SIZE, 1, True
                )
            kernel.flush.flush_mm(task.mm)
        # Measured phase: random re-touches; each may trigger a reload,
        # and periodic flushes keep the zombie supply growing.
        samples = []
        for index in range(5000):
            page = pages[rng.randrange(len(pages))]
            start = sim.machine.clock.snapshot()
            kernel.user_access(task, 0x10000000 + page * PAGE_SIZE, 1, False)
            samples.append(sim.machine.clock.since(start))
            if index % 100 == 99:
                kernel.flush.flush_mm(task.mm)
        samples.sort()
        mean = sum(samples) / len(samples)
        p99 = samples[int(len(samples) * 0.99)]
        worst = samples[-1]
        bursts = sim.machine.monitor.get("scavenge_burst")
        return mean, p99, worst, bursts

    idle_variant, demand_variant = spec.variants
    idle_mean, idle_p99, idle_worst, _ = latency_profile(idle_variant)
    dem_mean, dem_p99, dem_worst, bursts = latency_profile(demand_variant)
    lines = [
        "E16 — §7 ablation: rejected on-demand zombie scavenging",
        f"  {'':<22}{'mean':>8}{'p99':>8}{'worst':>8}  (cycles/access)",
        f"  {'idle-task reclaim':<22}{idle_mean:8.1f}{idle_p99:8d}"
        f"{idle_worst:8d}",
        f"  {'on-demand scavenge':<22}{dem_mean:8.1f}{dem_p99:8d}"
        f"{dem_worst:8d}   ({bursts} scavenge bursts)",
    ]
    measured = {
        "idle_worst": idle_worst,
        "demand_worst": dem_worst,
        "idle_p99": idle_p99,
        "demand_p99": dem_p99,
        "scavenge_bursts": bursts,
    }
    return Measurement(measured, lines)


_E16_CLAIMS = (
    # Performance "would be inconsistent": worst-case latency spikes.
    Claim("inconsistency", None, DIRECTION, "> 3",
          measure=_ratio("demand_worst", "idle_worst")),
    Claim("scavenge_bursts", None, DIRECTION, "> 0"),
)


# ---------------------------------------------------------------------------
# Variant matrices
# ---------------------------------------------------------------------------


def _e2_variants() -> Tuple[ConfigVariant, ...]:
    unopt = KernelConfig.unoptimized()
    return (
        ConfigVariant("no BAT", M604_185, unopt),
        ConfigVariant("BAT", M604_185, unopt.with_changes(bat_kernel_map=True)),
    )


def _e3_variants() -> Tuple[ConfigVariant, ...]:
    # (label, scatter constant, BAT kernel map).  Power-of-two
    # multipliers alias in the low hash bits; the larger the power, the
    # fewer distinct buckets the processes can reach.
    cells = (
        (_E3_NAIVE, 2048, False),
        (_E3_MILD, 16, False),
        (_E3_SCATTERED, 37, False),
        (_E3_BAT, 37, True),
    )
    return tuple(
        ConfigVariant(
            label,
            M604_185,
            KernelConfig(
                vsid_policy=VsidPolicy.PID_SCATTER,
                vsid_scatter_constant=constant,
                bat_kernel_map=bat,
            ),
        )
        for label, constant, bat in cells
    )


def _e4_variants() -> Tuple[ConfigVariant, ...]:
    slow = KernelConfig.unoptimized()
    fast = slow.with_changes(fast_handlers=True, optimized_entry=True)
    return (
        ConfigVariant("C", M604_133, slow),
        ConfigVariant("asm", M604_133, fast),
    )


def _e5_variants() -> Tuple[ConfigVariant, ...]:
    opt = KernelConfig.optimized()
    return (
        ConfigVariant(
            "603 180MHz (htab)", M603_180, opt.with_changes(use_htab_on_603=True)
        ),
        ConfigVariant("603 180MHz (no htab)", M603_180, opt),
        ConfigVariant("604 185MHz", M604_185, opt),
        ConfigVariant("604 200MHz", M604_200, opt),
    )


def _e6_variants() -> Tuple[ConfigVariant, ...]:
    # The non-lazy columns are otherwise-optimized kernels that still
    # search-flush; the lazy columns add the VSID bump + cutoff.
    lazy = KernelConfig.optimized()
    search = lazy.with_changes(
        lazy_vsid_flush=False, vsid_policy=VsidPolicy.PID_SCATTER
    )
    return (
        ConfigVariant(
            "603 133MHz", M603_133, search.with_changes(use_htab_on_603=True)
        ),
        ConfigVariant(
            "603 133MHz (lazy)", M603_133, lazy.with_changes(use_htab_on_603=True)
        ),
        ConfigVariant("604 185MHz", M604_185, search),
        ConfigVariant("604 185MHz (tune)", M604_185, lazy),
    )


def _e7_variants() -> Tuple[ConfigVariant, ...]:
    return (
        ConfigVariant(
            "no reclaim",
            M604_185,
            KernelConfig.optimized().with_changes(idle_zombie_reclaim=False),
        ),
        ConfigVariant("idle reclaim", M604_185, KernelConfig.optimized()),
    )


def _e8_variants() -> Tuple[ConfigVariant, ...]:
    def for_cutoff(cutoff: Optional[int]) -> KernelConfig:
        if cutoff is None:
            return KernelConfig.optimized().with_changes(
                lazy_vsid_flush=False, vsid_policy=VsidPolicy.PID_SCATTER
            )
        return KernelConfig.optimized().with_changes(range_flush_cutoff=cutoff)

    return tuple(
        ConfigVariant(label, M604_185, for_cutoff(cutoff))
        for cutoff, label in (
            (None, "search (no lazy)"),
            (5, "cutoff 5"),
            (20, "cutoff 20 (tuned)"),
            (10**6, "cutoff inf"),
        )
    )


def _e9_variants() -> Tuple[ConfigVariant, ...]:
    config = KernelConfig.optimized()
    return (
        ConfigVariant("cold refill", M604_185, config),
        ConfigVariant(
            "storm cached", M604_185, config.with_changes(cache_page_tables=True)
        ),
        ConfigVariant(
            "storm uncached", M604_185,
            config.with_changes(cache_page_tables=False),
        ),
    )


def _e10_variants() -> Tuple[ConfigVariant, ...]:
    return tuple(
        ConfigVariant(
            policy.value,
            M604_185,
            KernelConfig.optimized().with_changes(
                idle_page_clear=policy, idle_zombie_reclaim=False
            ),
        )
        for policy in (
            IdlePageClearPolicy.OFF,
            IdlePageClearPolicy.CACHED_LIST,
            IdlePageClearPolicy.UNCACHED_NO_LIST,
            IdlePageClearPolicy.UNCACHED_LIST,
        )
    )


def _e12_variants() -> Tuple[ConfigVariant, ...]:
    return (
        ConfigVariant(
            "no I/O BAT", M604_185,
            KernelConfig.optimized().with_changes(bat_io_map=False),
        ),
        ConfigVariant(
            "I/O BAT", M604_185,
            KernelConfig.optimized().with_changes(bat_io_map=True),
        ),
    )


def _e13_variants() -> Tuple[ConfigVariant, ...]:
    opt = KernelConfig.optimized()
    return (
        ConfigVariant(
            "603 htab", M603_180, opt.with_changes(use_htab_on_603=True)
        ),
        ConfigVariant("603 no-htab", M603_180, opt),
        ConfigVariant("604 200MHz", M604_200, opt),
    )


def _e14_variants() -> Tuple[ConfigVariant, ...]:
    cached = KernelConfig.optimized().with_changes(
        idle_page_clear=IdlePageClearPolicy.CACHED_LIST,
        idle_zombie_reclaim=True,
    )
    return (
        ConfigVariant("idle cached", M604_185, cached),
        ConfigVariant(
            "idle cache-inhibited", M604_185,
            cached.with_changes(idle_uncached=True),
        ),
    )


def _e15_variants() -> Tuple[ConfigVariant, ...]:
    return (
        ConfigVariant(
            "no preload", M604_185,
            KernelConfig.optimized().with_changes(cache_preloads=False),
        ),
        ConfigVariant(
            "preload", M604_185,
            KernelConfig.optimized().with_changes(cache_preloads=True),
        ),
    )


def _e16_variants() -> Tuple[ConfigVariant, ...]:
    return (
        ConfigVariant("idle-task reclaim", M604_185, KernelConfig.optimized()),
        ConfigVariant(
            "on-demand scavenge", M604_185,
            KernelConfig.optimized().with_changes(
                idle_zombie_reclaim=False, on_demand_scavenge=True
            ),
        ),
    )


def _smp_variants() -> Tuple[ConfigVariant, ...]:
    """One variant per shootdown strategy, on the fully optimized 604."""
    return tuple(
        ConfigVariant(
            strategy.value, M604_185,
            KernelConfig.optimized().with_changes(
                shootdown_strategy=strategy
            ),
        )
        for strategy in ShootdownStrategy
    )


# ---------------------------------------------------------------------------
# E17/E18/E19 — SMP extension: TLB-shootdown strategies at 2/4/8 CPUs
# ---------------------------------------------------------------------------


def _smp_body(region_pages: int, rounds: int):
    """mmap / touch / yield / munmap / re-mmap — the shootdown driver.

    The region stays under the §7 range-flush cutoff so every munmap
    takes the per-page search path and feeds ``page_invalidated`` into
    the shootdown engine; the second mmap of the same anonymous size is
    the reuse-pool revival the MMAP_REUSE strategy elides flushes for.
    """

    def gen(t):
        for _iteration in range(2):
            addr = yield ("mmap", region_pages * PAGE_SIZE, None, None)
            for r in range(rounds):
                page = (r * 5) % region_pages
                yield ("touch", addr + page * PAGE_SIZE, 8, True)
                if r % 3 == 2:
                    yield ("yield",)
            yield ("munmap", addr, region_pages * PAGE_SIZE)
        yield ("exit", 0)

    return gen


def _measure_smp(spec: ExperimentSpec, n_cpus: int) -> Measurement:
    """Strategy cross-product at a fixed CPU count.

    Tasks have fixed home CPUs (round-robin at spawn, no migration), so
    the interleaving — and every per-CPU ledger — is deterministic.
    """
    region_pages = 12  # under the tuned cutoff 20: search-path flushes
    rounds = 36
    processes = min(3 * n_cpus, 12)
    rows: Dict[str, Dict[str, int]] = {}
    for variant in spec.variants:
        sim = Simulator(variant.machine, variant.config, n_cpus=n_cpus)
        for index in range(processes):
            sim.executive.spawn(
                f"smp{index}", _smp_body(region_pages, rounds)
            )
        sim.run()
        counters = sim.machine.monitor_totals()
        shootdown_cycles = sum(
            cpu.clock.breakdown().get("shootdown", 0)
            for cpu in sim.machine.cpus
        )
        flush_cycles = sum(
            cpu.clock.breakdown().get("flush", 0)
            for cpu in sim.machine.cpus
        )
        rows[variant.label] = {
            "total_cycles": sim.total_cycles,
            "shootdown_cycles": shootdown_cycles,
            "flush_cycles": flush_cycles,
            "ipi_sent": counters.get("ipi_sent", 0),
            "ipi_received": counters.get("ipi_received", 0),
            "shootdown_deferred": counters.get("shootdown_deferred", 0),
            "shootdown_drained": counters.get("shootdown_drained", 0),
            "flush_skipped_reuse": counters.get("flush_skipped_reuse", 0),
            "reuse_pool_hit": counters.get("reuse_pool_hit", 0),
        }
    lines = [
        f"{spec.id} — TLB-shootdown strategies at {n_cpus} CPUs "
        f"({processes} processes, fixed affinity)",
        f"  {'strategy':<12}{'total':>12}{'shootdown':>11}{'flush':>10}"
        f"{'IPIs':>7}{'deferred':>9}{'drained':>8}{'reuse':>6}",
    ]
    for label, row in rows.items():
        lines.append(
            f"  {label:<12}{row['total_cycles']:>12,}"
            f"{row['shootdown_cycles']:>11,}{row['flush_cycles']:>10,}"
            f"{row['ipi_sent']:>7}{row['shootdown_deferred']:>9}"
            f"{row['shootdown_drained']:>8}{row['reuse_pool_hit']:>6}"
        )
    broadcast = rows["broadcast"]
    targeted = rows["targeted"]
    lazy = rows["lazy"]
    reuse = rows["mmap_reuse"]
    measured: Dict[str, object] = {
        "n_cpus": n_cpus,
        "processes": processes,
        "rows": rows,
        "broadcast_ipis": broadcast["ipi_sent"],
        "targeted_ipis": targeted["ipi_sent"],
        "lazy_deferred": lazy["shootdown_deferred"],
        "reuse_flushes_skipped": reuse["flush_skipped_reuse"],
        "reuse_vs_broadcast": (
            reuse["total_cycles"] / broadcast["total_cycles"]
        ),
    }
    return Measurement(measured, lines)


#: The SMP experiments extend the paper (its §9 footnote defers SMP);
#: their expectations come from the shootdown literature instead:
#: targeted IPIs track the mm's CPU mask, lazy deferral cuts IPIs
#: without losing coherence, and pooling munmapped regions for
#: intra-process reuse skips the flush outright.
_NUMAPTE = "arXiv 2401.15558 (lazy deferral)"
_MMAP_REUSE = "arXiv 2409.10946 (mmap reuse)"


def _smp_claims(*extra: Claim) -> Tuple[Claim, ...]:
    broadcast = _row("broadcast", "ipi_sent")
    return (
        # Broadcast IPIs every remote on every flush; targeted never
        # needs to under fixed affinity.
        Claim("broadcast_ipis_remotes", None, DIRECTION, "> 0",
              measure=broadcast),
        Claim("broadcast_ipis_delivered", None, DIRECTION, "== 0",
              measure=_difference(broadcast,
                                  _row("broadcast", "ipi_received"))),
        Claim("targeted_ipis", None, DIRECTION, "== 0",
              measure=_row("targeted", "ipi_sent")),
        Claim("targeted_saves_shootdown", None, DIRECTION, "> 0",
              measure=_difference(_row("broadcast", "shootdown_cycles"),
                                  _row("targeted", "shootdown_cycles"))),
        # Lazy converts eager IPIs into deferred work drained at ctxsw.
        Claim("lazy_ipis_vs_broadcast", None, DIRECTION, "<= 0",
              source=_NUMAPTE,
              measure=_difference(_row("lazy", "ipi_sent"), broadcast)),
        Claim("lazy_defers", None, DIRECTION, "> 0", source=_NUMAPTE,
              measure=_row("lazy", "shootdown_deferred")),
        Claim("lazy_drains", None, DIRECTION, "> 0", source=_NUMAPTE,
              measure=_row("lazy", "shootdown_drained")),
        # Mmap-reuse pools the munmapped region and revives it flush-free.
        Claim("reuse_pool_hits", None, DIRECTION, "> 0", source=_MMAP_REUSE,
              measure=_row("mmap_reuse", "reuse_pool_hit")),
        Claim("mmap_reuse_skips_flushes", None, DIRECTION, "> 0",
              source=_MMAP_REUSE,
              measure=_row("mmap_reuse", "flush_skipped_reuse")),
        Claim("reuse_flush_ratio", None, DIRECTION, "< 1.0",
              source=_MMAP_REUSE,
              measure=_ratio(_row("mmap_reuse", "flush_cycles"),
                             _row("broadcast", "flush_cycles"))),
        Claim("reuse_vs_broadcast", None, DIRECTION, "< 1.0",
              source=_MMAP_REUSE),
        *extra,
    )


def _measure_e17(spec: ExperimentSpec) -> Measurement:
    """§9 SMP ext.: TLB-shootdown strategy cross-product at 2 CPUs."""
    return _measure_smp(spec, n_cpus=2)


def _measure_e18(spec: ExperimentSpec) -> Measurement:
    """§9 SMP ext.: TLB-shootdown strategy cross-product at 4 CPUs."""
    return _measure_smp(spec, n_cpus=4)


def _measure_e19(spec: ExperimentSpec) -> Measurement:
    """§9 SMP ext.: TLB-shootdown strategy cross-product at 8 CPUs."""
    return _measure_smp(spec, n_cpus=8)


# ---------------------------------------------------------------------------
# E20/E21 — request-level telemetry: the open-loop service workload
# ---------------------------------------------------------------------------

#: The service experiments drive the §7 pressure request-side: the
#: widest zombie-accumulation contrast is the naive SMP port against
#: the full lazy mmap-reuse stack.
_SERVICE_STRATEGIES = DEFAULT_STRATEGIES
_SERVICE_CPUS = 2
_SERVICE_REQUESTS = 120
_SERVICE_SEED = 20
#: Fixed operating point for E20: around the 2-CPU capacity knee,
#: where queueing is real but the system still keeps up.
_SERVICE_LOAD = 6_000


def _service_variants() -> Tuple[ConfigVariant, ...]:
    return tuple(
        ConfigVariant(
            name, M604_185,
            KernelConfig.optimized().with_changes(
                shootdown_strategy=ShootdownStrategy(name)
            ),
        )
        for name in _SERVICE_STRATEGIES
    )


def _measure_e20(spec: ExperimentSpec) -> Measurement:
    """Open-loop SLO cross-product at a fixed offered load.

    Every variant serves the same seeded arrival schedule; latency is
    measured from the *scheduled* arrival (coordinated-omission-free),
    so a saturated variant's backlog lands in its percentiles.
    """
    rows: Dict[str, Dict[str, object]] = {}
    for variant in spec.variants:
        sim = Simulator(variant.machine, variant.config, n_cpus=_SERVICE_CPUS)
        run = service_run(
            sim, _SERVICE_REQUESTS, _SERVICE_LOAD, seed=_SERVICE_SEED
        )
        rows[variant.label] = run.summary()
    lines = [
        f"{spec.id} — open-loop service SLO at {_SERVICE_LOAD:,} req/s "
        f"({_SERVICE_CPUS} CPUs, {_SERVICE_REQUESTS} requests, "
        f"seed {_SERVICE_SEED})",
        f"  {'strategy':<12}{'thr/s':>9}{'p50 us':>9}{'p99 us':>10}"
        f"{'p99.9 us':>10}{'zpeak':>7}{'zcorr':>8}",
    ]
    for label, row in rows.items():
        slo = row["slo"]  # type: ignore[index]
        lines.append(
            f"  {label:<12}{row['throughput_per_s']:>9,.0f}"
            f"{slo['latency_p50_us']:>9,.1f}"  # type: ignore[index]
            f"{slo['latency_p99_us']:>10,.1f}"  # type: ignore[index]
            f"{slo['latency_p999_us']:>10,.1f}"  # type: ignore[index]
            f"{row['zombie_peak']:>7}"
            f"{row['zombie_queue_correlation']:>+8.3f}"
        )
    measured: Dict[str, object] = {
        "offered_per_s": _SERVICE_LOAD,
        "requests": _SERVICE_REQUESTS,
        "n_cpus": _SERVICE_CPUS,
        "rows": rows,
    }
    return Measurement(measured, lines)


def _service_rows(m: Dict[str, object]) -> List[Dict[str, object]]:
    return list(m["rows"].values())  # type: ignore[attr-defined]


def _tail_ordered(slo: Dict[str, float]) -> bool:
    return (
        slo["latency_p50_us"] <= slo["latency_p90_us"]
        <= slo["latency_p99_us"] <= slo["latency_p999_us"]
    )


#: The service experiments extend the paper: §7's zombie economics
#: measured request-side, with open-loop (coordinated-omission-free)
#: SLO percentiles as the observable.
_E20_CLAIMS = (
    # Open loop: the offered schedule was fully served, and the tail is
    # a real distribution, not a constant ...
    Claim("open_loop", None, DIRECTION, "== true",
          measure=lambda m: all(row["completed"] == row["requests"]
                                for row in _service_rows(m))),
    Claim("tail_ordered", None, DIRECTION, "== true",
          measure=lambda m: all(_tail_ordered(row["slo"])  # type: ignore[arg-type]
                                for row in _service_rows(m))),
    # ... per-request exec churn leaves zombie entries behind, and
    # mmap_reuse skips munmap flushes, so its zombie backlog is strictly
    # deeper than the eagerly-flushing baseline's.
    Claim("zombies_accrue", None, DIRECTION, "> 0",
          measure=lambda m: min(row["zombie_peak"]  # type: ignore[type-var]
                                for row in _service_rows(m))),
    Claim("reuse_deepens_backlog", None, DIRECTION, "> 0",
          source=_MMAP_REUSE,
          measure=_difference(_row("mmap_reuse", "zombie_peak"),
                              _row("broadcast", "zombie_peak"))),
)


def _measure_e21(spec: ExperimentSpec) -> Measurement:
    """Capacity sweep: offered load ladder per flush strategy."""
    from repro.analysis.capacity import render_capacity

    doc = capacity_sweep(
        loads=DEFAULT_LOADS, strategies=_SERVICE_STRATEGIES,
        n_cpus=_SERVICE_CPUS, requests=_SERVICE_REQUESTS,
        seed=_SERVICE_SEED,
    )
    knees = {
        curve["strategy"]: knee_load(curve) for curve in doc["curves"]
    }
    measured: Dict[str, object] = {
        "capacity": doc,
        "loads": list(DEFAULT_LOADS),
        "knees": knees,
    }
    lines = [f"{spec.id} — throughput-vs-p99 capacity curves"]
    lines.extend(
        "  " + line for line in render_capacity(doc).rstrip("\n").split("\n")
    )
    return Measurement(measured, lines)


def _curves(m: Dict[str, object]) -> Dict[str, List[Dict[str, float]]]:
    """Strategy -> capacity points, lowest load first."""
    return {
        curve["strategy"]: curve["points"]
        for curve in m["capacity"]["curves"]  # type: ignore[index]
    }


def _rungs(m: Dict[str, object]):
    """``(base, top)`` load points of every capacity curve."""
    return [(points[0], points[-1]) for points in _curves(m).values()]


_E21_CLAIMS = (
    Claim("strategies", None, DIRECTION, ">= 2",
          measure=lambda m: len(_curves(m))),
    Claim("loads_ascending", None, DIRECTION, "== true",
          measure=lambda m: m["capacity"]["loads"] == sorted(  # type: ignore[index]
              m["capacity"]["loads"])),  # type: ignore[index]
    # The knee: the open-loop tail explodes across the ladder, because
    # the top rung is past capacity ...
    Claim("p99_knee_exists", None, DIRECTION, "> 3",
          measure=lambda m: min(top["latency_p99_us"] / base["latency_p99_us"]
                                for base, top in _rungs(m))),
    Claim("top_rung_saturates", None, DIRECTION, "< 1.0",
          measure=lambda m: max(top["throughput_per_s"] / top["offered_per_s"]
                                for _base, top in _rungs(m))),
    # ... and the zombie backlog deepens with the load.
    Claim("zombie_pressure_grows_with_load", None, DIRECTION, "> 0",
          measure=lambda m: min(top["zombie_peak"] - base["zombie_peak"]
                                for base, top in _rungs(m))),
    Claim("reuse_deepest_at_top", None, DIRECTION, "> 0",
          source=_MMAP_REUSE,
          measure=lambda m: _curves(m)["mmap_reuse"][-1]["zombie_peak"]
          - _curves(m)["broadcast"][-1]["zombie_peak"]),
)


SERVICE_NOTES = (
    "Extension beyond the paper: request-level telemetry over the SMP "
    "executive. Latency clocks start at the seeded *scheduled* arrival "
    "(open-loop), so saturation shows up in the percentiles instead of "
    "stretching the schedule (coordinated omission)."
)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

SMP_NOTES = (
    "Extension beyond the paper: the original defers SMP (§9 footnote). "
    "Fixed task affinity makes targeted shootdown IPI-free; the lazy "
    "and mmap-reuse strategies model arXiv 2401.15558 / 2409.10946."
)

#: Experiment id -> spec, as indexed in DESIGN.md.
SPECS: Dict[str, ExperimentSpec] = {
    "E1": ExperimentSpec(
        id="E1",
        title="Figure 1: translation datapath",
        section="Figure 1",
        variants=(ConfigVariant("fig1", M604_185, KernelConfig.optimized()),),
        workload=_measure_e1,
        claims=_E1_CLAIMS,
    ),
    "E2": ExperimentSpec(
        id="E2",
        title="§5.1 BAT kernel mapping",
        section="§5.1",
        variants=_e2_variants(),
        workload=_measure_e2,
        claims=_E2_CLAIMS,
        notes=(
            "Wall-clock effect under-reproduces: our scaled compile is "
            "cache-bound where the original was reload-bound, so removing "
            "kernel TLB misses moves wall time less than the paper's 20%."
        ),
    ),
    "E3": ExperimentSpec(
        id="E3",
        title="§5.2 hash-table occupancy vs VSID scatter",
        section="§5.2",
        variants=_e3_variants(),
        workload=_measure_e3,
        claims=_E3_CLAIMS,
    ),
    "E4": ExperimentSpec(
        id="E4",
        title="§6.1 fast reload handlers",
        section="§6.1",
        variants=_e4_variants(),
        workload=_measure_e4,
        claims=_E4_CLAIMS,
    ),
    "E5": ExperimentSpec(
        id="E5",
        title="Table 1: direct TLB reloads on the 603",
        section="Table 1",
        variants=_e5_variants(),
        workload=_measure_e5,
        claims=_E5_CLAIMS,
        notes=(
            "The in-noise per-cell differences between htab and no-htab "
            "(pipe bw +-6%, reread +-9%) do not fully reproduce; the "
            "headline (603@180 keeps pace with the 604s; process start "
            "improves without the hash table) does."
        ),
    ),
    "E6": ExperimentSpec(
        id="E6",
        title="Table 2: lazy VSID flushing",
        section="Table 2",
        variants=_e6_variants(),
        workload=_measure_e6,
        claims=_E6_CLAIMS,
    ),
    "E7": ExperimentSpec(
        id="E7",
        title="§7 zombie reclaim in the idle task",
        section="§7",
        variants=_e7_variants(),
        workload=_measure_e7,
        claims=_E7_CLAIMS,
        notes=(
            "Live-entry growth (600-700 -> 1400-2200) reproduces only "
            "partially: with round-robin bucket replacement, evicts land "
            "mostly on zombies, so live occupancy is less sensitive here "
            "than on the real system."
        ),
    ),
    "E8": ExperimentSpec(
        id="E8",
        title="§7 range-flush cutoff sweep",
        section="§7",
        variants=_e8_variants(),
        workload=_measure_e8,
        claims=_E8_CLAIMS,
    ),
    "E9": ExperimentSpec(
        id="E9",
        title="§8 page-table cache pollution",
        section="§8",
        variants=_e9_variants(),
        workload=_measure_e9,
        claims=_E9_CLAIMS,
    ),
    "E10": ExperimentSpec(
        id="E10",
        title="§9 idle-task page clearing",
        section="§9",
        variants=_e10_variants(),
        workload=_measure_e10,
        claims=_E10_CLAIMS,
        notes=(
            "The cached-clearing penalty reproduces in direction (slower) "
            "but not the full 2x: the tag-only cache model has no bus "
            "contention, which the paper's SMP footnote identifies as the "
            "other half of the cost."
        ),
    ),
    "E11": ExperimentSpec(
        id="E11",
        title="Table 3: OS comparison",
        section="Table 3",
        variants=(),
        workload=_measure_e11,
        claims=_E11_CLAIMS,
    ),
    "E12": ExperimentSpec(
        id="E12",
        title="§5.1 I/O-space BAT mapping",
        section="§5.1",
        variants=_e12_variants(),
        workload=_measure_e12,
        claims=_E12_CLAIMS,
    ),
    "E13": ExperimentSpec(
        id="E13",
        title="§6.2 no-htab compile",
        section="§6.2",
        variants=_e13_variants(),
        workload=_measure_e13,
        claims=_E13_CLAIMS,
    ),
    "E14": ExperimentSpec(
        id="E14",
        title="§10.1 uncached idle task ablation",
        section="§10.1",
        variants=_e14_variants(),
        workload=_measure_e14,
        claims=_E14_CLAIMS,
    ),
    "E15": ExperimentSpec(
        id="E15",
        title="§10.2 cache preloads ablation",
        section="§10.2",
        variants=_e15_variants(),
        workload=_measure_e15,
        claims=_E15_CLAIMS,
    ),
    "E16": ExperimentSpec(
        id="E16",
        title="§7 rejected on-demand scavenge ablation",
        section="§7",
        variants=_e16_variants(),
        workload=_measure_e16,
        claims=_E16_CLAIMS,
        seed=11,
    ),
    "E17": ExperimentSpec(
        id="E17",
        title="SMP shootdown strategies, 2 CPUs",
        section="§9 SMP footnote (ext.)",
        variants=_smp_variants(),
        workload=_measure_e17,
        claims=_smp_claims(),
        notes=SMP_NOTES,
    ),
    "E18": ExperimentSpec(
        id="E18",
        title="SMP shootdown strategies, 4 CPUs",
        section="§9 SMP footnote (ext.)",
        variants=_smp_variants(),
        workload=_measure_e18,
        claims=_smp_claims(
            Claim("n_cpus", None, DIRECTION, "== 4"),
        ),
        notes=SMP_NOTES,
    ),
    "E19": ExperimentSpec(
        id="E19",
        title="SMP shootdown strategies, 8 CPUs",
        section="§9 SMP footnote (ext.)",
        variants=_smp_variants(),
        workload=_measure_e19,
        claims=_smp_claims(
            # More remote CPUs: more broadcast IPI traffic per flush.
            Claim("broadcast_ipis", None, DIRECTION, "> 0"),
        ),
        notes=SMP_NOTES,
    ),
    "E20": ExperimentSpec(
        id="E20",
        title="Open-loop service SLO at the knee",
        section="§7 zombie pressure (ext.)",
        variants=_service_variants(),
        workload=_measure_e20,
        claims=_E20_CLAIMS,
        notes=SERVICE_NOTES,
    ),
    "E21": ExperimentSpec(
        id="E21",
        title="Capacity curves: throughput vs p99",
        section="§7 zombie pressure (ext.)",
        variants=_service_variants(),
        workload=_measure_e21,
        claims=_E21_CLAIMS,
        notes=SERVICE_NOTES,
    ),
}


def sorted_ids(ids: Optional[Sequence[str]] = None) -> List[str]:
    """Registry IDs in numeric order (E1, E2, ..., E21)."""
    return sorted(ids if ids is not None else SPECS, key=experiment_sort_key)

