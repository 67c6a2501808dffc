"""Cycle attribution — layer 2 of the MMU flight recorder.

The paper's analysis style is "where did the time go": time in TLB
reloads vs flushes vs user work vs syscall entry (§4, §6, §7).  Every
cycle the simulation charges already lands in the :class:`CycleLedger`
under a fine-grained category; this profiler folds those raw categories
into the paper's path taxonomy and renders a breakdown that sums
*exactly* to the run's total cycles — no sampling, no residue.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

#: Raw ledger category -> path category.  Anything unlisted lands in
#: "other", so the attribution is total by construction.
PATH_CATEGORIES: Dict[str, str] = {
    "user_compute": "user-compute",
    # Memory-system traffic: the cache-modelled line touches and copies.
    "mem": "memory",
    "copy": "memory",
    "prefetch": "memory",
    # TLB/hash reload path — includes the hardware hash walk, the trap
    # invoke costs and the software handler's table probes.
    "tlb_reload": "tlb-reload",
    "scavenge": "tlb-reload",
    # Translation teardown.
    "flush": "flush",
    # SMP TLB-shootdown traffic: IPI send/deliver and deferred drains.
    "shootdown": "shootdown",
    # The idle task's three jobs.
    "idle_reclaim": "idle",
    "idle_spin": "idle",
    "idle_clear": "idle",
    # Kernel entry/exit and syscall bodies.
    "syscall": "syscall",
    "ipc": "syscall",
    "fork": "syscall",
    # Demand faulting.
    "fault": "fault",
    # Scheduling and the switch path.
    "context_switch": "scheduling",
    "sched": "scheduling",
    "wakeup": "scheduling",
    # File layer and disk waits.
    "fs": "io",
    "io_wait": "io",
    # Page allocator work outside the idle task.
    "palloc": "kernel-mm",
    # Request-serving runtime bookkeeping (queue accept/dispatch).
    "service": "service",
}

#: Every path category in stable display order: first appearance in
#: ``PATH_CATEGORIES`` (largest concerns of the paper first), then the
#: "other" fallback.  Categories absent from a run are skipped.
DISPLAY_ORDER = tuple(dict.fromkeys(PATH_CATEGORIES.values())) + ("other",)


class AttributionError(AssertionError):
    """The attribution failed to cover the ledger exactly (a bug)."""


class CycleProfiler:
    """Folds a ledger's raw categories into path-category attribution."""

    def __init__(self, clock: Any) -> None:
        self.clock = clock

    @property
    def total(self) -> int:
        return self.clock.total

    def attribution(self) -> Dict[str, int]:
        """Path-category cycle totals; always sums to ``clock.total``."""
        out: Dict[str, int] = {}
        for raw, cycles in self.clock.breakdown().items():
            category = PATH_CATEGORIES.get(raw, "other")
            out[category] = out.get(category, 0) + cycles
        attributed = sum(out.values())
        if attributed != self.clock.total:
            raise AttributionError(
                f"attributed {attributed} cycles != ledger total "
                f"{self.clock.total}"
            )
        return out

    def raw_breakdown(self) -> Dict[str, int]:
        return self.clock.breakdown()


def merge_attributions(attributions: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum per-machine attributions into one experiment-level breakdown."""
    out: Dict[str, int] = {}
    for attribution in attributions:
        for category, cycles in attribution.items():
            out[category] = out.get(category, 0) + cycles
    return out


def render_attribution(
    attribution: Dict[str, int],
    title: str,
    cycles_to_us: Optional[Callable[[float], float]] = None,
) -> str:
    """A 'where did the time go' table whose rows sum to the total."""
    total = sum(attribution.values())
    lines = [title]
    header = f"  {'category':<14}{'cycles':>16}{'share':>9}"
    if cycles_to_us is not None:
        header += f"{'us':>14}"
    lines.append(header)
    ordered = [c for c in DISPLAY_ORDER if c in attribution]
    ordered += sorted(set(attribution) - set(ordered))
    for category in ordered:
        cycles = attribution[category]
        share = cycles / total if total else 0.0
        row = f"  {category:<14}{cycles:>16,}{share:>8.1%}"
        if cycles_to_us is not None:
            row += f"{cycles_to_us(cycles):>14,.1f}"
        lines.append(row)
    row = f"  {'total':<14}{total:>16,}{'100.0%':>9}"
    if cycles_to_us is not None:
        row += f"{cycles_to_us(total):>14,.1f}"
    lines.append(row)
    return "\n".join(lines)
