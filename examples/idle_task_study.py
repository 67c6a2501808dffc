#!/usr/bin/env python3
"""The title experiment: optimizing the idle task (§7 + §9).

Runs the multiprogramming mix with and without the idle-task zombie
reclaim, then the page-clearing policy ladder, printing the hash-table
health metrics the paper reports (evict ratio, live/zombie occupancy)
and the compile-time effect of each clearing policy.

This is the longest-running example (~1 minute).

Run:  python examples/idle_task_study.py
"""

from repro import IdlePageClearPolicy, KernelConfig, M604_185, Simulator
from repro.analysis.tables import format_table
from repro.workloads.kbuild import CACHE_RESIDENT, kernel_compile
from repro.workloads.mixes import multiprogram_mix


def zombie_study():
    print("=== §7: idle-task zombie reclaim (multiprogramming mix) ===")
    rows = []
    for label, reclaim in (("no reclaim", False), ("idle reclaim", True)):
        config = KernelConfig.optimized().with_changes(
            idle_zombie_reclaim=reclaim
        )
        result = multiprogram_mix(
            Simulator(M604_185, config),
            rounds=100, churn_every=6, think_cycles=120000, label=label,
        )
        rows.append([
            label,
            int(result.valid_entries),
            int(result.live_entries),
            int(result.zombie_entries),
            f"{result.evict_ratio:.2f}",
            f"{result.htab_hit_rate:.2f}",
            result.zombies_reclaimed,
        ])
    print(format_table(
        ["config", "valid PTEs", "live", "zombie", "evict/reload",
         "htab hit", "reclaimed"],
        rows,
    ))
    print("paper: evict ratio >90% -> ~30%; the full 16384-slot table")
    print("fills with zombies without reclaim\n")


def clearing_study():
    print("=== §9: idle-task page clearing (scaled kernel compile) ===")
    rows = []
    baseline = None
    for policy in (
        IdlePageClearPolicy.OFF,
        IdlePageClearPolicy.CACHED_LIST,
        IdlePageClearPolicy.UNCACHED_NO_LIST,
        IdlePageClearPolicy.UNCACHED_LIST,
    ):
        config = KernelConfig.optimized().with_changes(
            idle_page_clear=policy
        )
        result = kernel_compile(
            Simulator(M604_185, config), units=4, profile=CACHE_RESIDENT,
            label=policy.value,
        )
        if baseline is None:
            baseline = result.wall_ms
        rows.append([
            policy.value,
            f"{result.wall_ms:.1f}",
            f"{result.wall_ms / baseline:.3f}x",
            result.pages_precleared,
            result.precleared_used,
        ])
    print(format_table(
        ["policy", "compile ms", "vs OFF", "pages precleared", "used"],
        rows,
    ))
    print("paper: cached clearing made the compile ~2x slower; uncached")
    print("without the list changed nothing; uncached + list was faster")


def main():
    zombie_study()
    clearing_study()


if __name__ == "__main__":
    main()
