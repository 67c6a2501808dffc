#!/usr/bin/env python3
"""§7 in action: why mmap() latency fell from 3240 us to 41 us.

Sweeps the flush strategy and the range-flush cutoff on the lat_mmap
workload and prints the paper's headline numbers next to ours, plus the
hash-table zombie accounting that makes the lazy strategy work.

Run:  python examples/mmap_flush_tuning.py
"""

from repro import KernelConfig, M603_133, M604_185, Simulator, VsidPolicy
from repro.analysis.tables import format_table
from repro.workloads.lmbench import mmap_latency


def measure(spec, config):
    sim = Simulator(spec, config)
    latency = mmap_latency(sim)
    live, zombie = sim.kernel.htab_zombie_stats()
    return latency, sim.machine.monitor["vsid_bump"], zombie


def main():
    lazy = KernelConfig.optimized()
    search = lazy.with_changes(
        lazy_vsid_flush=False, vsid_policy=VsidPolicy.PID_SCATTER
    )

    rows = []
    for spec, paper_search, paper_lazy in (
        (M603_133, 3240, 41),
        (M604_185, 2733, 33),
    ):
        search_us, _, _ = measure(spec, search)
        lazy_us, bumps, zombies = measure(spec, lazy)
        rows.append([
            spec.name,
            search_us,
            paper_search,
            lazy_us,
            paper_lazy,
            f"{search_us / lazy_us:.0f}x",
            bumps,
            zombies,
        ])

    print(format_table(
        ["machine", "search us", "(paper)", "lazy us", "(paper)",
         "improvement", "VSID bumps", "zombie PTEs left"],
        rows,
        title="lat_mmap, 4 MB file region (paper: ~80x improvement)",
    ))
    print()
    print("The lazy kernel never searches the hash table: it gives the")
    print("process fresh VSIDs (one bump per mmap+munmap pair) and leaves")
    print("the old PTEs behind as zombies for the idle task to reclaim.")

    print()
    print("Cutoff sweep on the 604 (small flushes still use the search):")
    sweep_rows = []
    for cutoff in (1, 5, 20, 100):
        config = lazy.with_changes(range_flush_cutoff=cutoff)
        latency, bumps, _ = measure(M604_185, config)
        sweep_rows.append([f"{cutoff} pages", latency, bumps])
    print(format_table(["cutoff", "lat_mmap us", "VSID bumps"], sweep_rows))


if __name__ == "__main__":
    main()
