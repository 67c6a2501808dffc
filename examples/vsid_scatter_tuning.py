#!/usr/bin/env python3
"""§5.2's tuning session, replayed: find the VSID scatter constant.

Sweeps scatter constants the way the authors did ("adjusting the
constant until hot-spots disappeared"), printing the hash-table
occupancy and hot-spot metrics for each.  Powers of two alias in the low
hash bits; small odd constants spread perfectly.

The sweep is experiment E3 with a wider variant tuple: E3's own
workload fills the hash table once per constant, so the registry and
this session share one fill routine.

Run:  python examples/vsid_scatter_tuning.py   (~15 s)
"""

import dataclasses

from repro.analysis import specs
from repro.analysis.spec import ConfigVariant
from repro.kernel.config import KernelConfig, VsidPolicy
from repro.params import M604_185

# Constants below 12 would alias neighbouring PIDs' segments and are
# rejected by the allocator; the sweep starts at 16 (the shift-style
# naive choice) and includes the paper-era odd candidates.
CONSTANTS = (16, 32, 64, 256, 1024, 2048, 13, 37, 113, 897)


def main():
    variants = tuple(
        ConfigVariant(
            f"pid*{constant}", M604_185,
            KernelConfig(vsid_policy=VsidPolicy.PID_SCATTER,
                         vsid_scatter_constant=constant,
                         bat_kernel_map=True),
        )
        for constant in CONSTANTS
    )
    spec = dataclasses.replace(specs.SPECS["E3"], variants=variants)
    # The same insert load for every constant; E3's claims name its own
    # four variants, so run the workload rather than the experiment.
    measurement = spec.workload(spec, processes=24, pages_per_process=360)
    print("\n".join(measurement.lines))
    print()

    occupancy = measurement.measured
    peak = max(occupancy.values())
    print("hash-table occupancy by VSID scatter constant (higher is better)")
    for label in sorted(occupancy, key=occupancy.get):
        constant = int(label[len("pid*"):])
        pow2 = "pow2" if constant & (constant - 1) == 0 else "    "
        bar = "#" * max(1, int(40 * occupancy[label] / peak))
        print(f"  {label:<9} {pow2}  {bar} {occupancy[label]:.1%}")
    print()
    best = max(occupancy, key=occupancy.get)
    print(f"best constant in this sweep: {best} "
          f"({occupancy[best]:.0%} occupancy)")
    print("paper: 'multiplying the process id by a small non-power-of-two")
    print("constant proved to be necessary to scatter PTEs'")


if __name__ == "__main__":
    main()
