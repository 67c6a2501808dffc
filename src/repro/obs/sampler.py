"""Time-series sampling — layer 3 of the MMU flight recorder.

§7's headline curves are *trajectories*, not endpoints: hash-table
occupancy growing from 600–700 to 1400–2200 live entries, the evict
ratio collapsing from >90% to ~30%.  The repro previously exposed only
endpoint deltas; this sampler snapshots the monitor counters and the
hash table's occupancy/zombie state every N simulated microseconds, so
those curves become first-class, plottable artifacts.

Sampling rides the cycle ledger's observer hook: whenever charged
cycles cross the next sample boundary, a snapshot is taken.  Every read
is counter-free (``monitor_totals``, ``live_and_zombie_counts``), so
sampled runs stay bit-identical to unsampled ones.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.obs.events import EVENT_NAMES

#: Monitor counters republished as Chrome counter tracks (so Perfetto
#: plots them as curves next to the occupancy track): the keys the
#: ``monitor`` track registers.
CURVE_COUNTERS = EVENT_NAMES["monitor"].args

#: Per-VSID detail kept per sample: the K heaviest VSIDs, everything
#: else folded into one remainder bucket.  Bounds each occupancy tick
#: at O(K) record size however many thousand contexts a service-scale
#: run churns (the full per-VSID map would be O(distinct VSIDs)).
VSID_TOP_K = 8


class TimeSeriesSampler:
    """Snapshots monitor + HTAB state on a fixed simulated-time grid."""

    def __init__(self, kernel: Any, every_us: float,
                 tracer: Any = None,
                 max_samples: int = 100_000) -> None:
        if not math.isfinite(every_us) or every_us <= 0:
            raise ValueError(
                f"sample interval must be positive and finite: {every_us}"
            )
        self.kernel = kernel
        self.machine = kernel.machine
        self.tracer = tracer
        self.every_us = every_us
        self.every_cycles = max(
            1, int(every_us * self.machine.spec.clock_mhz)
        )
        self.max_samples = max_samples
        self.samples: List[Dict] = []
        self._next = self.every_cycles

    # -- the ledger observer -------------------------------------------------

    def on_cycles(self, total: int) -> None:
        """Called by the ledger after every charge; samples on boundaries."""
        if total < self._next:
            return
        if len(self.samples) < self.max_samples:
            self._sample(total)
        # One sample per crossing, however large the charge was.
        self._next = total - (total % self.every_cycles) + self.every_cycles

    def _sample(self, total: int) -> None:
        machine = self.machine
        htab = machine.htab
        # Incrementally-maintained table population: same numbers the
        # full live/zombie histogram sums to, at O(live VSIDs) per tick.
        live, zombie = htab.live_and_zombie_counts(
            self.kernel.vsid_allocator.is_live
        )
        valid = live + zombie
        hottest = htab.hottest_bucket_load()
        vsids = htab.top_vsid_loads(
            VSID_TOP_K, self.kernel.vsid_allocator.is_live
        )
        if machine.n_cpus > 1:
            counters = machine.monitor_totals()
        else:
            counters = machine.monitor.snapshot()
        sample = {
            "cycle": total,
            "us": round(machine.spec.cycles_to_us(total), 3),
            "htab": {
                "live": live,
                "zombie": zombie,
                "valid": valid,
                "occupancy": round(valid / htab.slots, 6),
                "hottest_bucket": hottest,
                "vsids": vsids,
            },
            "counters": counters,
        }
        if machine.n_cpus > 1:
            # Per-CPU ledger occupancy: where simulated time is accruing
            # across the machine at this sample boundary.
            sample["cpu_cycles"] = machine.cpu_cycle_totals()
        self.samples.append(sample)
        if self.tracer is not None:
            self.tracer.counter("htab", live, zombie)
            self.tracer.counter("occupancy", valid)
            self.tracer.counter(
                "monitor",
                *[counters.get(name, 0) for name in CURVE_COUNTERS],
            )
            rest = vsids["rest"]
            self.tracer.counter(
                "vsids",
                sum(entry["entries"] for entry in vsids["top"]),
                rest["entries"],
                rest["zombie_entries"],
            )

    # -- export ----------------------------------------------------------------

    def series(self, *path: str) -> List:
        """One column of the time series, e.g. ``series("htab", "live")``."""
        out = []
        for sample in self.samples:
            value: object = sample
            for key in path:
                value = value[key]  # type: ignore[index]
            out.append(value)
        return out
