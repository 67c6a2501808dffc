"""604-style hardware performance monitor.

§4: "we gathered low-level statistics with the PPC 604 hardware monitor.
Using this monitor we were able to characterize the system's behavior in
great detail by counting every TLB and cache miss, whether data or
instruction."  On the 603 the kernel kept software counters serving the
same role.  This module is that counter fabric: a named-counter registry
with snapshot/delta support so benchmarks can report per-phase numbers.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Optional


class HardwareMonitor:
    """Named event counters with snapshot/delta accounting.

    The counter names are the monitor-kind entries of the
    ``EVENT_NAMES`` registry in :mod:`repro.obs.events`.
    """

    def __init__(self):
        self._counters: Counter = Counter()
        #: Optional event tracer; when attached, every counted event is
        #: republished on the trace bus (the tracer filters for itself).
        self.tracer = None

    def count(self, event: str, amount: int = 1) -> None:
        """Increment a named event counter."""
        self._counters[event] += amount
        if self.tracer is not None:
            self.tracer.on_monitor_event(event, amount)

    def __getitem__(self, event: str) -> int:
        return self._counters.get(event, 0)

    def get(self, event: str, default: int = 0) -> int:
        return self._counters.get(event, default)

    def snapshot(self) -> Dict[str, int]:
        """A frozen copy of all counters."""
        return dict(self._counters)

    def delta(self, since: Dict[str, int]) -> Dict[str, int]:
        """Counter increase since a snapshot (only non-zero deltas)."""
        out = {}
        for event, value in self._counters.items():
            change = value - since.get(event, 0)
            if change:
                out[event] = change
        return out

    def reset(self, events: Optional[Iterable[str]] = None) -> None:
        if events is None:
            self._counters.clear()
        else:
            for event in events:
                self._counters.pop(event, None)

    # -- derived metrics the paper quotes ------------------------------------

    def htab_hit_rate(self) -> float:
        """Hash-table hit rate on TLB misses (85%–98% in §7)."""
        searches = self.get("htab_search")
        return self.get("htab_hit") / searches if searches else 0.0

    def evict_ratio(self) -> float:
        """Evicts per hash-table reload (>90% -> 30% in §7)."""
        reloads = self.get("htab_reload")
        return self.get("htab_evict") / reloads if reloads else 0.0

    def total_tlb_misses(self) -> int:
        return self.get("itlb_miss") + self.get("dtlb_miss")
