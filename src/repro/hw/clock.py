"""The machine's cycle ledger.

Every cost in the model is charged here, tagged with a category so the
benchmarks can break time down the way the paper does (time in TLB
reloads vs flushes vs user work vs syscall entry).  Times are integer
cycles; conversion to wall-clock happens only at the reporting edge.

This lives in ``hw`` — the ledger is the machine's clock, owned by
:class:`~repro.hw.machine.MachineModel` — and is re-exported by
``repro.sim`` for the simulator-facing import path.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, Dict, Optional


class CycleLedger:
    """Accumulates cycles by category.

    Like the monitor's, the category store is a ``defaultdict(int)``
    read only through ``.get``: ``add(0, category)`` records the
    category and a read adds none.
    """

    def __init__(self) -> None:
        self.total = 0
        self._by_category: DefaultDict[str, int] = defaultdict(int)
        #: Optional ``observer(total)`` callback invoked after every
        #: charge.  The observability sampler rides this hook; observers
        #: must be read-only (they see the ledger after the charge and
        #: must not charge cycles themselves).
        self.observer: Optional[Callable[[int], None]] = None

    def add(self, cycles: int, category: str) -> int:
        """Charge ``cycles`` to ``category``; returns the amount charged."""
        if cycles < 0:
            raise ValueError(f"negative cycle charge: {cycles}")
        self.total += cycles
        self._by_category[category] += cycles
        if self.observer is not None:
            self.observer(self.total)
        return cycles

    def category(self, name: str) -> int:
        return self._by_category.get(name, 0)

    def breakdown(self) -> Dict[str, int]:
        return dict(self._by_category)

    def snapshot(self) -> int:
        """Current total, for elapsed-time measurement."""
        return self.total

    def since(self, mark: int) -> int:
        """Cycles elapsed since a snapshot."""
        return self.total - mark

    def reset(self) -> None:
        self.total = 0
        self._by_category.clear()
