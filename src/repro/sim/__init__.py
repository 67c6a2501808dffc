"""Simulation engine: cycle ledger, traces, processes, and the simulator.

``Executive`` and ``Simulator`` are provided lazily: they pull in the
experiment-facing machinery, which is heavy and unneeded for callers
that only want the ledger or a trace.
"""

from repro.hw.clock import CycleLedger
from repro.sim.trace import (
    PageVisit,
    WorkingSetTrace,
    sequential_trace,
    strided_trace,
)

__all__ = [
    "CycleLedger",
    "Executive",
    "PageVisit",
    "Simulator",
    "WorkingSetTrace",
    "sequential_trace",
    "strided_trace",
]


def __getattr__(name):
    if name == "Executive":
        from repro.sim.process import Executive

        return Executive
    if name == "Simulator":
        from repro.sim.simulator import Simulator

        return Simulator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
