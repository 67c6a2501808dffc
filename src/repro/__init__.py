"""Reproduction of "Optimizing the Idle Task and Other MMU Tricks"
(Dougan, Mackerras, Yodaiken — OSDI 1999) as a cycle-accounting
simulation of the PowerPC 603/604 MMU and a Linux/PPC-like kernel.

Quick start::

    from repro import KernelConfig, M604_185, Simulator

    sim = Simulator(M604_185, KernelConfig.optimized())
    task = sim.kernel.spawn("demo")

    def body(t):
        yield ("getpid",)
        yield ("touch", 0x10000000, 8, True)

    sim.executive.add(task, body(task))
    sim.run()
    print(sim.elapsed_us(), "us", sim.counters())

See :mod:`repro.workloads.lmbench` for the paper's benchmark points and
:mod:`repro.analysis.specs` for the table/figure reproductions.
"""

from repro.errors import (
    ConfigError,
    KernelPanic,
    OutOfMemoryError,
    ProtectionFault,
    ReproError,
    SegmentFault,
    SyscallError,
    TranslationError,
)
from repro.kernel.config import IdlePageClearPolicy, KernelConfig, VsidPolicy
from repro.params import (
    ALL_MACHINES,
    M603_133,
    M603_180,
    M604_133,
    M604_185,
    M604_200,
    MachineSpec,
    machine_by_name,
)
from repro.sim.simulator import Simulator

__version__ = "1.0.0"

__all__ = [
    "ALL_MACHINES",
    "ConfigError",
    "IdlePageClearPolicy",
    "KernelConfig",
    "KernelPanic",
    "M603_133",
    "M603_180",
    "M604_133",
    "M604_185",
    "M604_200",
    "MachineSpec",
    "OutOfMemoryError",
    "ProtectionFault",
    "ReproError",
    "SegmentFault",
    "Simulator",
    "SyscallError",
    "TranslationError",
    "VsidPolicy",
    "machine_by_name",
    "__version__",
]
