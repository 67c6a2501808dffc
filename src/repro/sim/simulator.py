"""The top-level simulator: machine + kernel + executive in one object.

This is the object workloads and benchmarks construct: give it a machine
spec and a kernel configuration, get back a booted system with an
executive ready to run process bodies, plus measurement helpers that
convert ledger cycles into the paper's reporting units (µs, MB/s).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro import obs
from repro.hw.machine import MachineModel
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.params import HTAB_GROUPS, MachineSpec, PTES_PER_GROUP, RAM_BYTES
from repro.sim.process import Executive


class Simulator:
    """A booted simulated system."""

    def __init__(
        self,
        spec: MachineSpec,
        config: Optional[KernelConfig] = None,
        ram_bytes: int = RAM_BYTES,
        htab_groups: int = HTAB_GROUPS,
        htab_ptes_per_group: int = PTES_PER_GROUP,
        sanitize: bool = False,
        trace: bool = False,
        profile: bool = False,
        sample_every_us: Optional[float] = None,
        n_cpus: int = 1,
    ):
        self.spec = spec
        self.config = config if config is not None else KernelConfig.unoptimized()
        self.machine = MachineModel(
            spec,
            htab_groups=htab_groups,
            htab_ptes_per_group=htab_ptes_per_group,
            ram_bytes=ram_bytes,
            cache_ptes=self.config.cache_page_tables,
            n_cpus=n_cpus,
        )
        self.kernel = Kernel(self.machine, self.config)
        self.executive = Executive(self.kernel)
        self.obs = obs.attach_observability(
            self.kernel,
            trace=trace,
            profile=profile,
            sample_every_us=sample_every_us,
            sanitize=sanitize,
        )
        self.sanitizer = self.obs.sanitizer if self.obs is not None else None

    # -- measurement ------------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.machine.clock.total

    @property
    def total_cycles(self) -> int:
        """Cycles summed over every CPU (== ``cycles`` with one CPU)."""
        return self.machine.total_cycles_all_cpus()

    def elapsed_us(self) -> float:
        return self.spec.cycles_to_us(self.cycles)

    def cycles_to_us(self, cycles: float) -> float:
        return self.spec.cycles_to_us(cycles)

    def measure_cycles(self, fn: Callable[[], None]) -> int:
        """Run ``fn`` and return the cycles it consumed."""
        start = self.machine.clock.snapshot()
        fn()
        return self.machine.clock.since(start)

    def run(self, **kwargs) -> None:
        """Run the executive until all bodies exit."""
        self.executive.run(**kwargs)

    def counters(self) -> Dict[str, int]:
        return self.machine.monitor.snapshot()

    def breakdown(self) -> Dict[str, int]:
        return self.machine.clock.breakdown()

    def mb_per_s(self, total_bytes: int, cycles: int) -> float:
        """Bandwidth in MB/s given bytes moved in ``cycles``."""
        if cycles <= 0:
            return 0.0
        seconds = cycles / (self.spec.clock_mhz * 1e6)
        return total_bytes / 1e6 / seconds

