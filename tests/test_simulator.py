"""The Simulator facade."""

import pytest

from repro.kernel.config import KernelConfig
from repro.params import M603_180, M604_185
from repro.sim.simulator import Simulator


class TestConstruction:
    def test_default_config_is_unoptimized(self):
        sim = Simulator(M604_185)
        assert not sim.config.bat_kernel_map

    def test_boot_helper(self):
        sim = Simulator(M603_180, KernelConfig.optimized())
        assert sim.spec is M603_180
        assert sim.config.bat_kernel_map

    def test_cache_ptes_follows_config(self):
        cached = Simulator(M604_185, KernelConfig.optimized())
        uncached = Simulator(
            M604_185,
            KernelConfig.optimized().with_changes(cache_page_tables=False),
        )
        assert cached.machine.walker.cache_ptes
        assert not uncached.machine.walker.cache_ptes


class TestMeasurement:
    def test_measure_cycles(self):
        sim = Simulator(M604_185)
        cycles = sim.measure_cycles(lambda: sim.machine.clock.add(123, "x"))
        assert cycles == 123

    def test_cycles_to_us(self):
        sim = Simulator(M604_185)
        assert sim.cycles_to_us(185) == pytest.approx(1.0)

    def test_mb_per_s(self):
        sim = Simulator(M604_185)
        # 1 MB in 1 second's worth of cycles -> 1 MB/s.
        assert sim.mb_per_s(1_000_000, 185_000_000) == pytest.approx(1.0)
        assert sim.mb_per_s(100, 0) == 0.0

    def test_counters_and_breakdown_views(self):
        sim = Simulator(M604_185)
        task = sim.kernel.spawn("t", data_pages=4)
        sim.kernel.switch_to(task)
        sim.kernel.user_access(task, 0x10000000, 1, True)
        assert sim.counters()["page_fault_minor"] == 1
        assert sim.breakdown()
        assert sim.elapsed_us() > 0
