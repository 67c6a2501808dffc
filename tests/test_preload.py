"""The §10.2 cache-preload mechanism."""

import pytest

from repro.hw.machine import MachineModel
from repro.hw.tlb import TlbEntry
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import IO_BASE_EA
from repro.params import KERNELBASE, M604_185
from repro.sim.simulator import Simulator


class TestPrefetchMechanism:
    def test_prefetch_fills_cache_without_full_charge(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.dtlb.insert(TlbEntry(vsid=0x42, page_index=0x10, ppn=7))
        before = machine.clock.total
        machine.prefetch_page_lines(0x10010000, lines=4)
        charged = machine.clock.total - before
        # Issue cost only, far below four line fills.
        assert charged == 8
        assert machine.dcache.contains(7 << 12)
        # The subsequent demand access hits.
        assert machine.data_access(0x10010000) <= 2

    def test_prefetch_without_translation_is_dropped(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.prefetch_page_lines(0x10010000, lines=4)
        # Nothing faulted, nothing cached: dcbt never faults.
        assert len(machine.dcache) == 0
        assert machine.monitor["dtlb_miss"] == 0

    def test_prefetch_through_bat(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        sim.machine.prefetch_page_lines(KERNELBASE + 0x5000, lines=2)
        assert sim.machine.dcache.contains(0x5000)

    def test_cache_inhibited_entry_not_prefetched(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.dtlb.insert(
            TlbEntry(vsid=0x42, page_index=0x10, ppn=7, cache_inhibited=True)
        )
        machine.prefetch_page_lines(0x10010000, lines=4)
        assert len(machine.dcache) == 0

    def test_cache_inhibited_bat_not_prefetched(self):
        """§5.1's I/O BAT is cache-inhibited: a prefetch through it drops."""
        config = KernelConfig.optimized().with_changes(bat_io_map=True)
        machine = Simulator(M604_185, config).machine
        resident = len(machine.dcache)
        before = machine.clock.total
        assert machine.prefetch_page_lines(IO_BASE_EA, lines=4) == 2
        assert machine.clock.total - before == 2
        assert len(machine.dcache) == resident
        assert not machine.dcache.contains(IO_BASE_EA)


class TestSwitchPathIntegration:
    def test_preload_config_prefetches_on_switch(self):
        config = KernelConfig.optimized().with_changes(cache_preloads=True)
        sim = Simulator(M604_185, config)
        first = sim.kernel.spawn("a")
        second = sim.kernel.spawn("b")
        sim.kernel.switch_to(first)
        sim.kernel.switch_to(second)
        assert sim.breakdown().get("prefetch", 0) > 0

    def test_no_prefetch_by_default(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        first = sim.kernel.spawn("a")
        sim.kernel.switch_to(first)
        assert sim.breakdown().get("prefetch", 0) == 0
