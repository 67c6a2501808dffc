"""Flush strategies (§7): search vs lazy, and the safety invariant.

The load-bearing invariant of lazy flushing: after *any* flush of a
range, no translation for that range is reachable through the hardware —
even though the lazy path leaves "valid" zombie entries in the TLB and
hash table.
"""

import pytest

from repro.errors import TranslationError
from repro.kernel.config import KernelConfig, VsidPolicy
from repro.kernel.vsid import kernel_vsids
from repro.params import KERNELBASE, M604_185, PAGE_SIZE
from repro.sim.simulator import Simulator


def boot_search():
    return Simulator(
        M604_185,
        KernelConfig.optimized().with_changes(
            lazy_vsid_flush=False, vsid_policy=VsidPolicy.PID_SCATTER
        ),
    )


def boot_lazy(cutoff=20):
    return Simulator(
        M604_185,
        KernelConfig.optimized().with_changes(range_flush_cutoff=cutoff),
    )


def map_and_touch(sim, pages):
    kernel = sim.kernel
    task = kernel.spawn("t", data_pages=4)
    kernel.switch_to(task)
    addr = kernel.sys_mmap(task, pages * PAGE_SIZE)
    for page in range(pages):
        kernel.user_access(task, addr + page * PAGE_SIZE, 2, True)
    return task, addr


class TestSearchFlush:
    def test_flush_page_invalidates_htab_and_tlb(self):
        sim = boot_search()
        task, addr = map_and_touch(sim, 1)
        mm = task.mm
        vsid = mm.user_vsids[(addr >> 28) & 0xF]
        page_index = (addr >> 12) & 0xFFFF
        assert sim.machine.htab.peek(vsid, page_index) is not None
        sim.kernel.flush.flush_page(mm, addr)
        assert sim.machine.htab.peek(vsid, page_index) is None
        assert sim.machine.dtlb.peek(vsid, page_index) is None

    def test_flush_range_pays_per_page(self):
        sim = boot_search()
        task, addr = map_and_touch(sim, 4)
        small = sim.measure_cycles(
            lambda: sim.kernel.flush.flush_range(task.mm, addr,
                                                 addr + 4 * PAGE_SIZE)
        )
        big = sim.measure_cycles(
            lambda: sim.kernel.flush.flush_range(task.mm, addr,
                                                 addr + 64 * PAGE_SIZE)
        )
        assert big > 10 * small

    def test_flush_counts_monitor(self):
        sim = boot_search()
        task, addr = map_and_touch(sim, 2)
        sim.kernel.flush.flush_range(task.mm, addr, addr + 2 * PAGE_SIZE)
        assert sim.machine.monitor["flush_range_search"] >= 1


class TestLazyFlush:
    def test_large_range_bumps_vsids(self):
        sim = boot_lazy(cutoff=20)
        task, addr = map_and_touch(sim, 30)
        old_vsids = list(task.mm.user_vsids)
        sim.kernel.flush.flush_range(task.mm, addr, addr + 30 * PAGE_SIZE)
        assert task.mm.user_vsids != old_vsids
        assert sim.machine.monitor["vsid_bump"] >= 1

    def test_small_range_still_searches(self):
        sim = boot_lazy(cutoff=20)
        task, addr = map_and_touch(sim, 4)
        old_vsids = list(task.mm.user_vsids)
        sim.kernel.flush.flush_range(task.mm, addr, addr + 4 * PAGE_SIZE)
        assert task.mm.user_vsids == old_vsids

    def test_lazy_flush_is_cheap(self):
        lazy = boot_lazy()
        task, addr = map_and_touch(lazy, 64)
        lazy_cost = lazy.measure_cycles(
            lambda: lazy.kernel.flush.flush_range(
                task.mm, addr, addr + 64 * PAGE_SIZE)
        )
        search = boot_search()
        task2, addr2 = map_and_touch(search, 64)
        search_cost = search.measure_cycles(
            lambda: search.kernel.flush.flush_range(
                task2.mm, addr2, addr2 + 64 * PAGE_SIZE)
        )
        assert search_cost > 20 * lazy_cost

    def test_segment_registers_reloaded_for_current_task(self):
        sim = boot_lazy()
        task, addr = map_and_touch(sim, 30)
        sim.kernel.flush.flush_range(task.mm, addr, addr + 30 * PAGE_SIZE)
        assert (
            sim.machine.segments.snapshot()[:12]
            == tuple(task.mm.user_vsids)
        )

    def test_zombies_left_valid_in_htab(self):
        """The defining §7 behaviour: stale PTEs stay valid-but-dead."""
        sim = boot_lazy()
        task, addr = map_and_touch(sim, 30)
        live_before, zombie_before = sim.kernel.htab_zombie_stats()
        sim.kernel.flush.flush_range(task.mm, addr, addr + 30 * PAGE_SIZE)
        live_after, zombie_after = sim.kernel.htab_zombie_stats()
        assert zombie_after > zombie_before
        assert live_after < live_before


class TestSafetyInvariant:
    """No stale translation is ever served after a flush, lazy or not."""

    @pytest.mark.parametrize("make_sim", [boot_search, boot_lazy])
    def test_stale_mapping_unreachable_after_munmap(self, make_sim):
        sim = make_sim()
        kernel = sim.kernel
        task, addr = map_and_touch(sim, 30)
        # Record the physical frame the first page mapped to.
        old_pfn = task.mm.resident[addr]
        kernel.sys_munmap(task, addr, 30 * PAGE_SIZE)
        # Remap the same address range; fault the page back in.
        new_addr = kernel.sys_mmap(task, 30 * PAGE_SIZE, addr=addr)
        assert new_addr == addr
        kernel.user_access(task, addr, 1, True)
        new_pfn = task.mm.resident[addr]
        # The hardware must translate to the NEW frame.
        result = sim.machine.translate(addr)
        assert result.pa >> 12 == new_pfn

    @pytest.mark.parametrize("make_sim", [boot_search, boot_lazy])
    def test_unmapped_address_faults(self, make_sim):
        sim = make_sim()
        kernel = sim.kernel
        task, addr = map_and_touch(sim, 30)
        kernel.sys_munmap(task, addr, 30 * PAGE_SIZE)
        with pytest.raises(TranslationError):
            kernel.user_access(task, addr, 1, False)

    def test_flush_everything(self):
        sim = boot_lazy()
        task, addr = map_and_touch(sim, 8)
        sim.kernel.flush.flush_everything()
        assert sim.machine.htab.valid_entries() == 0
        assert len(sim.machine.dtlb) == 0
        # Access still works afterwards (refault path).
        sim.kernel.user_access(task, addr, 1, False)


class TestFlushTargeting:
    """Per-page flushes must hit exactly the context they were asked for."""

    def test_kernel_page_flush_invalidates_htab_and_tlb(self):
        # Without the BAT map, kernel pages sit in the TLB and hash table
        # like any others, and flushing one must actually remove it (the
        # kernel-EA path used to resolve no VSID and skip the hash table).
        sim = Simulator(
            M604_185,
            KernelConfig.optimized().with_changes(bat_kernel_map=False),
        )
        kernel = sim.kernel
        ea = KERNELBASE + 0x300000
        sim.machine.translate(ea)
        vsid = kernel_vsids()[0]
        page_index = (ea >> 12) & 0xFFFF
        assert sim.machine.htab.peek(vsid, page_index) is not None
        assert sim.machine.dtlb.peek(vsid, page_index) is not None
        kernel.flush.flush_page(kernel.kernel_mm, ea)
        assert sim.machine.htab.peek(vsid, page_index) is None
        assert sim.machine.dtlb.peek(vsid, page_index) is None

    def test_flush_page_spares_other_context_same_page_index(self):
        # tlbie by EA alone would also kill the *other* process's cached
        # translation of the same page index; the flush must pass the
        # owning VSID so only the requested context loses its entry.
        sim = boot_search()
        kernel = sim.kernel
        t1 = kernel.spawn("a", data_pages=4)
        kernel.switch_to(t1)
        addr = kernel.sys_mmap(t1, PAGE_SIZE)
        kernel.user_access(t1, addr, 1, True)
        t2 = kernel.spawn("b", data_pages=4)
        kernel.switch_to(t2)
        assert kernel.sys_mmap(t2, PAGE_SIZE, addr=addr) == addr
        kernel.user_access(t2, addr, 1, True)
        page_index = (addr >> 12) & 0xFFFF
        v1 = t1.mm.user_vsids[(addr >> 28) & 0xF]
        v2 = t2.mm.user_vsids[(addr >> 28) & 0xF]
        assert sim.machine.dtlb.peek(v1, page_index) is not None
        assert sim.machine.dtlb.peek(v2, page_index) is not None
        kernel.flush.flush_page(t1.mm, addr)
        assert sim.machine.dtlb.peek(v1, page_index) is None
        assert sim.machine.htab.peek(v1, page_index) is None
        assert sim.machine.dtlb.peek(v2, page_index) is not None
        assert sim.machine.htab.peek(v2, page_index) is not None


class TestGlobalFlushProtocol:
    """flush_everything and counter wrap follow one coherent protocol."""

    def test_flush_everything_renumbers_contexts(self):
        sim = boot_lazy()
        kernel = sim.kernel
        task, addr = map_and_touch(sim, 8)
        # Advance the task off context 1 so renumbering is observable.
        kernel.flush.flush_mm(task.mm)
        bumped = list(task.mm.user_vsids)
        kernel.flush.flush_everything()
        allocator = kernel.vsid_allocator
        # A direct flush_everything must restart the counter and
        # renumber, exactly like the wrap path (it used to only clear
        # the zombie set, leaving retired numbers unreusable).
        assert task.mm.user_vsids != bumped
        assert not any(allocator.is_live(v) for v in bumped)
        assert allocator.zombie_vsids() == frozenset()
        assert (
            sim.machine.segments.snapshot()[:12]
            == tuple(task.mm.user_vsids)
        )
        kernel.user_access(task, addr, 1, False)

    def test_counter_wrap_during_bump_keeps_context_coherent(self):
        sim = boot_lazy()
        kernel = sim.kernel
        task, addr = map_and_touch(sim, 4)
        allocator = kernel.vsid_allocator
        # Force the next allocation to wrap mid-bump: the wrap handler
        # renumbers every context EXCEPT the one whose bump is in
        # flight, whose fresh VSIDs come from the bump itself.  Without
        # that exclusion the wrap-time renumbering was immediately
        # overwritten, leaking a live context nobody owned.
        allocator._next_context = allocator.max_context + 1
        kernel.flush.flush_mm(task.mm)
        assert all(allocator.is_live(v) for v in task.mm.user_vsids)
        # Exactly the kernel's 4 VSIDs plus the task's 12 are live.
        assert allocator.live_count() == 4 + 12
        kernel.user_access(task, addr, 1, False)
