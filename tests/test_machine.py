"""The machine model: the full translation datapath."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TranslationError
from repro.hw.access import AccessKind
from repro.hw.bat import BatRegister
from repro.hw.machine import MachineModel, RefillResult
from repro.hw.pte import HashPte
from repro.hw.tlb import TlbEntry
from repro.params import (
    C603_MISS_INVOKE_CYCLES,
    C604_HASH_MISS_INVOKE_CYCLES,
    M603_180,
    M604_185,
    PAGE_OFFSET_MASK,
    PAGE_SIZE,
)
from tests.test_cache import cache_state, scalar_page_visit


def refill_to(ppn, extra_cycles=5):
    """A canned refill handler mapping everything to one frame."""

    def handler(machine, ea, kind, write, vsid, page_index):
        return RefillResult(
            entry=TlbEntry(vsid=vsid, page_index=page_index, ppn=ppn),
            cycles=extra_cycles,
        )

    return handler


class TestBatPath:
    def test_bat_translation_wins(self):
        machine = MachineModel(M604_185)
        machine.bats.map_both(
            0, BatRegister.mapping(0xC0000000, 0, 32 * 1024 * 1024)
        )
        result = machine.translate(0xC0123456)
        assert result.path == "bat"
        assert result.pa == 0x123456
        assert result.cycles == 0
        assert machine.monitor["bat_translation"] == 1

    def test_bat_does_not_touch_tlb(self):
        machine = MachineModel(M604_185)
        machine.bats.map_both(
            0, BatRegister.mapping(0xC0000000, 0, 32 * 1024 * 1024)
        )
        machine.translate(0xC0123456, AccessKind.DATA)
        assert len(machine.dtlb) == 0


class TestTlbPath:
    def test_tlb_hit_is_free(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.dtlb.insert(TlbEntry(vsid=0x42, page_index=0x10, ppn=7))
        result = machine.translate(0x10010ABC)
        assert result.path == "tlb"
        assert result.pa == 0x7ABC
        assert result.cycles == 0

    def test_instruction_uses_itlb(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.itlb.insert(TlbEntry(vsid=0x42, page_index=0x10, ppn=7))
        result = machine.translate(0x10010000, AccessKind.INSTRUCTION)
        assert result.path == "tlb"


class Test604MissPath:
    def test_hardware_walk_hit_fills_tlb(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.htab.insert(HashPte(vsid=0x42, page_index=0x10, rpn=9))
        result = machine.translate(0x10010000)
        assert result.path == "hw_walk"
        assert result.pa == 9 << 12
        assert machine.monitor["htab_hit"] == 1
        # Next access hits the TLB.
        assert machine.translate(0x10010000).path == "tlb"

    def test_walk_sets_reference_and_change_bits(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.htab.insert(HashPte(vsid=0x42, page_index=0x10, rpn=9))
        machine.translate(0x10010000, write=True)
        stored = machine.htab.peek(0x42, 0x10)
        assert stored.referenced and stored.changed

    def test_walk_hit_raises_nothing(self):
        """TLB miss to TLB fill through a hash-table hit raises nothing."""
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.htab.insert(HashPte(vsid=0x42, page_index=0x10, rpn=9))
        raised = []

        def tracer(frame, event, arg):
            if event == "exception":
                raised.append((frame.f_code.co_qualname, arg[0].__name__))
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            machine.access_page(0x10010000, lines=1)
        finally:
            sys.settrace(previous)
        assert machine.monitor["htab_hit"] == 1
        assert machine.dtlb.peek(0x42, 0x10).ppn == 9
        assert raised == []

    def test_htab_miss_invokes_handler_with_interrupt_cost(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.install_refill_handler(refill_to(ppn=3, extra_cycles=5))
        result = machine.translate(0x10010000)
        assert result.path == "handler"
        assert result.cycles >= C604_HASH_MISS_INVOKE_CYCLES + 5
        assert machine.monitor["hash_miss_interrupt"] == 1

    def test_miss_without_handler_raises(self):
        machine = MachineModel(M604_185)
        with pytest.raises(TranslationError):
            machine.translate(0x10010000)


class Test603MissPath:
    def test_every_miss_is_a_software_interrupt(self):
        machine = MachineModel(M603_180)
        machine.segments.write(1, 0x42)
        machine.htab.insert(HashPte(vsid=0x42, page_index=0x10, rpn=9))
        machine.install_refill_handler(refill_to(ppn=3))
        result = machine.translate(0x10010000)
        # The 603 traps regardless of the hash table's contents; the
        # handler decides whether to look there.
        assert result.path == "handler"
        assert machine.monitor["sw_tlb_miss_interrupt"] == 1
        assert result.cycles >= C603_MISS_INVOKE_CYCLES


class TestMemoryAccess:
    def test_data_access_charges_cache(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.dtlb.insert(TlbEntry(vsid=0x42, page_index=0x10, ppn=7))
        cold = machine.data_access(0x10010000)
        warm = machine.data_access(0x10010000)
        assert cold > warm == 1

    def test_cache_inhibited_entry_bypasses_cache(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.dtlb.insert(
            TlbEntry(vsid=0x42, page_index=0x10, ppn=7, cache_inhibited=True)
        )
        machine.data_access(0x10010000)
        assert machine.dcache.stats.bypasses == 1

    def test_access_page_touches_lines(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.dtlb.insert(TlbEntry(vsid=0x42, page_index=0x10, ppn=7))
        machine.access_page(0x10010000, lines=4)
        hits_misses = machine.dcache.stats.hits + machine.dcache.stats.misses
        assert hits_misses == 4

    def test_access_page_first_line_offsets(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.dtlb.insert(TlbEntry(vsid=0x42, page_index=0x10, ppn=7))
        machine.access_page(0x10010000, lines=2, first_line=10)
        assert machine.dcache.contains((7 << 12) + 10 * 32)
        assert not machine.dcache.contains(7 << 12)

    def test_instruction_fetch_uses_icache(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.itlb.insert(TlbEntry(vsid=0x42, page_index=0x10, ppn=7))
        machine.instruction_fetch(0x10010000)
        assert machine.icache.stats.misses == 1
        assert machine.dcache.stats.misses == 0


def visit_by_scalar_access(machine, ea, first_line, write, kind):
    """The reference one-line visit: one scalar ``Cache.access``."""
    pa, cycles, _path, inhibited = machine._translate(ea, kind, write)
    if kind is AccessKind.INSTRUCTION:
        cache, miss_event = machine.icache, "icache_miss"
    else:
        cache, miss_event = machine.dcache, "dcache_miss"
    mem_cycles, misses = scalar_page_visit(
        cache, pa & ~PAGE_OFFSET_MASK, first_line, 1, write, inhibited
    )
    if misses:
        machine.monitor.count(miss_event, misses)
    machine.clock.add(mem_cycles, "mem")
    return cycles + mem_cycles


class TestOneLineVisit:
    """A one-line ``access_page`` equals one scalar access exactly.

    ``Cache.access_page_lines`` serves a one-line visit on its own scalar
    route, so the reference is the scalar ``Cache.access`` itself.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        visits=st.lists(
            st.tuples(
                st.integers(0, 7),       # page; page 7 is cache-inhibited
                # First lines that collide in a few cache sets (so
                # visits evict and write back), some past the page end.
                st.sampled_from((0, 128, 1, 129, 127, 255)),
                st.booleans(),           # write
                st.sampled_from((AccessKind.DATA, AccessKind.DATA,
                                 AccessKind.INSTRUCTION)),
            ),
            min_size=24,
            max_size=80,
        )
    )
    def test_matches_scalar_access(self, visits):
        fast, slow = MachineModel(M604_185), MachineModel(M604_185)
        for machine in (fast, slow):
            machine.segments.write(1, 0x42)
            for page in range(8):
                for tlb in (machine.itlb, machine.dtlb):
                    tlb.insert(TlbEntry(vsid=0x42, page_index=0x10 + page,
                                        ppn=0x100 + 2 * page,
                                        cache_inhibited=page == 7))
        for page, first_line, write, kind in visits:
            write = write and kind is AccessKind.DATA
            ea = 0x10010000 + page * PAGE_SIZE
            got = fast.access_page(ea, 1, write, kind, first_line)
            want = visit_by_scalar_access(slow, ea, first_line, write,
                                          kind)
            assert got == want
            assert fast.monitor.snapshot() == slow.monitor.snapshot()
            assert fast.clock.total == slow.clock.total
            assert cache_state(fast.dcache) == cache_state(slow.dcache)
            assert cache_state(fast.icache) == cache_state(slow.icache)


class TestHousekeeping:
    def test_context_switch_segments(self):
        machine = MachineModel(M604_185)
        cycles = machine.context_switch_segments(list(range(16)))
        assert cycles == 32
        assert machine.segments.read(5) == 5

    def test_invalidate_tlbs(self):
        machine = MachineModel(M604_185)
        machine.dtlb.insert(TlbEntry(vsid=1, page_index=0, ppn=0))
        machine.itlb.insert(TlbEntry(vsid=1, page_index=0, ppn=0))
        machine.invalidate_tlbs()
        assert len(machine.dtlb) == 0 and len(machine.itlb) == 0

    def test_ledger_accumulates(self):
        machine = MachineModel(M604_185)
        machine.segments.write(1, 0x42)
        machine.dtlb.insert(TlbEntry(vsid=0x42, page_index=0x10, ppn=7))
        machine.data_access(0x10010000)
        assert machine.clock.total > 0
        assert machine.elapsed_us() > 0

    def test_htab_sits_below_top_of_ram(self):
        machine = MachineModel(M604_185)
        htab_bytes = machine.htab.slots * 8
        assert machine.htab_base_pa == machine.ram_bytes - htab_bytes
