"""The 604 hardware table-walk engine and its cost accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.hw.cache import Cache
from repro.hw.hashtable import HashedPageTable
from repro.hw.pte import HashPte
from repro.hw.walker import (
    HardwareWalker,
    PTEG_BYTES,
    WALK_BASE_CYCLES,
    WALK_CYCLES_PER_REF,
)
from repro.params import PTE_BYTES
from tests.test_cache import cache_state


def make_walker(cache_ptes=True, groups=64):
    htab = HashedPageTable(groups=groups)
    dcache = Cache(32 * 1024, 4, mem_cycles=52, word_cycles=11)
    walker = HardwareWalker(htab, dcache, htab_base_pa=0x100000,
                           cache_ptes=cache_ptes)
    return walker, htab, dcache


class TestWalkCosts:
    def test_paper_cycle_ceiling_constants(self):
        # 8 + 16 * 7 = 120, the paper's measured hardware-walk maximum.
        assert WALK_BASE_CYCLES + 16 * WALK_CYCLES_PER_REF == 120

    def test_found_walk_returns_pte(self):
        walker, htab, _ = make_walker()
        htab.insert(HashPte(vsid=1, page_index=0x10, rpn=9))
        outcome = walker.walk(1, 0x10)
        assert outcome.found and outcome.pte.rpn == 9

    def test_miss_walk_probes_both_buckets(self):
        walker, _, _ = make_walker()
        outcome = walker.walk(1, 0x10)
        assert not outcome.found
        assert outcome.mem_refs == 16

    def test_walk_charges_cache_accesses(self):
        walker, _, dcache = make_walker()
        walker.walk(1, 0x10)
        assert dcache.stats.misses + dcache.stats.hits == 16

    def test_uncached_walk_bypasses_cache(self):
        walker, _, dcache = make_walker(cache_ptes=False)
        walker.walk(1, 0x10)
        assert dcache.stats.bypasses == 16
        assert len(dcache) == 0

    def test_warm_walk_cheaper_than_cold(self):
        walker, htab, _ = make_walker()
        htab.insert(HashPte(vsid=1, page_index=0x10, rpn=9))
        cold = walker.walk(1, 0x10).cycles
        warm = walker.walk(1, 0x10).cycles
        assert warm < cold

    def test_pte_physical_address_layout(self):
        walker, _, _ = make_walker()
        assert walker.pte_physical_address(0, 0) == 0x100000
        assert walker.pte_physical_address(1, 0) == 0x100000 + PTEG_BYTES
        assert walker.pte_physical_address(0, 3) == 0x100000 + 24


class TestInsertInvalidate:
    def test_insert_returns_event_with_cycles(self):
        walker, htab, _ = make_walker()
        event = walker.insert(HashPte(vsid=1, page_index=0x10, rpn=9))
        assert event["cycles"] > 0
        assert not event["evicted"]
        assert htab.search(1, 0x10).found

    def test_invalidate_found(self):
        walker, htab, _ = make_walker()
        walker.insert(HashPte(vsid=1, page_index=0x10, rpn=9))
        event = walker.invalidate(1, 0x10)
        assert event["found"] and event["cycles"] > 0
        assert not htab.search(1, 0x10).found

    def test_invalidate_missing_pays_full_search(self):
        walker, _, _ = make_walker()
        event = walker.invalidate(1, 0x10)
        assert not event["found"]
        assert event["mem_refs"] == 16


def scan_per_line(walker, start, count, inhibited):
    """The reference scan charge: one scalar access per line-aligned slot."""
    dcache = walker.dcache
    slots = walker.htab.slots
    slots_per_line = dcache.line_size // PTE_BYTES
    cycles = 0
    position = start % slots
    remaining = count
    while remaining > 0:
        run = min(remaining, slots - position)
        first = position + (-position) % slots_per_line
        for flat in range(first, position + run, slots_per_line):
            cycles += dcache.access(
                walker.htab_base_pa + flat * PTE_BYTES,
                write=False,
                inhibited=inhibited,
            )
        remaining -= run
        position = 0
    return cycles


def twin_walker(ptes_per_group, base):
    l2 = Cache(8192, 4, mem_cycles=60, word_cycles=9, hit_cycles=12)
    dcache = Cache(1024, 2, mem_cycles=52, word_cycles=11, next_level=l2)
    htab = HashedPageTable(groups=64, ptes_per_group=ptes_per_group)
    return HardwareWalker(htab, dcache, htab_base_pa=base)


class TestScanWindow:
    """``charge_scan_window`` equals the per-line scalar loop exactly."""

    @pytest.mark.parametrize("ptes_per_group", [8, 16])
    @pytest.mark.parametrize("base", [0x100000, 0x100000 + 0x7E0])
    @settings(max_examples=40, deadline=None)
    @given(
        windows=st.lists(
            st.tuples(st.integers(0, 4000),      # start, past the table end
                      st.integers(0, 1300),      # count, may wrap the table
                      st.sampled_from((False, False, True))),
            min_size=1,
            max_size=12,
        ),
        writes=st.lists(st.integers(0, 0x3FFF), max_size=30),
    )
    def test_matches_per_line_loop(self, ptes_per_group, base, windows,
                                   writes):
        batched = twin_walker(ptes_per_group, base)
        scalar = twin_walker(ptes_per_group, base)
        # Dirty lines over the table, so scans evict and write back.
        for offset in writes:
            batched.dcache.access(base + offset, write=True)
            scalar.dcache.access(base + offset, write=True)
        for start, count, inhibited in windows:
            got = batched.charge_scan_window(start, count, inhibited)
            want = scan_per_line(scalar, start, count, inhibited)
            assert got == want
            assert cache_state(batched.dcache) == cache_state(scalar.dcache)

    def test_window_wrapping_the_table_end(self):
        batched = twin_walker(8, 0x100000)
        scalar = twin_walker(8, 0x100000)
        slots = batched.htab.slots
        got = batched.charge_scan_window(slots - 6, 20)
        assert got == scan_per_line(scalar, slots - 6, 20, False)
        # Line-aligned slots: slots-4, then 0, 4, 8 and 12 after the wrap.
        assert batched.dcache.stats.misses == 5
        assert cache_state(batched.dcache) == cache_state(scalar.dcache)


class TestGeometryCheck:
    @pytest.mark.parametrize("line_size", [4, 12])
    def test_rejects_lines_not_holding_whole_ptes(self, line_size):
        dcache = Cache(line_size * 2 * 16, 2, mem_cycles=52,
                       line_size=line_size)
        with pytest.raises(ConfigError):
            HardwareWalker(HashedPageTable(groups=64), dcache,
                           htab_base_pa=0x100000)

    def test_accepts_lines_of_whole_ptes(self):
        dcache = Cache(64 * 2 * 16, 2, mem_cycles=52, line_size=64)
        walker = HardwareWalker(HashedPageTable(groups=64), dcache,
                                htab_base_pa=0x100000)
        assert walker.charge_probe_run(0, 8, inhibited=False) > 0
