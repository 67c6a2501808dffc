"""The 604 hardware table-walk engine and its cost accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.hw.cache import Cache
from repro.hw.hashtable import HashedPageTable
from repro.hw.pte import HashPte, WIMG_CACHE_INHIBIT
from repro.hw.walker import (
    HardwareWalker,
    PTEG_BYTES,
    WALK_BASE_CYCLES,
    WALK_CYCLES_PER_REF,
)
from repro.params import L1_HIT_CYCLES, PTE_BYTES
from tests.test_cache import HIERARCHIES, cache_state


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
        flat, _cycles = walker.walk(1, 0x10)
        assert flat >= 0
        assert htab.pte_at(*divmod(flat, htab.ptes_per_group)).rpn == 9

    def test_miss_walk_probes_both_buckets(self):
        walker, _, _ = make_walker()
        flat, cycles = walker.walk(1, 0x10)
        assert flat == -1
        # 16 probes over four cold lines (two per PTEG): four line fills
        # from memory, twelve hits on the lines they brought in.
        assert cycles == (WALK_BASE_CYCLES + 16 * WALK_CYCLES_PER_REF
                          + 4 * 52 + 12 * L1_HIT_CYCLES)
        uncached, _, _ = make_walker(cache_ptes=False)
        assert uncached.walk(1, 0x10) == (
            -1, WALK_BASE_CYCLES + 16 * (WALK_CYCLES_PER_REF + 11))

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
        _, cold = walker.walk(1, 0x10)
        _, warm = walker.walk(1, 0x10)
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
        assert htab.peek(1, 0x10) is not None

    def test_invalidate_found(self):
        walker, htab, _ = make_walker()
        walker.insert(HashPte(vsid=1, page_index=0x10, rpn=9))
        event = walker.invalidate(1, 0x10)
        assert event["found"] and event["cycles"] > 0
        assert htab.peek(1, 0x10) is None

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


def walk_per_slot(walker, vsid, page_index, write):
    """The reference walk: a slot-by-slot search charging each probe.

    Reads primary then secondary PTEG one slot at a time through
    ``pte_at`` and the hardware tag compare ``HashPte.matches``; every
    slot costs ``WALK_CYCLES_PER_REF`` plus one scalar ``dcache.access``.
    Advances the table's search counters and miss histogram, and sets R
    (and C on a write) on a hit.  Returns ``(flat or -1, cycles, pte
    snapshot or None)``.
    """
    htab = walker.htab
    ppg = htab.ptes_per_group
    inhibited = not walker.cache_ptes
    cycles = WALK_BASE_CYCLES
    htab.searches += 1
    for secondary in (False, True):
        group_index = htab.group_index(vsid, page_index, secondary)
        for slot in range(ppg):
            cycles += WALK_CYCLES_PER_REF + walker.dcache.access(
                walker.pte_physical_address(group_index, slot),
                inhibited=inhibited,
            )
            pte = htab.pte_at(group_index, slot)
            if pte is not None and pte.matches(vsid, page_index, secondary):
                flat = group_index * ppg + slot
                htab.search_hits += 1
                htab._ref[flat] = 1
                if write:
                    htab._chg[flat] = 1
                return flat, cycles, pte
    htab.bucket_miss_histogram[htab.group_index(vsid, page_index, False)] += 1
    return -1, cycles, None


def twin_walker(ptes_per_group, base, cache_ptes=True):
    l2 = Cache(8192, 4, mem_cycles=60, word_cycles=9, hit_cycles=12)
    dcache = Cache(1024, 2, mem_cycles=52, word_cycles=11, next_level=l2)
    htab = HashedPageTable(groups=64, ptes_per_group=ptes_per_group)
    return HardwareWalker(htab, dcache, htab_base_pa=base,
                          cache_ptes=cache_ptes)


#: Translations of VSID 1 or 2 at pages ``64k``: every translation of a
#: VSID hashes to the same primary PTEG (1 or 2), so buckets fill,
#: overflow into their secondaries (62 or 61) and evict.
_pte_fields = st.tuples(
    st.sampled_from((1, 1, 1, 2)),                  # vsid
    st.integers(0, 39).map(lambda k: 64 * k),       # page index
    st.integers(0, 0xFFFF),                         # rpn
    st.sampled_from((0, 0, WIMG_CACHE_INHIBIT)),    # wimg
    st.integers(0, 3),                              # pp
)
_table_op = st.tuples(
    st.sampled_from(("walk",) * 4 + ("insert",) * 2
                    + ("invalidate", "shadow", "dirty", "dirty")),
    _pte_fields,
    st.booleans(),                                  # a walk for a write
    # A line of one of those PTEGs, or an alias of it up to seven L1
    # ways away, so walks evict dirty lines and write them back.
    st.tuples(st.sampled_from((1, 2, 61, 62)), st.integers(0, 3),
              st.integers(0, 7)),
)


def mutate(walker, kind, fields, dirty):
    """Apply one non-walk operation of ``_table_op`` to one twin."""
    vsid, page, rpn, wimg, pp = fields
    htab = walker.htab
    dcache = walker.dcache
    if kind == "dirty":
        group, line, way = dirty
        dcache.access(
            walker.pte_physical_address(group, 0) + line * dcache.line_size
            + way * (dcache.size_bytes // dcache.assoc),
            write=True,
        )
        return
    # "shadow" inserts a translation twice and invalidates the first
    # copy, so a walk must step over an invalid slot holding its tag.
    for _copy in range({"insert": 1, "shadow": 2}.get(kind, 0)):
        htab.insert(HashPte(vsid=vsid, page_index=page, rpn=rpn, wimg=wimg,
                            pp=pp))
    if kind in ("invalidate", "shadow"):
        htab.invalidate(vsid, page)


class TestWalkDifferential:
    """``walk`` equals the slot-by-slot reference walk exactly."""

    @pytest.mark.parametrize("ptes_per_group", [8, 16])
    @pytest.mark.parametrize("cache_ptes", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(
        table=st.lists(_pte_fields, min_size=16, max_size=96),
        operations=st.lists(_table_op, min_size=8, max_size=80),
    )
    def test_matches_per_slot_search(self, ptes_per_group, cache_ptes,
                                     table, operations):
        fast = twin_walker(ptes_per_group, 0x100000, cache_ptes)
        slow = twin_walker(ptes_per_group, 0x100000, cache_ptes)
        for fields in table:
            mutate(fast, "insert", fields, None)
            mutate(slow, "insert", fields, None)
        for operation in operations:
            kind, fields, write, dirty = operation
            if kind != "walk":
                mutate(fast, kind, fields, dirty)
                mutate(slow, kind, fields, dirty)
            if kind in ("walk", "shadow"):
                vsid, page = fields[:2]
                flat, cycles = fast.walk(vsid, page)
                want_flat, want_cycles, pte = walk_per_slot(
                    slow, vsid, page, write)
                assert (flat, cycles) == (want_flat, want_cycles), operation
                if pte is not None:
                    got = fast.htab.reference(flat, write)
                    assert got == (pte.rpn, pte.pp, pte.wimg), operation
            for array in ("_ref", "_chg", "_valid", "_key"):
                assert (getattr(fast.htab, array)
                        == getattr(slow.htab, array)), operation
            assert (fast.htab.searches, fast.htab.search_hits,
                    fast.htab.bucket_miss_histogram) == (
                slow.htab.searches, slow.htab.search_hits,
                slow.htab.bucket_miss_histogram)
            assert cache_state(fast.dcache) == cache_state(slow.dcache)


#: Every hierarchy of the page-kernel differential test, plus an L1 with
#: no next level behind it.
SCAN_HIERARCHIES = {
    **HIERARCHIES,
    "no-next-level": lambda: Cache(1024, 2, mem_cycles=50, word_cycles=10),
}
SCAN_BASE = 0x100000

_scan_op = st.one_of(
    st.tuples(st.just("scan"),
              st.integers(0, 4000),                     # start, may wrap
              st.integers(0, 2600),                     # count, may wrap
              st.sampled_from((False, False, False, True))),  # inhibited
    # A dirty line over or beside the table, so scans evict dirty
    # victims at L1 and the writebacks evict at L2.
    st.tuples(st.just("write"), st.integers(0, 0x5FFF)),
)


def scan_walker(geometry):
    """A 2,048-slot table (512 lines) over one of ``SCAN_HIERARCHIES``."""
    return HardwareWalker(HashedPageTable(groups=256),
                          SCAN_HIERARCHIES[geometry](),
                          htab_base_pa=SCAN_BASE)


class TestScanWindow:
    """``charge_scan_window`` equals the per-line scalar loop exactly."""

    @pytest.mark.parametrize("geometry", sorted(SCAN_HIERARCHIES))
    @settings(max_examples=40, deadline=None)
    @given(operations=st.lists(_scan_op, min_size=1, max_size=16))
    def test_stream_matches_per_line_loop_on_every_hierarchy(
        self, geometry, operations
    ):
        streamed = scan_walker(geometry)
        scalar = scan_walker(geometry)
        for operation in operations:
            if operation[0] == "write":
                for walker in (streamed, scalar):
                    walker.dcache.access(SCAN_BASE + operation[1], write=True)
            else:
                _, start, count, inhibited = operation
                got = streamed.charge_scan_window(start, count, inhibited)
                assert got == scan_per_line(scalar, start, count, inhibited)
            assert cache_state(streamed.dcache) == cache_state(scalar.dcache)

    @pytest.mark.parametrize("geometry", sorted(SCAN_HIERARCHIES))
    def test_window_longer_than_the_l1_sets(self, geometry):
        streamed = scan_walker(geometry)
        scalar = scan_walker(geometry)
        dcache = streamed.dcache
        # One run of lines over every L1 set and 40 more.
        slots = (dcache.num_sets + 40) * (dcache.line_size // PTE_BYTES)
        # Dirty lines over four times the L1, so the scan's victims are
        # dirty.
        for offset in range(0, 4 * dcache.size_bytes, 96):
            for walker in (streamed, scalar):
                walker.dcache.access(SCAN_BASE + offset, write=True)
        for _ in range(2):
            got = streamed.charge_scan_window(8, slots)
            assert got == scan_per_line(scalar, 8, slots, False)
            assert cache_state(dcache) == cache_state(scalar.dcache)
        assert dcache.stats.writebacks > 0

    @pytest.mark.parametrize("geometry", sorted(SCAN_HIERARCHIES))
    def test_inhibited_window_bypasses_every_line(self, geometry):
        walker = scan_walker(geometry)
        cycles = walker.charge_scan_window(3, 64, inhibited=True)
        # Slots 4, 8, ..., 64: sixteen line-aligned slots.
        assert cycles == 16 * walker.dcache.word_cycles
        assert walker.dcache.stats.bypasses == 16
        assert len(walker.dcache) == 0

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
