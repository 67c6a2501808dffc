"""Set-associative TLB behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.hw.tlb import Tlb, TlbEntry
from repro.params import PAGE_INDEX_BITS, PAGE_INDEX_MASK


def entry(vsid, page_index, ppn=0, kernel=False):
    return TlbEntry(vsid=vsid, page_index=page_index, ppn=ppn,
                    is_kernel=kernel)


class TestGeometry:
    def test_sets_from_entries_and_assoc(self):
        tlb = Tlb(entries=64, assoc=2)
        assert tlb.num_sets == 32

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            Tlb(entries=63, assoc=2)
        with pytest.raises(ConfigError):
            Tlb(entries=0, assoc=2)

    def test_set_index_uses_low_page_bits(self):
        tlb = Tlb(entries=64, assoc=2)
        assert tlb.set_index(0) == 0
        assert tlb.set_index(31) == 31
        assert tlb.set_index(32) == 0


class TestLookupInsert:
    def test_miss_on_empty(self):
        tlb = Tlb(64, 2)
        assert tlb.lookup(1, 0x100) is None
        assert tlb.misses == 1

    def test_hit_after_insert(self):
        tlb = Tlb(64, 2)
        tlb.insert(entry(1, 0x100, ppn=7))
        found = tlb.lookup(1, 0x100)
        assert found is not None and found.ppn == 7
        assert tlb.hits == 1

    def test_distinct_vsids_are_distinct_translations(self):
        tlb = Tlb(64, 2)
        tlb.insert(entry(1, 0x100, ppn=7))
        tlb.insert(entry(2, 0x100, ppn=8))
        assert tlb.lookup(1, 0x100).ppn == 7
        assert tlb.lookup(2, 0x100).ppn == 8

    def test_reinsert_same_translation_does_not_evict(self):
        tlb = Tlb(64, 2)
        tlb.insert(entry(1, 0x100, ppn=7))
        victim = tlb.insert(entry(1, 0x100, ppn=9))
        assert victim is None
        assert tlb.lookup(1, 0x100).ppn == 9
        assert len(tlb) == 1

    def test_lru_eviction_within_set(self):
        tlb = Tlb(64, 2)  # 32 sets
        # Three pages in the same set (page_index mod 32 equal).
        tlb.insert(entry(1, 0))
        tlb.insert(entry(1, 32))
        tlb.lookup(1, 0)  # make page 0 most recent
        victim = tlb.insert(entry(1, 64))
        assert victim is not None and victim.page_index == 32
        assert tlb.peek(1, 0) is not None
        assert tlb.peek(1, 32) is None

    def test_peek_does_not_count(self):
        tlb = Tlb(64, 2)
        tlb.insert(entry(1, 0))
        tlb.peek(1, 0)
        tlb.peek(1, 1)
        assert tlb.hits == 0 and tlb.misses == 0


class TestInvalidate:
    def test_invalidate_page_removes_all_vsids(self):
        """tlbie invalidates by EA — every VSID's entry for that page."""
        tlb = Tlb(64, 2)
        tlb.insert(entry(1, 0x10))
        tlb.insert(entry(2, 0x10))
        removed = tlb.invalidate_page(0x10)
        assert removed == 2
        assert tlb.peek(1, 0x10) is None
        assert tlb.peek(2, 0x10) is None

    def test_invalidate_page_leaves_other_pages(self):
        tlb = Tlb(64, 2)
        tlb.insert(entry(1, 0x10))
        tlb.insert(entry(1, 0x11))
        tlb.invalidate_page(0x10)
        assert tlb.peek(1, 0x11) is not None

    def test_invalidate_all(self):
        tlb = Tlb(64, 2)
        for page in range(10):
            tlb.insert(entry(1, page))
        tlb.invalidate_all()
        assert len(tlb) == 0
        assert tlb.invalidate_all_count == 1


class TestStats:
    def test_occupancy(self):
        tlb = Tlb(64, 2)
        assert tlb.occupancy() == 0.0
        for page in range(32):
            tlb.insert(entry(1, page))
        assert tlb.occupancy() == 0.5

    def test_kernel_entries_counted(self):
        tlb = Tlb(64, 2)
        tlb.insert(entry(1, 0, kernel=True))
        tlb.insert(entry(1, 1, kernel=False))
        assert tlb.kernel_entries() == 1

    def test_hit_rate(self):
        tlb = Tlb(64, 2)
        tlb.insert(entry(1, 0))
        tlb.lookup(1, 0)
        tlb.lookup(1, 1)
        assert tlb.hit_rate() == 0.5

    def test_reset_stats(self):
        tlb = Tlb(64, 2)
        tlb.lookup(1, 0)
        tlb.reset_stats()
        assert tlb.misses == 0

    def test_live_entries_iteration(self):
        tlb = Tlb(64, 2)
        tlb.insert(entry(1, 0))
        tlb.insert(entry(1, 1))
        assert len(list(tlb.live_entries())) == 2


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 255)),
            min_size=1,
            max_size=200,
        )
    )
    def test_capacity_never_exceeded(self, operations):
        tlb = Tlb(16, 2)
        for vsid, page in operations:
            tlb.insert(entry(vsid, page))
            assert len(tlb) <= 16
            for entries in tlb._sets:
                assert len(entries) <= 2

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 63)),
            min_size=1,
            max_size=100,
        ),
        st.integers(0, 63),
    )
    def test_invalidated_page_is_never_returned(self, operations, target):
        """After tlbie of a page, no lookup for it may succeed."""
        tlb = Tlb(16, 2)
        for vsid, page in operations:
            tlb.insert(entry(vsid, page))
        tlb.invalidate_page(target)
        for vsid in range(1, 5):
            assert tlb.peek(vsid, target) is None


class ReferenceLru:
    """A plain set-associative LRU: per set, entries most-recent-first."""

    def __init__(self, entries, assoc):
        self.assoc = assoc
        self.sets = [[] for _ in range(entries // assoc)]
        self.hits = 0
        self.misses = 0

    def _set(self, page_index):
        return self.sets[page_index % len(self.sets)]

    @staticmethod
    def _position(ways, vsid, page_index):
        for position, held in enumerate(ways):
            if (held.vsid, held.page_index) == (vsid, page_index):
                return position
        return None

    def lookup(self, vsid, page_index):
        ways = self._set(page_index)
        position = self._position(ways, vsid, page_index)
        if position is None:
            self.misses += 1
            return None
        self.hits += 1
        ways.insert(0, ways.pop(position))
        return ways[0]

    def insert(self, new):
        ways = self._set(new.page_index)
        position = self._position(ways, new.vsid, new.page_index)
        victim = None
        if position is not None:
            del ways[position]
        elif len(ways) == self.assoc:
            victim = ways.pop()
        ways.insert(0, new)
        return victim

    def invalidate_page(self, page_index, vsid=None):
        ways = self._set(page_index)
        kept = [held for held in ways
                if held.page_index != page_index
                or (vsid is not None and held.vsid != vsid)]
        removed = len(ways) - len(kept)
        ways[:] = kept
        return removed

    def invalidate_all(self):
        for ways in self.sets:
            ways.clear()


_tlb_op = st.tuples(
    st.sampled_from(("lookup",) * 4 + ("insert",) * 3
                    + ("invalidate_page", "tlbie", "invalidate_all")),
    st.integers(1, 3),          # vsid
    st.integers(0, 31),         # page index: two or more per set
)


class TestReferenceModel:
    """``Tlb`` equals a plain LRU model: results, counters, MRU order."""

    @pytest.mark.parametrize("entries,assoc", [(8, 1), (16, 2), (16, 4)])
    @settings(max_examples=60, deadline=None)
    @given(operations=st.lists(_tlb_op, min_size=1, max_size=150))
    def test_matches_reference_lru(self, entries, assoc, operations):
        tlb = Tlb(entries, assoc)
        model = ReferenceLru(entries, assoc)
        for ppn, (kind, vsid, page) in enumerate(operations):
            if kind == "lookup":
                got = tlb.lookup(vsid, page)
                want = model.lookup(vsid, page)
                assert got is want
            elif kind == "insert":
                new = entry(vsid, page, ppn=ppn)
                assert tlb.insert(new) is model.insert(new)
            elif kind == "invalidate_page":
                assert tlb.invalidate_page(page, vsid) == (
                    model.invalidate_page(page, vsid))
            elif kind == "tlbie":
                assert tlb.invalidate_page(page) == model.invalidate_page(page)
            else:
                tlb.invalidate_all()
                model.invalidate_all()
            assert (tlb.hits, tlb.misses) == (model.hits, model.misses)
            for keys, ways in zip(tlb._sets, model.sets):
                assert [(key >> PAGE_INDEX_BITS, key & PAGE_INDEX_MASK)
                        for key in keys] == [
                    (held.vsid, held.page_index) for held in ways]
                assert all(tlb._data[key] is held
                           for key, held in zip(keys, ways))
