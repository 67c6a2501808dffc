"""The architected hashed page table (§3, §5.2, §7)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.hw.hashtable import (
    HashedPageTable,
    primary_hash,
    secondary_hash,
)
from repro.hw.pte import HashPte
from repro.params import PTES_PER_GROUP


def pte(vsid, page_index, rpn=1):
    return HashPte(vsid=vsid, page_index=page_index, rpn=rpn)


class TestHashFunction:
    def test_primary_hash_vectors(self):
        # hash = (VSID mod 2^19) xor page_index
        assert primary_hash(0, 0) == 0
        assert primary_hash(0x7FFFF, 0) == 0x7FFFF
        assert primary_hash(0x80000, 0) == 0  # bit 19 does not participate
        assert primary_hash(0x12345, 0x6789) == 0x12345 ^ 0x6789

    def test_secondary_is_ones_complement(self):
        for vsid, page in [(0, 0), (0x123, 0x456), (0x7FFFF, 0xFFFF)]:
            assert secondary_hash(vsid, page) == (
                (~primary_hash(vsid, page)) & 0x7FFFF
            )

    @given(st.integers(0, 0xFFFFFF), st.integers(0, 0xFFFF))
    def test_hash_fits_19_bits(self, vsid, page):
        assert 0 <= primary_hash(vsid, page) < 1 << 19
        assert 0 <= secondary_hash(vsid, page) < 1 << 19


class TestConstruction:
    def test_power_of_two_groups_required(self):
        with pytest.raises(ConfigError):
            HashedPageTable(groups=100)

    def test_slots(self):
        htab = HashedPageTable(groups=64)
        assert htab.slots == 64 * PTES_PER_GROUP


class TestSearchInsert:
    def test_search_empty_misses(self):
        htab = HashedPageTable(groups=64)
        flat, probes = htab.search(1, 0x10)
        assert flat == -1
        # Both buckets, every slot of each.
        assert sum(examined for _group, examined in probes) == 2 * PTES_PER_GROUP

    def test_insert_then_search(self):
        htab = HashedPageTable(groups=64)
        htab.insert(pte(1, 0x10, rpn=42))
        flat, probes = htab.search(1, 0x10)
        assert flat >= 0
        assert htab.pte_at(*divmod(flat, htab.ptes_per_group)).rpn == 42
        # Found at the first slot of the primary bucket.
        assert probes == [(htab.group_index(1, 0x10, secondary=False), 1)]

    def test_search_counts_histogram_on_miss(self):
        htab = HashedPageTable(groups=64)
        group = htab.group_index(1, 0x10, secondary=False)
        htab.search(1, 0x10)
        assert htab.bucket_miss_histogram[group] == 1

    def test_insert_prefers_invalid_slot(self):
        htab = HashedPageTable(groups=64)
        event, _probes = htab.insert(pte(1, 0x10))
        assert not event["evicted"]

    def test_overflow_to_secondary_bucket(self):
        htab = HashedPageTable(groups=64)
        # Fill the primary bucket with 8 conflicting entries.
        base_vsid = 5
        inserted = []
        count = 0
        page = 0
        target_group = htab.group_index(base_vsid, 0, secondary=False)
        while count < PTES_PER_GROUP + 1 and page < 0x10000:
            if htab.group_index(base_vsid, page, secondary=False) == target_group:
                htab.insert(pte(base_vsid, page))
                inserted.append(page)
                count += 1
            page += 1
        # The ninth conflicting entry must have gone to its secondary
        # bucket, and still be findable.
        assert htab.insert_secondary >= 1
        for page in inserted:
            assert htab.search(base_vsid, page)[0] >= 0

    def test_evict_when_both_buckets_full(self):
        htab = HashedPageTable(groups=2)  # tiny: 16 slots
        for page in range(40):
            htab.insert(pte(1, page))
        assert htab.evicts > 0
        assert htab.valid_entries() <= htab.slots

    def test_probe_callback_invoked_per_slot(self):
        """A miss reports every slot of both buckets as probed."""
        htab = HashedPageTable(groups=64)
        _flat, probes = htab.search(1, 0x10)
        assert probes == [
            (htab.group_index(1, 0x10, secondary=False), PTES_PER_GROUP),
            (htab.group_index(1, 0x10, secondary=True), PTES_PER_GROUP),
        ]


class TestInvalidate:
    def test_invalidate_entry(self):
        htab = HashedPageTable(groups=64)
        htab.insert(pte(1, 0x10))
        event, _probes = htab.invalidate(1, 0x10)
        assert event["found"]
        assert htab.peek(1, 0x10) is None

    def test_invalidate_missing_costs_full_search(self):
        htab = HashedPageTable(groups=64)
        event, probes = htab.invalidate(1, 0x10)
        assert not event["found"]
        assert event["mem_refs"] == 16  # the paper's worst case
        assert sum(examined for _group, examined in probes) == 16

    def test_invalidate_all(self):
        htab = HashedPageTable(groups=64)
        for page in range(20):
            htab.insert(pte(1, page))
        cleared = htab.invalidate_all()
        assert cleared == 20
        assert htab.valid_entries() == 0


class TestScanAndStats:
    def test_scan_slots_wraps(self):
        """A zombie scan window past the table end wraps to slot 0."""
        htab = HashedPageTable(groups=2)
        for page in range(htab.slots):
            htab.insert(pte(1, page))
        assert htab.valid_entries() == htab.slots
        flats = htab.zombie_flats(htab.slots - 2, 4, lambda vsid: False)
        assert flats == [htab.slots - 2, htab.slots - 1, 0, 1]

    def test_invalidate_slot(self):
        htab = HashedPageTable(groups=64)
        htab.insert(pte(1, 0x10))
        flat, _probes = htab.search(1, 0x10)
        htab.invalidate_slot(flat)
        assert htab.valid_entries() == 0

    def test_live_and_zombie_split(self):
        htab = HashedPageTable(groups=64)
        htab.insert(pte(1, 0x10))
        htab.insert(pte(2, 0x11))
        live, zombie = htab.live_and_zombie_counts(lambda vsid: vsid == 1)
        assert (live, zombie) == (1, 1)

    def test_evict_ratio_and_hit_rate(self):
        htab = HashedPageTable(groups=64)
        assert htab.evict_ratio() == 0.0
        htab.insert(pte(1, 0x10))
        htab.search(1, 0x10)
        htab.search(1, 0x11)
        assert htab.search_hit_rate() == 0.5

    def test_bucket_load_histogram(self):
        htab = HashedPageTable(groups=64)
        htab.insert(pte(1, 0x10))
        histogram = htab.bucket_load_histogram()
        assert sum(histogram) == 1

    def test_reset_stats(self):
        htab = HashedPageTable(groups=64)
        htab.search(1, 0)
        htab.reset_stats()
        assert htab.searches == 0
        assert sum(htab.bucket_miss_histogram) == 0


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(0, 1023)),
            min_size=1,
            max_size=120,
            unique=True,
        )
    )
    def test_inserted_entries_findable_until_evicted(self, mappings):
        htab = HashedPageTable(groups=32)
        evicted = set()
        for vsid, page in mappings:
            event, _probes = htab.insert(pte(vsid, page))
            if event["evicted"] and event["victim"] is not None:
                evicted.add((event["victim"].vsid, event["victim"].page_index))
            evicted.discard((vsid, page))
        for vsid, page in mappings:
            if (vsid, page) not in evicted:
                assert htab.search(vsid, page)[0] >= 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=64,
                    unique=True))
    def test_valid_count_matches_inserts_without_eviction(self, pages):
        htab = HashedPageTable(groups=512)
        for page in pages:
            htab.insert(pte(3, page))
        if htab.evicts == 0:
            assert htab.valid_entries() == len(pages)
