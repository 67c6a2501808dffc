"""L1/L2 cache model: hits, LRU, write-back, inhibition, hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.hw.cache import Cache
from repro.hw.cpu import CpuState
from repro.hw.hashtable import HashedPageTable
from repro.params import (
    ALL_MACHINES,
    L1_HIT_CYCLES,
    LINES_PER_PAGE,
    M604_185,
    PAGE_SIZE,
)


def l1(mem=50, word=10, next_level=None):
    return Cache(1024, 2, mem, line_size=32, word_cycles=word,
                 next_level=next_level)


class TestGeometry:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            Cache(1000, 3, 50)

    def test_sets(self):
        cache = Cache(16 * 1024, 4, 50)
        assert cache.num_sets == 16 * 1024 // (4 * 32)

    def test_address_mapping(self):
        cache = l1()
        assert cache.line_address(0) == 0
        assert cache.line_address(31) == 0
        assert cache.line_address(32) == 1
        assert cache.set_index(cache.num_sets) == 0
        assert cache.tag(cache.num_sets) == 1


class TestAccess:
    def test_miss_costs_memory(self):
        cache = l1(mem=50)
        assert cache.access(0) == 50
        assert cache.stats.misses == 1

    def test_hit_costs_one(self):
        cache = l1()
        cache.access(0)
        assert cache.access(0) == L1_HIT_CYCLES
        assert cache.access(16) == L1_HIT_CYCLES  # same line
        assert cache.stats.hits == 2

    def test_inhibited_bypasses(self):
        cache = l1(mem=50, word=10)
        assert cache.access(0, inhibited=True) == 10
        assert cache.stats.bypasses == 1
        # Nothing was allocated.
        assert not cache.contains(0)

    def test_write_marks_dirty_and_writeback_charged(self):
        cache = l1(mem=50)
        cache.access(0, write=True)
        # Fill the set until the dirty line is evicted (2-way, 16 sets).
        cache.access(0 + 512)   # same set (num_sets=16 -> 16*32=512)
        cost = cache.access(0 + 1024)  # evicts line 0 (dirty)
        assert cache.stats.writebacks == 1
        assert cost == 50 + 25

    def test_lru_order(self):
        cache = l1()
        cache.access(0)
        cache.access(512)
        cache.access(0)  # refresh
        cache.access(1024)  # evicts 512
        assert cache.contains(0)
        assert not cache.contains(512)


class TestHierarchy:
    def test_l1_miss_fills_from_l2(self):
        l2 = Cache(4096, 4, mem_cycles=50, hit_cycles=12)
        top = l1(mem=50, next_level=l2)
        first = top.access(0)
        assert first == 50  # L2 missed too -> memory
        assert l2.stats.misses == 1
        # Evict from L1, re-access: L2 hit this time.
        top.access(512)
        top.access(1024)
        cost = top.access(0)
        assert cost == 12
        assert l2.stats.hits >= 1

    def test_l1_dirty_victim_written_to_l2(self):
        l2 = Cache(4096, 4, mem_cycles=50, hit_cycles=12)
        top = l1(mem=50, next_level=l2)
        top.access(0, write=True)
        top.access(512)
        top.access(1024)  # evicts dirty line 0 -> write to L2
        assert top.stats.writebacks == 1
        assert l2.contains(0)


class TestMaintenance:
    def test_flush_all_clears_and_counts_writebacks(self):
        cache = l1()
        cache.access(0, write=True)
        cache.access(64)
        cycles = cache.flush_all()
        assert len(cache) == 0
        assert cache.stats.writebacks == 1
        assert cycles == 25

    def test_invalidate_page_drops_page_lines(self):
        cache = Cache(32 * 1024, 4, 50)
        cache.access(0)
        cache.access(4096)
        cache.invalidate_page(0)
        assert not cache.contains(0)
        assert cache.contains(4096)

    def test_occupancy_and_resident(self):
        cache = l1()
        cache.access(0, write=True)
        assert 0 < cache.occupancy() < 1
        resident = list(cache.resident_lines())
        assert len(resident) == 1
        assert resident[0][2] is True  # dirty


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 8191), min_size=1, max_size=300))
    def test_capacity_invariant(self, addresses):
        cache = l1()
        for address in addresses:
            cache.access(address)
            assert len(cache) <= 32  # 1024B / 32B lines
            for lines in cache._sets:
                assert len(lines) <= 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2047), min_size=1, max_size=100))
    def test_most_recent_access_always_resident(self, addresses):
        cache = l1()
        for address in addresses:
            cache.access(address)
            assert cache.contains(address)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4095), st.booleans()),
                    min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, operations):
        cache = l1()
        for address, write in operations:
            cache.access(address, write=write)
        assert cache.stats.hits + cache.stats.misses == len(operations)


# -- the page kernel against the scalar loop -----------------------------------

def hierarchy_604():
    """The 604's L1 D-cache over its board-level L2, as booted."""
    htab = HashedPageTable(groups=64)
    return CpuState(0, M604_185, htab, htab_base_pa=0x100000).dcache


def hierarchy_small(l2_line=32, l2_bytes=4096):
    """A tiny 16-set L1 over a tiny L2: visits evict at both levels."""
    l2 = Cache(l2_bytes, 4, mem_cycles=60, line_size=l2_line, word_cycles=9,
               hit_cycles=12)
    return Cache(1024, 2, mem_cycles=50, line_size=32, word_cycles=10,
                 next_level=l2)


#: "604" and "small" take the two-level run kernel; the other two fall
#: back to scalar ``access`` (an L2 line twice the L1's, and an L2 whose
#: 24 sets are not a multiple of the L1's 16).
HIERARCHIES = {
    "604": hierarchy_604,
    "small": hierarchy_small,
    "small-l2-64B-lines": lambda: hierarchy_small(l2_line=64),
    "small-l2-24-sets": lambda: hierarchy_small(l2_bytes=3072),
}


def scalar_page_visit(cache, page_base, first_line, lines, write, inhibited):
    """The reference: one scalar access per line, wrapping in the page."""
    lines_per_page = PAGE_SIZE // cache.line_size
    cycles = misses = 0
    for index in range(first_line, first_line + lines):
        cost = cache.access(
            page_base + (index % lines_per_page) * cache.line_size,
            write=write,
            inhibited=inhibited,
        )
        cycles += cost
        if cost > 1 and not inhibited:
            misses += 1
    return cycles, misses


def cache_state(cache):
    """Statistics, tags and dirty lines of every level, top first."""
    levels = []
    while cache is not None:
        levels.append((cache.stats, cache._sets, cache._dirty))
        cache = cache.next_level
    return levels


_visit = st.tuples(
    st.just("visit"),
    st.integers(0, 11),                      # page
    st.integers(0, LINES_PER_PAGE - 1),      # first line
    st.integers(1, LINES_PER_PAGE),          # lines (may wrap the page)
    st.booleans(),                           # write
    st.sampled_from((False, False, False, True)),  # inhibited
)
_operations = st.lists(
    st.one_of(
        _visit,
        st.just(("repeat",)),
        st.tuples(st.just("invalidate"), st.integers(0, 1),
                  st.integers(0, 11)),
        st.tuples(st.just("flush"), st.integers(0, 1)),
    ),
    min_size=1,
    max_size=40,
)


class TestPageKernelDifferential:
    """``access_page_lines`` equals the scalar ``access`` loop exactly."""

    def test_hierarchies_cover_both_sides_of_the_geometry_rule(self):
        takes_kernel = {
            name for name, build in HIERARCHIES.items() if build()._two_level
        }
        assert takes_kernel == {"604", "small"}

    @pytest.mark.parametrize("geometry", sorted(HIERARCHIES))
    @settings(max_examples=60, deadline=None)
    @given(operations=_operations)
    def test_matches_scalar_loop(self, geometry, operations):
        batched = HIERARCHIES[geometry]()
        scalar = HIERARCHIES[geometry]()
        last = None
        for operation in operations:
            if operation[0] == "repeat":
                if last is None:
                    continue
                operation = last
            kind = operation[0]
            if kind == "visit":
                _, page, first_line, lines, write, inhibited = operation
                page_base = (0x40 + page) * PAGE_SIZE
                got = batched.access_page_lines(
                    page_base, first_line, lines, write, inhibited
                )
                want = scalar_page_visit(
                    scalar, page_base, first_line, lines, write, inhibited
                )
                assert got == want, operation
                last = operation
            else:
                targets = (batched, scalar) if operation[1] == 0 else (
                    batched.next_level, scalar.next_level)
                if kind == "invalidate":
                    got, want = (cache.invalidate_page(0x40 + operation[2])
                                 for cache in targets)
                else:
                    got, want = (cache.flush_all() for cache in targets)
                assert got == want
            assert cache_state(batched) == cache_state(scalar), operation

    def test_exact_repeat_replays_from_memo(self):
        batched, scalar = hierarchy_small(), hierarchy_small()
        visit = (0x40 * PAGE_SIZE, 3, 8, True, False)
        for repeat in range(3):
            if repeat == 2:
                # The second visit changed nothing, so this one replays.
                assert batched._pure_visits
            got = batched.access_page_lines(*visit)
            assert got == scalar_page_visit(scalar, *visit)
            assert cache_state(batched) == cache_state(scalar)

    def test_dirty_victims_written_back_into_l2(self):
        batched, scalar = hierarchy_small(), hierarchy_small()
        # 1 KB 2-way L1 with 16 sets: three pages' first 16 lines
        # collide in every set, so the third visit evicts dirty lines.
        for page in range(3):
            visit = ((0x40 + page) * PAGE_SIZE, 0, 16, True, False)
            assert batched.access_page_lines(*visit) == scalar_page_visit(
                scalar, *visit)
        assert batched.stats.writebacks == 16
        assert batched.next_level._dirty
        assert cache_state(batched) == cache_state(scalar)


class TestMachineGeometry:
    """Every modelled machine's L1s take the two-level run kernel.

    A geometry that broke the rule would send every experiment down the
    per-line fallback with no simulated number moving.
    """

    @pytest.mark.parametrize("spec", ALL_MACHINES, ids=lambda spec: spec.name)
    def test_booted_l1s_take_the_run_kernel(self, spec, monkeypatch):
        cpu = CpuState(0, spec, HashedPageTable(groups=64),
                       htab_base_pa=0x100000)

        def per_line(*_args):
            raise AssertionError("a run fell back to scalar access")

        monkeypatch.setattr(Cache, "access", per_line)
        for cache in (cpu.icache, cpu.dcache):
            assert cache._two_level
            # Written pages over twice the L1: the runs fill, evict and
            # write dirty victims back into the L2.
            for page in range(2 * cache.size_bytes // PAGE_SIZE + 1):
                cache.access_page_lines(page * PAGE_SIZE, 0, LINES_PER_PAGE,
                                        True)
            cache.stream_lines(0, 2 * cache.num_sets + 3)
            assert cache.stats.writebacks > 0
