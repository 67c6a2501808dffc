"""Physically-indexed set-associative L1 cache model.

The paper's §8 and §9 arguments are entirely about who gets to put lines
into this structure: TLB reloads that pull PTEs through the data cache,
idle-task page clearing that fills the cache with zeroed lines nobody
reads, versus user working sets that want to stay resident.

The model tracks tags only (no data), true-LRU per set, write-back with
write-allocate, and supports *cache-inhibited* accesses, which bypass the
array entirely and cost a full memory access — the mechanism §9 uses to
clear pages without polluting the cache.

Representation: each set is a plain list of integer tags ordered
most-recent-first, and dirtiness lives in one set of line addresses
shared by the whole array.  The scalar :meth:`Cache.access` and the
batched :meth:`Cache.access_page_lines` and :meth:`Cache.stream_lines`
all operate on those flat structures directly — there is no per-line
object, which is what makes the 10⁷-access experiment runs affordable.
Both batched entry points charge each run of consecutive lines through
one private two-level kernel, :meth:`Cache._run`, and scalar
:meth:`Cache.access` stays the reference it must equal.  The behaviour
(LRU order, writeback charging, statistics) is identical to the earlier
object-per-line model; the white-box tests index ``_sets`` and see the
same shape, with tags instead of line objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.params import CACHE_LINE_SIZE, L1_HIT_CYCLES, PAGE_SIZE


@dataclass
class CacheStats:
    """Event counts for one cache array."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    bypasses: int = 0  # cache-inhibited accesses

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = 0
        self.evictions = self.writebacks = self.bypasses = 0


class Cache:
    """One L1 array (instruction or data)."""

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        mem_cycles: int,
        line_size: int = CACHE_LINE_SIZE,
        name: str = "cache",
        word_cycles: int = 0,
        hit_cycles: int = L1_HIT_CYCLES,
        next_level: "Cache" = None,
    ):
        if size_bytes % (assoc * line_size):
            raise ConfigError(
                f"bad cache geometry: {size_bytes}B {assoc}-way "
                f"{line_size}B lines"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        #: Cost of a full line fill from memory on a miss (used when
        #: there is no next level).
        self.mem_cycles = mem_cycles
        #: Cost of a single-beat (cache-inhibited) access; defaults to
        #: the line-fill cost when not given.
        self.word_cycles = word_cycles or mem_cycles
        #: Cost of a hit in *this* array (1 for L1, tens for an L2).
        self.hit_cycles = hit_cycles
        #: The next cache level misses fall through to (e.g. the
        #: board-level L2 behind both L1s), or None for main memory.
        self.next_level = next_level
        self.num_sets = size_bytes // (assoc * line_size)
        #: Per-set MRU-first lists of integer tags.
        self._sets = [[] for _ in range(self.num_sets)]
        #: Line addresses (``pa // line_size``) of resident dirty lines.
        self._dirty = set()
        #: Keys of page visits proven *pure* — every line hit at MRU and,
        #: for writes, was already dirty — since the last state mutation.
        #: A pure visit leaves ``_sets``/``_dirty`` bit-identical, so an
        #: identical repeat visit can replay its (hits, cycles) in O(1).
        #: Any mutation of cache state empties the memo.
        self._pure_visits = set()
        self.stats = CacheStats()
        self._lines_per_page = PAGE_SIZE // line_size
        #: What a one-line visit that hits returns: ``(cycles, misses)``.
        self._one_line_hit = (hit_cycles, 1 if hit_cycles > 1 else 0)
        #: Whether runs of lines take :meth:`_run`'s two-level kernel:
        #: the next level is the last, with this level's line size, a
        #: multiple of its set count, and hit and fill costs above one
        #: cycle (so every miss here is a miss event).  Every machine
        #: :class:`~repro.hw.cpu.CpuState` boots satisfies it.
        self._two_level = (
            next_level is not None
            and next_level.next_level is None
            and next_level.line_size == line_size
            and next_level.num_sets % self.num_sets == 0
            and next_level.hit_cycles > 1
            and next_level.mem_cycles > 1
        )

    # -- address mapping ---------------------------------------------------

    def line_address(self, pa: int) -> int:
        return pa // self.line_size

    def set_index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    def tag(self, line_addr: int) -> int:
        return line_addr // self.num_sets

    # -- the access path ---------------------------------------------------

    def access(self, pa: int, write: bool = False, inhibited: bool = False) -> int:
        """One load or store at physical address ``pa``.

        Returns the cycle cost.  Cache-inhibited accesses never touch the
        array: they cost a memory access and count as bypasses.
        """
        stats = self.stats
        if inhibited:
            stats.bypasses += 1
            return self.word_cycles
        num_sets = self.num_sets
        line_addr = pa // self.line_size
        tags = self._sets[line_addr % num_sets]
        tag = line_addr // num_sets
        # Membership test before index: a miss is a cheap C scan, not a
        # raised-and-caught ValueError (misses dominate the hot streams).
        if tag in tags:
            if tags[0] != tag:
                tags.remove(tag)
                tags.insert(0, tag)
                self._pure_visits.clear()
            if write and line_addr not in self._dirty:
                self._dirty.add(line_addr)
                self._pure_visits.clear()
            stats.hits += 1
            return self.hit_cycles
        return self._miss(line_addr, tags, tag, write)

    def _miss(self, line_addr: int, tags: list, tag: int, write: bool) -> int:
        """Allocate ``line_addr``, evicting LRU; returns the miss cost."""
        stats = self.stats
        stats.misses += 1
        self._pure_visits.clear()
        next_level = self.next_level
        if next_level is not None:
            cycles = next_level.access(line_addr * self.line_size, False)
        else:
            cycles = self.mem_cycles
        if len(tags) >= self.assoc:
            victim_tag = tags.pop()
            stats.evictions += 1
            victim_line = victim_tag * self.num_sets + line_addr % self.num_sets
            if victim_line in self._dirty:
                self._dirty.discard(victim_line)
                stats.writebacks += 1
                if next_level is not None:
                    cycles += next_level.access(
                        victim_line * self.line_size, True
                    )
                else:
                    cycles += self.mem_cycles // 2
        tags.insert(0, tag)
        if write:
            self._dirty.add(line_addr)
        return cycles

    # -- batched kernels ---------------------------------------------------

    def access_page_lines(
        self,
        page_base: int,
        first_line: int,
        lines: int,
        write: bool = False,
        inhibited: bool = False,
    ) -> tuple:
        """A page visit's worth of line accesses in one call.

        Touches line indices ``first_line .. first_line + lines - 1``
        within the page at ``page_base``, wrapping at ``PAGE_SIZE`` the
        way :meth:`~repro.hw.machine.MachineModel.access_page` staggers
        hot pages.  Equivalent to ``lines`` scalar :meth:`access` calls
        in the same order — same LRU transitions, statistics, writeback
        charges — without the per-call overhead.

        Returns ``(cycles, misses)`` where ``misses`` counts accesses
        whose cost exceeded one hit (the condition the machine layer
        uses for its ``dcache_miss``/``icache_miss`` monitor events).
        A one-line visit takes a scalar route of its own; longer visits
        charge each run of consecutive lines through :meth:`_run`.
        """
        if lines == 1 and not inhibited:
            # One line is one scalar access: the memo key and the run
            # kernel would cost more than the line itself.
            line_addr = (
                page_base // self.line_size + first_line % self._lines_per_page
            )
            num_sets = self.num_sets
            tags = self._sets[line_addr % num_sets]
            tag = line_addr // num_sets
            if tag not in tags:
                cost = self._miss(line_addr, tags, tag, write)
                return cost, 1 if cost > 1 else 0
            if tags[0] != tag:
                tags.remove(tag)
                tags.insert(0, tag)
                self._pure_visits.clear()
            if write and line_addr not in self._dirty:
                self._dirty.add(line_addr)
                self._pure_visits.clear()
            self.stats.hits += 1
            return self._one_line_hit
        stats = self.stats
        if inhibited:
            stats.bypasses += lines
            return self.word_cycles * lines, 0
        hit_cycles = self.hit_cycles
        memo = self._pure_visits
        visit_key = (page_base << 32) | (first_line << 16) | (lines << 1) | write
        if visit_key in memo:
            # This exact visit previously completed without changing any
            # cache state (all hits at MRU; writes to already-dirty
            # lines), and no state mutation has happened since.  Replay
            # its outputs without walking the lines.
            stats.hits += lines
            return (
                hit_cycles * lines,
                lines if hit_cycles > 1 else 0,
            )
        lines_per_page = self._lines_per_page
        base_line = page_base // self.line_size
        cycles = 0
        miss_events = 0
        pure = True
        index = first_line
        remaining = lines
        while remaining > 0:
            # One contiguous run of line addresses (the visit wraps back
            # to the page start when a staggered window crosses the end).
            offset = index % lines_per_page
            run = min(remaining, lines_per_page - offset)
            run_cycles, run_events, run_pure = self._run(
                base_line + offset, run, write
            )
            cycles += run_cycles
            miss_events += run_events
            pure = pure and run_pure
            index += run
            remaining -= run
        if pure:
            # No state changed: the identical visit will replay until
            # something mutates the cache.  (Bound the memo so patholog-
            # ical visit diversity cannot grow it without limit.)
            if len(memo) >= 1 << 16:
                memo.clear()
            memo.add(visit_key)
        else:
            memo.clear()
        return cycles, miss_events

    def stream_lines(
        self, first_line: int, count: int, inhibited: bool = False
    ) -> int:
        """Read ``count`` consecutive lines from line address ``first_line``.

        The §7 hash-table scan's charge.  Equivalent to ``count`` scalar
        :meth:`access` reads at consecutive line addresses — same LRU
        transitions, statistics and writeback charges — and returns
        their total cycles: one :meth:`_run`.
        """
        if inhibited:
            self.stats.bypasses += count
            return self.word_cycles * count
        cycles, _, pure = self._run(first_line, count, False)
        if not pure:
            self._pure_visits.clear()
        return cycles

    def _run(self, first_line: int, count: int, write: bool) -> tuple:
        """Charge ``count`` consecutive line addresses from ``first_line``.

        Equivalent to ``count`` scalar :meth:`access` calls in order.
        Returns ``(cycles, miss_events, pure)``: ``miss_events`` counts
        the lines that cost more than one cycle, and ``pure`` says no
        line missed, moved in its set's LRU order or turned dirty.  It
        leaves this level's visit memo to the caller.

        On a :attr:`_two_level` hierarchy the run splits into segments
        of constant tag, at the points where the set index wraps.  The
        next level's lines are the same size and its set count is a
        multiple of this level's, so within a segment a line's
        next-level set is a fixed offset plus its set here, and its
        next-level tag is constant: no line pays a division.  The fill,
        the next level's eviction and a dirty victim's writeback into it
        all run inline, counted in local ints; the statistics and the
        cycles are derived once per run.  Every other geometry charges
        line by line through :meth:`access`, the reference.
        """
        num_sets = self.num_sets
        sets = self._sets
        dirty = self._dirty
        if not self._two_level:
            line_size = self.line_size
            cycles = 0
            miss_events = 0
            pure = True
            for line_addr in range(first_line, first_line + count):
                if pure:
                    tags = sets[line_addr % num_sets]
                    pure = (
                        bool(tags)
                        and tags[0] == line_addr // num_sets
                        and (not write or line_addr in dirty)
                    )
                cost = self.access(line_addr * line_size, write)
                cycles += cost
                if cost > 1:
                    miss_events += 1
            return cycles, miss_events, pure
        assoc = self.assoc
        next_level = self.next_level
        nl_sets = next_level._sets
        nl_dirty = next_level._dirty
        nl_assoc = next_level.assoc
        nl_num_sets = next_level.num_sets
        misses = 0
        evictions = 0
        writebacks = 0
        nl_misses = 0
        nl_evictions = 0
        nl_writebacks = 0
        changed = False
        tag, set_index = divmod(first_line, num_sets)
        remaining = count
        while remaining > 0:
            stop = min(num_sets, set_index + remaining)
            remaining -= stop - set_index
            # Line address ``base + index``; next-level set
            # ``nl_base + index``, next-level tag ``nl_tag``.
            base = tag * num_sets
            nl_tag, nl_base = divmod(base, nl_num_sets)
            for index in range(set_index, stop):
                tags = sets[index]
                if tag in tags:
                    if tags[0] != tag:
                        tags.remove(tag)
                        tags.insert(0, tag)
                        changed = True
                    if write and base + index not in dirty:
                        dirty.add(base + index)
                        changed = True
                    continue
                misses += 1
                # The fill: a read of the line at the next level.
                nl_index = nl_base + index
                nl_tags = nl_sets[nl_index]
                if nl_tag in nl_tags:
                    mru = nl_tags[0]
                    if mru != nl_tag:
                        # Most scan lines sit one step below MRU in the
                        # next level: swap instead of shifting.
                        if nl_tags[1] == nl_tag:
                            nl_tags[0] = nl_tag
                            nl_tags[1] = mru
                        else:
                            nl_tags.remove(nl_tag)
                            nl_tags.insert(0, nl_tag)
                else:
                    nl_misses += 1
                    if len(nl_tags) >= nl_assoc:
                        nl_evictions += 1
                        nl_victim = nl_tags.pop() * nl_num_sets + nl_index
                        if nl_victim in nl_dirty:
                            nl_dirty.discard(nl_victim)
                            nl_writebacks += 1
                    nl_tags.insert(0, nl_tag)
                if len(tags) >= assoc:
                    evictions += 1
                    victim = tags.pop() * num_sets + index
                    if victim in dirty:
                        # The writeback: a write of the victim at the
                        # next level, after the fill (both may share a
                        # next-level set).
                        dirty.discard(victim)
                        writebacks += 1
                        wb_index = victim % nl_num_sets
                        wb_tag = victim // nl_num_sets
                        nl_tags = nl_sets[wb_index]
                        if wb_tag in nl_tags:
                            if nl_tags[0] != wb_tag:
                                nl_tags.remove(wb_tag)
                                nl_tags.insert(0, wb_tag)
                        else:
                            nl_misses += 1
                            if len(nl_tags) >= nl_assoc:
                                nl_evictions += 1
                                nl_victim = (
                                    nl_tags.pop() * nl_num_sets + wb_index
                                )
                                if nl_victim in nl_dirty:
                                    nl_dirty.discard(nl_victim)
                                    nl_writebacks += 1
                            nl_tags.insert(0, wb_tag)
                        nl_dirty.add(victim)
                tags.insert(0, tag)
                if write:
                    dirty.add(base + index)
            tag += 1
            set_index = 0
        stats = self.stats
        hits = count - misses
        stats.hits += hits
        cycles = hits * self.hit_cycles
        # Every miss costs a next-level hit or fill, both above one
        # cycle, so every miss is a miss event.
        miss_events = misses + hits if self.hit_cycles > 1 else misses
        if misses:
            stats.misses += misses
            stats.evictions += evictions
            stats.writebacks += writebacks
            nl_stats = next_level.stats
            # Each miss fills from the next level and each writeback
            # writes to it; whatever did not miss there hit.
            nl_hits = misses + writebacks - nl_misses
            nl_stats.hits += nl_hits
            nl_stats.misses += nl_misses
            nl_stats.evictions += nl_evictions
            nl_stats.writebacks += nl_writebacks
            nl_mem_cycles = next_level.mem_cycles
            cycles += (
                nl_hits * next_level.hit_cycles
                + nl_misses * nl_mem_cycles
                + nl_writebacks * (nl_mem_cycles // 2)
            )
            next_level._pure_visits.clear()
        return cycles, miss_events, not (misses or changed)

    # -- maintenance operations --------------------------------------------

    def contains(self, pa: int) -> bool:
        line_addr = pa // self.line_size
        return line_addr // self.num_sets in self._sets[line_addr % self.num_sets]

    def flush_all(self) -> int:
        """Write back and invalidate everything; returns cycle cost."""
        writebacks = len(self._dirty)
        self.stats.writebacks += writebacks
        cycles = writebacks * (self.mem_cycles // 2)
        self._dirty.clear()
        for tags in self._sets:
            tags.clear()
        self._pure_visits.clear()
        return cycles

    def invalidate_page(self, ppn: int, page_size: int = PAGE_SIZE) -> int:
        """Invalidate all lines of a physical page (dcbf loop)."""
        cycles = 0
        self._pure_visits.clear()
        num_sets = self.num_sets
        first = (ppn * page_size) // self.line_size
        for line_addr in range(first, first + page_size // self.line_size):
            tags = self._sets[line_addr % num_sets]
            tag = line_addr // num_sets
            try:
                position = tags.index(tag)
            except ValueError:
                continue
            if line_addr in self._dirty:
                self._dirty.discard(line_addr)
                self.stats.writebacks += 1
                cycles += self.mem_cycles // 2
            del tags[position]
        return cycles

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(tags) for tags in self._sets)

    def occupancy(self) -> float:
        return len(self) / (self.num_sets * self.assoc)

    def resident_lines(self):
        """Iterate (set_index, tag, dirty) for every resident line."""
        num_sets = self.num_sets
        for index, tags in enumerate(self._sets):
            for tag in tags:
                yield index, tag, (tag * num_sets + index) in self._dirty
