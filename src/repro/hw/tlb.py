"""Set-associative translation look-aside buffers.

The 603 has separate 64-entry instruction and data TLBs; the 604's are
128 entries each (the paper quotes the 128/256 totals).  Both are 2-way
set associative and indexed by the low bits of the effective page index,
with the (VSID, page index) pair as tag — so two processes' entries for
the same EA coexist only until they collide in a set.

The model keeps an LRU bit per set, as the hardware does for 2-way
arrays, and generalizes to true-LRU for wider associativity so tests can
exercise other geometries.

Representation: each set is a list of packed integer keys
(``vsid << PAGE_INDEX_BITS | page_index``) ordered most-recent-first;
the :class:`TlbEntry` payloads live in one dict keyed by the same packed
key.  A probe is a C-speed membership test over at most ``assoc`` small
ints plus one dict read — no per-entry object scan, and a miss raises
nothing (misses lead every 604 table walk).  The entry objects callers
insert are stored as-is, so the check/obs layers keep receiving the same
mutable :class:`TlbEntry` instances they always did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.params import PAGE_INDEX_BITS, PAGE_INDEX_MASK

_KEY_SHIFT = PAGE_INDEX_BITS
_KEY_PAGE_MASK = PAGE_INDEX_MASK


@dataclass(slots=True)
class TlbEntry:
    """One cached virtual-to-physical translation."""

    vsid: int
    page_index: int
    ppn: int
    writable: bool = True
    cache_inhibited: bool = False
    #: The kernel tags entries it loaded for supervisor addresses so the
    #: monitor can report the OS TLB footprint (§5.1's 33% figure).
    is_kernel: bool = False


class Tlb:
    """A set-associative TLB with per-set LRU replacement."""

    def __init__(self, entries: int, assoc: int, name: str = "tlb"):
        if entries <= 0 or assoc <= 0 or entries % assoc:
            raise ConfigError(
                f"bad TLB geometry: {entries} entries, {assoc}-way"
            )
        self.name = name
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        # Each set is a list of packed (vsid, page_index) keys ordered
        # most-recent-first; payloads live in _data.
        self._sets = [[] for _ in range(self.num_sets)]
        self._data = {}
        self.hits = 0
        self.misses = 0
        self.invalidate_all_count = 0

    # -- indexing ----------------------------------------------------------

    def set_index(self, page_index: int) -> int:
        """Hardware indexes by the low EA page-index bits."""
        return page_index % self.num_sets

    # -- lookup / fill -----------------------------------------------------

    def lookup(self, vsid: int, page_index: int) -> Optional[TlbEntry]:
        """Probe the TLB; maintains LRU order and hit/miss counters."""
        keys = self._sets[page_index % self.num_sets]
        key = (vsid << _KEY_SHIFT) | page_index
        if key not in keys:
            self.misses += 1
            return None
        if keys[0] != key:
            keys.remove(key)
            keys.insert(0, key)
        self.hits += 1
        return self._data[key]

    def peek(self, vsid: int, page_index: int) -> Optional[TlbEntry]:
        """Probe without touching LRU state or counters (for assertions)."""
        key = (vsid << _KEY_SHIFT) | page_index
        if key in self._sets[page_index % self.num_sets]:
            return self._data[key]
        return None

    def insert(self, entry: TlbEntry) -> Optional[TlbEntry]:
        """Fill an entry, evicting LRU if the set is full.

        Returns the victim entry, or None if a slot was free or the same
        translation was already present (it is refreshed in place).
        """
        keys = self._sets[entry.page_index % self.num_sets]
        key = (entry.vsid << _KEY_SHIFT) | entry.page_index
        victim = None
        if key in keys:
            keys.remove(key)
        elif len(keys) >= self.assoc:
            victim = self._data.pop(keys.pop())
        keys.insert(0, key)
        self._data[key] = entry
        return victim

    # -- invalidation ------------------------------------------------------

    def invalidate_page(self, page_index: int, vsid: Optional[int] = None) -> int:
        """`tlbie`: drop entries whose EA page index matches.

        With ``vsid=None`` this is the architected instruction — it
        invalidates by EA alone (all VSIDs in the indexed set whose page
        index matches), which is why per-page flushes are cheap for the
        TLB but the hash table still needs the expensive search the paper
        complains about.  Passing the owning VSID restricts the kill to
        that context, so flushing one address space cannot evict another
        context's translation of the same page index.
        """
        keys = self._sets[page_index % self.num_sets]
        removed = 0
        if vsid is not None:
            key = (vsid << _KEY_SHIFT) | page_index
            if key in keys:
                keys.remove(key)
                del self._data[key]
                removed = 1
        else:
            survivors = []
            for key in keys:
                if key & _KEY_PAGE_MASK == page_index:
                    del self._data[key]
                    removed += 1
                else:
                    survivors.append(key)
            if removed:
                keys[:] = survivors
        return removed

    def invalidate_all(self) -> None:
        """`tlbia` / sync of a full flush."""
        for keys in self._sets:
            keys.clear()
        self._data.clear()
        self.invalidate_all_count += 1

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def occupancy(self) -> float:
        """Fraction of TLB slots currently holding a translation."""
        return len(self._data) / self.entries

    def kernel_entries(self) -> int:
        """How many live entries belong to the kernel (§5.1 footprint)."""
        return sum(1 for entry in self._data.values() if entry.is_kernel)

    def live_entries(self):
        """Iterate over all live entries (MRU-first within each set)."""
        data = self._data
        for keys in self._sets:
            for key in keys:
                yield data[key]

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidate_all_count = 0
