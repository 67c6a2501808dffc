"""Linux's two-level page tables, as used on PPC (§5.2, §6.2).

"The core of Linux memory management is based on the x86 two-level page
tables. ... we were committed to using these page tables as the initial
source of PTEs" — the hash table is only a cache of this tree, and the
§6.2 optimization reloads the TLB straight from here.

A 32-bit EA splits as pgd index (10 bits) / pte index (10 bits) / offset
(12 bits).  Page-table pages are real allocated frames so walks charge
real cache accesses at real physical addresses — that is what makes the
§8 pollution analysis fall out of the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import KernelPanic
from repro.params import PAGE_SHIFT, PAGE_SIZE

PGD_SHIFT = 22
PTRS_PER_PGD = 1024
PTRS_PER_PTE = 1024
#: Bytes per PTE in a page-table page (a 32-bit word on PPC Linux).
PTE_ENTRY_BYTES = 4


def pgd_index(ea: int) -> int:
    return (ea >> PGD_SHIFT) & (PTRS_PER_PGD - 1)


def pte_index(ea: int) -> int:
    return (ea >> PAGE_SHIFT) & (PTRS_PER_PTE - 1)


@dataclass
class LinuxPte:
    """One leaf entry of the Linux page-table tree."""

    pfn: int
    present: bool = True
    writable: bool = True
    user: bool = True
    dirty: bool = False
    accessed: bool = False
    cache_inhibited: bool = False


class _PtePage:
    """One page-table page: 1024 PTE slots backed by a physical frame."""

    __slots__ = ("frame_pfn", "entries")

    def __init__(self, frame_pfn: int):
        self.frame_pfn = frame_pfn
        self.entries = {}

    def entry_pa(self, index: int) -> int:
        return (self.frame_pfn << PAGE_SHIFT) + index * PTE_ENTRY_BYTES


@dataclass
class PteLookup:
    """Result of a tree walk: the PTE (if any) and the loads performed.

    ``load_addresses`` lists the physical addresses the walk read — the
    pgd entry and the pte entry — so miss handlers can charge them as
    cache accesses (plus one load for the pgd base in the task struct;
    §6.1's "three loads in the worst case").
    """

    pte: Optional[LinuxPte]
    load_addresses: Tuple[int, ...]


class TwoLevelPageTable:
    """The per-mm Linux page-table tree.

    The tree needs a frame source for its page-table pages; the kernel
    passes its page allocator's ``alloc_frame`` so the pages occupy real
    physical memory.
    """

    def __init__(self, alloc_frame, pgd_frame: Optional[int] = None):
        self._alloc_frame = alloc_frame
        self.pgd_frame = alloc_frame() if pgd_frame is None else pgd_frame
        self._pgd = {}
        #: Frames owned by this tree (pgd + pte pages), for teardown.
        self.table_frames = [self.pgd_frame]

    # -- walks ------------------------------------------------------------------

    def pgd_entry_pa(self, ea: int) -> int:
        return (self.pgd_frame << PAGE_SHIFT) + pgd_index(ea) * PTE_ENTRY_BYTES

    def lookup(self, ea: int) -> PteLookup:
        """Walk the tree for ``ea``; never allocates."""
        pte_page = self._pgd.get(pgd_index(ea))
        if pte_page is None:
            return PteLookup(None, (self.pgd_entry_pa(ea),))
        index = pte_index(ea)
        return PteLookup(
            pte_page.entries.get(index),
            (self.pgd_entry_pa(ea), pte_page.entry_pa(index)),
        )

    def set_pte(self, ea: int, pte: LinuxPte) -> None:
        """Install a leaf PTE, allocating the middle page if needed."""
        directory = pgd_index(ea)
        pte_page = self._pgd.get(directory)
        if pte_page is None:
            pte_page = _PtePage(self._alloc_frame())
            self._pgd[directory] = pte_page
            self.table_frames.append(pte_page.frame_pfn)
        pte_page.entries[pte_index(ea)] = pte

    def clear_pte(self, ea: int) -> Optional[LinuxPte]:
        """Remove a leaf PTE; returns it (or None if absent)."""
        pte_page = self._pgd.get(pgd_index(ea))
        if pte_page is None:
            return None
        return pte_page.entries.pop(pte_index(ea), None)

    # -- iteration ---------------------------------------------------------------

    def mapped_pages(self) -> Iterator[Tuple[int, LinuxPte]]:
        """Yield ``(ea_page_base, pte)`` for every present mapping."""
        for directory, pte_page in sorted(self._pgd.items()):
            for index, pte in sorted(pte_page.entries.items()):
                if pte.present:
                    yield (directory << PGD_SHIFT) | (index << PAGE_SHIFT), pte

    def mapped_range(self, start: int, end: int) -> Iterator[Tuple[int, LinuxPte]]:
        """Present mappings whose page base lies in ``[start, end)``."""
        if start >= end:
            return
        first_dir, last_dir = pgd_index(start), pgd_index(end - 1)
        for directory in range(first_dir, last_dir + 1):
            pte_page = self._pgd.get(directory)
            if pte_page is None:
                continue
            base = directory << PGD_SHIFT
            for index, pte in sorted(pte_page.entries.items()):
                ea = base | (index << PAGE_SHIFT)
                if start <= ea < end and pte.present:
                    yield ea, pte

    def count_mapped(self) -> int:
        return sum(1 for _ in self.mapped_pages())

    def release_frames(self, free_frame) -> int:
        """Give every table frame back (process teardown)."""
        released = 0
        for frame in self.table_frames:
            free_frame(frame)
            released += 1
        self.table_frames = []
        self._pgd = {}
        return released


def page_base(ea: int) -> int:
    """Round an EA down to its page base."""
    return ea & ~(PAGE_SIZE - 1)


def pages_spanned(start: int, length: int) -> int:
    """Number of pages a byte range touches."""
    if length <= 0:
        return 0
    first = page_base(start)
    last = page_base(start + length - 1)
    return ((last - first) >> PAGE_SHIFT) + 1


def check_page_aligned(value: int, what: str) -> None:
    if value & (PAGE_SIZE - 1):
        raise KernelPanic(f"{what} not page aligned: {value:#x}")
