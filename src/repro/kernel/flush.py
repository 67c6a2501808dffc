"""TLB and hash-table flush strategies (§7).

The expensive baseline: invalidating a process's translation means a
hash-table *search* — "in the worst case, the search requires 16 memory
references ... for each PTE being flushed", and "it is not uncommon for
ranges of 40–110 pages to be flushed in one shot".

The lazy strategy: give the context fresh VSIDs ("just involved a reset
of the VSID") and let the stale entries rot as zombies.  The tunable
range-flush cutoff applies the lazy strategy to any range larger than
~20 pages, which is what took mmap latency from 3240 µs to 41 µs.
"""

from __future__ import annotations

from repro.hw.machine import MachineModel
from repro.kernel.vsid import kernel_vsids
from repro.params import (
    FLUSH_PTE_TREE_CYCLES,
    KERNELBASE,
    NUM_SEGMENT_REGISTERS,
    PAGE_INDEX_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    SEGMENT_SHIFT,
    TLBIE_CYCLES,
    VSID_BUMP_CYCLES,
)


class FlushEngine:
    """Implements flush_page / flush_range / flush_mm per configuration."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.machine: MachineModel = kernel.machine
        self.config = kernel.config

    # -- building blocks ----------------------------------------------------------

    def _flush_vsid_for(self, mm, ea: int) -> int:
        """The VSID whose translation of ``ea`` is being invalidated.

        User segments resolve through the mm's VSID set; kernel segments
        12..15 use the fixed kernel VSIDs (``mm`` may be the kernel mm,
        whose ``user_vsids`` list is empty).
        """
        segment = (ea >> SEGMENT_SHIFT) & (NUM_SEGMENT_REGISTERS - 1)
        if ea < KERNELBASE:
            return mm.user_vsids[segment]
        return kernel_vsids()[segment - 12]

    def _search_flush_page(self, mm, ea: int) -> int:
        """Invalidate one page the hard way: hash search + tlbie."""
        machine = self.machine
        page_index = (ea >> PAGE_SHIFT) & PAGE_INDEX_MASK
        vsid = self._flush_vsid_for(mm, ea)
        cycles = FLUSH_PTE_TREE_CYCLES
        if self.kernel.uses_htab:
            event = machine.walker.invalidate(vsid, page_index)
            cycles += event["cycles"]
        cycles += TLBIE_CYCLES
        machine.itlb.invalidate_page(page_index, vsid=vsid)
        machine.dtlb.invalidate_page(page_index, vsid=vsid)
        self.kernel.shootdown.page_invalidated(
            vsid, page_index, kernel_page=ea >= KERNELBASE
        )
        machine.clock.add(cycles, "flush")
        if machine.sanitizer is not None:
            machine.sanitizer.after_page_flush(mm, ea, vsid)
        if machine.tracer is not None:
            machine.tracer.complete("flush-page", "flush", cycles, hex(ea))
        return cycles

    def _bump_context(self, mm) -> int:
        """The lazy whole-context invalidate: swap the mm onto new VSIDs."""
        kernel = self.kernel
        old_vsids = list(mm.user_vsids)
        # The allocation may wrap the context counter, which triggers
        # flush_everything + renumbering of every *other* context; this
        # mm is marked in-bump so the wrap protocol leaves its numbering
        # to the allocation already in flight.
        kernel._mm_in_bump = mm
        try:
            new_vsids = kernel.vsid_allocator.bump(old_vsids, pid=0)
        finally:
            kernel._mm_in_bump = None
        mm.user_vsids = list(new_vsids)
        cycles = VSID_BUMP_CYCLES
        current = kernel.current_task
        if current is not None and current.mm is mm:
            # Reload the live segment registers so the new VSIDs take
            # effect immediately (counted inside the machine call).
            self.machine.context_switch_segments(mm.segment_vsids())
        # Remote CPUs running this mm hold the retired VSIDs in their
        # live segment registers; the shootdown engine reloads them.
        cycles += kernel.shootdown.context_bumped(mm)
        self.machine.monitor.count("vsid_bump")
        self.machine.monitor.count("flush_range_lazy")
        self.machine.clock.add(cycles, "flush")
        if self.machine.sanitizer is not None:
            self.machine.sanitizer.after_context_bump(mm, old_vsids, new_vsids)
        if self.machine.tracer is not None:
            self.machine.tracer.complete("vsid-bump", "flush", cycles, True)
        return cycles

    # -- public API ------------------------------------------------------------------

    def flush_page(self, mm, ea: int) -> int:
        """Invalidate a single translation (always the search path)."""
        self.machine.monitor.count("flush_range_search")
        shootdown = self.kernel.shootdown
        shootdown.begin(mm)
        cycles = self._search_flush_page(mm, ea)
        return cycles + shootdown.commit()

    def flush_range(self, mm, start: int, end: int) -> int:
        """Invalidate every translation in ``[start, end)``.

        With lazy flushing enabled and the range beyond the cutoff, the
        whole context is invalidated by a VSID bump instead (§7: "we
        fixed this problem by invalidating the whole memory management
        context of any process needing to invalidate more than a small
        set of pages").
        """
        n_pages = (end - start) >> PAGE_SHIFT
        if (
            self.config.lazy_vsid_flush
            and self.config.range_flush_cutoff is not None
            and n_pages > self.config.range_flush_cutoff
        ):
            return self._bump_context(mm)
        # The §7 baseline the paper measured at 3240 µs: "the kernel was
        # clearing the range of addresses by searching the hash table for
        # each PTE in turn" — every page of the range pays the search,
        # whether or not anything was ever mapped there.
        self.machine.monitor.count("flush_range_search")
        shootdown = self.kernel.shootdown
        shootdown.begin(mm)
        cycles = 0
        for ea in range(start, end, PAGE_SIZE):
            cycles += self._search_flush_page(mm, ea)
        # One IPI round covers the whole range (batched shootdown).
        cycles += shootdown.commit()
        if self.machine.tracer is not None:
            self.machine.tracer.complete(
                "flush-range", "flush", cycles, n_pages, False
            )
        return cycles

    def flush_mm(self, mm) -> int:
        """Invalidate an entire address space (exec / exit)."""
        if self.config.lazy_vsid_flush:
            return self._bump_context(mm)
        self.machine.monitor.count("flush_range_search")
        shootdown = self.kernel.shootdown
        shootdown.begin(mm)
        cycles = 0
        pages = 0
        for ea, _pte in list(mm.page_table.mapped_pages()):
            cycles += self._search_flush_page(mm, ea)
            pages += 1
        cycles += shootdown.commit()
        if self.machine.tracer is not None:
            self.machine.tracer.complete(
                "flush-mm", "flush", cycles, pages, False
            )
        return cycles

    def flush_everything(self) -> int:
        """Nuclear option: drop every translation everywhere.

        Used on VSID-counter wrap, but callable at any time; the kernel's
        :meth:`~repro.kernel.kernel.Kernel.post_global_flush` runs either
        way, so the allocator restart and context renumbering can never
        drift apart from the hardware state (they previously could when
        this was invoked outside the wrap path).
        """
        machine = self.machine
        cleared = machine.htab.invalidate_all()
        machine.invalidate_tlbs()
        cycles = max(cleared, 1) * 2 + TLBIE_CYCLES
        machine.clock.add(cycles, "flush")
        cycles += self.kernel.shootdown.global_flush()
        self.kernel.post_global_flush()
        if machine.sanitizer is not None:
            machine.sanitizer.after_global_flush()
        if machine.tracer is not None:
            machine.tracer.complete(
                "flush-everything", "flush", cycles, cleared
            )
        return cycles
