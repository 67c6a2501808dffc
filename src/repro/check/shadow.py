"""The shadow MMU: ground truth the hardware state is validated against.

The Linux page tables are "the initial source of PTEs" — the hash table
and TLBs are only caches of them, and the VSID allocator decides which
cached entries are reachable at all.  :class:`ShadowMMU` therefore never
mirrors events; it *re-derives* the expected outcome of any translation
from the page tables, the VSID liveness sets and the BAT array, all via
pure reads (``peek`` / ``pte_at`` / ``lookup``) so observing the machine
never perturbs the cycle ledger or the monitor counters the experiments
measure.

The one piece of genuinely shadowed state is page-zeroing: the §9
pre-cleared list promises callers a zero page, which nothing in the
model can re-derive, so the shadow tracks which frames were cleared and
forgets them again on any translated write to the frame.

SMP adds a second shadowed structure: per-CPU pending-invalidation sets
(the "per-CPU shadow TLBs").  When the shootdown engine defers a remote
invalidation, the shadow mirrors the queued ``(vsid, page_index)`` key
for that CPU; a TLB hit on a pending key is the shootdown-coherence
violation — a CPU translating through an entry another CPU invalidated.
The shared hash table needs no SMP shadow of its own: it is validated
against the (shared) Linux page tables exactly as before.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.hw.access import AccessKind
from repro.kernel.vsid import NUM_USER_SEGMENTS, kernel_vsids
from repro.params import (
    KERNELBASE,
    NUM_SEGMENT_REGISTERS,
    PAGE_SHIFT,
    SEGMENT_SHIFT,
)


class ShadowMMU:
    """Ground-truth oracle over one kernel's MMU state."""

    def __init__(self, kernel):
        self.kernel = kernel
        #: Frames known to contain zeroes (cleared, never written since).
        self._zeroed: Set[int] = set()
        #: Per-CPU pending remote invalidations the shootdown engine has
        #: deferred: a mirror of its queues, keyed (vsid, page_index).
        self.pending: List[Set[Tuple[int, int]]] = [
            set() for _ in range(kernel.machine.n_cpus)
        ]

    # -- address resolution --------------------------------------------------------

    def mm_for(self, ea: int):
        """The address space that owns ``ea`` right now (None if no task)."""
        if ea >= KERNELBASE:
            return self.kernel.kernel_mm
        task = self.kernel.current_task
        return task.mm if task is not None else None

    def expected_frame(self, ea: int, kind: AccessKind) -> Optional[int]:
        """The frame a translation of ``ea`` must resolve to, or None.

        Recomputes the BAT match (BATs win over page translation, §3)
        and otherwise consults the owning address space's Linux page
        table — the source of truth every cached translation must agree
        with.
        """
        machine = self.kernel.machine
        bat = machine.bats.lookup(
            ea, instruction=kind is AccessKind.INSTRUCTION
        )
        if bat is not None:
            return bat.translate(ea) >> PAGE_SHIFT
        mm = self.mm_for(ea)
        if mm is None:
            return None
        pte = mm.page_table.lookup(ea).pte
        if pte is None or not pte.present:
            return None
        return pte.pfn

    def expected_vsid(self, ea: int) -> Optional[int]:
        """The VSID the segment registers should supply for ``ea``."""
        segment = (ea >> SEGMENT_SHIFT) & (NUM_SEGMENT_REGISTERS - 1)
        if segment >= NUM_USER_SEGMENTS:
            return kernel_vsids()[segment - NUM_USER_SEGMENTS]
        task = self.kernel.current_task
        if task is None:
            return None
        return task.mm.user_vsids[segment]

    def ownership(self) -> Dict[int, Tuple[object, int]]:
        """Map every live VSID to its ``(mm, segment)`` owner.

        Rebuilt on demand from the kernel's task table — the shadow does
        not track allocation events, so it cannot drift from the thing it
        is validating.
        """
        owners: Dict[int, Tuple[object, int]] = {}
        for segment, vsid in enumerate(kernel_vsids(), start=NUM_USER_SEGMENTS):
            owners[vsid] = (self.kernel.kernel_mm, segment)
        for task in self.kernel.tasks.values():
            for segment, vsid in enumerate(task.mm.user_vsids):
                owners[vsid] = (task.mm, segment)
        return owners

    # -- pending-invalidation tracking (SMP shootdown) ---------------------------------

    def note_deferred(self, cpu: int, keys) -> None:
        self.pending[cpu].update(keys)

    def note_invalidated(self, cpu: int, keys) -> None:
        self.pending[cpu].difference_update(keys)

    def clear_pending(self, cpu: Optional[int] = None) -> None:
        if cpu is None:
            for pending in self.pending:
                pending.clear()
        else:
            self.pending[cpu].clear()

    # -- page-zero tracking -----------------------------------------------------------

    def note_cleared(self, pfn: int) -> None:
        self._zeroed.add(pfn)

    def note_write_frame(self, pfn: int) -> None:
        self._zeroed.discard(pfn)

    def is_zeroed(self, pfn: int) -> bool:
        return pfn in self._zeroed
