"""TLB-miss and hash-table-miss handlers (§6).

Three handler generations from the paper, selected by ``KernelConfig``:

* **C handlers** (the original): on every miss the kernel re-enables the
  MMU, saves full state and calls C code — ``C_HANDLER_EXTRA_CYCLES``
  plus real state-save stores through the data cache.

* **Fast assembly handlers** (§6.1): run MMU-off, touch only the four
  swapped registers, hand-scheduled.  Only the architected interrupt
  floor (32 cycles on the 603) plus the actual table probes remain.

* **No-hash-table reload** (§6.2, 603 only): the handler goes straight
  to the Linux PTE tree — "three loads in the worst case" — and never
  touches the hash table at all.

On the 604 the hardware has already searched the hash table before the
handler runs, so the handler's job is always: walk the PTE tree, insert
into the hash table (so the next hardware walk hits), reload the TLB.
"""

from __future__ import annotations

from repro.hw.machine import AccessKind, MachineModel, RefillResult
from repro.hw.pte import PP_RO, WIMG_CACHE_INHIBIT
from repro.hw.tlb import TlbEntry
from repro.params import (
    C_HANDLER_EXTRA_CYCLES,
    KERNELBASE,
)

#: Instruction cycles of the hand-scheduled fast path beyond the
#: architected interrupt floor (register swap is free; a few ALU ops).
FAST_HANDLER_BODY_CYCLES = 10

#: Cache lines of kernel stack the C handler's state save touches.
C_HANDLER_STATE_LINES = 6

#: Software emulation of the hash search costs a couple of instructions
#: per PTE examined on top of the memory access itself.
SW_PROBE_CYCLES = 2


class MissHandlers:
    """Builds the refill handler the machine invokes on misses."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.machine: MachineModel = kernel.machine
        self.config = kernel.config

    # -- cost helpers ------------------------------------------------------------

    def _handler_overhead(self) -> int:
        """Cycles beyond the interrupt floor, per handler generation."""
        if self.config.fast_handlers:
            return FAST_HANDLER_BODY_CYCLES
        # The original C handler: MMU back on, full state save (real
        # stores through the data cache), dispatch.
        cycles = C_HANDLER_EXTRA_CYCLES
        stack_base = self.kernel.kernel_stack_pa
        dcache = self.machine.dcache
        for line in range(C_HANDLER_STATE_LINES):
            cycles += dcache.access(stack_base + line * dcache.line_size, True)
        return cycles

    def _charge_pte_tree_walk(self, mm, ea: int):
        """Walk the Linux tree, charging its loads as cache accesses."""
        lookup = mm.page_table.lookup(ea)
        inhibited = not self.config.cache_page_tables
        access = self.machine.dcache.access
        # Load 1: the pgd base out of the task struct.
        cycles = access(self.kernel.task_struct_pa, False, inhibited)
        # Loads 2..3: pgd entry, then pte entry.
        for pa in lookup.load_addresses:
            cycles += access(pa, False, inhibited)
        return lookup.pte, cycles

    # -- the handler proper ---------------------------------------------------------

    def refill(
        self,
        machine: MachineModel,
        ea: int,
        kind: AccessKind,
        write: bool,
        vsid: int,
        page_index: int,
    ) -> RefillResult:
        """Resolve a miss the hardware could not.

        Invoked on every TLB miss on the 603, and on hash-table misses on
        the 604 (hardware already searched the table).  Its own calls
        are positional, like the machine's miss path.
        """
        cycles = self._handler_overhead()
        mm = self.kernel.mm_for_address(ea)

        # 603 with the hash table retained (§6.2's "before"): emulate the
        # 604 by searching the hash table in software first.
        if self.kernel.uses_htab and not machine.spec.hardware_tablewalk:
            machine.monitor.count("htab_search")
            flat, search_cycles = machine.walker.charged_search(
                vsid, page_index, SW_PROBE_CYCLES,
                not self.config.cache_page_tables,
            )
            cycles += search_cycles
            if flat >= 0:
                machine.monitor.count("htab_hit")
                rpn, pp, wimg = machine.htab.reference(flat, write)
                self._trace_refill(ea, "htab", cycles)
                return RefillResult(
                    self._tlb_entry(
                        ea, vsid, page_index, rpn, pp != PP_RO,
                        bool(wimg & WIMG_CACHE_INHIBIT),
                    ),
                    cycles,
                )
            machine.monitor.count("htab_miss")

        # The Linux PTE tree is the source of truth.
        resolution = "tree"
        linux_pte, walk_cycles = self._charge_pte_tree_walk(mm, ea)
        cycles += walk_cycles
        if linux_pte is None or not linux_pte.present:
            linux_pte, fault_cycles = self.kernel.handle_page_fault(ea, write)
            cycles += fault_cycles
            resolution = "fault"
        linux_pte.accessed = True
        if write:
            linux_pte.dirty = True

        # Feed the hash table when this machine/config uses one.
        if self.kernel.uses_htab:
            cycles += self.kernel.reloader.install(vsid, page_index, linux_pte)

        self._trace_refill(ea, resolution, cycles)
        return RefillResult(
            self._tlb_entry(
                ea, vsid, page_index, linux_pte.pfn, linux_pte.writable,
                linux_pte.cache_inhibited,
            ),
            cycles,
        )

    def _trace_refill(self, ea: int, resolution: str, cycles: int) -> None:
        if self.machine.tracer is not None:
            self.machine.tracer.complete(
                "sw-refill", "mmu", cycles, hex(ea), resolution
            )

    @staticmethod
    def _tlb_entry(ea, vsid, page_index, pfn, writable, cache_inhibited):
        # TlbEntry(vsid, page_index, ppn, writable, cache_inhibited,
        # is_kernel), positionally.
        return TlbEntry(
            vsid, page_index, pfn, writable, cache_inhibited,
            ea >= KERNELBASE,
        )
