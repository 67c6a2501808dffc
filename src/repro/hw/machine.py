"""The machine model: the full Figure-1 translation datapath plus caches.

``MachineModel`` owns the segment registers, BAT array, instruction and
data TLBs, L1 caches, the in-memory hashed page table, the 604 hardware
walk engine and the performance monitor.  The kernel layer installs a
*refill handler* — the software that runs when hardware cannot resolve a
translation (every TLB miss on the 603; hash-table misses on the 604).

Cost accounting: BAT hits and TLB hits are overlapped with the access and
charge nothing beyond the cache access itself; every miss path charges
the paper's interrupt/walk costs plus real cache-modelled memory
references.  All charges land in the machine's :class:`CycleLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigError, TranslationError
from repro.hw.access import AccessKind
from repro.hw.cpu import CpuState
from repro.hw.hashtable import HashedPageTable
from repro.hw.pte import PP_RO, WIMG_CACHE_INHIBIT
from repro.hw.tlb import TlbEntry
from repro.params import (
    C603_MISS_INVOKE_CYCLES,
    C604_HASH_MISS_INVOKE_CYCLES,
    HTAB_GROUPS,
    KERNELBASE,
    MachineSpec,
    PAGE_INDEX_MASK,
    PAGE_OFFSET_MASK,
    PAGE_SHIFT,
    PTE_BYTES,
    PTES_PER_GROUP,
    RAM_BYTES,
)

#: The access kinds, bound once: a module global reads in a fraction of
#: the time of an enum member (``AccessKind.INSTRUCTION``).
_INSTRUCTION = AccessKind.INSTRUCTION
_DATA = AccessKind.DATA


@dataclass(slots=True)
class TranslationResult:
    """Outcome of translating one effective address."""

    pa: int
    cycles: int
    #: Which path resolved it: "bat", "tlb", "hw_walk", "handler".
    path: str
    cache_inhibited: bool = False


@dataclass(slots=True)
class RefillResult:
    """What the kernel's software refill handler hands back to hardware."""

    entry: Optional[TlbEntry]
    cycles: int


#: Signature of the kernel-installed refill handler.
RefillHandler = Callable[["MachineModel", int, AccessKind, bool, int, int], RefillResult]


class MachineModel:
    """One simulated PowerPC machine (603- or 604-style MMU)."""

    def __init__(
        self,
        spec: MachineSpec,
        htab_groups: int = HTAB_GROUPS,
        ram_bytes: int = RAM_BYTES,
        cache_ptes: bool = True,
        htab_ptes_per_group: int = PTES_PER_GROUP,
        n_cpus: int = 1,
    ):
        if n_cpus < 1:
            raise ConfigError(f"n_cpus must be >= 1: {n_cpus}")
        self.spec = spec
        #: Whether a TLB miss walks the hash table in hardware (604)
        #: or traps to software at once (603); read once, here.
        self._hardware_tablewalk = spec.hardware_tablewalk
        self.ram_bytes = ram_bytes
        self.n_cpus = n_cpus
        self.htab = HashedPageTable(
            groups=htab_groups, ptes_per_group=htab_ptes_per_group
        )
        htab_bytes = self.htab.slots * PTE_BYTES
        if htab_bytes >= ram_bytes:
            raise ConfigError("hash table does not fit in RAM")
        #: The table lives at the top of physical memory, shared by every
        #: CPU; so is physical memory itself.  Everything else — segment
        #: registers, BATs, TLBs, L1/L2 caches, monitor, cycle ledger,
        #: walk engine — is per-CPU (:class:`~repro.hw.cpu.CpuState`).
        self.htab_base_pa = ram_bytes - htab_bytes
        self.cpus = [
            CpuState(index, spec, self.htab, self.htab_base_pa,
                     cache_ptes=cache_ptes)
            for index in range(n_cpus)
        ]
        self.current_cpu = 0
        self._bind_cpu(self.cpus[0])
        self.refill_handler: Optional[RefillHandler] = None
        #: Opt-in shadow-MMU coherence sanitizer (``repro.check``).  When
        #: set, every translation served by any path is cross-validated
        #: against ground truth; the kernel's flush/reclaim/preclear
        #: paths also consult it at their commit points.
        self.sanitizer = None
        #: Opt-in flight-recorder event bus (``repro.obs``).  When set,
        #: the translation paths and the kernel's commit points publish
        #: structured events into it; emits are counter-free, so a
        #: traced run is bit-identical to an untraced one.
        self.tracer = None

    # -- CPU selection --------------------------------------------------------

    def _bind_cpu(self, cpu: CpuState) -> None:
        """Bind one CPU's components to the machine's hot-path slots.

        The translation fast paths read ``self.clock`` / ``self.itlb`` /
        ... as plain attributes, so selecting a CPU is a handful of
        reference copies at quantum boundaries instead of a property
        indirection on every access.  With ``n_cpus=1`` the binding
        happens exactly once, at construction.
        """
        self.clock = cpu.clock
        self.monitor = cpu.monitor
        self.segments = cpu.segments
        self.bats = cpu.bats
        self.itlb = cpu.itlb
        self.dtlb = cpu.dtlb
        self.l2 = cpu.l2
        self.icache = cpu.icache
        self.dcache = cpu.dcache
        self.walker = cpu.walker

    def set_current_cpu(self, index: int) -> None:
        """Make ``index`` the executing CPU (the executive's round-robin)."""
        if index == self.current_cpu:
            return
        self.current_cpu = index
        self._bind_cpu(self.cpus[index])

    # -- cross-CPU aggregates -------------------------------------------------

    def total_cycles_all_cpus(self) -> int:
        """Sum of every CPU's ledger (the SMP experiments' cost metric)."""
        return sum(cpu.clock.total for cpu in self.cpus)

    def cpu_cycle_totals(self) -> list:
        return [cpu.clock.total for cpu in self.cpus]

    def monitor_totals(self) -> dict:
        """Every CPU's counters merged into one machine-wide snapshot."""
        totals: dict = {}
        for cpu in self.cpus:
            for event, value in cpu.monitor.snapshot().items():
                totals[event] = totals.get(event, 0) + value
        return totals

    # -- configuration --------------------------------------------------------

    def install_refill_handler(self, handler: RefillHandler) -> None:
        """The kernel installs its TLB/hash-miss handler here."""
        self.refill_handler = handler

    # -- the translation datapath ----------------------------------------------

    def translate(
        self, ea: int, kind: AccessKind = AccessKind.DATA, write: bool = False
    ) -> TranslationResult:
        """Translate one EA, charging all miss costs to the ledger."""
        result = TranslationResult(*self._translate(ea, kind, write))
        if self.sanitizer is not None:
            self.sanitizer.check_translation(ea, kind, write, result)
        return result

    # The private paths below return plain ``(pa, cycles, path,
    # cache_inhibited)`` tuples, the fields of a TranslationResult, so
    # the per-visit hot path builds no result object.  They run once
    # per page visit, so they also pay no interpreter overhead that
    # computes nothing: enum members are read from module globals,
    # calls are positional and address arithmetic is written inline
    # (``ea_page_index``, ``physical_address``) with the
    # ``repro.params`` constants.

    def _translate(self, ea: int, kind: AccessKind, write: bool) -> tuple:
        # Block address translation proceeds in parallel with the page
        # lookup and wins if it matches (§3) — zero added latency.
        instruction = kind is _INSTRUCTION
        bat = self.bats.lookup(ea, instruction)
        if bat is not None:
            self.monitor.count("bat_translation")
            return bat.translate(ea), 0, "bat", bool(bat.wimg & WIMG_CACHE_INHIBIT)

        vsid = self.segments.vsid_for(ea)
        page_index = (ea >> PAGE_SHIFT) & PAGE_INDEX_MASK
        if instruction:
            tlb, miss_event = self.itlb, "itlb_miss"
        else:
            tlb, miss_event = self.dtlb, "dtlb_miss"
        entry = tlb.lookup(vsid, page_index)
        if entry is not None:
            pa = (entry.ppn << PAGE_SHIFT) | (ea & PAGE_OFFSET_MASK)
            return pa, 0, "tlb", entry.cache_inhibited
        self.monitor.count(miss_event)
        if self._hardware_tablewalk:
            return self._tlb_miss_604(ea, kind, write, vsid, page_index, tlb)
        return self._tlb_miss_603(ea, kind, write, vsid, page_index, tlb)

    def _tlb_miss_604(self, ea, kind, write, vsid, page_index, tlb):
        """604: hardware searches the hash table before trapping."""
        flat, cycles = self.walker.walk(vsid, page_index)
        monitor = self.monitor
        monitor.count("htab_search")
        if flat >= 0:
            monitor.count("htab_hit")
            rpn, pp, wimg = self.htab.reference(flat, write)
            inhibited = bool(wimg & WIMG_CACHE_INHIBIT)
            # TlbEntry(vsid, page_index, ppn, writable, cache_inhibited,
            # is_kernel), positionally.
            tlb.insert(TlbEntry(
                vsid, page_index, rpn, pp != PP_RO, inhibited,
                ea >= KERNELBASE,
            ))
            self.clock.add(cycles, "tlb_reload")
            if self.tracer is not None:
                self.tracer.complete("hw-walk", "mmu", cycles, hex(ea))
            pa = (rpn << PAGE_SHIFT) | (ea & PAGE_OFFSET_MASK)
            return pa, cycles, "hw_walk", inhibited
        # Hash-table miss: trap to the kernel.
        monitor.count("htab_miss")
        monitor.count("hash_miss_interrupt")
        cycles += C604_HASH_MISS_INVOKE_CYCLES
        return self._software_refill(ea, kind, write, vsid, page_index, tlb, cycles)

    def _tlb_miss_603(self, ea, kind, write, vsid, page_index, tlb):
        """603: every TLB miss traps to software immediately."""
        self.monitor.count("sw_tlb_miss_interrupt")
        cycles = C603_MISS_INVOKE_CYCLES
        return self._software_refill(ea, kind, write, vsid, page_index, tlb, cycles)

    def _software_refill(self, ea, kind, write, vsid, page_index, tlb, cycles):
        if self.refill_handler is None:
            self.clock.add(cycles, "tlb_reload")
            raise TranslationError(ea, "TLB miss with no refill handler installed")
        refill = self.refill_handler(self, ea, kind, write, vsid, page_index)
        cycles += refill.cycles
        self.clock.add(cycles, "tlb_reload")
        if refill.entry is None:
            raise TranslationError(ea, "refill handler could not map address")
        entry = refill.entry
        tlb.insert(entry)
        pa = (entry.ppn << PAGE_SHIFT) | (ea & PAGE_OFFSET_MASK)
        return pa, cycles, "handler", entry.cache_inhibited

    # -- memory accesses ---------------------------------------------------------

    def data_access(self, ea: int, write: bool = False) -> int:
        """Translate + one data-cache access; returns total cycles."""
        result = self.translate(ea, _DATA, write)
        cycles = self.dcache.access(
            result.pa, write=write, inhibited=result.cache_inhibited
        )
        if not result.cache_inhibited and cycles > 1:
            self.monitor.count("dcache_miss")
        self.clock.add(cycles, "mem")
        return result.cycles + cycles

    def instruction_fetch(self, ea: int) -> int:
        """Translate + one instruction-cache access."""
        result = self.translate(ea, _INSTRUCTION, False)
        cycles = self.icache.access(result.pa, inhibited=result.cache_inhibited)
        if not result.cache_inhibited and cycles > 1:
            self.monitor.count("icache_miss")
        self.clock.add(cycles, "mem")
        return result.cycles + cycles

    def access_page(
        self,
        ea: int,
        lines: int,
        write: bool = False,
        kind: AccessKind = AccessKind.DATA,
        first_line: int = 0,
    ) -> int:
        """Batched page visit: one translation, ``lines`` line touches.

        This is the workload fast path: a process touching a working-set
        page translates once (later references hit the TLB, which costs
        nothing extra) and streams through ``lines`` distinct cache lines
        starting at ``first_line`` (callers stagger this so different hot
        pages do not artificially alias into the same cache sets).
        """
        outcome = self._translate(ea, kind, write)
        if self.sanitizer is not None:
            self.sanitizer.check_translation(
                ea, kind, write, TranslationResult(*outcome)
            )
        pa, cycles, _path, inhibited = outcome
        if kind is _INSTRUCTION:
            cache, miss_event = self.icache, "icache_miss"
        else:
            cache, miss_event = self.dcache, "dcache_miss"
        mem_cycles, misses = cache.access_page_lines(
            pa & ~PAGE_OFFSET_MASK, first_line, lines, write, inhibited
        )
        if misses:
            self._count_misses(miss_event, misses)
        self.clock.add(mem_cycles, "mem")
        return cycles + mem_cycles

    def access_visits(self, key: str, visits: tuple) -> None:
        """Charge a fixed table of page visits, in order.

        ``visits`` holds ``(ea, lines, write, kind, first_line)`` tuples
        (the kernel footprint of :meth:`Kernel.touch_kernel`), and
        ``key`` names that table: one key always names the same visits.
        Each visit's translation is resolved once per BAT-bank state and
        memoized in the current CPU's ``bats.resolved``, which any BAT
        reprogramming empties.  A visit a cacheable BAT covers then
        costs what :meth:`access_page` charges for it, in the same
        order — ``bat_translation`` count, sanitizer check, cache visit,
        one ledger charge — so monitor snapshots taken at ledger
        crossings (the sampler's) and trace events are unchanged.  Any
        other visit goes through :meth:`access_page`.
        """
        resolved = self.bats.resolved
        route = resolved.get(key)
        if route is None:
            route = resolved[key] = self._resolve_visits(visits)
        monitor = self.monitor
        clock = self.clock
        sanitizer = self.sanitizer
        for ea, lines, write, kind, first_line, pa in route:
            if pa is None:
                self.access_page(ea, lines, write, kind, first_line)
                continue
            monitor.count("bat_translation")
            if sanitizer is not None:
                sanitizer.check_translation(
                    ea, kind, write, TranslationResult(pa, 0, "bat")
                )
            if kind is _INSTRUCTION:
                cache, miss_event = self.icache, "icache_miss"
            else:
                cache, miss_event = self.dcache, "dcache_miss"
            mem_cycles, misses = cache.access_page_lines(
                pa & ~PAGE_OFFSET_MASK, first_line, lines, write
            )
            if misses:
                self._count_misses(miss_event, misses)
            clock.add(mem_cycles, "mem")

    def _resolve_visits(self, visits: tuple) -> tuple:
        """``visits`` with each one's BAT physical address appended.

        The address is None where no cacheable BAT covers the visit
        (no BAT, or a cache-inhibited one).
        """
        lookup = self.bats.lookup
        route = []
        for ea, lines, write, kind, first_line in visits:
            bat = lookup(ea, kind is _INSTRUCTION)
            pa: Optional[int] = None
            if bat is not None and not bat.wimg & WIMG_CACHE_INHIBIT:
                pa = bat.translate(ea)
            route.append((ea, lines, write, kind, first_line, pa))
        return tuple(route)

    def _count_misses(self, miss_event: str, misses: int) -> None:
        """Count a batch of cache-miss events, trace-exactly.

        A single ``monitor.count(event, n)`` and ``n`` separate counts
        leave identical counters, but a tracer whose monitor filter
        selects the event would see one ``{"count": n}`` instant instead
        of ``n`` instants.  The per-event loop is kept for exactly that
        case (the default filter excludes the cache-miss events, so the
        batched form is the one that normally runs).
        """
        monitor = self.monitor
        tracer = monitor.tracer
        if tracer is not None and miss_event in tracer.config.monitor_events:
            for _ in range(misses):
                monitor.count(miss_event)
        else:
            monitor.count(miss_event, misses)

    def prefetch_page_lines(
        self,
        ea: int,
        lines: int,
        first_line: int = 0,
        issue_cycles: int = 2,
    ) -> int:
        """§10.2's `dcbt`-style data prefetch: non-faulting, latency hidden.

        The PowerPC touch instructions never fault: a prefetch whose
        translation misses the TLB is simply dropped.  Lines brought in
        here charge only the issue cost — the fill overlaps the
        independent work the caller is about to do (which is why the
        paper proposes them for context-switch and interrupt entry code,
        where hundreds of cycles of register work can hide the fills).
        """
        bat = self.bats.lookup(ea, False)
        if bat is not None:
            pa_base: Optional[int] = bat.translate(ea) & ~PAGE_OFFSET_MASK
            inhibited = bool(bat.wimg & WIMG_CACHE_INHIBIT)
        else:
            vsid = self.segments.vsid_for(ea)
            entry = self.dtlb.peek(vsid, (ea >> PAGE_SHIFT) & PAGE_INDEX_MASK)
            pa_base = None if entry is None else entry.ppn << PAGE_SHIFT
            inhibited = entry is not None and entry.cache_inhibited
        if pa_base is None or inhibited:
            # Dropped prefetch: no translation, or a cache-inhibited one
            # (a §5.1 I/O BAT as much as a TLB entry).  Issue cost only.
            self.clock.add(issue_cycles, "prefetch")
            return issue_cycles
        cycles = issue_cycles * lines
        # The fills are real cache traffic (LRU state, statistics) but
        # their latency is hidden behind the caller's independent work —
        # only the issue cost is charged.
        self.dcache.access_page_lines(pa_base, first_line, lines, write=False)
        self.clock.add(cycles, "prefetch")
        return cycles

    # -- housekeeping -------------------------------------------------------------

    def context_switch_segments(self, vsids) -> int:
        """Load the 16 segment registers (the per-switch VSID reload)."""
        return self.context_switch_segments_on(self.current_cpu, vsids)

    def context_switch_segments_on(self, index: int, vsids) -> int:
        """Segment-register reload on a specific CPU, charged to it.

        The shootdown subsystem uses this to apply a remote context
        renumbering (post-global-flush) on the CPU that owns the stale
        registers; on the current CPU it is exactly the classic reload.
        """
        cpu = self.cpus[index]
        cpu.segments.load_context(vsids)
        cycles = 2 * len(vsids)  # one mtsr per register, dual-issued
        cpu.clock.add(cycles, "context_switch")
        return cycles

    def invalidate_tlbs(self) -> None:
        """Drop every TLB entry on every CPU (the global-flush path)."""
        for cpu in self.cpus:
            cpu.itlb.invalidate_all()
            cpu.dtlb.invalidate_all()

    def elapsed_us(self) -> float:
        """Wall-clock equivalent of the ledger at this machine's clock."""
        return self.spec.cycles_to_us(self.clock.total)
