"""The differential sanitizer: hardware vs shadow, on every translation.

Attached to a machine (``machine.sanitizer``), it receives:

* every translation the datapath serves (BAT, TLB hit, 604 hardware
  walk, software refill) via :meth:`check_translation`;
* the kernel's flush/bump/reclaim/preclear commit points via the
  ``after_*`` / ``check_*`` event hooks (O(1) each, pure reads only);
* optional periodic and on-demand full sweeps of the invariant suite
  (:mod:`repro.check.invariants`).

It must never perturb what it observes: all machine reads go through
counter-free accessors (``peek``, ``pte_at``, ``snapshot``, page-table
``lookup``), so cycle ledgers, hit rates and the miss histogram are
bit-identical with the sanitizer on or off.
"""

from __future__ import annotations

from typing import Optional

from repro.check.invariants import check_allocator, full_sweep
from repro.check.report import ViolationReporter
from repro.check.shadow import ShadowMMU
from repro.errors import ConfigError
from repro.hw.access import AccessKind
from repro.params import PAGE_INDEX_MASK, PAGE_SHIFT

#: ``repro check``'s periodic sweep cadence, in checked translations.
DEFAULT_SWEEP_EVERY = 50_000


def check_sweep_every(sweep_every: int) -> int:
    """The periodic-sweep cadence, or ConfigError if it is negative.

    A negative cadence would sweep on every checked translation
    (``n % -1 == 0``) instead of never.
    """
    if not isinstance(sweep_every, int) or sweep_every < 0:
        raise ConfigError(
            f"sweep_every must be a non-negative int, got {sweep_every!r}"
        )
    return sweep_every


class Sanitizer:
    """One machine's shadow-MMU cross-validator."""

    def __init__(
        self,
        kernel,
        reporter: Optional[ViolationReporter] = None,
        sweep_every: int = 0,
        label: Optional[str] = None,
    ):
        self.kernel = kernel
        self.machine = kernel.machine
        self.reporter = reporter if reporter is not None else ViolationReporter()
        self.shadow = ShadowMMU(kernel)
        #: Run a (non-stable) full sweep every N checked translations;
        #: 0 disables periodic sweeps.
        self.sweep_every = check_sweep_every(sweep_every)
        self.label = label
        self.translations_checked = 0
        self.sweeps = 0

    # -- bookkeeping ---------------------------------------------------------------

    @property
    def violations(self) -> int:
        return self.reporter.total

    def _record(self, invariant: str, detail: str) -> None:
        if self.label:
            detail = f"[{self.label}] {detail}"
        self.reporter.record(invariant, detail)

    # -- the per-translation differential check --------------------------------------

    def check_translation(self, ea: int, kind: AccessKind, write: bool, result) -> None:
        """Validate one served translation against ground truth."""
        self.translations_checked += 1
        pfn = result.pa >> PAGE_SHIFT
        expected = self.shadow.expected_frame(ea, kind)
        if expected is None:
            if self.shadow.mm_for(ea) is None:
                self._record(
                    "user-access-without-task",
                    f"user ea={ea:#x} translated ({result.path}) with no "
                    "current task",
                )
            else:
                self._record(
                    "phantom-translation",
                    f"ea={ea:#x} served pfn={pfn} via {result.path} but "
                    "ground truth has no mapping",
                )
        elif expected != pfn:
            self._record(
                "stale-translation",
                f"ea={ea:#x} served pfn={pfn} via {result.path}, ground "
                f"truth says pfn={expected}",
            )
        if result.path != "bat":
            vsid = self.machine.segments.vsid_for(ea)
            if result.path == "tlb":
                # SMP shootdown coherence: a TLB hit on a translation
                # another CPU invalidated (and this CPU has not yet
                # drained) is exactly the stale-remote-TLB bug the
                # shootdown protocol exists to prevent.
                cpu = self.machine.current_cpu
                page_index = (ea >> PAGE_SHIFT) & PAGE_INDEX_MASK
                if (vsid, page_index) in self.shadow.pending[cpu]:
                    self._record(
                        "shootdown-coherence",
                        f"cpu{cpu} TLB served ea={ea:#x} vsid={vsid:#x} "
                        "while its invalidation is still pending in the "
                        "deferred shootdown queue",
                    )
            if not self.kernel.vsid_allocator.is_live(vsid):
                self._record(
                    "dead-vsid-served",
                    f"ea={ea:#x} translated under retired vsid={vsid:#x} "
                    f"via {result.path}",
                )
            expected_vsid = self.shadow.expected_vsid(ea)
            if expected_vsid is not None and vsid != expected_vsid:
                self._record(
                    "segment-register-stale",
                    f"ea={ea:#x} used vsid={vsid:#x}, current context "
                    f"expects {expected_vsid:#x}",
                )
        if write:
            self.shadow.note_write_frame(pfn)
        if self.sweep_every and self.translations_checked % self.sweep_every == 0:
            self.sweep(stable=False)

    # -- kernel event hooks (O(1), pure reads) ------------------------------------------

    def after_page_flush(self, mm, ea: int, vsid: int) -> None:
        """A single-page flush committed: nothing may still match it."""
        page_index = (ea >> PAGE_SHIFT) & PAGE_INDEX_MASK
        pte = self.machine.htab.peek(vsid, page_index)
        if pte is not None:
            self._record(
                "flush-left-htab-entry",
                f"flush_page(ea={ea:#x}) left a valid hash PTE under "
                f"vsid={vsid:#x} (rpn={pte.rpn})",
            )
        for tlb in (self.machine.itlb, self.machine.dtlb):
            if tlb.peek(vsid, page_index) is not None:
                self._record(
                    "flush-left-tlb-entry",
                    f"flush_page(ea={ea:#x}) left a {tlb.name} entry "
                    f"under vsid={vsid:#x}",
                )

    def after_context_bump(self, mm, old_vsids, new_vsids) -> None:
        """A §7 lazy flush committed: the old context must be unreachable."""
        allocator = self.kernel.vsid_allocator
        for vsid in old_vsids:
            if allocator.is_live(vsid):
                self._record(
                    "bump-left-live-vsid",
                    f"bumped vsid={vsid:#x} is still live",
                )
        for vsid in new_vsids:
            if not allocator.is_live(vsid):
                self._record(
                    "bump-vsid-not-live",
                    f"freshly bumped vsid={vsid:#x} is not live",
                )
        task = self.kernel.current_task
        if task is not None and task.mm is mm:
            registers = self.machine.segments.snapshot()
            if list(registers) != mm.segment_vsids():
                self._record(
                    "segments-stale-after-bump",
                    "segment registers were not reloaded after bumping "
                    "the current context",
                )

    def after_global_flush(self) -> None:
        """flush_everything committed: hardware empty, allocator coherent."""
        machine = self.machine
        valid = machine.htab.valid_entries()
        if valid:
            self._record(
                "global-flush-left-htab",
                f"{valid} valid hash PTEs survived flush_everything",
            )
        for cpu in machine.cpus:
            for tlb in (cpu.itlb, cpu.dtlb):
                if len(tlb):
                    self._record(
                        "global-flush-left-tlb",
                        f"{len(tlb)} cpu{cpu.index} {tlb.name} entries "
                        "survived flush_everything",
                    )
        # Every deferred invalidation is moot once every TLB is empty.
        self.shadow.clear_pending()
        zombies = self.kernel.vsid_allocator.zombie_vsids()
        if zombies:
            self._record(
                "global-flush-left-zombies",
                f"{len(zombies)} zombie VSIDs survived flush_everything",
            )
        check_allocator(self.kernel, self.shadow, self._record)

    def after_reclaim_slot(self, flat: int, pte) -> None:
        """The idle task reclaimed one slot: it must be a dead zombie."""
        if pte.valid:
            self._record(
                "reclaim-left-valid",
                f"reclaimed slot {flat} still has its valid bit set",
            )
        if self.kernel.vsid_allocator.is_live(pte.vsid):
            self._record(
                "reclaim-reclaimed-live",
                f"idle reclaim invalidated live vsid={pte.vsid:#x} "
                f"page_index={pte.page_index:#x} (slot {flat})",
            )

    # -- SMP shootdown hooks ----------------------------------------------------------

    def after_shootdown_defer(self, cpu: int, keys) -> None:
        """Invalidations were queued on a remote CPU instead of IPI'd.

        Deferral is only safe while the target cannot reach the VSIDs:
        its segment registers must not hold any of them (the drain runs
        before any task that could is installed).
        """
        segments = set(self.machine.cpus[cpu].segments.snapshot())
        for vsid, page_index in keys:
            if vsid in segments:
                self._record(
                    "shootdown-unsafe-defer",
                    f"invalidation of vsid={vsid:#x} "
                    f"page_index={page_index:#x} deferred to cpu{cpu}, "
                    "whose live segment registers hold that vsid",
                )
        self.shadow.note_deferred(cpu, keys)

    def after_remote_invalidate(self, cpu: int, keys) -> None:
        """A synchronous IPI scrubbed a remote CPU's TLBs: verify it."""
        state = self.machine.cpus[cpu]
        for vsid, page_index in keys:
            for tlb in (state.itlb, state.dtlb):
                if tlb.peek(vsid, page_index) is not None:
                    self._record(
                        "shootdown-left-remote-tlb",
                        f"IPI shootdown left a cpu{cpu} {tlb.name} entry "
                        f"for vsid={vsid:#x} page_index={page_index:#x}",
                    )
        # An eager invalidate supersedes any earlier deferral of the key.
        self.shadow.note_invalidated(cpu, keys)

    def after_shootdown_drain(self, cpu: int, keys) -> None:
        """A CPU drained its deferred queue at context-switch time."""
        state = self.machine.cpus[cpu]
        for vsid, page_index in keys:
            for tlb in (state.itlb, state.dtlb):
                if tlb.peek(vsid, page_index) is not None:
                    self._record(
                        "shootdown-drain-left-tlb",
                        f"drain left a cpu{cpu} {tlb.name} entry for "
                        f"vsid={vsid:#x} page_index={page_index:#x}",
                    )
        drained = set(keys)
        mirrored = self.shadow.pending[cpu]
        if drained != mirrored:
            self._record(
                "shootdown-drain-mismatch",
                f"cpu{cpu} drained {len(drained)} deferred invalidations "
                f"but the shadow mirror holds {len(mirrored)}",
            )
        self.shadow.clear_pending(cpu)

    # -- §9 zero-page hooks ---------------------------------------------------------------

    def note_page_cleared(self, pfn: int) -> None:
        self.shadow.note_cleared(pfn)

    def check_precleared_push(self, pfn: int) -> None:
        if not self.shadow.is_zeroed(pfn):
            self._record(
                "precleared-not-zero",
                f"frame {pfn} pushed onto the pre-cleared list without "
                "being zeroed",
            )

    def check_precleared_pop(self, pfn: int) -> None:
        if not self.shadow.is_zeroed(pfn):
            self._record(
                "precleared-dirty",
                f"get_free_page handed out pre-cleared frame {pfn} that "
                "is no longer zero",
            )

    # -- sweeps ------------------------------------------------------------------------------

    def sweep(self, stable: bool = True) -> int:
        """Run the full invariant suite; returns new violations found."""
        before = self.reporter.total
        full_sweep(self.kernel, self.shadow, self._record, stable=stable)
        self.sweeps += 1
        return self.reporter.total - before
