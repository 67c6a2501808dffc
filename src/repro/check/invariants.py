"""The sweep-style invariant suite over a whole machine + kernel.

Each check walks one hardware or kernel structure and validates it
against the shadow's ground truth.  All reads are pure (``iter_valid``,
``live_entries``, ``snapshot``, page-table ``lookup``) so a sweep never
charges cycles or bumps monitor counters.

Every invariant is one-directional, matching DESIGN.md's key safety
invariant: *no stale translation is ever served*.  Missing cached
entries are always legal (that is what flushes, evictions and zombie
reclaim produce); present entries that disagree with the Linux page
tables, the VSID liveness sets or the allocator bookkeeping are not.

Each check registers itself in the suite where it is defined
(``@invariant``), with one ``(kernel, shadow, record)`` signature;
:func:`full_sweep` runs the suite in definition order, stable-only
checks last.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.kernel.vsid import ContextCounterVsids, kernel_vsids
from repro.params import PAGE_SHIFT, SEGMENT_SHIFT

Record = Callable[[str, str], object]
Invariant = Callable[[Any, Any, Record], None]

#: ``(check, stable_only)`` in registration order.
_SUITE: List[Tuple[Invariant, bool]] = []


def invariant(stable_only: bool = False) -> Callable[[Invariant], Invariant]:
    """Register the decorated check in :func:`full_sweep`'s suite.

    ``stable_only`` checks run after every other one, and only at
    stable points.
    """
    def register(check: Invariant) -> Invariant:
        _SUITE.append((check, stable_only))
        return check
    return register


def suite(stable: bool = True) -> List[Invariant]:
    """The checks a sweep runs, in order."""
    checks = [check for check, only in _SUITE if not only]
    if stable:
        checks += [check for check, only in _SUITE if only]
    return checks


def _owner_pte(mm, segment: int, page_index: int):
    """Linux PTE backing a cached translation owned by (mm, segment)."""
    ea = (segment << SEGMENT_SHIFT) | (page_index << PAGE_SHIFT)
    pte = mm.page_table.lookup(ea).pte
    if pte is None or not pte.present:
        return None, ea
    return pte, ea


@invariant()
def check_tlbs(kernel, shadow, record: Record) -> None:
    """Live-VSID TLB entries must agree with the owner's page table.

    Entries under retired VSIDs are the §7 design — unreachable, left to
    rot — and are deliberately not flagged.
    """
    owners = shadow.ownership()
    for cpu in kernel.machine.cpus:
        pending = shadow.pending[cpu.index]
        for tlb in (cpu.itlb, cpu.dtlb):
            name = f"cpu{cpu.index} {tlb.name}"
            for entry in tlb.live_entries():
                owner = owners.get(entry.vsid)
                if owner is None:
                    continue  # zombie entry: unreachable by construction
                if (entry.vsid, entry.page_index) in pending:
                    # Known-stale, awaiting this CPU's deferred drain —
                    # holding it is the lazy protocol working; *serving*
                    # it is the shootdown-coherence violation.
                    continue
                mm, segment = owner
                pte, ea = _owner_pte(mm, segment, entry.page_index)
                if pte is None:
                    record(
                        "stale-tlb-entry",
                        f"{name} vsid={entry.vsid:#x} ea={ea:#x} maps "
                        f"pfn={entry.ppn} but the page table has no mapping",
                    )
                elif pte.pfn != entry.ppn:
                    record(
                        "stale-tlb-entry",
                        f"{name} vsid={entry.vsid:#x} ea={ea:#x} maps "
                        f"pfn={entry.ppn}, page table says pfn={pte.pfn}",
                    )
                elif entry.writable and not pte.writable:
                    record(
                        "tlb-writable-mismatch",
                        f"{name} vsid={entry.vsid:#x} ea={ea:#x} is "
                        "writable but the page table says read-only",
                    )


@invariant()
def check_htab(kernel, shadow, record: Record) -> None:
    """Valid live-VSID hash-table PTEs must agree with the page tables."""
    owners = shadow.ownership()
    seen = {}
    for group, slot, pte in kernel.machine.htab.iter_valid():
        key = (pte.vsid, pte.page_index)
        if key in seen:
            record(
                "duplicate-htab-entry",
                f"vsid={pte.vsid:#x} page_index={pte.page_index:#x} valid "
                f"in slots {seen[key]} and {(group, slot)}",
            )
        seen[key] = (group, slot)
        owner = owners.get(pte.vsid)
        if owner is None:
            continue  # zombie PTE: §7 leaves these for the idle task
        mm, segment = owner
        linux_pte, ea = _owner_pte(mm, segment, pte.page_index)
        if linux_pte is None:
            record(
                "stale-htab-entry",
                f"PTEG {group} slot {slot} vsid={pte.vsid:#x} ea={ea:#x} "
                f"maps rpn={pte.rpn} but the page table has no mapping",
            )
        elif linux_pte.pfn != pte.rpn:
            record(
                "stale-htab-entry",
                f"PTEG {group} slot {slot} vsid={pte.vsid:#x} ea={ea:#x} "
                f"maps rpn={pte.rpn}, page table says pfn={linux_pte.pfn}",
            )


@invariant()
def check_segments(kernel, shadow, record: Record) -> None:
    """Every CPU's segment registers carry its current context's VSIDs.

    With no current task on a CPU only its kernel segments are checked —
    Linux leaves the previous task's user VSIDs loaded while in kernel
    mode, which is harmless because nothing uses user addresses then.
    """
    for cpu_index, task in enumerate(kernel._current_tasks):
        registers = kernel.machine.cpus[cpu_index].segments.snapshot()
        if task is not None:
            expected = task.mm.segment_vsids()
        else:
            expected = list(registers[:12]) + kernel_vsids()
        for index, (got, want) in enumerate(zip(registers, expected)):
            if got != want:
                record(
                    "segment-mismatch",
                    f"cpu{cpu_index} segment register {index} holds "
                    f"vsid={got:#x}, expected {want:#x}",
                )


@invariant()
def check_precleared(kernel, shadow, record: Record) -> None:
    """Pages on the §9 pre-cleared list really are zero and really free."""
    palloc = kernel.palloc
    for pfn in palloc.precleared_pages():
        if not shadow.is_zeroed(pfn):
            record(
                "precleared-dirty",
                f"frame {pfn} on the pre-cleared list was written since "
                "it was cleared",
            )
        if palloc.is_allocated(pfn):
            record(
                "precleared-allocated",
                f"frame {pfn} is simultaneously allocated and on the "
                "pre-cleared list",
            )


@invariant()
def check_frame_ownership(kernel, shadow, record: Record) -> None:
    """Resident frames are allocated, and private frames have one owner."""
    owners = {}
    for task in kernel.tasks.values():
        mm = task.mm
        for base, pfn in mm.resident.items():
            if not kernel.palloc.is_allocated(pfn):
                record(
                    "frame-not-allocated",
                    f"pid {task.pid} ea={base:#x} is resident in frame "
                    f"{pfn}, which the allocator considers free",
                )
            if pfn in mm.shared_pages:
                continue  # page-cache frames are shared by design
            previous = owners.get(pfn)
            if previous is not None:
                record(
                    "frame-multiply-owned",
                    f"frame {pfn} is private-resident in pid {task.pid} "
                    f"(ea={base:#x}) and pid {previous[0]} "
                    f"(ea={previous[1]:#x})",
                )
            owners[pfn] = (task.pid, base)


@invariant(stable_only=True)
def check_allocator(kernel, shadow, record: Record) -> None:
    """Allocator bookkeeping agrees with who actually holds VSIDs.

    Only valid at stable points: a context being renumbered mid-bump and
    mms still under construction (fork/spawn before task registration)
    legitimately hold in-flight allocations.
    """
    allocator = kernel.vsid_allocator
    live = allocator.live_vsids()
    zombies = allocator.zombie_vsids()
    expected = set(kernel_vsids())
    for task in kernel.tasks.values():
        if task.mm is kernel._mm_in_bump:
            continue
        for vsid in task.mm.user_vsids:
            if vsid not in live:
                record(
                    "task-holds-dead-vsid",
                    f"pid {task.pid} holds vsid={vsid:#x} the allocator "
                    "does not consider live",
                )
            expected.add(vsid)
    overlap = zombies & live
    for vsid in sorted(overlap):
        record(
            "zombie-live-overlap",
            f"vsid={vsid:#x} is simultaneously live and zombie",
        )
    if isinstance(allocator, ContextCounterVsids):
        # Contexts the counter considers live must all be accounted for
        # by the kernel or a task — anything else leaked (e.g. a reset
        # path that forgot to renumber).
        for vsid in sorted(live - expected):
            if (
                kernel._mm_in_bump is not None
                and vsid in kernel._mm_in_bump.user_vsids
            ):
                continue
            record(
                "live-vsid-unowned",
                f"vsid={vsid:#x} is live but no task or kernel segment "
                "owns it",
            )


@invariant()
def check_shootdown(kernel, shadow, record: Record) -> None:
    """The deferred shootdown queues are safe and soundly mirrored.

    Three clauses: a queued VSID must not be loaded in the target CPU's
    segment registers (else deferral was unsafe), must never be a kernel
    VSID (kernel flushes are always broadcast eagerly), and the engine's
    queues must agree key-for-key with the shadow's pending sets.
    """
    protected = set(kernel_vsids())
    for cpu_index, queue in enumerate(kernel.shootdown.deferred):
        keys = set(queue)
        segments = set(
            kernel.machine.cpus[cpu_index].segments.snapshot()
        )
        for vsid, page_index in sorted(keys):
            if vsid in protected:
                record(
                    "shootdown-kernel-vsid-deferred",
                    f"kernel vsid={vsid:#x} page_index={page_index:#x} "
                    f"sits in cpu{cpu_index}'s deferred queue — kernel "
                    "invalidations must broadcast eagerly",
                )
            if vsid in segments:
                record(
                    "shootdown-reachable-vsid-deferred",
                    f"vsid={vsid:#x} page_index={page_index:#x} is "
                    f"deferred on cpu{cpu_index} while loaded in its "
                    "segment registers",
                )
        if keys != shadow.pending[cpu_index]:
            record(
                "shootdown-shadow-divergence",
                f"cpu{cpu_index} deferred queue has {len(keys)} keys but "
                f"the shadow mirror has {len(shadow.pending[cpu_index])}",
            )


def full_sweep(kernel, shadow, record: Record, stable: bool = True) -> None:
    """Run every invariant; ``stable=False`` for mid-operation sweeps."""
    for check in suite(stable):
        check(kernel, shadow, record)
