"""TLB shootdown: making mapping changes visible to remote CPUs.

The paper's flush primitives were designed on a uniprocessor, where a
``tlbie`` after the hash-table search ends the story.  On an SMP the
hash table is shared — invalidating a PTE there is globally visible at
once — but each CPU's TLB is private, so every mapping change must also
be made coherent against every *remote* TLB.  This module is that
protocol, as a cost model plus real remote-TLB edits, in four
switchable strategies (:class:`~repro.kernel.config.ShootdownStrategy`):

``BROADCAST``
    The naive SMP port: every flush IPIs every other CPU and scrubs the
    pages from its TLBs synchronously.

``TARGETED``
    ``mm_cpumask`` semantics: a user flush only IPIs CPUs currently
    running the flushed address space.  With this kernel's fixed task
    affinity that set is almost always empty, so user flushes stay
    local — the win the strategy exists to demonstrate.

``LAZY``
    numaPTE-style lazy remote invalidation (arXiv 2401.15558): CPUs
    running the mm still get a synchronous IPI (they could be using the
    translations *now*), but every other CPU just gets the invalidation
    appended to its deferred queue, which it drains — scrubbing its own
    TLBs — at its next context switch, before any task that could
    legally reference those VSIDs is installed.

``MMAP_REUSE``
    ``LAZY`` plus mmap-reuse flush skipping (arXiv 2409.10946): see the
    pooling API at the bottom.  ``munmap`` parks the region — PTEs,
    frames and TLB entries deliberately intact — and a matching same-
    process ``mmap`` revives it with no flush at all.  Safety is the
    intra-process argument from the paper: the stale translations only
    ever point at frames the pool still owns, and only the owning
    process can reach them.

Kernel-segment pages are the exception under every strategy: the kernel
VSIDs are loaded in segments 12–15 of every CPU at all times, so a
remote CPU could translate through a stale kernel entry at any instant.
Those invalidations are always broadcast synchronously.

With ``n_cpus == 1`` there are no remote TLBs: every entry point
returns before charging a cycle or counting an event, which is what
keeps single-CPU runs bit-identical to the pre-SMP simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import KernelPanic
from repro.kernel.config import ShootdownStrategy
from repro.params import (
    IPI_DELIVER_CYCLES,
    IPI_SEND_CYCLES,
    IPI_WAIT_PER_TARGET_CYCLES,
    SHOOTDOWN_DEFER_PER_PAGE_CYCLES,
    SHOOTDOWN_DRAIN_PER_PAGE_CYCLES,
    TLBIE_CYCLES,
)

#: A queued invalidation: (vsid, page_index).
Key = Tuple[int, int]

#: Cap on the per-mm mmap-reuse pool (MMAP_REUSE only); the oldest
#: region is drained when the pool would exceed it.
MMAP_REUSE_MAX_REGIONS = 8


class ShootdownEngine:
    """Remote-TLB coherence for one booted kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.machine = kernel.machine
        self.strategy = kernel.config.shootdown_strategy
        #: Per-CPU deferred invalidations, insertion-ordered and
        #: deduplicated (dict-as-ordered-set).
        self.deferred: List[Dict[Key, None]] = [
            {} for _ in range(self.machine.n_cpus)
        ]
        self._off = self.machine.n_cpus == 1
        self._batch_depth = 0
        self._batch_mm = None
        self._batch_user: Dict[Key, None] = {}
        self._batch_kernel: Dict[Key, None] = {}

    # -- the flush-side batch protocol ---------------------------------------

    def begin(self, mm) -> None:
        """Open an invalidation batch for one flush operation on ``mm``."""
        if self._off:
            return
        if self._batch_depth == 0:
            self._batch_mm = mm
        elif self._batch_mm is not mm:
            raise KernelPanic("nested shootdown batches for different mms")
        self._batch_depth += 1

    def page_invalidated(self, vsid: int, page_index: int,
                         kernel_page: bool) -> None:
        """Record one locally-invalidated translation into the batch."""
        if self._off:
            return
        if self._batch_depth == 0:
            raise KernelPanic("page_invalidated outside a shootdown batch")
        if kernel_page:
            self._batch_kernel[(vsid, page_index)] = None
        else:
            self._batch_user[(vsid, page_index)] = None

    def commit(self) -> int:
        """Close the batch: one IPI round covers every page in it.

        Returns the cycles charged to the *initiating* CPU; each target
        is charged its delivery and tlbie costs on its own ledger.
        """
        if self._off:
            return 0
        self._batch_depth -= 1
        if self._batch_depth > 0:
            return 0
        user, kern, mm = self._batch_user, self._batch_kernel, self._batch_mm
        self._batch_user, self._batch_kernel = {}, {}
        self._batch_mm = None
        if not user and not kern:
            return 0
        machine = self.machine
        me = machine.current_cpu
        eager: Dict[int, Dict[Key, None]] = {}
        local_cycles = 0
        for cpu in range(machine.n_cpus):
            if cpu == me:
                continue
            keys: Dict[Key, None] = dict(kern)
            if user:
                if self.strategy is ShootdownStrategy.BROADCAST:
                    keys.update(user)
                elif self._cpu_runs_mm(cpu, mm):
                    # The remote CPU could use these translations right
                    # now — every non-broadcast strategy IPIs it.
                    keys.update(user)
                elif self.strategy in (ShootdownStrategy.LAZY,
                                       ShootdownStrategy.MMAP_REUSE):
                    local_cycles += self._defer(cpu, user)
                # TARGETED trusts the affinity tracking: a CPU that is
                # not running the mm holds none of its translations.
            if keys:
                eager[cpu] = keys
        if eager:
            local_cycles += self._ipi_round(eager, pages=len(user) + len(kern))
        return local_cycles

    def _cpu_runs_mm(self, cpu: int, mm) -> bool:
        task = self.kernel._current_tasks[cpu]
        return task is not None and task.mm is mm

    def _ipi_round(self, eager: Dict[int, Dict[Key, None]],
                   pages: int) -> int:
        """Synchronous shootdown: IPI each target, scrub its TLBs."""
        machine = self.machine
        local = machine.cpus[machine.current_cpu]
        send = IPI_SEND_CYCLES + IPI_WAIT_PER_TARGET_CYCLES * len(eager)
        local.clock.add(send, "shootdown")
        local.monitor.count("ipi_sent", len(eager))
        if machine.tracer is not None:
            machine.tracer.instant(
                "ipi", "shootdown", sorted(eager), pages, None, None
            )
        for cpu, keys in eager.items():
            target = machine.cpus[cpu]
            target.clock.add(
                IPI_DELIVER_CYCLES + TLBIE_CYCLES * len(keys), "shootdown"
            )
            target.monitor.count("ipi_received")
            for vsid, page_index in keys:
                target.itlb.invalidate_page(page_index, vsid=vsid)
                target.dtlb.invalidate_page(page_index, vsid=vsid)
            if machine.sanitizer is not None:
                machine.sanitizer.after_remote_invalidate(cpu, list(keys))
        return send

    def _defer(self, cpu: int, keys: Dict[Key, None]) -> int:
        """Queue invalidations on a remote CPU's deferred ring."""
        queue = self.deferred[cpu]
        fresh = [key for key in keys if key not in queue]
        if not fresh:
            return 0
        for key in fresh:
            queue[key] = None
        machine = self.machine
        local = machine.cpus[machine.current_cpu]
        cycles = SHOOTDOWN_DEFER_PER_PAGE_CYCLES * len(fresh)
        local.clock.add(cycles, "shootdown")
        local.monitor.count("shootdown_deferred", len(fresh))
        if machine.sanitizer is not None:
            machine.sanitizer.after_shootdown_defer(cpu, fresh)
        return cycles

    # -- the context-switch drain --------------------------------------------

    def drain_current_cpu(self) -> int:
        """Scrub this CPU's deferred invalidations (context-switch time).

        Runs before the incoming task's segment registers are loaded, so
        no task that could legally reference a queued VSID is ever
        installed over a stale TLB entry.
        """
        if self._off:
            return 0
        machine = self.machine
        cpu = machine.current_cpu
        queue = self.deferred[cpu]
        if not queue:
            return 0
        keys = list(queue)
        queue.clear()
        state = machine.cpus[cpu]
        for vsid, page_index in keys:
            state.itlb.invalidate_page(page_index, vsid=vsid)
            state.dtlb.invalidate_page(page_index, vsid=vsid)
        cycles = SHOOTDOWN_DRAIN_PER_PAGE_CYCLES * len(keys)
        state.clock.add(cycles, "shootdown")
        state.monitor.count("shootdown_drained", len(keys))
        if machine.sanitizer is not None:
            machine.sanitizer.after_shootdown_drain(cpu, keys)
        if machine.tracer is not None:
            machine.tracer.complete(
                "shootdown-drain", "shootdown", cycles, len(keys)
            )
        return cycles

    # -- whole-context events ------------------------------------------------

    def context_bumped(self, mm) -> int:
        """A VSID bump retired ``mm``'s old VSIDs everywhere.

        Remote CPUs *running* the mm hold the dead VSIDs in their live
        segment registers and must reload them now; every other CPU's
        stale TLB entries are zombies under VSIDs that will never be
        loaded again — exactly the uniprocessor lazy-flush argument, so
        nothing is queued for them.
        """
        if self._off:
            return 0
        machine = self.machine
        me = machine.current_cpu
        targets = [
            cpu for cpu in range(machine.n_cpus)
            if cpu != me and self._cpu_runs_mm(cpu, mm)
        ]
        if not targets:
            return 0
        local = machine.cpus[me]
        send = IPI_SEND_CYCLES + IPI_WAIT_PER_TARGET_CYCLES * len(targets)
        local.clock.add(send, "shootdown")
        local.monitor.count("ipi_sent", len(targets))
        if machine.tracer is not None:
            machine.tracer.instant(
                "ipi", "shootdown", targets, None, True, None
            )
        vsids = mm.segment_vsids()
        for cpu in targets:
            target = machine.cpus[cpu]
            target.clock.add(IPI_DELIVER_CYCLES, "shootdown")
            target.monitor.count("ipi_received")
            machine.context_switch_segments_on(cpu, vsids)
        return send

    def global_flush(self) -> int:
        """flush_everything ran: every TLB on every CPU is already empty
        (the machine invalidates them all); pay the IPI round that told
        the remote CPUs to do it and drop the now-moot deferred queues.
        """
        if self._off:
            return 0
        machine = self.machine
        me = machine.current_cpu
        for queue in self.deferred:
            queue.clear()
        remotes = machine.n_cpus - 1
        local = machine.cpus[me]
        send = IPI_SEND_CYCLES + IPI_WAIT_PER_TARGET_CYCLES * remotes
        local.clock.add(send, "shootdown")
        local.monitor.count("ipi_sent", remotes)
        for cpu in range(machine.n_cpus):
            if cpu == me:
                continue
            target = machine.cpus[cpu]
            target.clock.add(IPI_DELIVER_CYCLES + TLBIE_CYCLES, "shootdown")
            target.monitor.count("ipi_received")
        if machine.tracer is not None:
            machine.tracer.instant(
                "ipi", "shootdown", "all", None, None, True
            )
        return send

    # -- mmap-reuse pooling (arXiv 2409.10946) -------------------------------

    @property
    def reuse_enabled(self) -> bool:
        return self.strategy is ShootdownStrategy.MMAP_REUSE

    def pool_munmap(self, mm, vma) -> bool:
        """Try to park an unmapped region instead of flushing it.

        Only anonymous regions pool (file pages belong to the page
        cache).  Returns True if the region was pooled — the caller
        skips the flush *and* the frame release; the region's PTEs,
        frames and any TLB entries stay live on purpose.
        """
        if not self.reuse_enabled or vma.file is not None:
            return False
        vma.pooled = True
        mm.reuse_pool.append(vma)
        self.machine.monitor.count("flush_skipped_reuse")
        while len(mm.reuse_pool) > MMAP_REUSE_MAX_REGIONS:
            self._drop_pooled(mm, mm.reuse_pool[0])
        return True

    def pool_take(self, mm, pages: int, writable: bool) -> Optional[object]:
        """Revive the oldest pooled region matching (pages, writable)."""
        if not self.reuse_enabled:
            return None
        for vma in mm.reuse_pool:
            if vma.pages == pages and vma.writable == writable:
                mm.reuse_pool.remove(vma)
                vma.pooled = False
                self.machine.monitor.count("reuse_pool_hit")
                return vma
        return None

    def pool_drop_overlaps(self, mm, start: int, end: int) -> None:
        """Drain pooled regions overlapping [start, end) (explicit-addr
        mmap over a pooled hole)."""
        for vma in list(mm.reuse_pool):
            if vma.start < end and start < vma.end:
                self._drop_pooled(mm, vma)

    def pool_drain(self, mm) -> None:
        """Flush and free every pooled region (fork needs the truth)."""
        while mm.reuse_pool:
            self._drop_pooled(mm, mm.reuse_pool[-1])

    def pool_forget(self, mm) -> None:
        """Drop pool bookkeeping without flushing (exit/exec paths,
        where flush_mm + the page-release pass already cover it)."""
        for vma in mm.reuse_pool:
            vma.pooled = False
        mm.reuse_pool.clear()

    def _drop_pooled(self, mm, vma) -> None:
        mm.reuse_pool.remove(vma)
        vma.pooled = False
        kernel = self.kernel
        kernel.flush.flush_range(mm, vma.start, vma.end)
        kernel.release_user_range(mm, vma.start, vma.end)
        mm.remove_vma(vma)
