"""The optimized idle task (§7 zombie reclaim, §9 page clearing).

The idle task runs whenever nothing else is runnable — "the idle task
runs quite often even on a system heavily loaded with users" because of
I/O waits.  Work done here is free as long as the idle task never delays
a task that becomes runnable, so every unit of work is small and the
loop re-checks its cycle window between units ("all data structures ...
are lock free and interrupts are left enabled").

Two jobs, per configuration:

* **Zombie reclaim** — scan the hash table incrementally, clearing the
  valid bit of PTEs whose VSID no longer belongs to any context.  This is
  what took the evict-to-reload ratio from >90% down to ~30% and the
  hash-table hit rate up to 98%.

* **Page clearing** — pre-zero free pages for ``get_free_page``.  §9's
  three variants are preserved: clearing *through* the cache (the
  experiment that doubled kernel-compile time), clearing cache-inhibited
  without keeping the result (the neutral control), and clearing
  cache-inhibited onto the pre-cleared list (the win).
"""

from __future__ import annotations

from repro.kernel.config import IdlePageClearPolicy

#: Policies bound once: the idle loop reads them per unit of work.
_OFF = IdlePageClearPolicy.OFF
_UNCACHED_NO_LIST = IdlePageClearPolicy.UNCACHED_NO_LIST
_UNCACHED_LIST = IdlePageClearPolicy.UNCACHED_LIST

#: Hash-table slots examined per unit of idle work.  One chunk is still
#: only a few microseconds, so wakeup latency is unaffected.
RECLAIM_CHUNK_SLOTS = 256

#: Cycles to spin one unit when there is nothing to do.
SPIN_UNIT_CYCLES = 32


class IdleTask:
    """The idle loop, parameterized by the kernel configuration."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.machine = kernel.machine
        self.config = kernel.config
        self._scan_position = 0
        # Statistics.
        self.reclaim_passes = 0
        self.zombies_reclaimed = 0
        self.pages_cleared = 0
        self.spin_cycles = 0

    # -- one scheduling of the idle task -------------------------------------------

    def run(self, window_cycles: int) -> int:
        """Run idle work for at most ``window_cycles``; returns consumed.

        The window is the I/O-wait gap the scheduler gives us; the loop
        checks the ledger between work units so it never holds the CPU
        once the window closes (the paper's "no possibility of keeping
        control of the processor" property).
        """
        ledger = self.machine.clock
        start = ledger.snapshot()
        while ledger.since(start) < window_cycles:
            did_work = False
            if self.config.idle_zombie_reclaim:
                did_work |= self._reclaim_chunk()
            if self.config.idle_page_clear is not _OFF:
                did_work |= self._clear_one_page()
            if not did_work:
                remaining = window_cycles - ledger.since(start)
                spin = min(SPIN_UNIT_CYCLES, max(remaining, 1))
                ledger.add(spin, "idle_spin")
                self.spin_cycles += spin
        return ledger.since(start)

    # -- zombie reclaim ----------------------------------------------------------------

    def _reclaim_chunk(self) -> bool:
        """Scan one chunk of the hash table for zombie PTEs.

        Returns whether any zombie was actually reclaimed, so ``run``
        can fall back to spinning (and account the window as idle time)
        when the scan comes up empty.
        """
        machine = self.machine
        start = self._scan_position
        cycles, reclaimed = self.kernel.reloader.reclaim_window(
            start, RECLAIM_CHUNK_SLOTS, self.config.idle_uncached
        )
        self._scan_position = (start + RECLAIM_CHUNK_SLOTS) % machine.htab.slots
        machine.clock.add(cycles, "idle_reclaim")
        self.reclaim_passes += 1
        self.zombies_reclaimed += reclaimed
        if reclaimed and machine.tracer is not None:
            machine.tracer.complete("reclaim-chunk", "idle", cycles, reclaimed)
        return reclaimed > 0

    # -- page clearing -------------------------------------------------------------------

    def _clear_one_page(self) -> bool:
        """Clear one free page according to the §9 policy.

        §9 puts no bound on the pre-cleared stock: the idle task clears
        whatever free pages exist ("all these writes to memory using a
        great deal of the bus"), which is why the cached variant hurt.
        """
        palloc = self.kernel.palloc
        policy = self.config.idle_page_clear
        pfn = palloc.pop_free_for_preclear()
        if pfn is None:
            return False
        inhibited = (
            policy in (_UNCACHED_NO_LIST, _UNCACHED_LIST)
            or self.config.idle_uncached
        )
        palloc.clear_page(pfn, inhibited=inhibited, category="idle_clear")
        self.pages_cleared += 1
        if self.machine.tracer is not None:
            self.machine.tracer.instant("preclear-page", "idle", pfn)
        if policy is _UNCACHED_NO_LIST:
            # The control experiment: the work is thrown away.
            palloc.return_uncleared(pfn)
        else:
            palloc.push_precleared(pfn)
        return True
