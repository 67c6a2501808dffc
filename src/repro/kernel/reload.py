"""Hash-table reload: installing a PTE after a miss (§7's replacement study).

The reload code "first looks for an invalid slot ... failing that, chose
an arbitrary PTE to replace".  Every reload and every evict is counted
into the hardware monitor, because the evict-to-reload ratio (>90%
without idle reclaim, ~30% with it) is one of §7's headline results.

This module also implements the design the paper *considered and
rejected*: keeping a zombie list and scavenging the table "when hash
table space became scarce".  With ``on_demand_scavenge`` enabled, a
reload that has to evict first performs a synchronous scan clearing
zombie PTEs — recovering space, but making reload latency spiky, which
is exactly why the authors moved the work into the idle task
("performance would also be inconsistent if we had to occasionally scan
the hash table").
"""

from __future__ import annotations

from repro.hw.pte import HashPte, PP_RO, PP_RW, WIMG_CACHE_INHIBIT
from repro.kernel.pagetable import LinuxPte

#: Slots scanned by one on-demand scavenge burst — just enough to find
#: space, the way the rejected design would have worked; the table
#: therefore stays nearly full and the bursts keep recurring.
SCAVENGE_SLOTS = 512

#: Cycles per slot a zombie scan examines: load the tag word, test the
#: VSID.  The idle reclaim and the on-demand scavenge share it.
RECLAIM_CYCLES_PER_SLOT = 3


def hash_pte_from_linux(vsid: int, page_index: int, pte: LinuxPte) -> HashPte:
    """Translate a Linux leaf PTE into an architected hash-table PTE.

    Every reload builds one, so the fields go in positionally: vsid,
    page_index, rpn, valid, secondary, referenced, changed, wimg, pp.
    """
    return HashPte(
        vsid, page_index, pte.pfn, True, False, True, pte.dirty,
        WIMG_CACHE_INHIBIT if pte.cache_inhibited else 0,
        PP_RW if pte.writable else PP_RO,
    )


class HtabReloader:
    """Puts PTEs into the hash table with full event accounting."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.machine = kernel.machine
        self._scavenge_cursor = 0
        self.scavenge_bursts = 0

    def install(self, vsid: int, page_index: int, linux_pte: LinuxPte) -> int:
        """Insert a PTE; returns cycles charged.

        Counts ``htab_reload`` and, when a live PTE had to be replaced,
        ``htab_evict`` on the machine monitor.
        """
        pte = hash_pte_from_linux(vsid, page_index, linux_pte)
        event = self.machine.walker.insert(pte)
        monitor = self.machine.monitor
        monitor.count("htab_reload")
        cycles = event["cycles"]
        if event["evicted"]:
            monitor.count("htab_evict")
            if self.kernel.config.on_demand_scavenge:
                cycles += self._scavenge()
        return cycles

    def reclaim_window(
        self, start: int, slots: int, inhibited: bool
    ) -> tuple:
        """Scan ``slots`` table slots from ``start``, clearing zombies.

        The one zombie-reclaim loop, shared by the idle task and the
        on-demand scavenge.  Charges the scan's instruction and cache
        costs and a store per zombie cleared, counts
        ``zombie_reclaimed`` per slot and lets the sanitizer check each
        one.  Returns ``(cycles, reclaimed)``; the caller adds the
        cycles to its own ledger category and keeps its own cursor.
        """
        machine = self.machine
        htab = machine.htab
        cycles = RECLAIM_CYCLES_PER_SLOT * slots
        # The scan streams the table; one memory access covers a cache
        # line's worth of PTE tag words.
        cycles += machine.walker.charge_scan_window(start, slots, inhibited)
        zombies = htab.zombie_flats(
            start, slots, self.kernel.vsid_allocator.is_live
        )
        ppg = htab.ptes_per_group
        sanitizer = machine.sanitizer
        for flat in zombies:
            htab.invalidate_slot(flat)
            machine.monitor.count("zombie_reclaimed")
            cycles += 2  # the store clearing the valid bit
            if sanitizer is not None:
                sanitizer.after_reclaim_slot(flat, htab.pte_at(*divmod(flat, ppg)))
        return cycles, len(zombies)

    def _scavenge(self) -> int:
        """The rejected design: synchronously sweep for zombies."""
        machine = self.machine
        start = self._scavenge_cursor
        cycles, _ = self.reclaim_window(start, SCAVENGE_SLOTS, False)
        self._scavenge_cursor = (start + SCAVENGE_SLOTS) % machine.htab.slots
        self.scavenge_bursts += 1
        machine.monitor.count("scavenge_burst")
        machine.clock.add(cycles, "scavenge")
        if machine.tracer is not None:
            machine.tracer.complete(
                "scavenge-burst", "mmu", cycles, SCAVENGE_SLOTS
            )
        return cycles
