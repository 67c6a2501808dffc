"""The 604's hardware hash-table walk engine.

On a TLB miss the 604 computes the primary hash, probes the PTEG, then
probes the secondary PTEG, entirely in hardware.  §5 measures the found
case at "up to 120 instruction cycles and 16 memory accesses"; a miss in
both buckets raises the hash-table miss interrupt (at least 91 further
cycles just to reach the handler).

The walker charges each PTE probe as a real data-cache access to the
PTEG's physical address; that is how the §8 cache-pollution effect
arises in the model without any special-casing.  Configurations that map
the page tables cache-inhibited simply set ``cache_ptes=False``.

A walk deals in flat slot numbers and cycles, not model objects: it
raises nothing and builds no PTE object.  :meth:`walk` returns
``(flat, cycles)`` with ``flat`` the matching table slot, -1 on a miss.
Each table operation (``search``, ``insert``, ``invalidate``) reports
how many consecutive slots each probed group examined, and the walker
replays those probes against the data cache one line at a time, in one
loop for all three.  Within one run, only the first slot of each cache
line can miss — the probe loop walks consecutive PTE addresses, so
every later slot on the same line finds it resident and MRU (the
immediately preceding probe put it there).  Each line therefore costs
one scalar ``dcache.access`` plus hit-priced slots for the rest of the
run on that line: cycle-identical and statistics-identical to one
access per slot, at a fraction of the Python cost.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hw.cache import Cache
from repro.hw.hashtable import HashedPageTable
from repro.hw.pte import HashPte
from repro.params import PTE_BYTES, PTES_PER_GROUP

#: Bytes per PTEG at the architected default geometry.  Instances use
#: ``self.pteg_bytes``, derived from their table's actual group size.
PTEG_BYTES = PTE_BYTES * PTES_PER_GROUP

#: Fixed pipeline overhead of engaging the walk engine.  With the worst
#: case of 16 probes at 7 cycles each this reproduces the paper's
#: 120-cycle ceiling (8 + 16 * 7 = 120).
WALK_BASE_CYCLES = 8
WALK_CYCLES_PER_REF = 7


class HardwareWalker:
    """Walks the HTAB the way 604 silicon does, with cache accounting."""

    def __init__(
        self,
        htab: HashedPageTable,
        dcache: Cache,
        htab_base_pa: int,
        cache_ptes: bool = True,
    ):
        if dcache.line_size % PTE_BYTES:
            # Probe and scan charging count whole PTEs per cache line.
            raise ConfigError(
                f"cache line of {dcache.line_size}B does not hold a whole "
                f"number of {PTE_BYTES}B PTEs"
            )
        self.htab = htab
        self.dcache = dcache
        self.htab_base_pa = htab_base_pa
        #: §8: whether hash-table probes may allocate into the data cache.
        self.cache_ptes = cache_ptes
        #: Bytes per PTEG at this table's geometry (8-byte PTEs).
        self.pteg_bytes = PTE_BYTES * htab.ptes_per_group

    def pte_physical_address(self, group_index: int, slot: int) -> int:
        """Physical address of one PTE slot in the in-memory table."""
        return self.htab_base_pa + group_index * self.pteg_bytes + slot * PTE_BYTES

    def charge_probe_run(
        self, group_index: int, count: int, inhibited: bool
    ) -> int:
        """Cache cost of probing slots ``0 .. count-1`` of one PTEG.

        Equivalent to ``count`` scalar ``dcache.access`` calls at
        consecutive PTE addresses: the first slot of each cache line
        pays a real access, the rest of the line are guaranteed hits.
        """
        dcache = self.dcache
        if inhibited:
            dcache.stats.bypasses += count
            return dcache.word_cycles * count
        line_size = dcache.line_size
        # Lines the run touches (a PTEG starts a line or fits in one).
        lines = -(-count // (line_size // PTE_BYTES))
        # The group's first PTE (``pte_physical_address``, inline).
        base = self.htab_base_pa + group_index * self.pteg_bytes
        cycles = 0
        for line in range(lines):
            cycles += dcache.access(base + line * line_size)
        hits = count - lines
        if hits:
            dcache.stats.hits += hits
            cycles += dcache.hit_cycles * hits
        return cycles

    def charge_scan_window(
        self, start: int, count: int, inhibited: bool = False
    ) -> int:
        """Cache cost of streaming ``count`` table slots from ``start``.

        The idle reclaim and on-demand scavenge scans stream PTE tag
        words; one memory access covers a cache line's worth of slots,
        charged at every line-aligned flat slot index the window crosses
        (wrapping at the table size).  Those slots sit one line apart,
        so each stretch of the window up to the table's end is one run
        of consecutive cache lines, charged by :meth:`Cache.stream_lines`
        — the same accesses, in the same order, as one scalar
        ``dcache.access`` per line-aligned slot.
        """
        dcache = self.dcache
        slots = self.htab.slots
        line_size = dcache.line_size
        slots_per_line = line_size // PTE_BYTES
        base = self.htab_base_pa
        cycles = 0
        position = start % slots
        remaining = count
        while remaining > 0:
            run = min(remaining, slots - position)
            first = position + (-position) % slots_per_line
            cycles += dcache.stream_lines(
                (base + first * PTE_BYTES) // line_size,
                len(range(first, position + run, slots_per_line)),
                inhibited,
            )
            remaining -= run
            position = 0
        return cycles

    def _charge_probes(
        self, probes, cycles_per_ref: int, inhibited: bool
    ) -> int:
        """Cycles for a table operation's probe runs.

        ``probes`` is the ``(group_index, slots_examined)`` list a table
        operation returns; every examined slot costs ``cycles_per_ref``
        plus one data-cache access, charged one run per group through
        :meth:`charge_probe_run`.
        """
        cycles = 0
        for group_index, count in probes:
            cycles += cycles_per_ref * count + self.charge_probe_run(
                group_index, count, inhibited
            )
        return cycles

    def charged_search(
        self,
        vsid: int,
        page_index: int,
        cycles_per_ref: int,
        inhibited: bool,
    ) -> tuple:
        """The 603's software emulation of the walk's search.

        Returns ``(flat, cycles)``, ``flat`` being the matching slot or
        -1; every probed slot costs the handler's own ``cycles_per_ref``
        plus one data-cache access.
        """
        flat, probes = self.htab.search(vsid, page_index)
        return flat, self._charge_probes(probes, cycles_per_ref, inhibited)

    def walk(self, vsid: int, page_index: int) -> tuple:
        """Search primary then secondary PTEG; charge cycles per probe.

        Returns ``(flat, cycles)``: the matching slot (-1 on a miss) and
        the walk's cost, engine overhead included.
        """
        flat, probes = self.htab.search(vsid, page_index)
        return flat, WALK_BASE_CYCLES + self._charge_probes(
            probes, WALK_CYCLES_PER_REF, not self.cache_ptes
        )

    def insert(self, pte: HashPte) -> dict:
        """Reload code installing a PTE; returns the htab event + cycles.

        The returned dict carries the hash-table insert event fields plus
        ``"cycles"`` for the charged probe and store costs.
        """
        inhibited = not self.cache_ptes
        event, probes = self.htab.insert(pte)
        cycles = self._charge_probes(probes, WALK_CYCLES_PER_REF, inhibited)
        # The final PTE store (two words; one line), at the group's
        # first PTE (``pte_physical_address``, inline).
        group_index = self.htab.group_index(pte.vsid, pte.page_index, pte.secondary)
        cycles += self.dcache.access(
            self.htab_base_pa + group_index * self.pteg_bytes, True, inhibited
        )
        event["cycles"] = cycles
        return event

    def invalidate(self, vsid: int, page_index: int) -> dict:
        """Search-and-invalidate one PTE, charging probes (flush path)."""
        event, probes = self.htab.invalidate(vsid, page_index)
        event["cycles"] = self._charge_probes(
            probes, WALK_CYCLES_PER_REF, not self.cache_ptes
        )
        return event
