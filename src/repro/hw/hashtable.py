"""The architected hashed page table (HTAB).

§3: the table is organized into power-of-two many "buckets" (PTE groups,
PTEGs) of eight PTEs each.  A primary hash of the virtual address picks
one bucket; if no PTE there matches, the one's-complement secondary hash
picks an overflow bucket.  Misses in both buckets raise the (hash-table)
miss fault the kernel must service.

The architected primary hash function is::

    hash = (VSID mod 2^19)  XOR  page_index

and the secondary hash is its one's complement.  The low bits of the
hash, masked to the table size, select the PTEG.

Replacement is the part the paper actually studies (§7): the reload code
first looks for an *invalid* slot in either bucket and, failing that,
"chose an arbitrary PTE to replace" — modelled as a per-table round-robin
pointer, counted as an *evict*.  The idle-task zombie reclaim exists to
keep invalid slots available so those evicts stop happening.

Representation: the table is struct-of-arrays — one flat list of packed
``(vsid << 32) | page_index`` tag keys (-1 = never written), parallel
bytearrays for the valid/H/R/C/WIMG/PP bits and a flat list of RPNs.
Searches are C-speed membership tests and ``list.index`` runs over an
8-slot window instead of per-object scans, and a bucket miss raises
nothing.  Each of the paper's three operations has one method, and each
works on flat slot numbers.  :meth:`HashedPageTable.search` returns the
matching slot (-1 on a miss) with the PTEG slots it examined;
:meth:`HashedPageTable.insert` and :meth:`HashedPageTable.invalidate`
return their event with the same probe runs.  The walker charges its
per-probe cache accesses from those runs, one run per bucket, and
:meth:`HashedPageTable.reference` sets R/C and reads the fields a TLB
fill needs.  Callers that want a PTE *object* (the sanitizer, the
invariants, tests) get a detached :class:`HashPte` snapshot from
``peek``, ``pte_at`` or ``iter_valid``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.hw.pte import HashPte
from repro.params import HTAB_GROUPS, PAGE_INDEX_MASK, PTES_PER_GROUP

_HASH_MASK_19 = (1 << 19) - 1

#: Bits of the packed tag key holding the page index (VSID above them).
_KEY_PAGE_BITS = 32
_KEY_PAGE_MASK = (1 << _KEY_PAGE_BITS) - 1


def primary_hash(vsid: int, page_index: int) -> int:
    """The architected 19-bit primary hash."""
    return (vsid & _HASH_MASK_19) ^ (page_index & PAGE_INDEX_MASK)


def secondary_hash(vsid: int, page_index: int) -> int:
    """The architected secondary hash: one's complement of the primary."""
    return (~primary_hash(vsid, page_index)) & _HASH_MASK_19


class HashedPageTable:
    """A fixed-size architected hash table of PTE groups."""

    def __init__(
        self,
        groups: int = HTAB_GROUPS,
        ptes_per_group: int = PTES_PER_GROUP,
    ):
        if groups <= 0 or groups & (groups - 1):
            raise ConfigError(f"HTAB group count must be a power of two: {groups}")
        if ptes_per_group <= 0:
            raise ConfigError(
                f"PTEG size must be positive: {ptes_per_group}"
            )
        self.groups = groups
        self.ptes_per_group = ptes_per_group
        self.slots = groups * ptes_per_group
        # Struct-of-arrays state; -1 marks a never-written slot.
        self._key: List[int] = [-1] * self.slots
        self._rpn: List[int] = [0] * self.slots
        self._valid = bytearray(self.slots)
        self._sec = bytearray(self.slots)
        self._ref = bytearray(self.slots)
        self._chg = bytearray(self.slots)
        self._wimg = bytearray(self.slots)
        self._pp = bytearray(self.slots)
        self._rr_pointer = 0
        # Incremental valid-population bookkeeping, kept exactly in sync
        # with ``_valid`` by every mutation path: total valid slots, the
        # per-group load, and valid entries per VSID.  The observability
        # sampler reads these every tick; maintaining them incrementally
        # turns its per-sample cost from O(slots) into O(live VSIDs).
        self._valid_total = 0
        self._group_valid = (
            bytearray(groups) if ptes_per_group <= 0xFF else [0] * groups
        )
        self._vsid_valid: Dict[int, int] = {}
        # Counters the paper reports on.
        self.searches = 0
        self.search_hits = 0
        self.reloads = 0
        self.evicts = 0
        self.insert_secondary = 0
        #: Per-bucket miss counts — the "hash table miss histogram" the
        #: authors used to tune the VSID scatter constant (§5.2).
        self.bucket_miss_histogram = [0] * groups

    # -- indexing -----------------------------------------------------------

    def group_index(self, vsid: int, page_index: int, secondary: bool) -> int:
        if secondary:
            return secondary_hash(vsid, page_index) & (self.groups - 1)
        return primary_hash(vsid, page_index) & (self.groups - 1)

    def _snapshot(self, flat: int) -> HashPte:
        key = self._key[flat]
        return HashPte(
            vsid=key >> _KEY_PAGE_BITS,
            page_index=key & _KEY_PAGE_MASK,
            rpn=self._rpn[flat],
            valid=bool(self._valid[flat]),
            secondary=bool(self._sec[flat]),
            referenced=bool(self._ref[flat]),
            changed=bool(self._chg[flat]),
            wimg=self._wimg[flat],
            pp=self._pp[flat],
        )

    def _valid_delta(self, flat: int, delta: int) -> None:
        """Adjust the incremental valid-population counters for ``flat``.

        Must run while ``_key[flat]`` still names the VSID whose valid
        bit changed (i.e. decrement *before* overwriting a slot's key).
        """
        self._valid_total += delta
        self._group_valid[flat // self.ptes_per_group] += delta
        vsid = self._key[flat] >> _KEY_PAGE_BITS
        counts = self._vsid_valid
        remaining = counts.get(vsid, 0) + delta
        if remaining:
            counts[vsid] = remaining
        else:
            del counts[vsid]

    def _store(self, flat: int, pte, secondary: bool) -> None:
        if self._valid[flat]:
            # The previous occupant's key is still in place; retire it
            # from the population counts before overwriting.
            self._valid_delta(flat, -1)
        self._key[flat] = (pte.vsid << _KEY_PAGE_BITS) | pte.page_index
        self._rpn[flat] = pte.rpn
        self._valid[flat] = 1 if pte.valid else 0
        if pte.valid:
            self._valid_delta(flat, 1)
        self._sec[flat] = 1 if secondary else 0
        self._ref[flat] = 1 if pte.referenced else 0
        self._chg[flat] = 1 if pte.changed else 0
        self._wimg[flat] = pte.wimg & 0xF
        self._pp[flat] = pte.pp & 0x3

    def _find_in_group(self, group_index: int, key: int, secondary: int):
        """First matching valid slot in one PTEG.

        Returns ``(flat, examined)``; ``flat`` is -1 on a miss, in which
        case the whole group (``ptes_per_group`` slots) was examined —
        the paper's per-bucket worst case.  A membership test guards
        every ``list.index``, so a miss raises nothing; the test reads a
        slice of the group's remaining keys (at most ``ptes_per_group``)
        per pass, the one list a bucket probe builds.
        """
        ppg = self.ptes_per_group
        base = group_index * ppg
        end = base + ppg
        keys = self._key
        valid = self._valid
        sec = self._sec
        pos = base
        while key in keys[pos:end]:
            pos = keys.index(key, pos, end)
            if valid[pos] and sec[pos] == secondary:
                return pos, pos - base + 1
            pos += 1
        return -1, ppg

    # -- the hardware search (and its software emulation) --------------------

    def search(self, vsid: int, page_index: int):
        """Probe primary then secondary bucket for a matching valid PTE.

        Returns ``(flat, probes)``: the flat index of the matching valid
        slot (-1 on a miss) and a list of ``(group_index,
        slots_examined)`` pairs — the consecutive slot prefix of each
        PTEG the search touched, in probe order.  One slot examined is
        one memory reference, the way the paper counts the 16-reference
        worst case; the walker charges its per-probe cache accesses from
        the runs.  A miss in both buckets counts into the primary
        bucket's miss histogram.
        """
        self.searches += 1
        key = (vsid << _KEY_PAGE_BITS) | page_index
        # One hash for both buckets: the secondary is its complement
        # (``group_index``, inline).
        hashed = primary_hash(vsid, page_index)
        group_mask = self.groups - 1
        primary = hashed & group_mask
        flat, examined = self._find_in_group(primary, key, 0)
        probes = [(primary, examined)]
        if flat < 0:
            secondary = ~hashed & _HASH_MASK_19 & group_mask
            flat, examined = self._find_in_group(secondary, key, 1)
            probes.append((secondary, examined))
            if flat < 0:
                self.bucket_miss_histogram[primary] += 1
                return -1, probes
        self.search_hits += 1
        return flat, probes

    def reference(self, flat: int, write: bool) -> tuple:
        """The walk's hit side: set R (and C on a write) on one slot.

        Returns ``(rpn, pp, wimg)``, the fields a TLB fill reads.
        """
        self._ref[flat] = 1
        if write:
            self._chg[flat] = 1
        return self._rpn[flat], self._pp[flat], self._wimg[flat]

    def pte_at(self, group_index: int, slot: int) -> Optional[HashPte]:
        """A snapshot of one slot, None if it was never written."""
        flat = group_index * self.ptes_per_group + slot
        if self._key[flat] == -1:
            return None
        return self._snapshot(flat)

    def peek(self, vsid: int, page_index: int) -> Optional[HashPte]:
        """Search without touching counters or the miss histogram.

        For assertions and the coherence sanitizer, which must observe
        the table without perturbing the statistics the experiments
        measure.  Returns a snapshot of the matching PTE, or None.
        """
        key = (vsid << _KEY_PAGE_BITS) | page_index
        for secondary in (0, 1):
            group_index = self.group_index(vsid, page_index, bool(secondary))
            flat, _ = self._find_in_group(group_index, key, secondary)
            if flat >= 0:
                return self._snapshot(flat)
        return None

    def iter_valid(self):
        """Yield ``(group_index, slot, pte snapshot)`` for every valid PTE."""
        valid = self._valid
        ppg = self.ptes_per_group
        flat = valid.find(1)
        while flat != -1:
            group_index, slot = divmod(flat, ppg)
            yield group_index, slot, self._snapshot(flat)
            flat = valid.find(1, flat + 1)

    # -- reload / insert ------------------------------------------------------

    def insert(self, pte):
        """Install a PTE, preferring invalid slots; evict round-robin else.

        Returns ``(event, probes)``: ``event`` is ``{"mem_refs",
        "evicted", "victim"}``, where ``victim`` is a snapshot of the
        replaced PTE if an evict happened, and ``probes`` the per-group
        examined slot runs, as in :meth:`search` (the round-robin evict
        examines no extra slots).  Sets ``pte.secondary`` to the hash the
        PTE went in under.
        """
        self.reloads += 1
        mem_refs = 0
        probes = []
        valid = self._valid
        ppg = self.ptes_per_group
        for secondary in (False, True):
            index = self.group_index(pte.vsid, pte.page_index, secondary)
            base = index * ppg
            try:
                flat = valid.index(0, base, base + ppg)
            except ValueError:
                mem_refs += ppg
                probes.append((index, ppg))
                continue
            examined = flat - base + 1
            mem_refs += examined
            probes.append((index, examined))
            pte.secondary = secondary
            self._store(flat, pte, secondary)
            if secondary:
                self.insert_secondary += 1
            return (
                {"mem_refs": mem_refs, "evicted": False, "victim": None},
                probes,
            )
        # No invalid slot anywhere: replace an arbitrary PTE (§7), chosen
        # round-robin within the primary bucket.
        index = self.group_index(pte.vsid, pte.page_index, False)
        flat = index * ppg + self._rr_pointer % ppg
        self._rr_pointer += 1
        victim = self._snapshot(flat)
        pte.secondary = False
        self._store(flat, pte, False)
        self.evicts += 1
        return (
            {"mem_refs": mem_refs, "evicted": True, "victim": victim},
            probes,
        )

    # -- invalidation ----------------------------------------------------------

    def invalidate(self, vsid: int, page_index: int):
        """Search-and-invalidate one translation (the expensive flush path).

        Returns ``({"mem_refs", "found"}, probes)`` with ``probes`` as in
        :meth:`search`; the 16-reference worst case is exactly the cost
        §7 attributes to range flushes.
        """
        key = (vsid << _KEY_PAGE_BITS) | page_index
        mem_refs = 0
        probes = []
        for secondary in (0, 1):
            group_index = self.group_index(vsid, page_index, bool(secondary))
            flat, examined = self._find_in_group(group_index, key, secondary)
            mem_refs += examined
            probes.append((group_index, examined))
            if flat >= 0:
                self._valid[flat] = 0
                self._valid_delta(flat, -1)
                return {"mem_refs": mem_refs, "found": True}, probes
        return {"mem_refs": mem_refs, "found": False}, probes

    def invalidate_all(self) -> int:
        """Clear the whole table; returns slots that were valid."""
        cleared = sum(self._valid)
        slots = self.slots
        self._key[:] = [-1] * slots
        self._rpn[:] = [0] * slots
        self._valid[:] = bytes(slots)
        self._sec[:] = bytes(slots)
        self._ref[:] = bytes(slots)
        self._chg[:] = bytes(slots)
        self._wimg[:] = bytes(slots)
        self._pp[:] = bytes(slots)
        self._valid_total = 0
        if isinstance(self._group_valid, bytearray):
            self._group_valid[:] = bytes(self.groups)
        else:
            self._group_valid = [0] * self.groups
        self._vsid_valid.clear()
        return cleared

    # -- the idle task's view ---------------------------------------------------

    def zombie_flats(self, start: int, count: int, vsid_is_live) -> List[int]:
        """Flat indices of zombie slots in a scan window, in scan order.

        A zombie is a valid PTE whose VSID the allocator no longer
        considers live — the §7 entries the idle task reclaims.  The
        window wraps at the table size; only valid slots pay a liveness
        check, so sweeping a mostly-invalid
        table is nearly free.
        """
        slots = self.slots
        valid = self._valid
        keys = self._key
        out = []
        position = start % slots
        remaining = min(count, slots)
        while remaining > 0:
            run = min(remaining, slots - position)
            end = position + run
            flat = valid.find(1, position, end)
            while flat != -1:
                if not vsid_is_live(keys[flat] >> _KEY_PAGE_BITS):
                    out.append(flat)
                flat = valid.find(1, flat + 1, end)
            remaining -= run
            position = 0
        return out

    def invalidate_slot(self, flat_index: int) -> None:
        flat = flat_index % self.slots
        if self._key[flat] != -1 and self._valid[flat]:
            self._valid[flat] = 0
            self._valid_delta(flat, -1)

    # -- statistics ---------------------------------------------------------------

    def valid_entries(self) -> int:
        return self._valid_total

    def occupancy(self) -> float:
        """Fraction of slots holding valid PTEs — the paper's "use" metric."""
        return self.valid_entries() / self.slots

    def live_and_zombie_counts(
        self, vsid_is_live: Callable[[int], bool]
    ) -> tuple:
        """Split valid entries into live vs zombie under a VSID predicate.

        Computed from the incrementally-maintained per-VSID population,
        so it costs O(distinct VSIDs) rather than a full table scan —
        the totals are identical to summing the histogram.
        """
        live = 0
        for vsid, count in self._vsid_valid.items():
            if vsid_is_live(vsid):
                live += count
        return live, self._valid_total - live

    def top_vsid_loads(
        self, k: int, vsid_is_live: Callable[[int], bool]
    ) -> Dict[str, Any]:
        """Bounded per-VSID population: top-``k`` plus a bucketed rest.

        Service-scale runs churn thousands of VSIDs; emitting the full
        per-VSID map every sampler tick would make trace records
        O(distinct VSIDs).  This folds the incrementally-maintained
        population into the ``k`` heaviest VSIDs (count-descending,
        VSID-ascending on ties, so the pick is deterministic) and one
        aggregate remainder bucket.  Counter-free, like :meth:`peek`.
        """
        ranked = sorted(
            self._vsid_valid.items(),
            key=lambda item: (-item[1], item[0]),
        )
        top = [
            {
                "vsid": vsid,
                "entries": count,
                "live": vsid_is_live(vsid),
            }
            for vsid, count in ranked[:k]
        ]
        rest_entries = 0
        rest_zombie = 0
        for vsid, count in ranked[k:]:
            rest_entries += count
            if not vsid_is_live(vsid):
                rest_zombie += count
        return {
            "top": top,
            "rest": {
                "vsids": max(len(ranked) - k, 0),
                "entries": rest_entries,
                "zombie_entries": rest_zombie,
            },
        }

    def evict_ratio(self) -> float:
        """Evicts per reload — §7's headline metric (>90% before, 30% after)."""
        return self.evicts / self.reloads if self.reloads else 0.0

    def search_hit_rate(self) -> float:
        return self.search_hits / self.searches if self.searches else 0.0

    def bucket_load_histogram(self) -> List[int]:
        """Valid-PTE count per bucket (for hot-spot analysis, §5.2)."""
        return list(self._group_valid)

    def hottest_bucket_load(self) -> int:
        """Largest per-bucket valid-PTE count (the sampler's hot-spot)."""
        return max(self._group_valid) if self.groups else 0

    def reset_stats(self) -> None:
        self.searches = self.search_hits = 0
        self.reloads = self.evicts = self.insert_secondary = 0
        self.bucket_miss_histogram = [0] * self.groups
