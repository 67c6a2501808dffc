"""Structured event tracing — layer 1 of the MMU flight recorder.

§4's methodology is observability: the 604 hardware monitor "counting
every TLB and cache miss" is what made the paper's optimizations
findable.  The :class:`EventTracer` is the software equivalent of that
monitor's event stream: a ring-buffered bus of timestamped events that
the machine and kernel commit points (TLB/hash miss and reload, BAT
hits, flushes and VSID bumps, idle reclaim and preclear, context
switches, syscall entries, page faults) publish into.

Zero perturbation is the design rule, mirroring ``repro.check``: an
emit never touches the cycle ledger, the hardware monitor, or any cache
— a traced run is bit-identical to an untraced one in every counter and
in total cycles.  Timestamps are *simulated* cycles read off the ledger,
so two identical runs produce byte-identical traces.

The export format is Chrome trace-event JSON (the ``traceEvents``
array), so any captured run opens directly in Perfetto or
``chrome://tracing``.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple,
)

#: Event kinds: who publishes a name, and what the observatory derives.
SPAN = "span"  # tracer "X" event; duration statistics per path category
INSTANT = "instant"  # tracer "i" event; occurrence counts
TRACK = "track"  # tracer "C" counter track; sample counts
MONITOR = "monitor"  # hardware-monitor counter; end-of-run drift totals


class Event(NamedTuple):
    """One registered event: its kind, its meaning and, for spans, the
    profiler path category (``PATH_CATEGORIES`` value) it times."""

    kind: str
    description: str
    category: str = ""


#: The closed registry of every event name this repo may publish, and
#: the single source the observatory's derived tables are built from
#: (in this order).  ``repro lint``'s event-registry closure pass
#: statically checks that every ``tracer.instant/complete/counter`` and
#: ``monitor.count`` callsite uses a name listed here (entries ending in
#: ``*`` match by prefix, for names carrying a dynamic suffix), so the
#: keys stay string literals.
EVENT_NAMES: Dict[str, Event] = {
    # -- tracer spans (Chrome "X" events) -------------------------------
    "hw-walk": Event(SPAN, "604 hardware hash walk resolved a TLB miss",
                     "tlb-reload"),
    "sw-refill": Event(
        SPAN, "software TLB refill through the Linux page tables",
        "tlb-reload"),
    "scavenge-burst": Event(
        SPAN, "on-miss zombie scavenge burst over the hash table",
        "tlb-reload"),
    "flush-page": Event(
        SPAN, "single-page invalidate (hash search + tlbie)", "flush"),
    "flush-range": Event(
        SPAN, "range invalidate by per-page hash search", "flush"),
    "flush-mm": Event(
        SPAN, "whole-address-space invalidate by hash search", "flush"),
    "flush-everything": Event(
        SPAN, "global invalidate (counter wrap / reset)", "flush"),
    "vsid-bump": Event(
        SPAN, "lazy context invalidate by VSID bump (section 7)", "flush"),
    "reclaim-chunk": Event(
        SPAN, "idle-task zombie reclaim over one hash-table chunk", "idle"),
    "idle-window": Event(SPAN, "one scheduling of the idle task", "idle"),
    "page-fault": Event(
        SPAN, "demand fault handled (major or minor)", "fault"),
    "shootdown-drain": Event(
        SPAN, "deferred remote TLB invalidations drained at ctxsw",
        "shootdown"),
    "req-queue": Event(
        SPAN, "service request waiting in its CPU's dispatch queue",
        "service"),
    "req-run": Event(
        SPAN, "service request executing (exec/map/touch/compute)",
        "service"),
    # -- tracer instants (Chrome "i" events) ----------------------------
    "syscall:*": Event(
        INSTANT, "syscall entry, suffixed with the syscall name"),
    "ctxsw": Event(INSTANT, "context switch committed to a task"),
    "wakeup": Event(INSTANT, "sleeping task woken"),
    "sleep": Event(INSTANT, "task put to sleep until a simulated deadline"),
    "pipe-create": Event(INSTANT, "pipe created"),
    "pipe-close": Event(INSTANT, "pipe endpoint closed"),
    "preclear-page": Event(
        INSTANT, "idle task pre-cleared one free page (section 9)"),
    "ipi": Event(
        INSTANT, "inter-processor interrupt round for a TLB shootdown"),
    "req-arrival": Event(
        INSTANT, "open-loop request accepted onto a dispatch queue"),
    "req-dispatch": Event(INSTANT, "service request picked up by a worker"),
    "req-complete": Event(
        INSTANT, "service request finished, open-loop latency known"),
    # -- tracer counter tracks (Chrome "C" events) ----------------------
    "htab": Event(TRACK, "hash-table live/zombie occupancy curve"),
    "occupancy": Event(TRACK, "hash-table valid-entry curve"),
    "monitor": Event(TRACK, "selected hardware-monitor counter curves"),
    "queue-depth": Event(
        TRACK, "pending service requests per dispatch queue"),
    "vsids": Event(
        TRACK, "bounded top-K per-VSID hash-table population summary"),
    # -- hardware-monitor counters (republished as instants when the
    # -- tracer's monitor filter selects them) --------------------------
    "itlb_miss": Event(MONITOR, "instruction TLB miss"),
    "dtlb_miss": Event(MONITOR, "data TLB miss"),
    "tlb_miss": Event(MONITOR, "TLB miss (either side)"),
    "htab_search": Event(MONITOR, "hash-table search started"),
    "htab_hit": Event(MONITOR, "hash-table search found the PTE"),
    "htab_miss": Event(MONITOR, "hash-table search missed"),
    "htab_reload": Event(MONITOR, "PTE installed into the hash table"),
    "htab_evict": Event(MONITOR, "valid PTE evicted to make room"),
    "hash_miss_interrupt": Event(MONITOR, "604 hash-miss trap to the kernel"),
    "sw_tlb_miss_interrupt": Event(MONITOR, "603 software TLB-miss trap"),
    "bat_translation": Event(MONITOR, "access translated by a BAT register"),
    "icache_miss": Event(MONITOR, "instruction-cache miss"),
    "dcache_miss": Event(MONITOR, "data-cache miss"),
    "page_fault_major": Event(MONITOR, "major page fault (backing store)"),
    "page_fault_minor": Event(MONITOR, "minor page fault (mapping only)"),
    "flush_range_search": Event(
        MONITOR, "flush took the per-page search path"),
    "flush_range_lazy": Event(MONITOR, "flush took the lazy VSID-bump path"),
    "vsid_bump": Event(MONITOR, "context moved onto fresh VSIDs"),
    "zombie_reclaimed": Event(
        MONITOR, "zombie PTE invalidated (idle task or scavenge)"),
    "pages_precleared": Event(
        MONITOR, "free page pre-cleared onto the section-9 list"),
    "precleared_page_used": Event(
        MONITOR, "get_free_page served a pre-cleared page"),
    "scavenge_burst": Event(MONITOR, "on-miss scavenge burst ran"),
    "context_switch": Event(MONITOR, "context switch"),
    "syscall": Event(MONITOR, "syscall entered"),
    "ipi_sent": Event(MONITOR, "shootdown IPI dispatched to a remote CPU"),
    "ipi_received": Event(MONITOR, "shootdown IPI delivered on a remote CPU"),
    "shootdown_deferred": Event(
        MONITOR, "remote invalidation queued instead of IPI'd"),
    "shootdown_drained": Event(
        MONITOR, "deferred invalidation applied at context switch"),
    "flush_skipped_reuse": Event(
        MONITOR, "munmap flush skipped by pooling the region"),
    "reuse_pool_hit": Event(
        MONITOR, "mmap revived a pooled region without faulting"),
}


def names_of(kind: str) -> Tuple[str, ...]:
    """Registered event names of one kind, in registry order."""
    return tuple(
        name for name, event in EVENT_NAMES.items() if event.kind == kind
    )


#: Span name -> the path category whose cycles it times.
SPAN_CATEGORY: Dict[str, str] = {
    name: EVENT_NAMES[name].category for name in names_of(SPAN)
}

#: Monitor events republished as trace instants by default.  The cache
#: miss counters are excluded — they fire per cache *line* touched and
#: would drown every other event (they are still visible as counters in
#: the time-series samples); everything translation-shaped is kept.
DEFAULT_MONITOR_EVENTS: FrozenSet[str] = frozenset({
    "itlb_miss",
    "dtlb_miss",
    "htab_search",
    "htab_hit",
    "htab_miss",
    "htab_reload",
    "htab_evict",
    "hash_miss_interrupt",
    "sw_tlb_miss_interrupt",
    "bat_translation",
    "page_fault_major",
    "page_fault_minor",
    "flush_range_search",
    "flush_range_lazy",
    "vsid_bump",
    "zombie_reclaimed",
    "pages_precleared",
    "precleared_page_used",
    "scavenge_burst",
    "ipi_sent",
    "ipi_received",
    "shootdown_deferred",
    "shootdown_drained",
    "flush_skipped_reuse",
    "reuse_pool_hit",
})

#: Default ring capacity, in events.  A full E7 run emits a few million
#: raw events; the ring keeps the most recent window bounded.
DEFAULT_CAPACITY = 1 << 18

#: Chrome trace-event phases this tracer emits.
PH_INSTANT = "i"
PH_COMPLETE = "X"
PH_COUNTER = "C"
PH_METADATA = "M"


class TraceConfig:
    """Tuning knobs for one :class:`EventTracer`."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        monitor_events: Optional[FrozenSet[str]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"trace ring capacity must be positive: {capacity}")
        self.capacity = capacity
        self.monitor_events = (
            DEFAULT_MONITOR_EVENTS if monitor_events is None else
            frozenset(monitor_events)
        )


class EventTracer:
    """A ring-buffered event bus with simulated-cycle timestamps.

    Events are stored as tuples ``(ts_cycles, dur_cycles, ph, category,
    name, tid, args)`` — ``dur_cycles`` and ``args`` may be ``None``.
    ``tid`` is the pid of the task that was current when the event
    fired (0 = boot / idle / no task).
    """

    def __init__(self, machine: Any, kernel: Any = None,
                 label: str = "machine",
                 config: Optional[TraceConfig] = None) -> None:
        self.machine = machine
        self.kernel = kernel
        self.label = label
        self.config = config if config is not None else TraceConfig()
        self.events: deque = deque(maxlen=self.config.capacity)
        #: Total events ever published (the ring may have dropped some).
        self.emitted = 0

    # -- publication ---------------------------------------------------------

    def _tid(self) -> int:
        kernel = self.kernel
        if kernel is None or kernel.current_task is None:
            return 0
        return kernel.current_task.pid

    def instant(self, name: str, category: str,
                args: Optional[Dict] = None) -> None:
        """Publish a point event at the current simulated cycle."""
        self.emitted += 1
        self.events.append(
            (self.machine.clock.total, None, PH_INSTANT, category, name,
             self._tid(), args)
        )

    def complete(self, name: str, category: str, dur_cycles: int,
                 args: Optional[Dict] = None) -> None:
        """Publish a span that just finished, ``dur_cycles`` long."""
        self.emitted += 1
        now = self.machine.clock.total
        self.events.append(
            (max(now - dur_cycles, 0), dur_cycles, PH_COMPLETE, category,
             name, self._tid(), args)
        )

    def counter(self, name: str, values: Dict[str, float]) -> None:
        """Publish a Chrome counter sample (renders as a curve)."""
        self.emitted += 1
        self.events.append(
            (self.machine.clock.total, None, PH_COUNTER, "sample", name,
             0, dict(values))
        )

    def on_monitor_event(self, event: str, amount: int = 1) -> None:
        """Hardware-monitor hook: republish a counted event as an instant.

        The monitor calls it only for events ``config.monitor_events``
        selects.
        """
        args = None if amount == 1 else {"count": amount}
        self.instant(event, "monitor", args)

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.emitted - len(self.events)

    # -- export --------------------------------------------------------------

    def chrome_events(self, pid: int = 0) -> List[Dict]:
        """This tracer's ring as Chrome trace-event dicts.

        ``ts`` is in microseconds of simulated time at this machine's
        clock rate, as the trace-event format specifies.
        """
        cycles_to_us = self.machine.spec.cycles_to_us
        out: List[Dict] = [{
            "ph": PH_METADATA, "ts": 0, "pid": pid, "tid": 0,
            "name": "process_name", "args": {"name": self.label},
        }]
        for ts, dur, ph, category, name, tid, args in self.events:
            event = {
                "ph": ph,
                "ts": round(cycles_to_us(ts), 3),
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": category,
            }
            if dur is not None:
                event["dur"] = round(cycles_to_us(dur), 3)
            if args is not None:
                event["args"] = args
            out.append(event)
        return out


def chrome_trace(tracers: Iterable[Any],
                 other_data: Optional[Dict] = None) -> Dict:
    """Merge tracers into one Chrome trace document (one pid each)."""
    events: List[Dict] = []
    for pid, tracer in enumerate(tracers):
        events.extend(tracer.chrome_events(pid=pid))
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if other_data:
        doc["otherData"] = dict(other_data)
    return doc


def validate_chrome_trace(doc: Dict) -> Dict[str, int]:
    """Check a document is well-formed Chrome trace-event JSON.

    Raises :class:`ValueError` on the first malformed event; returns
    ``{"events": n, "spans": n, "instants": n, "counters": n}`` so
    callers (the CI step, the tests) can also assert non-emptiness.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    counts = {"events": 0, "spans": 0, "instants": 0, "counters": 0}
    known_ph = {PH_INSTANT, PH_COMPLETE, PH_COUNTER, PH_METADATA, "B", "E"}
    for index, event in enumerate(events):
        for field in ("ph", "ts", "name", "pid", "tid"):
            if field not in event:
                raise ValueError(f"event {index} missing {field!r}: {event}")
        ph = event["ph"]
        if ph not in known_ph:
            raise ValueError(f"event {index} has unknown phase {ph!r}")
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            raise ValueError(f"event {index} has bad ts: {event['ts']!r}")
        if ph == PH_COMPLETE and "dur" not in event:
            raise ValueError(f"event {index} is 'X' without 'dur'")
        counts["events"] += 1
        if ph == PH_COMPLETE:
            counts["spans"] += 1
        elif ph == PH_INSTANT:
            counts["instants"] += 1
        elif ph == PH_COUNTER:
            counts["counters"] += 1
    return counts
