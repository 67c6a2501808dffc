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
so two identical runs produce byte-identical traces.  The recorder's
host memory is kept small too: the ring stores typed columns, with no
tuple or dict per event (see :class:`EventTracer`).

The export format is Chrome trace-event JSON (the ``traceEvents``
array), so any captured run opens directly in Perfetto or
``chrome://tracing``.
"""

from __future__ import annotations

from array import array
from typing import (
    Any, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence,
    Tuple,
)

#: Event kinds: who publishes a name, and what the observatory derives.
SPAN = "span"  # tracer "X" event; duration statistics per path category
INSTANT = "instant"  # tracer "i" event; occurrence counts
TRACK = "track"  # tracer "C" counter track; sample counts
MONITOR = "monitor"  # hardware-monitor counter; end-of-run drift totals


class Event(NamedTuple):
    """One registered event: its kind, its meaning, for spans the
    profiler path category (``PATH_CATEGORIES`` value) it times, and the
    keys its published values are exported under, in order."""

    kind: str
    description: str
    category: str = ""
    args: Tuple[str, ...] = ()


#: The closed registry of every event name this repo may publish, and
#: the single source the observatory's derived tables are built from
#: (in this order).  Entries ending in ``*`` match by prefix, for names
#: carrying a dynamic suffix.  Runs hold every name to it: the
#: :class:`EventTracer` rejects a name outside it, or a publish whose
#: value count differs from its entry's ``args``, the first time the
#: name is published; :func:`repro.obs.analytics.derive` rejects a
#: monitor counter outside it.
EVENT_NAMES: Dict[str, Event] = {
    # -- tracer spans (Chrome "X" events) -------------------------------
    "hw-walk": Event(SPAN, "604 hardware hash walk resolved a TLB miss",
                     "tlb-reload", args=("ea",)),
    "sw-refill": Event(
        SPAN, "software TLB refill through the Linux page tables",
        "tlb-reload", args=("ea", "resolution")),
    "scavenge-burst": Event(
        SPAN, "on-miss zombie scavenge burst over the hash table",
        "tlb-reload", args=("slots",)),
    "flush-page": Event(
        SPAN, "single-page invalidate (hash search + tlbie)", "flush",
        args=("ea",)),
    "flush-range": Event(
        SPAN, "range invalidate by per-page hash search", "flush",
        args=("pages", "lazy")),
    "flush-mm": Event(
        SPAN, "whole-address-space invalidate by hash search", "flush",
        args=("pages", "lazy")),
    "flush-everything": Event(
        SPAN, "global invalidate (counter wrap / reset)", "flush",
        args=("cleared",)),
    "vsid-bump": Event(
        SPAN, "lazy context invalidate by VSID bump (section 7)", "flush",
        args=("lazy",)),
    "reclaim-chunk": Event(
        SPAN, "idle-task zombie reclaim over one hash-table chunk", "idle",
        args=("reclaimed",)),
    "idle-window": Event(SPAN, "one scheduling of the idle task", "idle",
                         args=("window",)),
    "page-fault": Event(
        SPAN, "demand fault handled (major or minor)", "fault",
        args=("ea", "write")),
    "shootdown-drain": Event(
        SPAN, "deferred remote TLB invalidations drained at ctxsw",
        "shootdown", args=("pages",)),
    "req-queue": Event(
        SPAN, "service request waiting in its CPU's dispatch queue",
        "service", args=("rid",)),
    "req-run": Event(
        SPAN, "service request executing (exec/map/touch/compute)",
        "service", args=("rid", "mmu")),
    # -- tracer instants (Chrome "i" events) ----------------------------
    "syscall:*": Event(
        INSTANT, "syscall entry, suffixed with the syscall name"),
    "ctxsw": Event(INSTANT, "context switch committed to a task",
                   args=("to", "pid")),
    "wakeup": Event(INSTANT, "sleeping task woken", args=("pid",)),
    "sleep": Event(INSTANT, "task put to sleep until a simulated deadline",
                   args=("pid", "until_cycle")),
    "pipe-create": Event(INSTANT, "pipe created", args=("pipe",)),
    "preclear-page": Event(
        INSTANT, "idle task pre-cleared one free page (section 9)",
        args=("pfn",)),
    # A shootdown round names its pages; a VSID bump or a global flush
    # names its cause instead and passes None for the keys it lacks.
    "ipi": Event(
        INSTANT, "inter-processor interrupt round for a TLB shootdown",
        args=("targets", "pages", "bump", "global")),
    "req-arrival": Event(
        INSTANT, "open-loop request accepted onto a dispatch queue",
        args=("rid", "scheduled", "depth")),
    "req-dispatch": Event(INSTANT, "service request picked up by a worker",
                          args=("rid", "wait")),
    "req-complete": Event(
        INSTANT, "service request finished, open-loop latency known",
        args=("rid", "latency")),
    # -- tracer counter tracks (Chrome "C" events) ----------------------
    "htab": Event(TRACK, "hash-table live/zombie occupancy curve",
                  args=("live", "zombie")),
    "occupancy": Event(TRACK, "hash-table valid-entry curve",
                       args=("valid",)),
    "monitor": Event(
        TRACK, "selected hardware-monitor counter curves",
        args=("itlb_miss", "dtlb_miss", "htab_reload", "htab_evict",
              "zombie_reclaimed")),
    "queue-depth": Event(
        TRACK, "pending service requests per dispatch queue",
        args=("pending",)),
    "vsids": Event(
        TRACK, "bounded top-K per-VSID hash-table population summary",
        args=("top_entries", "rest_entries", "rest_zombie")),
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


#: The key a republished monitor count is exported under.  Its value is
#: ``None`` (no args) when the monitor counted a single event.
MONITOR_ARGS: Tuple[str, ...] = ("count",)


class EventRegistryError(AssertionError):
    """A name outside ``EVENT_NAMES``, or a publish whose value count
    differs from its entry's keys (a bug)."""


def arg_keys(name: str) -> Tuple[str, ...]:
    """The keys an event's values are exported under, in order.

    A name is registered under its own entry or under the ``*`` entry
    whose prefix it extends; any other name raises
    :class:`EventRegistryError`.
    """
    event = EVENT_NAMES.get(name) or next(
        (event for key, event in EVENT_NAMES.items()
         if key.endswith("*") and name.startswith(key[:-1])),
        None,
    )
    if event is None:
        raise EventRegistryError(f"event {name!r} is not in EVENT_NAMES")
    return MONITOR_ARGS if event.kind == MONITOR else event.args


def names_of(kind: str) -> Tuple[str, ...]:
    """Registered event names of one kind, in registry order."""
    return tuple(
        name for name, event in EVENT_NAMES.items() if event.kind == kind
    )


#: Span name -> the path category whose cycles it times.
SPAN_CATEGORY: Dict[str, str] = {
    name: EVENT_NAMES[name].category for name in names_of(SPAN)
}

#: Monitor events republished as trace instants by default: every
#: monitor counter but five.  The cache-miss counters fire per cache
#: *line* touched and would drown every other event (the time-series
#: samples still show them); ``tlb_miss`` repeats the itlb/dtlb split;
#: context switches and syscall entries publish their own ``ctxsw`` and
#: ``syscall:*`` instants.
DEFAULT_MONITOR_EVENTS: FrozenSet[str] = frozenset(names_of(MONITOR)) - {
    "icache_miss", "dcache_miss", "tlb_miss", "context_switch", "syscall",
}

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
        if (isinstance(capacity, bool) or not isinstance(capacity, int)
                or capacity <= 0):
            raise ValueError(
                f"trace ring capacity must be a positive int: {capacity!r}"
            )
        self.capacity = capacity
        self.monitor_events = (
            DEFAULT_MONITOR_EVENTS if monitor_events is None else
            frozenset(monitor_events)
        )


class Kind(NamedTuple):
    """One interned ``(phase, category, name)`` and its argument keys."""

    ph: str
    category: str
    name: str
    keys: Tuple[str, ...]

    def arg(self, stored: Any, key: str, default: Any = None) -> Any:
        """The value an event of this kind stored under ``key``."""
        keys = self.keys
        if len(keys) == 1:
            value = stored if keys[0] == key else None
        else:
            value = stored[keys.index(key)] if key in keys else None
        return default if value is None else value


#: The names :meth:`EventTracer.column` reads the ring's columns under.
COLUMNS = ("ts", "dur", "tid", "code", "values")


class EventTracer:
    """A ring-buffered event bus with simulated-cycle timestamps.

    The ring is stored as columns, not as one object per event:
    ``array('q')`` columns hold each event's start cycle (``ts``), its
    duration (``dur``, 0 unless it is a span) and the pid of the task
    that was current when it fired (``tid``, 0 = boot / idle / no
    task); an ``array('H')`` column holds a ``code`` into
    :attr:`kinds`, the interned ``(phase, category, name)`` table; and
    one list holds each event's ``values`` under the keys its name
    registers in ``EVENT_NAMES`` (:func:`arg_keys`): the bare value for
    a one-key event, the tuple of values otherwise.  A ``None`` value
    is left out of the exported args.  The columns grow to
    ``config.capacity`` and then overwrite the oldest event in place.

    A kind is interned under its value count too, so a publish whose
    name is unregistered, or whose count differs from its registered
    keys, misses the table and raises :class:`EventRegistryError`
    while interning.  A warm publish still finds its code with one
    dictionary lookup and makes no extra comparison.
    """

    def __init__(self, machine: Any, kernel: Any = None,
                 label: str = "machine",
                 config: Optional[TraceConfig] = None) -> None:
        self.machine = machine
        self.kernel = kernel
        self.label = label
        self.config = config if config is not None else TraceConfig()
        self._capacity = self.config.capacity
        #: Total events ever published (the ring may have dropped some).
        self.emitted = 0
        #: Code -> the interned kind it stands for.
        self.kinds: List[Kind] = []
        self._codes: Dict[Tuple[str, str, str, int], int] = {}
        self._ts = array("q")
        self._dur = array("q")
        self._tid = array("q")
        self._code = array("H")
        self._values: List[Any] = []

    # -- publication ---------------------------------------------------------

    def _tid_now(self) -> int:
        kernel = self.kernel
        if kernel is None:
            return 0
        task = kernel.current_task
        return 0 if task is None else task.pid

    def _intern(self, ph: str, category: str, name: str,
                count: int) -> int:
        keys = arg_keys(name)
        if count != len(keys):
            raise EventRegistryError(
                f"event {name!r} passes {count} value(s) but registers "
                f"{len(keys)} key(s) {keys}"
            )
        code = self._codes[ph, category, name, count] = len(self.kinds)
        self.kinds.append(Kind(ph, category, name, keys))
        return code

    def _push(self, ph: str, category: str, name: str, ts: int, dur: int,
              tid: int, values: Tuple[Any, ...]) -> None:
        count = len(values)
        code = self._codes.get((ph, category, name, count))
        if code is None:
            code = self._intern(ph, category, name, count)
        slot = self.emitted
        self.emitted = slot + 1
        stored = values[0] if count == 1 else values
        if slot < self._capacity:
            self._ts.append(ts)
            self._dur.append(dur)
            self._tid.append(tid)
            self._code.append(code)
            self._values.append(stored)
        else:
            slot %= self._capacity
            self._ts[slot] = ts
            self._dur[slot] = dur
            self._tid[slot] = tid
            self._code[slot] = code
            self._values[slot] = stored

    def instant(self, name: str, category: str, *values: Any) -> None:
        """Publish a point event at the current simulated cycle."""
        self._push(PH_INSTANT, category, name, self.machine.clock.total, 0,
                   self._tid_now(), values)

    def complete(self, name: str, category: str, dur_cycles: int,
                 *values: Any) -> None:
        """Publish a span that just finished, ``dur_cycles`` long."""
        now = self.machine.clock.total
        self._push(PH_COMPLETE, category, name, max(now - dur_cycles, 0),
                   dur_cycles, self._tid_now(), values)

    def counter(self, name: str, *values: Any) -> None:
        """Publish a Chrome counter sample (renders as a curve)."""
        self._push(PH_COUNTER, "sample", name, self.machine.clock.total, 0,
                   0, values)

    def on_monitor_event(self, event: str, amount: int = 1) -> None:
        """Hardware-monitor hook: republish a counted event as an instant.

        The monitor calls it only for events ``config.monitor_events``
        selects.
        """
        self.instant(event, "monitor", None if amount == 1 else amount)

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.emitted - len(self._code)

    # -- reading -------------------------------------------------------------

    def column(self, field: str) -> Sequence[Any]:
        """One of :data:`COLUMNS` in ring order, oldest event first.

        Read-only: an unwrapped ring hands out the column itself.
        """
        if field not in COLUMNS:
            raise KeyError(f"no trace column {field!r}; one of {COLUMNS}")
        data: Any = getattr(self, "_" + field)
        head = self.emitted % self._capacity if self.dropped else 0
        ordered: Sequence[Any] = data[head:] + data[:head] if head else data
        return ordered

    # -- export --------------------------------------------------------------

    def chrome_events(self, pid: int = 0) -> List[Dict]:
        """This tracer's ring as Chrome trace-event dicts.

        ``ts`` is in microseconds of simulated time at this machine's
        clock rate, as the trace-event format specifies.  Only here is
        an event's args dict rebuilt, with its keys in registry order.
        """
        cycles_to_us = self.machine.spec.cycles_to_us
        out: List[Dict] = [{
            "ph": PH_METADATA, "ts": 0, "pid": pid, "tid": 0,
            "name": "process_name", "args": {"name": self.label},
        }]
        kinds = self.kinds
        for code, ts, dur, tid, stored in zip(
            self.column("code"), self.column("ts"), self.column("dur"),
            self.column("tid"), self.column("values"),
        ):
            ph, category, name, keys = kinds[code]
            event = {
                "ph": ph,
                "ts": round(cycles_to_us(ts), 3),
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": category,
            }
            if ph == PH_COMPLETE:
                event["dur"] = round(cycles_to_us(dur), 3)
            if len(keys) == 1:
                if stored is not None:
                    event["args"] = {keys[0]: stored}
            elif keys:
                args = {
                    key: value for key, value in zip(keys, stored)
                    if value is not None
                }
                if args:
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
