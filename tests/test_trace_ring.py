"""The columnar trace ring against its slow reference.

``DequeTracer`` is the ring as it was before it became columnar: a
``deque`` of ``(ts, dur, ph, category, name, tid, args)`` tuples, with
every call site building its args dict.  It stays here as the
differential oracle: driven by the same emits, both rings must export
the same Chrome events, flamegraph and derived blocks, at capacities
that wrap and at the default one.  A memory guard pins what the
columnar ring costs per event.
"""

from __future__ import annotations

import tracemalloc
from collections import deque
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import analytics, flame
from repro.obs.events import (
    DEFAULT_CAPACITY,
    INSTANT,
    MONITOR,
    PH_COMPLETE,
    PH_COUNTER,
    PH_INSTANT,
    PH_METADATA,
    SPAN,
    TRACK,
    EventTracer,
    Kind,
    TraceConfig,
    arg_keys,
    names_of,
)
from repro.params import M604_185


class DequeTracer:
    """The reference ring: one tuple and one args dict per event."""

    def __init__(self, machine: Any, kernel: Any = None,
                 label: str = "machine",
                 config: Optional[TraceConfig] = None) -> None:
        self.machine = machine
        self.kernel = kernel
        self.label = label
        self.config = config if config is not None else TraceConfig()
        self.events: deque = deque(maxlen=self.config.capacity)
        self.emitted = 0

    def _tid(self) -> int:
        kernel = self.kernel
        if kernel is None or kernel.current_task is None:
            return 0
        return kernel.current_task.pid

    def instant(self, name: str, category: str,
                args: Optional[Dict] = None) -> None:
        self.emitted += 1
        self.events.append(
            (self.machine.clock.total, None, PH_INSTANT, category, name,
             self._tid(), args)
        )

    def complete(self, name: str, category: str, dur_cycles: int,
                 args: Optional[Dict] = None) -> None:
        self.emitted += 1
        now = self.machine.clock.total
        self.events.append(
            (max(now - dur_cycles, 0), dur_cycles, PH_COMPLETE, category,
             name, self._tid(), args)
        )

    def counter(self, name: str, values: Dict[str, float]) -> None:
        self.emitted += 1
        self.events.append(
            (self.machine.clock.total, None, PH_COUNTER, "sample", name,
             0, dict(values))
        )

    def on_monitor_event(self, event: str, amount: int = 1) -> None:
        args = None if amount == 1 else {"count": amount}
        self.instant(event, "monitor", args)

    @property
    def dropped(self) -> int:
        return self.emitted - len(self.events)

    def chrome_events(self, pid: int = 0) -> List[Dict]:
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

    # -- the read API the analytics and flame readers use, from tuples ----

    @property
    def kinds(self) -> List[Kind]:
        return list(self._interned().values())

    def _interned(self) -> Dict[tuple, Kind]:
        table: Dict[tuple, Kind] = {}
        for _ts, _dur, ph, category, name, _tid, _args in self.events:
            table.setdefault((ph, category, name),
                             Kind(ph, category, name, arg_keys(name)))
        return table

    def column(self, field: str) -> list:
        codes = {key: code for code, key in enumerate(self._interned())}
        out = []
        for ts, dur, ph, category, name, tid, args in self.events:
            keys = arg_keys(name)
            values = tuple((args or {}).get(key) for key in keys)
            out.append({
                "ts": ts,
                "dur": dur or 0,
                "tid": tid,
                "code": codes[ph, category, name],
                "values": values[0] if len(values) == 1 else values,
            }[field])
        return out


def stub_machine():
    """What a tracer reads: a settable clock, a spec and a current task."""
    machine = SimpleNamespace(clock=SimpleNamespace(total=0), spec=M604_185)
    kernel = SimpleNamespace(current_task=None)
    return machine, kernel


SPANS = names_of(SPAN)
INSTANTS = tuple(
    name for name in names_of(INSTANT) if name != "syscall:*"
) + ("syscall:exec",)
TRACKS = names_of(TRACK)
MONITORS = names_of(MONITOR)

#: Values of the keys the call sites pass something other than an int.
TYPED_VALUES = {
    "ea": st.integers(0, (1 << 32) - 1).map(hex),
    "resolution": st.sampled_from(("htab", "pte-tree", "fault")),
    "to": st.text(max_size=3),
    "write": st.booleans(),
    "lazy": st.booleans(),
}
INTS = st.integers(-(1 << 40), 1 << 40)

#: The three shapes the shootdown engine publishes an ``ipi`` in.
IPI_SHAPES = st.one_of(
    st.tuples(st.lists(st.integers(0, 3), max_size=3),
              st.integers(0, 64), st.none(), st.none()),
    st.tuples(st.lists(st.integers(0, 3), max_size=3),
              st.none(), st.just(True), st.none()),
    st.tuples(st.just("all"), st.none(), st.none(), st.just(True)),
)


def draw_values(data, name: str) -> tuple:
    if name == "ipi":
        return data.draw(IPI_SHAPES)
    return tuple(
        data.draw(TYPED_VALUES.get(key, INTS)) for key in arg_keys(name)
    )


def as_args(name: str, values: tuple) -> Optional[Dict]:
    """The dict a call site built before values became positional."""
    args = {
        key: value for key, value in zip(arg_keys(name), values)
        if value is not None
    }
    return args or None


def drive(data, capacity: int):
    """Publish one drawn emit sequence into both rings."""
    machine, kernel = stub_machine()
    config = TraceConfig(capacity=capacity)
    ring = EventTracer(machine, kernel=kernel, label="m", config=config)
    ref = DequeTracer(machine, kernel=kernel, label="m", config=config)
    for _step in range(data.draw(st.integers(0, 40))):
        machine.clock.total += data.draw(st.integers(0, 500))
        pid = data.draw(st.one_of(st.none(), st.integers(1, 3)))
        kernel.current_task = None if pid is None else SimpleNamespace(
            pid=pid)
        op = data.draw(st.sampled_from(
            ("instant", "complete", "counter", "monitor")))
        if op == "instant":
            name = data.draw(st.sampled_from(INSTANTS))
            category = data.draw(st.sampled_from(("sched", "service")))
            values = draw_values(data, name)
            ring.instant(name, category, *values)
            ref.instant(name, category, as_args(name, values))
        elif op == "complete":
            name = data.draw(st.sampled_from(SPANS))
            category = data.draw(st.sampled_from(("mmu", "idle")))
            dur = data.draw(st.integers(0, 2_000))
            values = draw_values(data, name)
            ring.complete(name, category, dur, *values)
            ref.complete(name, category, dur, as_args(name, values))
        elif op == "counter":
            name = data.draw(st.sampled_from(TRACKS))
            values = draw_values(data, name)
            ring.counter(name, *values)
            ref.counter(name, as_args(name, values))
        else:
            name = data.draw(st.sampled_from(MONITORS))
            amount = data.draw(st.sampled_from((1, 2, 7)))
            ring.on_monitor_event(name, amount)
            ref.on_monitor_event(name, amount)
    return ring, ref


class TestRingMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           capacity=st.one_of(st.integers(1, 8), st.just(DEFAULT_CAPACITY)))
    def test_same_exports_and_derived_blocks(self, data, capacity):
        ring, ref = drive(data, capacity)
        assert (ring.emitted, ring.dropped) == (ref.emitted, ref.dropped)
        assert ring.chrome_events(pid=3) == ref.chrome_events(pid=3)
        assert flame.folded([ring]) == flame.folded([ref])
        assert flame.speedscope([ring]) == flame.speedscope([ref])
        assert analytics._trace_blocks([ring]) == \
            analytics._trace_blocks([ref])
        assert analytics._service_block([ring]) == \
            analytics._service_block([ref])


class TestRingMemory:
    def test_service_mix_retains_at_most_120_bytes_per_event(self):
        """The events a ``service`` pass is made of, with their values
        as the kernel passes them: task names and pids belong to the
        tasks, each deadline and window is a fresh int."""
        machine, kernel = stub_machine()
        tasks = [
            SimpleNamespace(name=f"svc-worker{index}", pid=1000 + index)
            for index in range(8)
        ]
        tracer = EventTracer(machine, kernel=kernel)
        rounds = 50_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(rounds):
                task = tasks[index % len(tasks)]
                kernel.current_task = task
                machine.clock.total += 977
                tracer.instant("ctxsw", "sched", task.name, task.pid)
                tracer.instant("sleep", "sched", task.pid,
                               machine.clock.total + 2_000)
                tracer.instant("wakeup", "sched", task.pid)
                tracer.complete("idle-window", "idle", 311, 1_000 + index)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (tracer.emitted, tracer.dropped) == (4 * rounds, 0)
        assert retained / (4 * rounds) <= 120
