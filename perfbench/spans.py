"""Per-layer host self time from spans around each layer's entry points.

The simulator has no span hooks of its own, so the benchmark wraps the
public entry points of every layer on their classes (and one module
function) before boot and restores the originals afterwards.  Installing
before boot matters: the kernel binds ``MissHandlers.refill`` and the
recorder binds ``TimeSeriesSampler.on_cycles`` while booting.

Each span is folded into its layer's totals as it closes, in memory;
nothing is written while the traced run is going.  A layer's self time
is its spans' duration minus the part covered by nested spans.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Tuple

#: (layer, module, class or None for a module function, name patterns).
#: Patterns match public functions defined on the class itself.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, object, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.process", "Executive", ("run",)),
    ("kernel", "repro.kernel.kernel", "Kernel",
     ("user_access", "switch_to", "sys_*", "handle_page_fault",
      "run_idle")),
    ("kernel.fault", "repro.kernel.fault", "MissHandlers", ("refill",)),
    ("kernel.reload", "repro.kernel.reload", "HtabReloader", ("install",)),
    ("kernel.flush", "repro.kernel.flush", "FlushEngine", ("flush_*",)),
    ("kernel.shootdown", "repro.kernel.shootdown", "ShootdownEngine",
     ("commit", "drain_current_cpu", "context_bumped")),
    ("kernel.idle", "repro.kernel.idle", "IdleTask", ("run",)),
    ("kernel.palloc", "repro.kernel.palloc", "PageAllocator",
     ("clear_page", "get_free_page")),
    ("hw.machine", "repro.hw.machine", "MachineModel",
     ("translate", "access_page")),
    ("hw.tlb", "repro.hw.tlb", "Tlb", ("lookup", "insert", "invalidate_*")),
    ("hw.walker", "repro.hw.walker", "HardwareWalker",
     ("walk", "insert", "invalidate")),
    ("hw.hashtable", "repro.hw.hashtable", "HashedPageTable",
     ("search*", "insert*", "invalidate*", "live_and_zombie_counts")),
    ("hw.cache", "repro.hw.cache", "Cache",
     ("access", "access_page_lines", "access_run_same_line",
      "invalidate_page")),
    ("obs", "repro.obs.events", "EventTracer", ("*",)),
    ("obs", "repro.obs.sampler", "TimeSeriesSampler", ("on_cycles",)),
    ("obs", "repro.obs.analytics", None, ("derive",)),
    ("workloads", "repro.workloads.service", "ServiceRun", ("summary",)),
)

#: Layer names in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, _module, _owner, _patterns in LAYER_ENTRY_POINTS
))


def entry_points() -> List[Tuple[str, object, str, Callable]]:
    """Resolve the table to ``(layer, owner, attribute, function)``."""
    resolved = []
    for layer, module_name, class_name, patterns in LAYER_ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        for name, value in vars(owner).items():
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            if any(fnmatch.fnmatchcase(name, p) for p in patterns):
                resolved.append((layer, owner, name, value))
    return resolved


class LayerSpans:
    """Installs span wrappers on every layer entry point while active.

    Use as a context manager around boot, run and result reading::

        with LayerSpans() as spans:
            ...
        spans.calls["hw.cache"], spans.self_s["hw.cache"]
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self._calls = [0] * len(LAYERS)
        self._self = [0.0] * len(LAYERS)
        #: Time covered by the children of each open span.
        self._children: List[float] = []
        self._saved: List[Tuple[object, str, Callable]] = []

    def __enter__(self) -> "LayerSpans":
        index = {layer: i for i, layer in enumerate(LAYERS)}
        try:
            for layer, owner, name, function in entry_points():
                self._saved.append((owner, name, function))
                setattr(owner, name, self._wrap(function, index[layer]))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()
        for i, layer in enumerate(LAYERS):
            self.calls[layer] = self._calls[i]
            self.self_s[layer] = self._self[i]

    def _restore(self) -> None:
        while self._saved:
            owner, name, function = self._saved.pop()
            setattr(owner, name, function)

    def _wrap(self, function: Callable, layer: int) -> Callable:
        calls = self._calls
        self_time = self._self
        children = self._children
        clock = time.perf_counter

        @functools.wraps(function)
        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_time[layer] += elapsed - children.pop()
                calls[layer] += 1
                if children:
                    children[-1] += elapsed

        return span
