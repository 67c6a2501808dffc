"""The MMU flight recorder (DESIGN.md "obs" subsystem).

Three zero-perturbation layers over a booted simulator:

* :class:`~repro.obs.events.EventTracer` — ring-buffered structured
  events with simulated-cycle timestamps, exported as Chrome
  trace-event JSON (opens in Perfetto);
* :class:`~repro.obs.profiler.CycleProfiler` — folds the cycle ledger
  into a path-category attribution that sums exactly to total cycles;
* :class:`~repro.obs.sampler.TimeSeriesSampler` — periodic counter and
  HTAB occupancy/zombie snapshots on a simulated-time grid.

Two ways to turn it on, mirroring ``repro.check``:

* per simulator — ``Simulator(spec, config, trace=True, profile=True,
  sample_every_us=1000)`` or ``attach_observability(kernel)`` directly;
* globally — ``enable_global_observability()`` makes every Simulator
  built afterwards attach a recorder, registered for
  ``drain_global_observed()``.  This is how ``python -m repro trace``
  and ``profile`` instrument experiment code they do not construct.

This module must not import :mod:`repro.obs.session` — the session
runner pulls in the experiment registry, which imports the simulator,
which imports this package.  The CLI imports the session directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.events import (
    EventTracer,
    TraceConfig,
    chrome_trace,
    validate_chrome_trace,
)
from repro.obs.profiler import (
    CycleProfiler,
    merge_attributions,
    render_attribution,
)
from repro.obs.sampler import TimeSeriesSampler

__all__ = [
    "CycleProfiler",
    "EventTracer",
    "Observability",
    "TimeSeriesSampler",
    "TraceConfig",
    "attach_observability",
    "chrome_trace",
    "disable_global_observability",
    "drain_global_observed",
    "enable_global_observability",
    "global_obs_active",
    "merge_attributions",
    "render_attribution",
    "validate_chrome_trace",
]


class Observability:
    """One machine's flight recorder: tracer + profiler + sampler."""

    def __init__(
        self,
        kernel: Any,
        trace: bool = False,
        profile: bool = True,
        sample_every_us: Optional[float] = None,
        trace_config: Optional[TraceConfig] = None,
        label: Optional[str] = None,
    ) -> None:
        machine = kernel.machine
        self.kernel = kernel
        self.machine = machine
        self.label = label if label is not None else machine.spec.name
        self.tracer: Optional[EventTracer] = None
        self.profiler: Optional[CycleProfiler] = None
        self.profilers: List[CycleProfiler] = []
        self.sampler: Optional[TimeSeriesSampler] = None
        if trace:
            self.tracer = EventTracer(
                machine, kernel=kernel, label=self.label, config=trace_config
            )
            # repro-lint: disable=zero-perturbation -- the sanctioned hook
            # attach point: installs the tracer on the machine's dedicated
            # observer slots, which hold no simulation state.
            machine.tracer = self.tracer
            for cpu in machine.cpus:
                # repro-lint: disable=zero-perturbation -- same attach
                # point, every CPU's monitor-side observer slot.
                cpu.monitor.tracer = self.tracer
        if profile:
            # One profiler per CPU ledger; ``profiler`` stays the boot
            # CPU's for existing single-CPU callers.
            self.profilers = [
                CycleProfiler(cpu.clock) for cpu in machine.cpus
            ]
            self.profiler = self.profilers[0]
        if sample_every_us is not None:
            self.sampler = TimeSeriesSampler(
                kernel, sample_every_us, tracer=self.tracer
            )
            # repro-lint: disable=zero-perturbation -- the ledger's observer
            # slot exists for exactly this; the sampler callback never
            # charges cycles.
            machine.clock.observer = self.sampler.on_cycles

    # -- counter-free reads --------------------------------------------------

    def counters(self) -> Any:
        return self.machine.monitor.snapshot()

    def attribution(self) -> Dict[str, int]:
        """Path-category attribution summed over every CPU's ledger."""
        if not self.profilers:
            return {}
        return merge_attributions(
            profiler.attribution() for profiler in self.profilers
        )


class _GlobalObs:
    """Process-wide recorder state, active between enable/disable."""

    def __init__(self) -> None:
        self.active = False
        self.trace = False
        self.profile = True
        self.sample_every_us: Optional[float] = None
        self.trace_config: Optional[TraceConfig] = None
        self.observed: List[Observability] = []


_GLOBAL = _GlobalObs()


def enable_global_observability(
    trace: bool = False,
    profile: bool = True,
    sample_every_us: Optional[float] = None,
    trace_config: Optional[TraceConfig] = None,
) -> None:
    """Attach a recorder to every subsequently-built Simulator."""
    _GLOBAL.active = True
    _GLOBAL.trace = trace
    _GLOBAL.profile = profile
    _GLOBAL.sample_every_us = sample_every_us
    _GLOBAL.trace_config = trace_config
    _GLOBAL.observed = []


def disable_global_observability() -> None:
    _GLOBAL.active = False
    _GLOBAL.trace = False
    _GLOBAL.profile = True
    _GLOBAL.sample_every_us = None
    _GLOBAL.trace_config = None
    _GLOBAL.observed = []


def global_obs_active() -> bool:
    return _GLOBAL.active


def drain_global_observed() -> List[Observability]:
    """Hand over (and forget) the recorders attached since enable."""
    observed = _GLOBAL.observed
    _GLOBAL.observed = []
    return observed


def attach_observability(
    kernel: Any,
    trace: Optional[bool] = None,
    profile: Optional[bool] = None,
    sample_every_us: Optional[float] = None,
    trace_config: Optional[TraceConfig] = None,
    label: Optional[str] = None,
) -> Observability:
    """Build an :class:`Observability` for ``kernel`` and hook the machine.

    While the global recorder is active, unspecified options inherit the
    global configuration and the recorder is registered for
    :func:`drain_global_observed`.
    """
    if _GLOBAL.active:
        if trace is None:
            trace = _GLOBAL.trace
        if profile is None:
            profile = _GLOBAL.profile
        if sample_every_us is None:
            sample_every_us = _GLOBAL.sample_every_us
        if trace_config is None:
            trace_config = _GLOBAL.trace_config
    observability = Observability(
        kernel,
        trace=bool(trace),
        profile=True if profile is None else bool(profile),
        sample_every_us=sample_every_us,
        trace_config=trace_config,
        label=label,
    )
    if _GLOBAL.active:
        _GLOBAL.observed.append(observability)
    return observability
