"""The MMU flight recorder (DESIGN.md "obs" subsystem).

Four zero-perturbation observers over a booted simulator:

* :class:`~repro.obs.events.EventTracer` — ring-buffered structured
  events with simulated-cycle timestamps, exported as Chrome
  trace-event JSON (opens in Perfetto);
* :class:`~repro.obs.profiler.CycleProfiler` — folds the cycle ledger
  into a path-category attribution that sums exactly to total cycles;
* :class:`~repro.obs.sampler.TimeSeriesSampler` — periodic counter and
  HTAB occupancy/zombie snapshots on a simulated-time grid;
* :class:`~repro.check.sanitizer.Sanitizer` — the shadow-MMU coherence
  check on every served translation, attached when given a sweep
  cadence.

Two ways to turn them on:

* per simulator — ``Simulator(spec, config, trace=True, profile=True,
  sample_every_us=1000, sanitize=True)``;
* for every simulator a run builds — :func:`repro.analysis.engine.observe`
  opens the one process-wide scope (:func:`enable_global_observability`),
  runs the experiment, hands back the :class:`Observability` of every
  simulator it booted and closes the scope.  This is how ``repro run``,
  ``trace``, ``check`` and ``diff --variant`` watch experiment code they
  do not construct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.check.report import ViolationReporter
from repro.check.sanitizer import Sanitizer, check_sweep_every
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
    "TRACE_SAMPLE_US",
    "TimeSeriesSampler",
    "TraceConfig",
    "attach_observability",
    "chrome_trace",
    "disable_global_observability",
    "drain_global_observed",
    "enable_global_observability",
    "merge_attributions",
    "render_attribution",
    "validate_chrome_trace",
]

#: ``repro trace``'s and ``repro diff --variant``'s default
#: ``--sample-us``: the time-series sample interval, in simulated
#: microseconds, of a full-recorder run.
TRACE_SAMPLE_US = 1000.0


class Observability:
    """One machine's observers: tracer, profiler, sampler and sanitizer.

    ``sweep_every`` (periodic sweeps every N checked translations, 0 for
    none) attaches a sanitizer feeding ``reporter``; ``None`` attaches
    none.
    """

    def __init__(
        self,
        kernel: Any,
        trace: bool = False,
        profile: bool = True,
        sample_every_us: Optional[float] = None,
        trace_config: Optional[TraceConfig] = None,
        label: Optional[str] = None,
        sweep_every: Optional[int] = None,
        reporter: Optional[ViolationReporter] = None,
    ) -> None:
        machine = kernel.machine
        self.kernel = kernel
        self.machine = machine
        self.label = label if label is not None else machine.spec.name
        self.tracer: Optional[EventTracer] = None
        self.profiler: Optional[CycleProfiler] = None
        self.profilers: List[CycleProfiler] = []
        self.sampler: Optional[TimeSeriesSampler] = None
        self.sanitizer: Optional[Sanitizer] = None
        if sweep_every is not None:
            self.sanitizer = Sanitizer(
                kernel, reporter=reporter, sweep_every=sweep_every
            )
            # repro-lint: disable=zero-perturbation -- the sanctioned attach
            # point: installs the sanitizer on the machine's dedicated
            # observer slot.
            machine.sanitizer = self.sanitizer
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


@dataclass
class _Scope:
    """The process-wide observer options, open between enable/disable."""

    trace: bool
    profile: bool
    sample_every_us: Optional[float]
    trace_config: Optional[TraceConfig]
    sweep_every: Optional[int]
    reporter: Optional[ViolationReporter]
    observed: List[Observability] = field(default_factory=list)


_SCOPE: Optional[_Scope] = None


def enable_global_observability(
    trace: bool = False,
    profile: bool = True,
    sample_every_us: Optional[float] = None,
    trace_config: Optional[TraceConfig] = None,
    sweep_every: Optional[int] = None,
    reporter: Optional[ViolationReporter] = None,
) -> None:
    """Attach these observers to every subsequently-built Simulator.

    A ``sweep_every`` cadence adds a sanitizer to each, all feeding one
    ``reporter`` (a fresh one unless given).  A negative cadence raises
    :class:`~repro.errors.ConfigError` here, before any simulator boots.
    """
    global _SCOPE
    if sweep_every is not None:
        check_sweep_every(sweep_every)
        if reporter is None:
            reporter = ViolationReporter()
    _SCOPE = _Scope(
        trace, profile, sample_every_us, trace_config, sweep_every, reporter
    )


def disable_global_observability() -> None:
    global _SCOPE
    _SCOPE = None


def drain_global_observed() -> List[Observability]:
    """Hand over (and forget) the observers attached since enable."""
    if _SCOPE is None:
        return []
    observed = _SCOPE.observed
    _SCOPE.observed = []
    return observed


def attach_observability(
    kernel: Any,
    trace: bool = False,
    profile: bool = False,
    sample_every_us: Optional[float] = None,
    sanitize: bool = False,
) -> Optional[Observability]:
    """The observers one simulator asked for, joined with the scope's.

    Outside a scope an :class:`Observability` exists only if one was
    asked for; ``sanitize`` attaches a sanitizer with its own reporter
    and no periodic sweeps.  Inside one, every simulator gets the
    scope's observers plus the ones it asked for, and is registered for
    :func:`drain_global_observed`.
    """
    scope = _SCOPE
    if scope is None:
        if not (trace or profile or sanitize
                or sample_every_us is not None):
            return None
        # Nothing to inherit, and nobody drains it.
        scope = _Scope(False, False, None, None, None, None)
    sweep_every = scope.sweep_every
    if sweep_every is None and sanitize:
        sweep_every = 0
    observability = Observability(
        kernel,
        trace=trace or scope.trace,
        profile=profile or scope.profile,
        sample_every_us=(
            scope.sample_every_us if sample_every_us is None
            else sample_every_us
        ),
        trace_config=scope.trace_config,
        sweep_every=sweep_every,
        reporter=scope.reporter,
    )
    scope.observed.append(observability)
    return observability
