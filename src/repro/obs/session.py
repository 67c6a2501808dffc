"""Run one experiment under the flight recorder, keeping its handles.

Experiments construct their own Simulators internally, so observing one
means enabling the global recorder around the registry call and draining
the handles afterwards — the same shape as ``repro.check.runner``.
This is for the callers that need the live handles: ``repro trace``,
``repro diff --variant`` and the registry comparison
(:mod:`repro.check.parity`).  Records come from the engine alone
(:func:`repro.analysis.engine.result_record`).

Kept out of ``repro.obs.__init__`` on purpose: this module imports the
experiment registry, which imports the simulator, which imports the
``obs`` package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis import engine, specs
from repro.analysis.spec import ExperimentResult
from repro.obs import (
    Observability,
    TraceConfig,
    chrome_trace,
    disable_global_observability,
    drain_global_observed,
    enable_global_observability,
)


@dataclass
class ObservedExperiment:
    """An experiment's result plus the recorders that watched it run."""

    experiment: str
    result: ExperimentResult
    observed: List[Observability] = field(default_factory=list)

    def chrome_trace(self) -> Dict:
        tracers = [obs.tracer for obs in self.observed if obs.tracer is not None]
        return chrome_trace(
            tracers,
            other_data={
                "experiment": self.experiment,
                "title": self.result.title,
                "dropped_events": sum(t.dropped for t in tracers),
            },
        )


def run_observed(
    experiment_id: str,
    trace: bool = False,
    sample_every_us: Optional[float] = None,
    trace_config: Optional[TraceConfig] = None,
    params: Optional[Dict[str, object]] = None,
) -> ObservedExperiment:
    """Run one registry experiment with the global recorder enabled.

    ``params`` override the spec's workload parameters, as in
    :func:`engine.execute`.
    """
    if experiment_id not in specs.SPECS:
        raise KeyError(f"unknown experiment: {experiment_id}")
    enable_global_observability(
        trace=trace,
        profile=True,
        sample_every_us=sample_every_us,
        trace_config=trace_config,
    )
    try:
        result = engine.execute(specs.SPECS[experiment_id], params)
        observed = drain_global_observed()
    finally:
        disable_global_observability()
    return ObservedExperiment(
        experiment=experiment_id, result=result, observed=observed
    )
