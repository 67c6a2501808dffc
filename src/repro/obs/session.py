"""Run one experiment under the flight recorder.

Experiments construct their own Simulators internally, so observing one
means enabling the global recorder around the registry call and draining
the handles afterwards — the same shape as ``repro.check.runner``.

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
    analytics,
    chrome_trace,
    disable_global_observability,
    drain_global_observed,
    enable_global_observability,
)
from repro.obs.metrics import experiment_record


@dataclass
class ObservedExperiment:
    """An experiment's result plus the recorders that watched it run."""

    experiment: str
    result: ExperimentResult
    observed: List[Observability] = field(default_factory=list)

    def record(self) -> Dict:
        """The bench record, with every CPU's cycles counted.

        Totals, machines and attribution come from the result's
        ``derived`` block, or — for a run the engine did not derive —
        from :func:`analytics.derive` over the drained handles.
        """
        return experiment_record(
            self.result, specs.SPECS[self.experiment],
            derived=self.result.derived or analytics.derive(self.observed),
        )

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
