"""Drive the experiment registry with the sanitizer enabled.

``run_checked`` wraps each registered experiment in a reporter context
and runs it through :func:`repro.analysis.engine.observe` with a sweep
cadence, so every Simulator the experiment builds attaches a sanitizer
and ends with a stable full sweep.  This is the engine behind
``python -m repro check``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.analysis import engine, specs
from repro.check.report import ViolationReporter
from repro.check.sanitizer import DEFAULT_SWEEP_EVERY, check_sweep_every


@dataclass
class ExperimentCheck:
    """Outcome of one experiment run under the sanitizer."""

    experiment: str
    shape_holds: bool
    violations: int
    seconds: float
    machines: int
    translations: int


@dataclass
class CheckRun:
    """Aggregate of a full sanitizer run."""

    reporter: ViolationReporter
    results: List[ExperimentCheck] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return self.reporter.total

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def report(self) -> str:
        lines = []
        for r in self.results:
            status = "ok" if r.violations == 0 else f"{r.violations} VIOLATIONS"
            lines.append(
                f"  {r.experiment:<4} {status:<15} "
                f"{r.translations:>12,} translations checked  "
                f"({r.machines} machine(s), {r.seconds:6.1f}s)"
            )
        lines.append(self.reporter.summary())
        return "\n".join(lines)

    def to_record(self) -> dict:
        """Machine-readable form for ``repro check --json``.

        Wall-clock seconds are deliberately omitted so two identical
        runs serialize identically (the JSON is meant to be diffed).
        """
        return {
            "ok": self.ok,
            "total_violations": self.total_violations,
            "experiments": [
                {
                    "id": r.experiment,
                    "shape_holds": r.shape_holds,
                    "violations": r.violations,
                    "machines": r.machines,
                    "translations": r.translations,
                }
                for r in self.results
            ],
            "violations": self.reporter.to_record(),
        }


def run_checked(
    ids: Optional[Sequence[str]] = None,
    sweep_every: int = DEFAULT_SWEEP_EVERY,
    progress: Optional[Callable[[str], None]] = None,
) -> CheckRun:
    """Run experiments (all by default) with the sanitizer attached.

    Each experiment gets its own reporter context so the summary breaks
    violations down per experiment.  ``sweep_every`` sets the periodic
    mid-run sweep cadence (in checked translations); a stable full sweep
    always runs at the end of each experiment.
    """
    check_sweep_every(sweep_every)
    if ids is None:
        ids = specs.sorted_ids()
    reporter = ViolationReporter()
    run = CheckRun(reporter)
    for experiment_id in ids:
        spec = engine.spec_for(experiment_id)
        if progress is not None:
            progress(spec.id)
        reporter.begin_context(spec.id)
        before = reporter.total
        start = time.monotonic()
        result, handles = engine.observe(
            spec, profile=False, sweep_every=sweep_every, reporter=reporter
        )
        run.results.append(
            ExperimentCheck(
                experiment=spec.id,
                shape_holds=result.shape_holds,
                violations=reporter.total - before,
                seconds=time.monotonic() - start,
                machines=len(handles),
                translations=sum(
                    handle.sanitizer.translations_checked
                    for handle in handles if handle.sanitizer is not None
                ),
            )
        )
        reporter.end_context()
    return run
