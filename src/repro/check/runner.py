"""Drive the experiment registry with the sanitizer enabled.

``run_checked`` wraps each registered experiment in a reporter context,
lets every Simulator the experiment builds auto-attach a sanitizer via
the global-check hook, and finishes each experiment with a stable full
sweep of every machine it created.  This is the engine behind
``python -m repro check``.

Kept out of :mod:`repro.check`'s ``__init__`` on purpose: importing the
experiment registry here would cycle back through the simulator into the
check package.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.analysis import engine, specs
from repro.check import (
    disable_global_sanitizer,
    drain_global_sanitizers,
    enable_global_sanitizer,
)
from repro.check.report import ViolationReporter

#: ``repro check``'s periodic sweep cadence, in checked translations.
DEFAULT_SWEEP_EVERY = 50_000


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
    if ids is None:
        ids = specs.sorted_ids()
    reporter = enable_global_sanitizer(sweep_every=sweep_every)
    run = CheckRun(reporter)
    try:
        for experiment_id in ids:
            key = experiment_id.upper()
            if key not in specs.SPECS:
                raise KeyError(experiment_id)
            if progress is not None:
                progress(key)
            reporter.begin_context(key)
            before = reporter.total
            start = time.monotonic()
            result = engine.execute(specs.SPECS[key])
            sanitizers = drain_global_sanitizers()
            translations = 0
            for sanitizer in sanitizers:
                sanitizer.sweep(stable=True)
                translations += sanitizer.translations_checked
            run.results.append(
                ExperimentCheck(
                    experiment=key,
                    shape_holds=result.shape_holds,
                    violations=reporter.total - before,
                    seconds=time.monotonic() - start,
                    machines=len(sanitizers),
                    translations=translations,
                )
            )
            reporter.end_context()
    finally:
        disable_global_sanitizer()
    return run
