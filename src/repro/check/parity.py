"""Observed runs equal bare runs: the registry comparison.

The paper's counters come from a hardware monitor that counts beside
the code it measures.  The repro's observers make the same promise, and
this module checks it by running: one experiment bare, then under each
observer the CLI attaches, naming every output that differs.

The reference is a profile-only run.  The profiler reads the ledger
after the run and attaches no hook, so it is a bare run that keeps its
machines.  The observed modes are

* ``run`` — ``repro run``'s recorder (``engine.execute(derive=True)``);
* ``trace`` — ``repro trace``'s full recorder, monitor events on;
* ``check`` — ``repro check``'s sanitizer at its default sweep cadence,
  with the final stable sweep.

Each mode must give the reference's ``measured`` dict and report text,
and the same machines with the same cycle totals, attribution, monitor
counters and final hash-table histograms.  Where a mode keeps its
machines (all but ``run``), each simulator's cycle total and counters
must match too.  The sanitizer must also record no violation.

Kept out of :mod:`repro.check`'s ``__init__`` for the same reason as
:mod:`repro.check.runner`: it imports the experiment registry.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.analysis import engine
from repro.analysis.spec import ExperimentResult
from repro.check import (
    disable_global_sanitizer,
    drain_global_sanitizers,
    enable_global_sanitizer,
)
from repro.check.runner import DEFAULT_SWEEP_EVERY
from repro.obs import Observability, analytics
from repro.obs.metrics import json_safe
from repro.obs.session import run_observed

#: ``repro trace``'s default ``--sample-us``.
TRACE_SAMPLE_US = 1000.0

#: The observed modes, in the order :func:`compare` runs them.
MODES = ("run", "trace", "check")

#: The ``derived`` sections a profile-only run already has: no observer
#: may move them.
COMPARED = (
    "total_cycles", "machines", "simulators", "attribution", "counters",
    "histograms",
)


def _facts(
    result: ExperimentResult,
    observed: Optional[Sequence[Observability]] = None,
) -> Dict[str, object]:
    """The outputs no observer may move.

    ``observed`` holds the run's recorders.  ``repro run``'s recorder
    keeps none, so its run stands on the ``derived`` block the engine
    attached.
    """
    derived = (
        result.derived if observed is None else analytics.derive(observed)
    )
    facts: Dict[str, object] = {
        "measured": result.measured, "report": result.report,
    }
    for key in COMPARED:
        facts[key] = derived.get(key)
    if observed is not None:
        facts["per_simulator"] = [
            (o.machine.total_cycles_all_cpus(), o.machine.monitor_totals())
            for o in observed
        ]
    # The round trip the engine gives ``measured``: compare values, not
    # tuple-versus-list spellings of them.
    return json.loads(json.dumps(json_safe(facts)))


def _observe(
    experiment_id: str, mode: str, params: Optional[Dict]
) -> Dict[str, object]:
    """One run of ``experiment_id``: its outputs under ``mode``.

    ``mode`` is one of :data:`MODES`, or ``"bare"`` for the profile-only
    reference.  A ``check`` run adds its ``violations`` count.
    """
    if mode == "run":
        result = engine.execute(
            engine.spec_for(experiment_id), params, derive=True
        )
        return _facts(result)
    if mode == "trace":
        observed = run_observed(
            experiment_id, trace=True, sample_every_us=TRACE_SAMPLE_US,
            params=params,
        )
        return _facts(observed.result, observed.observed)
    if mode == "check":
        reporter = enable_global_sanitizer(sweep_every=DEFAULT_SWEEP_EVERY)
        try:
            observed = run_observed(experiment_id, params=params)
            for sanitizer in drain_global_sanitizers():
                sanitizer.sweep(stable=True)
        finally:
            disable_global_sanitizer()
        facts = _facts(observed.result, observed.observed)
        facts["violations"] = reporter.total
        return facts
    observed = run_observed(experiment_id, params=params)
    return _facts(observed.result, observed.observed)


def compare(
    experiment_id: str, params: Optional[Dict] = None
) -> Dict[str, List[str]]:
    """``{mode: [outputs that differ from the bare run]}`` for every mode.

    Every list is empty when the observers left the run untouched.
    """
    reference = _observe(experiment_id, "bare", params)
    out: Dict[str, List[str]] = {}
    for mode in MODES:
        facts = _observe(experiment_id, mode, params)
        out[mode] = [
            key for key in reference
            if key in facts and facts[key] != reference[key]
        ]
        if facts.get("violations"):
            out[mode].append("violations")
    return out
