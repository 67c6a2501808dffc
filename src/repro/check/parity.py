"""Observed runs equal bare runs: the registry comparison.

The paper's counters come from a hardware monitor that counts beside
the code it measures.  The repro's observers make the same promise, and
this module checks it by running: one experiment bare, then under each
observer the CLI attaches, naming every output that differs.

The reference is a profile-only run.  The profiler reads the ledger
after the run and attaches no hook, so it is a bare run that keeps its
machines.  The observed modes (:data:`MODES`, each a set of
:func:`repro.analysis.engine.observe` options) are

* ``run`` — ``repro run``'s recorder (:data:`engine.DERIVE_OPTIONS`);
* ``trace`` — ``repro trace``'s full recorder, monitor events on;
* ``check`` — ``repro check``'s sanitizer at its default sweep cadence,
  with the final stable sweep.

Each mode must give the reference's ``measured`` dict and report text,
and the same machines with the same cycle totals, attribution, monitor
counters and final hash-table histograms, simulator by simulator.  The
sanitizer must also record no violation.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis import engine
from repro.analysis.spec import ExperimentResult
from repro.check.sanitizer import DEFAULT_SWEEP_EVERY
from repro.obs import TRACE_SAMPLE_US, Observability, analytics
from repro.obs.metrics import json_safe

#: The observed modes, in the order :func:`compare` runs them, with the
#: observer options each runs under.
MODES: Dict[str, Dict[str, Any]] = {
    "run": engine.DERIVE_OPTIONS,
    "trace": {"trace": True, "sample_every_us": TRACE_SAMPLE_US},
    "check": {"sweep_every": DEFAULT_SWEEP_EVERY},
}

#: The ``derived`` sections a profile-only run already has: no observer
#: may move them.
COMPARED = (
    "total_cycles", "machines", "simulators", "attribution", "counters",
    "histograms",
)


def _facts(
    result: ExperimentResult, observed: Sequence[Observability]
) -> Dict[str, object]:
    """The outputs no observer may move."""
    derived = analytics.derive(observed)
    facts: Dict[str, object] = {
        "measured": result.measured, "report": result.report,
    }
    for key in COMPARED:
        facts[key] = derived.get(key)
    facts["per_simulator"] = [
        (o.machine.total_cycles_all_cpus(), o.machine.monitor_totals())
        for o in observed
    ]
    # The round trip the engine gives ``measured``: compare values, not
    # tuple-versus-list spellings of them.
    return json.loads(json.dumps(json_safe(facts)))


def _observe(
    experiment_id: str, options: Dict[str, Any], params: Optional[Dict]
) -> Dict[str, object]:
    """One run of ``experiment_id`` under ``options``: its outputs.

    A sanitized run adds its ``violations`` count.
    """
    result, observed = engine.observe(
        engine.spec_for(experiment_id), params, **options
    )
    facts = _facts(result, observed)
    sanitizers = [o.sanitizer for o in observed if o.sanitizer is not None]
    if sanitizers:
        # One reporter is shared by every sanitizer of the run.
        facts["violations"] = sanitizers[0].reporter.total
    return facts


def compare(
    experiment_id: str, params: Optional[Dict] = None
) -> Dict[str, List[str]]:
    """``{mode: [outputs that differ from the bare run]}`` for every mode.

    Every list is empty when the observers left the run untouched.
    """
    reference = _observe(experiment_id, {}, params)
    out: Dict[str, List[str]] = {}
    for mode, options in MODES.items():
        facts = _observe(experiment_id, options, params)
        out[mode] = [
            key for key in reference
            if key in facts and facts[key] != reference[key]
        ]
        if facts.get("violations"):
            out[mode].append("violations")
    return out
