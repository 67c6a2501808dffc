"""repro-lint: domain-aware static analysis (DESIGN.md "lint").

The repo stakes hard guarantees on *disciplines* — traced runs are
bit-identical to untraced ones, the profiler's attribution sums exactly
to the ledger, the lazy-flush protocol never serves a stale
translation.  Every one of those was enforced only at runtime, on the
paths a test happened to exercise.  This package enforces them at the
line that introduces a violation, on every line:

* per-file rules — determinism (unseeded randomness, wall-clock reads,
  set-iteration order), layering, the zero-perturbation observer
  contract, hook-guard discipline, error discipline;
* closure passes — ledger categories vs the profiler taxonomy, event
  names vs the ``obs/events.py`` registry, invariants vs the
  ``full_sweep`` suite, experiment specs vs their benchmark consumers
  and EXPERIMENTS.md rows.

Run it with ``python -m repro lint`` (``--list-rules`` for the
catalog).  Suppress a finding inline with
``# repro-lint: disable=<rule> -- <justification>`` or grandfather it
in the committed ``lint-baseline.json``.
"""

from __future__ import annotations

from repro.lint.baseline import BASELINE_NAME, Baseline
from repro.lint.engine import (
    ALL_RULES,
    KNOWN_RULE_IDS,
    LintEngine,
    LintResult,
    rule_catalog,
)
from repro.lint.findings import Finding

__all__ = [
    "ALL_RULES",
    "BASELINE_NAME",
    "Baseline",
    "Finding",
    "KNOWN_RULE_IDS",
    "LintEngine",
    "LintResult",
    "rule_catalog",
]
