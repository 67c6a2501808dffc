"""repro-lint: domain-aware static analysis (DESIGN.md §8).

The repo stakes hard guarantees on *disciplines*: traced runs are
bit-identical to untraced ones, the profiler's attribution sums exactly
to the ledger, the lazy-flush protocol never serves a stale
translation.  Runs check them on the paths they execute (DESIGN.md
§12), and so do the name registries: the profiler, the tracer and
``derive`` each reject a name their registry lacks.  This package
checks, one file at a time and at the line that introduces a
violation, the local disciplines those guarantees rest on:
determinism (unseeded randomness, wall-clock reads, set-iteration
order), layering, the zero-perturbation observer contract, hook-guard
discipline, error discipline and geometry literals.

Run it with ``python -m repro lint`` (``--list-rules`` for the
catalog).  Silence a finding only with a justified inline pragma:
``# repro-lint: disable=<rule> -- <justification>``.
"""

from __future__ import annotations

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
    "Finding",
    "KNOWN_RULE_IDS",
    "LintEngine",
    "LintResult",
    "rule_catalog",
]
