"""The longitudinal bench ledger: ``BENCH_history.jsonl``.

The paper's method is longitudinal by nature — §3-§4 measure one
optimization at a time and attribute every win against the run before
it.  This module gives the reproduction the same memory: an
append-only JSON-lines ledger where each line is one schema-validated
run record (git provenance, per-experiment total cycles and
attribution, derived headline metrics, the sentinel's verdict),
written by ``repro bench append`` after a run and read back by
``repro trend`` to compute per-PR deltas.

Every field of an entry is byte-deterministic for a given bench doc:
host time is ``perfbench/``'s to measure.  Entries appended before
bench schema 5 carry a ``wall`` section of host seconds; the
validator still type-checks it so those lines load, but nothing reads
it.  Entries are serialized as one compact, key-sorted JSON line each,
so the ledger diffs line-per-run in review.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Dict, List, Optional

from repro.obs import metrics

#: Ledger entry schema version.
HISTORY_SCHEMA = 1

#: Bench-record fields copied verbatim into each entry's per-experiment
#: sub-record (each one of :data:`repro.obs.metrics.RECORD_REQUIRED`).
RECORD_FIELDS = ("total_cycles", "shape_holds", "attribution")

#: Derived headline metrics summarized per experiment (the trend
#: table's columns).  Each is computed by :func:`headline` from the
#: record's ``derived`` block; absent sections yield ``None``.
HEADLINE_FIELDS = ("top_category", "top_share", "reload_p99", "tlb_miss")

_ENTRY_ID = re.compile(r"^E\d+$")


def headline(record: Dict) -> Dict[str, object]:
    """The derived headline metrics for one bench record."""
    derived = record.get("derived", {})
    attribution = derived.get("attribution", {})
    top = attribution.get("top")
    shares = attribution.get("shares", {})
    reload_path = derived.get("reload", {})
    counters = derived.get("counters", {})
    return {
        "top_category": top,
        "top_share": shares.get(top) if top is not None else None,
        "reload_p99": reload_path.get("p99"),
        "tlb_miss": counters.get("tlb_miss"),
    }


def entry_from_doc(
    doc: Dict,
    label: Optional[str] = None,
    sha: Optional[str] = None,
    parent: Optional[str] = None,
    verdict: Optional[Dict] = None,
) -> Dict:
    """Build one ledger entry from a validated bench doc.

    ``sha``/``parent`` record the git revision the run measured (and
    its parent, so a trend consumer can order or cross-check entries);
    ``verdict`` is the sentinel's record (``repro bench compare
    --json``/``--out`` output) when the run was gated.  The entry is
    validated before it is returned.
    """
    metrics.validate_bench_doc(doc)
    experiments: Dict[str, Dict] = {}
    for record in doc["experiments"]:
        sub: Dict[str, object] = {
            field: record[field] for field in RECORD_FIELDS
        }
        sub["headline"] = headline(record)
        experiments[record["id"]] = sub
    entry = {
        "schema_version": HISTORY_SCHEMA,
        "bench_schema": doc["schema_version"],
        "label": label,
        "git": {"sha": sha, "parent": parent},
        "experiments": experiments,
        "summary": {
            "experiments": len(experiments),
            "shapes_holding": sum(
                1 for sub in experiments.values() if sub["shape_holds"]
            ),
            "total_cycles": sum(
                sub["total_cycles"] for sub in experiments.values()
            ),
        },
        "verdict": _verdict_summary(verdict),
    }
    validate_history_entry(entry)
    return entry


def _verdict_summary(verdict: Optional[Dict]) -> Optional[Dict]:
    """The gate-relevant slice of a sentinel verdict record."""
    if verdict is None:
        return None
    return {
        "ok": bool(verdict.get("ok")),
        "regressions": int(verdict.get("regressions", 0)),
    }


def validate_history_entry(entry: Any) -> Dict[str, int]:
    """Check one ledger entry is well-formed.

    The ledger counterpart of
    :func:`repro.obs.metrics.validate_bench_doc`: raises
    :class:`ValueError` on the first malformed section and returns
    summary counts so callers can assert non-emptiness.
    """
    if not isinstance(entry, dict) or "experiments" not in entry:
        raise ValueError("not a history entry: missing 'experiments'")
    version = entry.get("schema_version")
    if version != HISTORY_SCHEMA:
        raise ValueError(
            f"history entry schema_version {version!r} != supported "
            f"{HISTORY_SCHEMA}"
        )
    bench_schema = entry.get("bench_schema")
    if not isinstance(bench_schema, int) or isinstance(bench_schema, bool):
        raise ValueError("history entry needs an int 'bench_schema'")
    git = entry.get("git")
    if not isinstance(git, dict) or "sha" not in git:
        raise ValueError("history entry needs a 'git' object with 'sha'")
    experiments = entry["experiments"]
    if not isinstance(experiments, dict) or not experiments:
        raise ValueError("'experiments' must be a non-empty object")
    counts = {"experiments": 0, "shapes_holding": 0, "total_cycles": 0}
    for key in experiments:
        if not isinstance(key, str) or not _ENTRY_ID.match(key):
            raise ValueError(f"bad experiment id in entry: {key!r}")
        sub = experiments[key]
        if not isinstance(sub, dict):
            raise ValueError(f"{key}: entry sub-record must be an object")
        for field in RECORD_FIELDS + ("headline",):
            if field not in sub:
                raise ValueError(f"{key}: sub-record missing {field!r}")
        cycles = sub["total_cycles"]
        if not isinstance(cycles, int) or isinstance(cycles, bool) \
                or cycles <= 0:
            raise ValueError(
                f"{key}: total_cycles must be a positive int, got "
                f"{cycles!r}"
            )
        if not isinstance(sub["shape_holds"], bool):
            raise ValueError(f"{key}: shape_holds must be a bool")
        if not isinstance(sub["attribution"], dict):
            raise ValueError(f"{key}: attribution must be an object")
        head = sub["headline"]
        if not isinstance(head, dict):
            raise ValueError(f"{key}: headline must be an object")
        for field in HEADLINE_FIELDS:
            if field not in head:
                raise ValueError(f"{key}: headline missing {field!r}")
        counts["experiments"] += 1
        counts["shapes_holding"] += 1 if sub["shape_holds"] else 0
        counts["total_cycles"] += cycles
    summary = entry.get("summary")
    if not isinstance(summary, dict):
        raise ValueError("history entry missing 'summary' object")
    for field, expected in sorted(counts.items()):
        if summary.get(field) != expected:
            raise ValueError(
                f"summary.{field} = {summary.get(field)!r} does not "
                f"match the experiments ({expected})"
            )
    # Legacy (pre-schema-5) entries carry host seconds; check, never read.
    wall = entry.get("wall", {})
    if not isinstance(wall, dict):
        raise ValueError("a legacy 'wall' section must be an object")
    for key in sorted(wall):
        value = wall[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value < 0:
            raise ValueError(f"wall[{key!r}] is not a wall time: {value!r}")
    verdict = entry.get("verdict")
    if verdict is not None and (
        not isinstance(verdict, dict) or "ok" not in verdict
    ):
        raise ValueError("'verdict' must be null or an object with 'ok'")
    return counts


def dumps_entry(entry: Dict) -> str:
    """One compact, key-sorted JSON line (the ledger's record format)."""
    return json.dumps(
        entry, sort_keys=True, separators=(",", ":")
    ) + "\n"


def append_entry(path: Any, entry: Dict) -> int:
    """Validate and append one entry line; returns the new entry count.

    Append-only by construction: existing lines are never rewritten,
    so a ledger only ever grows and its git diff is the new line.
    """
    validate_history_entry(entry)
    path = pathlib.Path(path)
    existing = load_history(path) if path.exists() else []
    with open(path, "a") as handle:
        handle.write(dumps_entry(entry))
    return len(existing) + 1


def load_history(path: Any) -> List[Dict]:
    """Every entry of a ledger file, validated, in append order."""
    path = pathlib.Path(path)
    entries: List[Dict] = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: not JSON: {exc}") from exc
        try:
            validate_history_entry(entry)
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from exc
        entries.append(entry)
    return entries
