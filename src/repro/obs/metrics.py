"""Machine-readable metrics: one serialization for every consumer.

``repro run --json``, ``repro check --json`` and the bench doc that
``repro run --bench-out`` writes all flow through here, so a run is
diffable mechanically.  Records and bench docs are deterministic end
to end: no wall-clock values anywhere, keys sorted at serialization
time — host time is measured by ``perfbench/`` alone.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Dict, List

from repro.analysis.spec import CLAIM_FIELDS, STATUSES

#: Schema version for bench-doc consumers.  v2: records are
#: emitted in sorted_ids() order under a ``schema_version`` field, and
#: an optional ``timings`` section carries wall seconds per experiment
#: (the one part of the document exempt from determinism — two
#: otherwise-identical runs differ only there).  v3: every record
#: carries the observatory's ``derived`` analytics block, and documents
#: are checked by :func:`validate_bench_doc` before they are written or
#: compared.  v4: one record builder for every producer — each record
#: carries ``total_cycles``/``machine``/``simulators``/``attribution``
#: (previously dropped by the engine's builder, which made
#: ``summary.total_cycles`` always 0) plus the spec's ``section`` and
#: ``variants``, and the validator rejects records whose
#: ``total_cycles`` is missing or non-positive.  v5: no ``timings``
#: section — the document is deterministic end to end, so the sentinel
#: compares every leaf exactly — and every record's ``total_cycles``
#: must equal its ``derived.total_cycles`` and its attribution's sum.
#: v6: ``claims`` replaces ``paper`` — one record per paper claim
#: (name, source, kind, paper, measured, gate, status, reason).
BENCH_SCHEMA = 6


def json_safe(value: Any) -> Any:
    """Coerce a measured-values structure into JSON-serializable form."""
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        # NaN/inf are not valid JSON; stringify the rare pathological case.
        return value if value == value and abs(value) != float("inf") else str(value)
    return str(value)


def experiment_record(result: Any, spec: Any) -> Dict:
    """One structured record for an :class:`ExperimentResult`.

    The *only* bench-record builder, reached through
    :func:`repro.analysis.engine.result_record`: ``repro run --json``,
    ``repro run --bench-out`` and ``repro profile`` all render the
    records it builds, so every record carries the same field set
    (:data:`RECORD_REQUIRED`).

    Total cycles, machines, simulator count and the cycle attribution
    are lifted from the result's ``derived`` block, which sums every
    CPU's ledger and profiler.  ``spec`` supplies the registry metadata
    (section, variants) the result itself does not carry.
    """
    block = json_safe(result.derived)
    machines = list(block.get("machines", []))
    record = {
        "id": result.experiment,
        "title": result.title,
        "machine": ", ".join(machines),
        "machines": machines,
        "simulators": block.get("simulators", 0),
        "total_cycles": block.get("total_cycles", 0),
        "shape_holds": result.shape_holds,
        "measured": json_safe(result.measured),
        "claims": json_safe(result.claims),
        "attribution": dict(block.get("attribution", {}).get("cycles", {})),
        "derived": block,
        "section": spec.section,
        "variants": [variant.label for variant in spec.variants],
    }
    if result.notes:
        record["notes"] = result.notes
    return record


def dumps(record: Any) -> str:
    """The one true serialization: sorted keys, stable indentation."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


# -- the bench doc ----------------------------------------------------------


def bench_doc(records: List[Dict]) -> Dict:
    """The bench document for a list of records in registry order.

    ``repro run --bench-out`` is its one producer, as ``source`` says.
    """
    return {
        "schema_version": BENCH_SCHEMA,
        "source": "python -m repro run --bench-out",
        "experiments": records,
        "summary": {
            "experiments": len(records),
            "shapes_holding": sum(
                1 for record in records if record.get("shape_holds")
            ),
            "total_cycles": sum(
                record.get("total_cycles", 0) for record in records
            ),
        },
    }


#: Keys every bench record must carry — every producer funnels through
#: :func:`experiment_record`, and :func:`validate_bench_doc` rejects a
#: record missing any of them.
RECORD_REQUIRED = ("id", "title", "machines", "total_cycles",
                   "shape_holds", "measured", "claims", "attribution",
                   "derived")

_RECORD_ID = re.compile(r"^E\d+$")


def validate_bench_doc(doc: Any) -> Dict[str, int]:
    """Check a document is a well-formed bench doc.

    The bench-doc counterpart of
    :func:`repro.obs.events.validate_chrome_trace`: raises
    :class:`ValueError` on the first malformed section — including a
    ``schema_version`` skew, which would otherwise surface as a
    nonsense diff in ``repro bench compare`` — and returns summary
    counts so callers can also assert non-emptiness.
    """
    if not isinstance(doc, dict) or "experiments" not in doc:
        raise ValueError("not a bench doc: missing 'experiments'")
    version = doc.get("schema_version")
    if version != BENCH_SCHEMA:
        raise ValueError(
            f"bench doc schema_version {version!r} != supported "
            f"{BENCH_SCHEMA}; regenerate the artifact"
        )
    records = doc["experiments"]
    if not isinstance(records, list):
        raise ValueError("'experiments' must be a list")
    counts = {"experiments": 0, "shapes_holding": 0, "derived": 0}
    previous = 0
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"record {index} is not an object")
        for key in RECORD_REQUIRED:
            if key not in record:
                raise ValueError(
                    f"record {index} missing {key!r}: "
                    f"{sorted(record)}"
                )
        record_id = record["id"]
        if not isinstance(record_id, str) or not _RECORD_ID.match(record_id):
            raise ValueError(f"record {index} has bad id: {record_id!r}")
        number = int(record_id[1:])
        if number <= previous:
            raise ValueError(
                f"records out of registry order at {record_id} "
                f"(after E{previous})"
            )
        previous = number
        if not isinstance(record["shape_holds"], bool):
            raise ValueError(f"{record_id}: shape_holds must be a bool")
        cycles = record["total_cycles"]
        if not isinstance(cycles, int) or isinstance(cycles, bool) \
                or cycles <= 0:
            raise ValueError(
                f"{record_id}: total_cycles must be a positive int, got "
                f"{cycles!r} (a record that simulated nothing is a "
                "producer bug, and summary.total_cycles would be "
                "silently understated)"
            )
        for key in ("measured", "attribution", "derived"):
            if not isinstance(record[key], dict):
                raise ValueError(f"{record_id}: {key!r} must be an object")
        _validate_claims(record_id, record["claims"])
        if not isinstance(record["machines"], list):
            raise ValueError(f"{record_id}: 'machines' must be a list")
        attributed = list(record["attribution"].values())
        if not all(isinstance(value, int) for value in attributed):
            raise ValueError(f"{record_id}: attribution values must be ints")
        derived_cycles = record["derived"].get("total_cycles")
        if not cycles == derived_cycles == sum(attributed):
            raise ValueError(
                f"{record_id}: total_cycles {cycles} must equal "
                f"derived.total_cycles {derived_cycles!r} and the "
                f"attribution's sum {sum(attributed)} (a total that "
                "misses a CPU's ledger is a producer bug)"
            )
        counts["experiments"] += 1
        counts["shapes_holding"] += 1 if record["shape_holds"] else 0
        counts["derived"] += 1 if record["derived"] else 0
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        raise ValueError("bench doc missing 'summary' object")
    for key, expected in (
        ("experiments", counts["experiments"]),
        ("shapes_holding", counts["shapes_holding"]),
    ):
        if summary.get(key) != expected:
            raise ValueError(
                f"summary.{key} = {summary.get(key)!r} does not match "
                f"the records ({expected})"
            )
    total = sum(record["total_cycles"] for record in records)
    if summary.get("total_cycles") != total:
        raise ValueError(
            f"summary.total_cycles = {summary.get('total_cycles')!r} "
            f"does not match the records ({total})"
        )
    return counts


def _validate_claims(record_id: str, claims: Any) -> None:
    """Each claim is complete, has a known status, and a gate or a reason."""
    if not isinstance(claims, list):
        raise ValueError(f"{record_id}: 'claims' must be a list")
    for index, claim in enumerate(claims):
        if not isinstance(claim, dict):
            raise ValueError(f"{record_id}: claim {index} is not an object")
        missing = [key for key in CLAIM_FIELDS if key not in claim]
        name = claim.get("name", index)
        if missing:
            raise ValueError(f"{record_id}: claim {name!r} missing {missing}")
        if claim["status"] not in STATUSES:
            raise ValueError(
                f"{record_id}: claim {name!r} has unknown status "
                f"{claim['status']!r}"
            )
        if not claim["gate"] and not claim["reason"]:
            raise ValueError(
                f"{record_id}: claim {name!r} has neither a gate nor a reason"
            )


def load_bench_doc(path: Any) -> Dict:
    """Read and validate a bench artifact (the compare/report input)."""
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    try:
        validate_bench_doc(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return doc
