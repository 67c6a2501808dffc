"""Machine-readable metrics: one serialization for every consumer.

``repro run --json``, ``repro check --json``, the benchmark suite's
per-experiment records and the repo-root ``BENCH_results.json``
aggregate all flow through here, so a run is diffable mechanically —
the ISSUE's "perf trajectory" artifact.  Records are deterministic:
no wall-clock timestamps, keys sorted at serialization time.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import analytics

#: Schema version for BENCH_results.json consumers.  v2: records are
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
#: ``total_cycles`` is missing or non-positive.
BENCH_SCHEMA = 4


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


def experiment_record(result: Any, observed: Sequence[Any] = (),
                      spec: Any = None) -> Dict:
    """One structured record for an :class:`ExperimentResult`.

    The *only* bench-record builder: the benchmark suite (live
    ``observed`` handles), the engine's cached path (``spec`` only) and
    the obs session all funnel through here, so every record carries
    the same field set (:data:`RECORD_REQUIRED`) and
    ``summary.total_cycles`` aggregates something real on every path.

    ``observed`` is the list of :class:`~repro.obs.Observability`
    handles drained from the run (one per machine the experiment
    booted); when absent, total cycles, machines, simulator count and
    the cycle attribution are lifted from the result's ``derived``
    block (the engine always attaches one).  ``spec`` supplies the
    registry metadata (section, variants) the result itself does not
    carry; callers that can reach the registry pass it.
    """
    observed = list(observed)
    derived = json_safe(
        result.derived if getattr(result, "derived", None)
        else analytics.derive(observed)
    )
    if observed:
        machines: List[str] = []
        for obs in observed:
            name = obs.machine.spec.name
            if name not in machines:
                machines.append(name)
        total_cycles = sum(obs.machine.clock.total for obs in observed)
        simulators = len(observed)
        attribution: Dict[str, int] = {}
        for obs in observed:
            if obs.profiler is None:
                continue
            for category, cycles in obs.profiler.attribution().items():
                attribution[category] = attribution.get(category, 0) + cycles
    else:
        machines = list(derived.get("machines", []))
        if not machines and spec is not None:
            machines = spec.machine_names()
        total_cycles = derived.get("total_cycles", 0)
        simulators = derived.get("simulators", 0)
        attribution = dict(derived.get("attribution", {}).get("cycles", {}))
    record = {
        "id": result.experiment,
        "title": result.title,
        "machine": ", ".join(machines),
        "machines": machines,
        "simulators": simulators,
        "total_cycles": total_cycles,
        "shape_holds": result.shape_holds,
        "measured": json_safe(result.measured),
        "paper": json_safe(result.paper),
        "attribution": attribution,
        "derived": derived,
    }
    if spec is not None:
        record["section"] = spec.section
        record["variants"] = [variant.label for variant in spec.variants]
    if result.notes:
        record["notes"] = result.notes
    return record


def dumps(record: Any) -> str:
    """The one true serialization: sorted keys, stable indentation."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


# -- BENCH_results.json aggregation ----------------------------------------

_RECORD_NAME = re.compile(r"^E(\d+)\.json$")


def collect_bench_records(reports_dir: Any) -> List[Dict]:
    """Load every per-experiment JSON record under ``reports_dir``."""
    reports_dir = pathlib.Path(reports_dir)
    found = []
    for path in reports_dir.glob("E*.json"):
        match = _RECORD_NAME.match(path.name)
        if match is None:
            continue
        found.append((int(match.group(1)), json.loads(path.read_text())))
    return [record for _number, record in sorted(found, key=lambda x: x[0])]


def bench_doc(
    records: List[Dict],
    source: str = "benchmarks/reports/*.json "
                  "(regenerated by the benchmark suite)",
    timings: Optional[Dict[str, float]] = None,
) -> Dict:
    """The BENCH_results.json document for a list of records.

    ``records`` must already be in registry order; ``timings`` maps
    experiment id to wall seconds and is the only nondeterministic
    section of the document.
    """
    doc = {
        "schema_version": BENCH_SCHEMA,
        "source": source,
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
    if timings is not None:
        doc["timings"] = {
            key: round(value, 3) for key, value in sorted(timings.items())
        }
    return doc


#: Keys every bench record must carry — every producer funnels through
#: :func:`experiment_record`, and :func:`validate_bench_doc` rejects a
#: record missing any of them.
RECORD_REQUIRED = ("id", "title", "machines", "total_cycles",
                   "shape_holds", "measured", "paper", "attribution",
                   "derived")

_RECORD_ID = re.compile(r"^E\d+$")


def validate_bench_doc(doc: Any) -> Dict[str, int]:
    """Check a document is a well-formed BENCH_results.json.

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
        for key in ("measured", "paper", "attribution", "derived"):
            if not isinstance(record[key], dict):
                raise ValueError(f"{record_id}: {key!r} must be an object")
        if not isinstance(record["machines"], list):
            raise ValueError(f"{record_id}: 'machines' must be a list")
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
    timings = doc.get("timings")
    if timings is not None:
        if not isinstance(timings, dict):
            raise ValueError("'timings' must be an object")
        for key, value in sorted(timings.items()):
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(f"timings[{key!r}] is not a wall time: "
                                 f"{value!r}")
    return counts


def write_bench_results(
    reports_dir: Any, out_path: Any,
    timings: Optional[Dict[str, float]] = None
) -> Dict:
    """Aggregate per-experiment records into one BENCH_results.json."""
    doc = bench_doc(collect_bench_records(reports_dir), timings=timings)
    validate_bench_doc(doc)
    pathlib.Path(out_path).write_text(dumps(doc))
    return doc


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


def write_experiment_record(record: Dict, reports_dir: Any) -> pathlib.Path:
    """Save one experiment record as ``reports_dir/<id>.json``."""
    reports_dir = pathlib.Path(reports_dir)
    path = reports_dir / f"{record['id']}.json"
    path.write_text(dumps(record))
    return path
