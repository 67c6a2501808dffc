"""Capacity sweep: offered load vs SLO tail, per flush strategy.

The service workload (:mod:`repro.workloads.service`) measures one
operating point — an offered arrival rate against a kernel
configuration.  This module steps the offered load across a monotone
ladder for each flush/shootdown strategy and collects the classic
capacity curve: throughput saturating at the knee while the open-loop
p99 explodes, with the hash table's zombie occupancy climbing
alongside (the paper's §7 pressure, measured request-side).

The sweep document is deterministic: every point is a seeded run on a
freshly booted simulator, and the renderer is a pure function of the
document.  E21 runs the default sweep and carries its document as
``measured["capacity"]``, which the dashboard draws; call
:func:`capacity_sweep` directly for a custom ladder.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.kernel.config import KernelConfig, ShootdownStrategy
from repro.params import M604_185, MachineSpec
from repro.sim.simulator import Simulator
from repro.workloads.service import service_run

#: Schema tag of the capacity document (bump on field changes).
CAPACITY_SCHEMA = 1

#: Every field a capacity point records.
CAPACITY_POINT_FIELDS = (
    "offered_per_s",
    "throughput_per_s",
    "completed",
    "latency_p50_us",
    "latency_p90_us",
    "latency_p99_us",
    "latency_p999_us",
    "queue_wait_p99_us",
    "queue_depth_max",
    "mmu_cycles_per_request",
    "zombie_peak",
    "zombie_mean",
    "zombie_queue_correlation",
)

#: Default load ladder (requests per simulated second): spans the
#: 2-CPU knee — sub-saturated, around the knee, past saturation.
DEFAULT_LOADS = (2_000, 6_000, 12_000)

#: Default strategy pair: the naive SMP port against the full lazy
#: mmap-reuse stack — the widest zombie-pressure contrast.
DEFAULT_STRATEGIES = ("broadcast", "mmap_reuse")


def capacity_point(summary: Dict[str, Any]) -> Dict[str, Any]:
    """One sweep point from a service-run summary (fields pinned)."""
    slo = summary["slo"]
    point: Dict[str, Any] = {}
    for field in CAPACITY_POINT_FIELDS:
        if field in summary:
            point[field] = summary[field]
        else:
            point[field] = slo[field]
    return point


def capacity_sweep(
    loads: Sequence[float] = DEFAULT_LOADS,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    spec: MachineSpec = M604_185,
    n_cpus: int = 2,
    requests: int = 120,
    seed: int = 20,
    schedule: str = "exponential",
    workers_per_cpu: int = 3,
) -> Dict[str, Any]:
    """Run the sweep and return the capacity document.

    One freshly booted simulator per (strategy, load) point — points
    are independent, so the curve shape is the system's, not an
    artifact of shared warm state.
    """
    ordered_loads = list(loads)
    if ordered_loads != sorted(ordered_loads):
        raise ValueError(f"loads must be monotone ascending: {loads}")
    if len(set(ordered_loads)) != len(ordered_loads):
        raise ValueError(f"loads must be distinct: {loads}")
    curves: List[Dict[str, Any]] = []
    for name in strategies:
        config = KernelConfig.optimized().with_changes(
            shootdown_strategy=ShootdownStrategy(name)
        )
        points: List[Dict[str, Any]] = []
        for load in ordered_loads:
            sim = Simulator(spec, config, n_cpus=n_cpus)
            run = service_run(
                sim, requests, load, schedule=schedule, seed=seed,
                workers_per_cpu=workers_per_cpu,
            )
            points.append(capacity_point(run.summary()))
        curves.append({"strategy": name, "points": points})
    return {
        "schema": CAPACITY_SCHEMA,
        "machine": spec.name,
        "n_cpus": n_cpus,
        "requests": requests,
        "seed": seed,
        "schedule": schedule,
        "workers_per_cpu": workers_per_cpu,
        "loads": ordered_loads,
        "curves": curves,
    }


def validate_capacity_doc(doc: Dict[str, Any]) -> Dict[str, int]:
    """Check a capacity document is well-formed and monotone.

    Raises :class:`ValueError` on the first problem; returns
    ``{"curves": n, "points": n}``.
    """
    if not isinstance(doc, dict) or doc.get("schema") != CAPACITY_SCHEMA:
        raise ValueError(
            f"not a capacity doc (schema {CAPACITY_SCHEMA} expected): "
            f"{doc.get('schema') if isinstance(doc, dict) else doc!r}"
        )
    loads = doc.get("loads")
    if not isinstance(loads, list) or not loads or not all(
        isinstance(load, (int, float)) and not isinstance(load, bool)
        for load in loads
    ):
        raise ValueError(
            f"capacity doc needs a non-empty 'loads' ladder of numbers: "
            f"{loads!r}"
        )
    if loads != sorted(loads) or len(set(loads)) != len(loads):
        raise ValueError(f"capacity loads must be monotone ascending: {loads}")
    curves = doc.get("curves")
    if not isinstance(curves, list) or not curves:
        raise ValueError("capacity doc needs a non-empty 'curves' list")
    counts = {"curves": 0, "points": 0}
    for curve in curves:
        if not isinstance(curve, dict):
            raise ValueError(f"malformed curve: {curve!r}")
        strategy = curve.get("strategy")
        points = curve.get("points")
        if not isinstance(strategy, str) or not isinstance(points, list):
            raise ValueError(f"malformed curve: {curve!r}")
        if len(points) != len(loads):
            raise ValueError(
                f"curve {strategy!r} has {len(points)} points for "
                f"{len(loads)} loads"
            )
        for index, point in enumerate(points):
            if not isinstance(point, dict):
                raise ValueError(
                    f"curve {strategy!r} point {index} is not an object"
                )
            for field in CAPACITY_POINT_FIELDS:
                if field not in point:
                    raise ValueError(
                        f"curve {strategy!r} point {index} is missing "
                        f"field {field!r}"
                    )
            if point["offered_per_s"] != loads[index]:
                raise ValueError(
                    f"curve {strategy!r} point {index} offered load "
                    f"{point['offered_per_s']} != ladder {loads[index]}"
                )
            counts["points"] += 1
        counts["curves"] += 1
    return counts


def knee_load(curve: Dict[str, Any],
              factor: float = 3.0) -> Optional[float]:
    """The first offered load whose p99 exceeds ``factor`` x the base.

    The "knee" of the capacity curve, extracted as data: the lowest
    rung of the ladder is taken as the uncongested baseline; the knee
    is where the open-loop p99 has left it behind.  ``None`` when the
    curve never crosses (the ladder stayed under capacity).
    """
    points = curve.get("points", [])
    if not points:
        return None
    base = points[0]["latency_p99_us"] or 1.0
    for point in points[1:]:
        if point["latency_p99_us"] > base * factor:
            return point["offered_per_s"]
    return None


_TABLE_COLUMNS = (
    ("offered_per_s", "offered/s", ",.0f"),
    ("throughput_per_s", "thr/s", ",.1f"),
    ("latency_p50_us", "p50 us", ",.1f"),
    ("latency_p99_us", "p99 us", ",.1f"),
    ("latency_p999_us", "p99.9 us", ",.1f"),
    ("queue_depth_max", "qmax", ",d"),
    ("zombie_peak", "zpeak", ",d"),
    ("zombie_queue_correlation", "zcorr", "+.3f"),
)


def render_capacity(doc: Dict[str, Any]) -> str:
    """The sweep as an aligned text table (printed in E21's report).

    Pure function of the document — byte-deterministic.
    """
    lines = [
        f"capacity sweep: {doc['machine']}, {doc['n_cpus']} CPU(s), "
        f"{doc['requests']} requests/point, {doc['schedule']} arrivals, "
        f"seed {doc['seed']}"
    ]
    header = ["strategy"] + [title for _field, title, _fmt in _TABLE_COLUMNS]
    rows: List[List[str]] = [header]
    for curve in doc["curves"]:
        for point in curve["points"]:
            row = [curve["strategy"]]
            for field, _title, fmt in _TABLE_COLUMNS:
                row.append(format(point[field], fmt))
            rows.append(row)
    widths = [
        max(len(row[column]) for row in rows)
        for column in range(len(header))
    ]
    for number, row in enumerate(rows):
        cells = [row[0].ljust(widths[0])]
        cells += [
            cell.rjust(width)
            for cell, width in zip(row[1:], widths[1:])
        ]
        lines.append("  ".join(cells).rstrip())
        if number == 0:
            lines.append("  ".join("-" * width for width in widths))
    for curve in doc["curves"]:
        knee = knee_load(curve)
        where = f"{knee:,.0f} req/s" if knee is not None else "not reached"
        lines.append(f"p99 knee [{curve['strategy']}]: {where}")
    return "\n".join(lines) + "\n"
