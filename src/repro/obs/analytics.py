"""Derived analytics — the observatory over the flight recorder.

The recorder's three layers (events, attribution, time series) only
*record*; the paper's arguments are all comparative (§5.2 tunes the
VSID multiplier against a miss histogram, Table 1 compares reload
paths, Table 2 compares flush strategies).  This module turns drained
:class:`~repro.obs.Observability` handles into a ``derived`` block of
verdict-ready numbers: per-path-category latency percentiles, the
reload-path tail, flush/idle span statistics, monitor-counter drift
totals, zombie-occupancy timeline statistics and hash-table hot-spot
summaries.

Everything here is a pure function of recorder state — deriving never
touches the simulation, so a derived run stays bit-identical to a bare
one.  All floats are rounded to six decimals and every ordering is
explicit, so the same run always produces the same block (the engine
additionally JSON-round-trips it before attaching it to a result, so
cached and fresh blocks compare equal).

The name tables below are derived from the ``EVENT_NAMES`` registry of
:mod:`repro.obs.events` and the profiler's ``DISPLAY_ORDER``, so every
registered event and every path category is consumed by construction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import (
    INSTANT,
    MONITOR,
    PH_COMPLETE,
    PH_COUNTER,
    PH_INSTANT,
    SPAN,
    SPAN_CATEGORY,
    TRACK,
    names_of,
)
from repro.obs.profiler import DISPLAY_ORDER, merge_attributions
from repro.perf.histogram import (
    Histogram,
    miss_histogram,
    occupancy_histogram,
)

#: Sample interval (simulated microseconds) the engine's derive wrapper
#: uses; coarse enough that sampling cost stays negligible next to the
#: workloads, fine enough for the timeline statistics to be meaningful.
DERIVE_SAMPLE_US = 1000.0

#: Tracer span names whose duration distributions are summarized.
SPAN_EVENTS = names_of(SPAN)

#: Tracer instant names whose occurrence counts are derived.  The
#: ``syscall:*`` entry aggregates every suffixed syscall instant.
INSTANT_EVENTS = names_of(INSTANT)

#: Chrome counter tracks whose sample counts are derived.
COUNTER_TRACKS = names_of(TRACK)

#: Hardware-monitor counters whose end-of-run totals feed the
#: ``counters`` drift section (the numbers ``repro diff`` and the
#: regression sentinel compare).
DRIFT_COUNTERS = names_of(MONITOR)

#: Path category -> the tracer spans that time it, over the full
#: profiler taxonomy; categories whose cost has no span representation
#: (pure ledger charges like user compute) map to an empty tuple and
#: are covered by the attribution shares instead.
CATEGORY_SPANS: Dict[str, Tuple[str, ...]] = {
    category: tuple(
        name for name in SPAN_EVENTS if SPAN_CATEGORY[name] == category
    )
    for category in DISPLAY_ORDER
}

#: The combined TLB/hash reload path (§4, Table 1): the tail of these
#: spans is the paper's headline latency.
RELOAD_SPANS = CATEGORY_SPANS["tlb-reload"]

#: Percentiles reported for every span distribution.
PERCENTILES: Tuple[int, ...] = (50, 90, 99)

#: Permille quantiles reported for open-loop request latencies — the
#: SLO block's p50/p90/p99/p99.9 ladder (999 = p99.9, finer than the
#: integer-percent grid the span stats use).
SLO_PERMILLES: Tuple[int, ...] = (500, 900, 990, 999)

#: Maximum points kept in a downsampled timeline series (enough for an
#: SVG polyline; keeps derived blocks small for 10k-sample runs).
TIMELINE_POINTS = 96

#: Maximum bars kept in a downsampled histogram (adjacent buckets are
#: summed, so bar totals still sum to the histogram total).
HISTOGRAM_BARS = 64


def percentile(sorted_values: Sequence[int], q: int) -> int:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    return percentile_permille(sorted_values, q * 10)


def percentile_permille(sorted_values: Sequence[int], permille: int) -> int:
    """Nearest-rank quantile at permille resolution (999 = p99.9).

    The SLO ladder needs p99.9, which the integer-percent grid cannot
    express; same ceil-without-floats rank rule as :func:`percentile`.
    """
    if not sorted_values:
        return 0
    rank = max(1, -(-permille * len(sorted_values) // 1000))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def permille_label(permille: int) -> str:
    """500 -> 'p50', 990 -> 'p99', 999 -> 'p999' (SLO block keys)."""
    if permille % 10 == 0:
        return f"p{permille // 10}"
    return f"p{permille}"


def span_stats(durations: Sequence[int]) -> Dict[str, object]:
    """count / total / mean / p50 / p90 / p99 / max over span durations."""
    ordered = sorted(durations)
    total = sum(ordered)
    stats: Dict[str, object] = {
        "count": len(ordered),
        "total_cycles": total,
        "mean": round(total / len(ordered), 6) if ordered else 0.0,
        "max": ordered[-1] if ordered else 0,
    }
    for q in PERCENTILES:
        stats[f"p{q}"] = percentile(ordered, q)
    return stats


def series_stats(values: Sequence[float]) -> Dict[str, object]:
    """min / max / mean / final over one timeline column."""
    if not values:
        return {"min": 0, "max": 0, "mean": 0.0, "final": 0}
    return {
        "min": min(values),
        "max": max(values),
        "mean": round(sum(values) / len(values), 6),
        "final": values[-1],
    }


def downsample(values: Sequence, points: int = TIMELINE_POINTS) -> List:
    """At most ``points`` values, keeping first and last, evenly spaced."""
    if len(values) <= points:
        return list(values)
    last = len(values) - 1
    return [
        values[round(index * last / (points - 1))]
        for index in range(points)
    ]


def histogram_bars(counts: Sequence[int],
                   bars: int = HISTOGRAM_BARS) -> List[int]:
    """Sum adjacent buckets down to at most ``bars`` bars."""
    if len(counts) <= bars:
        return list(counts)
    out = []
    for index in range(bars):
        start = index * len(counts) // bars
        stop = (index + 1) * len(counts) // bars
        out.append(sum(counts[start:stop]))
    return out


def histogram_summary(histogram: Histogram) -> Dict[str, object]:
    """The §5.2 hot-spot diagnostics plus a plottable bar reduction."""
    return {
        "buckets": histogram.buckets,
        "total": histogram.total,
        "nonzero_fraction": round(histogram.nonzero_fraction(), 6),
        "max_load": histogram.max_load(),
        "hot_spot_ratio": round(histogram.hot_spot_ratio(), 6),
        "top_share": round(histogram.top_share(), 6),
        "entropy_efficiency": round(histogram.entropy_efficiency(), 6),
        "bars": histogram_bars(histogram.counts),
    }


def _merged_counts(count_lists: List[List[int]]) -> List[int]:
    """Bucket-wise sum over the simulators sharing the modal size.

    Machines in one experiment can carry differently-sized hash tables;
    summing across sizes would misalign buckets, so only the most
    common size (smallest on a tie) participates.
    """
    sizes = [len(counts) for counts in count_lists]
    modal = max(sorted(set(sizes)), key=sizes.count)
    merged = [0] * modal
    for counts in count_lists:
        if len(counts) != modal:
            continue
        for index, count in enumerate(counts):
            merged[index] += count
    return merged


def _attribution_block(observed: Iterable[Any]) -> Optional[Dict[str, object]]:
    attribution = merge_attributions(
        obs.attribution()
        for obs in observed
        if obs.profiler is not None
    )
    if not attribution:
        return None
    total = sum(attribution.values())
    ordered = [c for c in DISPLAY_ORDER if c in attribution]
    ordered += sorted(set(attribution) - set(ordered))
    shares = {
        category: (round(attribution[category] / total, 6) if total else 0.0)
        for category in ordered
    }
    top = sorted(ordered, key=lambda c: (-attribution[c], c))[0]
    return {
        "cycles": {category: attribution[category] for category in ordered},
        "shares": shares,
        "top": top,
    }


def _instant_key(name: str) -> str:
    """Fold suffixed syscall instants onto their wildcard registry key."""
    if name.startswith("syscall:"):
        return "syscall:*"
    return name


def _trace_blocks(tracers: Iterable[Any]) -> Dict[str, Dict[str, object]]:
    """The span/event/category/reload sections from the trace rings."""
    durations: Dict[str, List[int]] = {}
    instants: Dict[str, int] = {}
    tracks: Dict[str, int] = {}
    for tracer in tracers:
        for _ts, dur, ph, _category, name, _tid, _args in tracer.events:
            if ph == PH_COMPLETE and dur is not None:
                durations.setdefault(name, []).append(dur)
            elif ph == PH_INSTANT:
                key = _instant_key(name)
                if key in INSTANT_EVENTS:
                    instants[key] = instants.get(key, 0) + 1
            elif ph == PH_COUNTER and name in COUNTER_TRACKS:
                tracks[name] = tracks.get(name, 0) + 1
    spans = {
        name: span_stats(durations[name])
        for name in SPAN_EVENTS
        if name in durations
    }
    categories = {}
    for category in sorted(CATEGORY_SPANS):
        merged: List[int] = []
        for name in CATEGORY_SPANS[category]:
            merged.extend(durations.get(name, []))
        if merged:
            categories[category] = span_stats(merged)
    reload_path: List[int] = []
    for name in RELOAD_SPANS:
        reload_path.extend(durations.get(name, []))
    out: Dict[str, Dict[str, object]] = {
        "events": {
            "emitted": sum(tracer.emitted for tracer in tracers),
            "dropped": sum(tracer.dropped for tracer in tracers),
            "instants": {
                name: instants[name]
                for name in INSTANT_EVENTS
                if name in instants
            },
            "tracks": {
                name: tracks[name]
                for name in COUNTER_TRACKS
                if name in tracks
            },
        },
        "spans": spans,
        "categories": categories,
    }
    if reload_path:
        out["reload"] = span_stats(reload_path)
    return out


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation over paired samples (0.0 when degenerate)."""
    n = min(len(xs), len(ys))
    if n < 2:
        return 0.0
    xs = list(xs[:n])
    ys = list(ys[:n])
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


def _service_block(tracers: Iterable[Any]) -> Optional[Dict[str, object]]:
    """The SLO section: open-loop latency quantiles from the request
    life-cycle events, the queue-depth curve, and the correlation of
    queue pressure against the sampler's zombie-occupancy track."""
    latencies: List[int] = []
    depth_series: List[int] = []
    zombie_series: List[int] = []
    arrivals = dispatches = 0
    for tracer in tracers:
        for _ts, _dur, ph, _category, name, _tid, args in tracer.events:
            if ph == PH_INSTANT:
                if name == "req-complete" and args:
                    latencies.append(args.get("latency", 0))
                elif name == "req-arrival":
                    arrivals += 1
                elif name == "req-dispatch":
                    dispatches += 1
            elif ph == PH_COUNTER and args:
                if name == "queue-depth":
                    depth_series.append(args.get("pending", 0))
                elif name == "htab":
                    zombie_series.append(args.get("zombie", 0))
    if not latencies and not depth_series:
        return None
    latencies.sort()
    quantiles = {
        permille_label(permille): percentile_permille(latencies, permille)
        for permille in SLO_PERMILLES
    }
    block: Dict[str, object] = {
        "requests": len(latencies),
        "arrivals": arrivals,
        "dispatches": dispatches,
        "latency_cycles": quantiles,
        "queue_depth": series_stats(depth_series),
    }
    # Queue pressure vs zombie occupancy: both curves downsampled onto
    # a common grid before correlating (they tick at different rates —
    # arrivals vs sampler boundaries).
    if depth_series and zombie_series:
        points = min(len(depth_series), len(zombie_series),
                     TIMELINE_POINTS)
        block["zombie_queue_correlation"] = round(
            pearson(
                downsample(depth_series, points),
                downsample(zombie_series, points),
            ), 6
        )
    return block


def _timeline_block(samplers: Iterable[Any]) -> Optional[Dict[str, object]]:
    """Occupancy/zombie trajectory statistics from the sampled series."""
    sampled = [s for s in samplers if s.samples]
    if not sampled:
        return None
    live: List[int] = []
    zombie: List[int] = []
    occupancy: List[float] = []
    for sampler in sampled:
        live.extend(sampler.series("htab", "live"))
        zombie.extend(sampler.series("htab", "zombie"))
        occupancy.extend(sampler.series("htab", "occupancy"))
    # One machine's trajectory is plottable; pick the richest series
    # (first on a tie, so the choice is deterministic).
    richest = max(sampled, key=lambda s: len(s.samples))
    return {
        "samplers": len(sampled),
        "samples": sum(len(s.samples) for s in sampled),
        "every_us": richest.every_us,
        "live": series_stats(live),
        "zombie": series_stats(zombie),
        "occupancy": series_stats(occupancy),
        "series": {
            "us": downsample(richest.series("us")),
            "live": downsample(richest.series("htab", "live")),
            "zombie": downsample(richest.series("htab", "zombie")),
        },
    }


def derive(observed: Sequence[Any]) -> Dict[str, object]:
    """The full derived block for a drained list of recorder handles.

    Sections degrade gracefully with the recorder configuration: a
    profile-only run (the benchmark suite) gets attribution, counters
    and histograms; a traced run adds spans, categories and the reload
    tail; a sampled run adds the timeline.
    """
    observed = list(observed)
    if not observed:
        return {}
    machines: List[str] = []
    for obs in observed:
        name = obs.machine.spec.name
        if name not in machines:
            machines.append(name)
    out: Dict[str, object] = {
        "total_cycles": sum(
            obs.machine.total_cycles_all_cpus() for obs in observed
        ),
        "machines": machines,
        "simulators": len(observed),
    }
    attribution = _attribution_block(observed)
    if attribution is not None:
        out["attribution"] = attribution
    counters = {name: 0 for name in DRIFT_COUNTERS}
    for obs in observed:
        snapshot = obs.machine.monitor_totals()
        for name in DRIFT_COUNTERS:
            counters[name] += snapshot.get(name, 0)
    out["counters"] = counters
    tracers = [obs.tracer for obs in observed if obs.tracer is not None]
    if tracers:
        out.update(_trace_blocks(tracers))
        service = _service_block(tracers)
        if service is not None:
            out["service"] = service
    timeline = _timeline_block(
        [obs.sampler for obs in observed if obs.sampler is not None]
    )
    if timeline is not None:
        out["timeline"] = timeline
    out["histograms"] = {
        "occupancy": histogram_summary(
            Histogram(_merged_counts([
                occupancy_histogram(obs.machine.htab).counts
                for obs in observed
            ]))
        ),
        "miss": histogram_summary(
            Histogram(_merged_counts([
                miss_histogram(obs.machine.htab).counts
                for obs in observed
            ]))
        ),
    }
    return out
