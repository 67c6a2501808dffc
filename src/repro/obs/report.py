"""The observatory dashboard: one self-contained, deterministic HTML.

``repro report`` renders a bench doc (every record carrying a
``derived`` block), and nothing else, into a single HTML file with no
external assets — inline CSS and inline SVG only, so the artifact opens
anywhere and can be diffed byte-for-byte.  Determinism is a contract: the renderer is a
pure function of the input document, never consults the clock or the
environment, and the bench doc itself holds no host time — so
repeated runs (and ``--jobs 1`` vs ``--jobs 4``) produce
byte-identical files.

The per-experiment sections visualize the derived analytics: a stacked
cycle-attribution bar, latency percentile tables for the traced path
categories, the occupancy/zombie timeline polyline, and the §5.2
hash-table histograms, and each record's paper claims (paper value,
measured value, status).  The experiments behind the paper's Tables 1–3
(E5, E6, E11) are flagged as such, and E21's capacity sweep gets a
section of its own.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional

from repro.obs.profiler import DISPLAY_ORDER

#: Experiments reproducing the paper's numbered tables.
PAPER_TABLES = {"E5": "Table 1", "E6": "Table 2", "E11": "Table 3"}

#: The experiment whose measured ``capacity`` is a capacity-sweep doc.
CAPACITY_EXPERIMENT = "E21"

#: Stacked-bar palette, one color per display-order path category.
CATEGORY_COLORS = {
    "user-compute": "#4e79a7",
    "memory": "#59a14f",
    "tlb-reload": "#e15759",
    "flush": "#f28e2b",
    "idle": "#76b7b2",
    "syscall": "#edc948",
    "fault": "#b07aa1",
    "scheduling": "#ff9da7",
    "io": "#9c755f",
    "kernel-mm": "#bab0ac",
    "shootdown": "#d37295",
    "service": "#86bcb6",
}

#: Capacity-curve table columns in display order: recorded
#: ``CAPACITY_POINT_FIELDS`` field -> column title.
CAPACITY_COLUMNS: Dict[str, str] = {
    "offered_per_s": "offered/s",
    "throughput_per_s": "throughput/s",
    "latency_p50_us": "p50 (µs)",
    "latency_p99_us": "p99 (µs)",
    "latency_p999_us": "p99.9 (µs)",
    "queue_depth_max": "queue max",
    "zombie_peak": "zombie peak",
    "zombie_queue_correlation": "zombie↔queue r",
}

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 70em; color: #1a1a2e; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2.2em;
     border-bottom: 1px solid #ddd; padding-bottom: .2em; }
table { border-collapse: collapse; margin: .6em 0; }
th, td { border: 1px solid #ddd; padding: .25em .6em; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f4f4f8; }
.badge { display: inline-block; padding: .05em .5em; border-radius: .7em;
         font-size: .85em; color: #fff; }
.hold { background: #2a9d4a; } .break { background: #c0392b; }
.papertag { color: #8a5a00; background: #fff3d6; border-radius: .4em;
            padding: .05em .5em; font-size: .85em; }
.meta { color: #666; font-size: .9em; }
svg { background: #fafafc; border: 1px solid #eee; }
.legend span { margin-right: 1em; white-space: nowrap; }
.swatch { display: inline-block; width: .8em; height: .8em;
          margin-right: .3em; border-radius: .15em; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    """Deterministic cell formatting for measured/derived values."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (list, dict)):
        return _esc(repr(value))
    return _esc(value)


# -- SVG helpers -------------------------------------------------------------


def _svg_stacked_bar(shares: Dict[str, float], width: int = 640,
                     height: int = 26) -> str:
    """One horizontal stacked bar of attribution shares."""
    ordered = [c for c in DISPLAY_ORDER if c in shares]
    ordered += sorted(set(shares) - set(ordered))
    parts = [f'<svg width="{width}" height="{height}" role="img">']
    x = 0.0
    for category in ordered:
        span = shares[category] * width
        color = CATEGORY_COLORS.get(category, "#d4d4d4")
        parts.append(
            f'<rect x="{x:.2f}" y="0" width="{span:.2f}" '
            f'height="{height}" fill="{color}">'
            f"<title>{_esc(category)}: {shares[category]:.1%}</title></rect>"
        )
        x += span
    parts.append("</svg>")
    legend = ['<div class="legend">']
    for category in ordered:
        color = CATEGORY_COLORS.get(category, "#d4d4d4")
        legend.append(
            f'<span><i class="swatch" style="background:{color}"></i>'
            f"{_esc(category)} {shares[category]:.1%}</span>"
        )
    legend.append("</div>")
    return "".join(parts) + "".join(legend)


def _svg_polyline(series: Dict[str, List], width: int = 640,
                  height: int = 140) -> str:
    """The live/zombie occupancy trajectory over simulated time."""
    xs = series.get("us", [])
    if len(xs) < 2:
        return '<p class="meta">timeline: fewer than two samples</p>'
    curves = [("live", "#2a9d4a"), ("zombie", "#c0392b")]
    x_max = xs[-1] or 1
    y_max = max(
        [1] + [max(series.get(name, [0]) or [0]) for name, _color in curves]
    )
    parts = [f'<svg width="{width}" height="{height}" role="img">']
    for name, color in curves:
        ys = series.get(name, [])
        if len(ys) != len(xs):
            continue
        points = " ".join(
            f"{(x / x_max) * (width - 8) + 4:.2f},"
            f"{height - 4 - (y / y_max) * (height - 8):.2f}"
            for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"><title>{_esc(name)}</title></polyline>'
        )
    parts.append("</svg>")
    parts.append(
        '<div class="legend">'
        '<span><i class="swatch" style="background:#2a9d4a"></i>live</span>'
        '<span><i class="swatch" style="background:#c0392b"></i>zombie</span>'
        f"<span>{_fmt(xs[-1])} simulated &micro;s, peak {y_max:,}</span>"
        "</div>"
    )
    return "".join(parts)


def _svg_histogram(bars: List[int], width: int = 640,
                   height: int = 90, color: str = "#4e79a7") -> str:
    """Bucket-load bars (already downsampled by the analytics)."""
    if not bars:
        return '<p class="meta">empty histogram</p>'
    peak = max(bars) or 1
    step = width / len(bars)
    parts = [f'<svg width="{width}" height="{height}" role="img">']
    for index, count in enumerate(bars):
        bar_height = (count / peak) * (height - 4)
        parts.append(
            f'<rect x="{index * step:.2f}" '
            f'y="{height - bar_height:.2f}" '
            f'width="{max(step - 1, 1):.2f}" height="{bar_height:.2f}" '
            f'fill="{color}"><title>bin {index}: {count}</title></rect>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _svg_sparkline(values: List, width: int = 150, height: int = 28,
                   color: str = "#4e79a7") -> str:
    """A small inline line over one capacity curve's load points.

    ``values`` may contain ``None`` for points that lack the value;
    those break the polyline into segments.
    """
    numbers = [v for v in values if v is not None]
    if len(numbers) < 2 or len(values) < 2:
        return '<span class="meta">&mdash;</span>'
    low, high = min(numbers), max(numbers)
    span = (high - low) or 1
    step = (width - 8) / (len(values) - 1)

    def point(index: int, value: Any) -> str:
        x = 4 + index * step
        y = height - 4 - ((value - low) / span) * (height - 8)
        return f"{x:.2f},{y:.2f}"

    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'class="spark">']
    segment: List[str] = []
    for index, value in enumerate(values):
        if value is None:
            if len(segment) > 1:
                parts.append(
                    f'<polyline fill="none" stroke="{color}" '
                    f'stroke-width="1.5" points="{" ".join(segment)}"/>'
                )
            segment = []
            continue
        segment.append(point(index, value))
    if len(segment) > 1:
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(segment)}"/>'
        )
    last = values[-1]
    if last is not None:
        parts.append(
            f'<circle cx="{point(len(values) - 1, last).split(",")[0]}" '
            f'cy="{point(len(values) - 1, last).split(",")[1]}" r="2" '
            f'fill="{color}"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


# -- section renderers -------------------------------------------------------


def _claims_table(record: Dict) -> str:
    """One row per paper claim: its paper and measured values, status."""
    claims = record.get("claims", [])
    if not claims:
        return ""
    rows = ["<table><tr><th>claim</th><th>paper</th><th>measured</th>"
            "<th>status</th></tr>"]
    for claim in claims:
        paper = claim.get("paper")
        rows.append(
            f"<tr><td>{_esc(claim.get('name', ''))}</td>"
            f"<td>{'&mdash;' if paper is None else _fmt(paper)}</td>"
            f"<td>{_fmt(claim.get('measured', ''))}</td>"
            f"<td>{_esc(claim.get('status', ''))}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _latency_table(derived: Dict) -> str:
    categories = derived.get("categories", {})
    reload_path = derived.get("reload")
    if not categories and not reload_path:
        return ""
    rows = ["<table><tr><th>path</th><th>count</th><th>cycles</th>"
            "<th>p50</th><th>p90</th><th>p99</th><th>max</th></tr>"]

    def one(name: str, stats: Dict) -> str:
        return (
            f"<tr><td>{_esc(name)}</td><td>{_fmt(stats['count'])}</td>"
            f"<td>{_fmt(stats['total_cycles'])}</td>"
            f"<td>{_fmt(stats['p50'])}</td><td>{_fmt(stats['p90'])}</td>"
            f"<td>{_fmt(stats['p99'])}</td><td>{_fmt(stats['max'])}</td></tr>"
        )

    for name in sorted(categories):
        rows.append(one(name, categories[name]))
    if reload_path:
        rows.append(one("reload path (Table 1)", reload_path))
    rows.append("</table>")
    return "".join(rows)


def _histogram_section(derived: Dict) -> str:
    histograms = derived.get("histograms", {})
    parts = []
    for name, title in (("occupancy", "occupancy histogram (valid PTEs)"),
                        ("miss", "miss histogram (§5.2 instrument)")):
        summary = histograms.get(name)
        if not summary or not summary.get("total"):
            continue
        parts.append(f"<h4>{_esc(title)}</h4>")
        parts.append(_svg_histogram(summary.get("bars", [])))
        parts.append(
            '<p class="meta">'
            f"{_fmt(summary['total'])} entries over "
            f"{_fmt(summary['buckets'])} buckets &middot; "
            f"entropy efficiency {summary['entropy_efficiency']:.3f} "
            f"&middot; hot-spot ratio {summary['hot_spot_ratio']:.2f} "
            f"&middot; top-1% share {summary['top_share']:.1%}</p>"
        )
    return "".join(parts)


def _experiment_section(record: Dict) -> str:
    record_id = record.get("id", "?")
    derived = record.get("derived", {})
    holds = record.get("shape_holds", False)
    badge = ('<span class="badge hold">shape holds</span>' if holds
             else '<span class="badge break">shape broken</span>')
    paper_tag = ""
    if record_id in PAPER_TABLES:
        paper_tag = (f' <span class="papertag">paper '
                     f"{PAPER_TABLES[record_id]}</span>")
    parts = [
        f'<h2 id="{_esc(record_id)}">{_esc(record_id)} — '
        f"{_esc(record.get('title', ''))} {badge}{paper_tag}</h2>",
        f'<p class="meta">machines: '
        f"{_esc(', '.join(record.get('machines', [])))}"
    ]
    if record.get("variants"):
        parts.append(" &middot; variants: "
                     + _esc(", ".join(record["variants"])))
    if derived.get("total_cycles"):
        parts.append(f" &middot; {derived['total_cycles']:,} simulated "
                     f"cycles across {derived.get('simulators', 0)} "
                     "simulator(s)")
    parts.append("</p>")
    shares = derived.get("attribution", {}).get("shares")
    if shares:
        parts.append("<h4>cycle attribution</h4>")
        parts.append(_svg_stacked_bar(shares))
    parts.append("<h4>paper claims</h4>")
    parts.append(_claims_table(record))
    latency = _latency_table(derived)
    if latency:
        parts.append("<h4>path latencies (cycles)</h4>")
        parts.append(latency)
    timeline = derived.get("timeline")
    if timeline and timeline.get("series"):
        parts.append("<h4>hash-table occupancy timeline</h4>")
        parts.append(_svg_polyline(timeline["series"]))
    parts.append(_histogram_section(derived))
    if record.get("notes"):
        parts.append(f'<p class="meta">notes: {_esc(record["notes"])}</p>')
    return "".join(parts)


def _summary_table(records: List[Dict]) -> str:
    rows = ["<table><tr><th>experiment</th><th>shape</th>"
            "<th>total cycles</th><th>top path</th>"
            "<th>reload p99</th></tr>"]
    for record in records:
        derived = record.get("derived", {})
        reload_path = derived.get("reload", {})
        rows.append(
            f'<tr><td><a href="#{_esc(record["id"])}">'
            f"{_esc(record['id'])}</a> {_esc(record.get('title', ''))}</td>"
            f"<td>{_fmt(bool(record.get('shape_holds')))}</td>"
            f"<td>{_fmt(derived.get('total_cycles', 0))}</td>"
            f"<td>{_esc(derived.get('attribution', {}).get('top', ''))}</td>"
            f"<td>{_fmt(reload_path.get('p99', ''))}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def capacity_doc(doc: Dict) -> Optional[Dict]:
    """The capacity sweep in the doc's E21 record; None without E21.

    A record that lacks the block yields ``{}``, which the capacity-doc
    validator rejects.
    """
    for record in doc.get("experiments", []):
        if record.get("id") == CAPACITY_EXPERIMENT:
            return record.get("measured", {}).get("capacity", {})
    return None


def _capacity_section(capacity: Dict) -> str:
    """The request-level capacity curves: one table + p99 sparklines.

    ``capacity`` is a :func:`repro.analysis.capacity.capacity_sweep`
    document; the section is a pure function of it, so the dashboard
    stays byte-deterministic.
    """
    curves = capacity.get("curves", [])
    if not curves:
        return ""
    parts = [
        '<h2 id="capacity">capacity curves '
        "(open-loop service telemetry)</h2>",
        f'<p class="meta">{_esc(capacity.get("machine", "?"))} &middot; '
        f"{_fmt(capacity.get('n_cpus', 0))} CPU(s) &middot; "
        f"{_fmt(capacity.get('requests', 0))} requests/point &middot; "
        f"{_esc(capacity.get('schedule', '?'))} arrivals, seed "
        f"{_fmt(capacity.get('seed', 0))} &middot; latency measured "
        "from the <em>scheduled</em> arrival (open-loop, no "
        "coordinated omission)</p>",
    ]
    rows = ["<table><tr><th>strategy</th>"]
    rows += [f"<th>{_esc(title)}</th>" for title in CAPACITY_COLUMNS.values()]
    rows.append("</tr>")
    for curve in curves:
        for point in curve.get("points", []):
            rows.append(f"<tr><td>{_esc(curve.get('strategy', '?'))}</td>")
            rows += [
                f"<td>{_fmt(point.get(column, ''))}</td>"
                for column in CAPACITY_COLUMNS
            ]
            rows.append("</tr>")
    rows.append("</table>")
    parts.append("".join(rows))
    spark = ["<table><tr><th>strategy</th><th>p99 vs offered load</th>"
             "<th>throughput vs offered load</th></tr>"]
    for curve in curves:
        points = curve.get("points", [])
        spark.append(
            f"<tr><td>{_esc(curve.get('strategy', '?'))}</td>"
            f"<td>{_svg_sparkline([p.get('latency_p99_us') for p in points], color='#c0392b')}</td>"
            f"<td>{_svg_sparkline([p.get('throughput_per_s') for p in points], color='#2a9d4a')}</td>"
            "</tr>"
        )
    spark.append("</table>")
    parts.append("<h4>the knee, at a glance</h4>")
    parts.append("".join(spark))
    return "".join(parts)


def render_report(doc: Dict, title: Optional[str] = None) -> str:
    """The full dashboard HTML for a validated bench doc.

    A doc with an E21 record gets its request-level capacity curves
    (:func:`capacity_doc`) between the summary table and the
    per-experiment sections.
    """
    records = doc.get("experiments", [])
    summary = doc.get("summary", {})
    heading = title or "MMU tricks — perf observatory report"
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(heading)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(heading)}</h1>",
        f'<p class="meta">{_fmt(summary.get("experiments", len(records)))} '
        f"experiments &middot; {_fmt(summary.get('shapes_holding', 0))} "
        "paper shapes holding &middot; derived by the flight recorder "
        "(repro.obs)</p>",
        _summary_table(records),
    ]
    capacity = capacity_doc(doc)
    if capacity is not None:
        parts.append(_capacity_section(capacity))
    for record in records:
        parts.append(_experiment_section(record))
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
