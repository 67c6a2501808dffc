"""Flamegraph export: span trees out of the flight recorder's ring.

The tracer's ring (see :mod:`repro.obs.events`) stores completed spans
flat, in completion order, as columns.  This module reconstructs the
nesting — a span is a child of the innermost span that fully contains
it on the same task lane — and exports the resulting forest in the two
formats profiler tooling actually consumes:

* collapsed-stack ("folded") lines, one ``frame;frame;frame weight``
  per unique stack, weighted by *self* cycles — the input format of
  ``flamegraph.pl`` and every inferno-style renderer;
* speedscope's evented JSON, one profile per machine/task lane, which
  preserves the timeline (open/close event pairs in simulated cycles).

Both are pure functions of the ring: identical runs export identical
bytes, and exporting perturbs nothing (the contract the whole recorder
is built on — a traced run is bit-identical to an untraced one).

Folded frames carry the path category each span registers in
``EVENT_NAMES`` (:data:`repro.obs.events.SPAN_CATEGORY`), so they use
the same category names the cycle attribution does.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import PH_COMPLETE, SPAN_CATEGORY


class Span:
    """One reconstructed span: name, extent in simulated cycles, kids."""

    __slots__ = ("name", "category", "start", "end", "tid", "children")

    def __init__(self, name: str, category: str, start: int, end: int,
                 tid: int) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.end = end
        self.tid = tid
        self.children: List["Span"] = []

    @property
    def total(self) -> int:
        return self.end - self.start

    @property
    def self_cycles(self) -> int:
        return self.total - sum(child.total for child in self.children)

    def frame(self) -> str:
        """The folded-stack frame label: name, tagged with its category."""
        category = SPAN_CATEGORY.get(self.name, self.category)
        return f"{self.name} [{category}]"


def span_forest(tracer: Any) -> Dict[int, List[Span]]:
    """Rebuild the span nesting from one tracer's ring, per task lane.

    Spans nest when one fully contains the other; spans that merely
    overlap (possible at the ring's drop boundary, where a parent's
    completion was evicted) are treated as siblings.  The sort key
    ``(start, -end, index)`` makes the reconstruction deterministic
    and parent-before-child.
    """
    by_tid: Dict[int, List[Tuple[int, int, int, str, str]]] = {}
    kinds = tracer.kinds
    spans = {
        code for code, kind in enumerate(kinds) if kind.ph == PH_COMPLETE
    }
    for index, (code, ts, dur, tid) in enumerate(zip(
        tracer.column("code"), tracer.column("ts"), tracer.column("dur"),
        tracer.column("tid"),
    )):
        if code in spans:
            kind = kinds[code]
            by_tid.setdefault(tid, []).append(
                (ts, ts + dur, index, kind.name, kind.category)
            )
    forest: Dict[int, List[Span]] = {}
    for tid in sorted(by_tid):
        roots: List[Span] = []
        stack: List[Span] = []
        for start, end, _index, name, category in sorted(
            by_tid[tid], key=lambda item: (item[0], -item[1], item[2])
        ):
            span = Span(name, category, start, end, tid)
            while stack and (start >= stack[-1].end
                             or end > stack[-1].end):
                stack.pop()
            if stack:
                stack[-1].children.append(span)
            else:
                roots.append(span)
            stack.append(span)
        forest[tid] = roots
    return forest


def _lane_label(label: str, tid: int) -> str:
    return f"{label}/task{tid}"


def folded(tracers: Iterable[Any]) -> List[str]:
    """Collapsed-stack lines for a list of tracers, sorted and merged.

    Each line is ``lane;frame;...;frame self_cycles``; identical stacks
    across the forest merge, and the line order is lexicographic —
    byte-deterministic for a given ring.
    """
    weights: Dict[str, int] = {}

    def walk(span: Span, prefix: str) -> None:
        stack = f"{prefix};{span.frame()}"
        self_cycles = span.self_cycles
        if self_cycles > 0:
            weights[stack] = weights.get(stack, 0) + self_cycles
        for child in span.children:
            walk(child, stack)

    for tracer in tracers:
        for tid, roots in span_forest(tracer).items():
            lane = _lane_label(tracer.label, tid)
            for root in roots:
                walk(root, lane)
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]


def speedscope(tracers: Iterable[Any],
               name: str = "repro trace") -> Dict:
    """The span forest as a speedscope evented-profile document.

    One profile per machine/task lane; ``at`` values are simulated
    cycles (unit ``none`` — speedscope treats them as abstract ticks).
    Every open event has a matching close and lanes are properly
    nested, which :func:`validate_speedscope` (and speedscope itself)
    checks.
    """
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}

    def frame_of(span: Span) -> int:
        label = span.frame()
        if label not in frame_index:
            frame_index[label] = len(frames)
            frames.append({"name": label})
        return frame_index[label]

    profiles = []
    for tracer in tracers:
        for tid, roots in span_forest(tracer).items():
            if not roots:
                continue
            events: List[Dict[str, int]] = []
            # Spans are timestamped retroactively at completion, so two
            # siblings can overlap by a few cycles (their durations are
            # accounted separately, not nested).  The cursor clamps the
            # event stream monotonic, which the evented format requires;
            # total extents are unchanged beyond those slivers.
            cursor = roots[0].start

            def emit(span: Span) -> None:
                nonlocal cursor
                cursor = max(cursor, span.start)
                events.append(
                    {"type": "O", "frame": frame_of(span), "at": cursor}
                )
                for child in span.children:
                    emit(child)
                cursor = max(cursor, span.end)
                events.append(
                    {"type": "C", "frame": frame_of(span), "at": cursor}
                )

            for root in roots:
                emit(root)
            profiles.append({
                "type": "evented",
                "name": _lane_label(tracer.label, tid),
                "unit": "none",
                "startValue": roots[0].start,
                "endValue": events[-1]["at"],
                "events": events,
            })
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": profiles,
        "name": name,
        "exporter": "repro trace",
        "activeProfileIndex": 0,
    }


def validate_speedscope(doc: Dict) -> Dict[str, int]:
    """Check a speedscope document is well-formed and balanced.

    Raises :class:`ValueError` on the first problem; returns
    ``{"frames": n, "profiles": n, "events": n}``.
    """
    if not isinstance(doc, dict) or "profiles" not in doc:
        raise ValueError("not a speedscope doc: missing 'profiles'")
    frames = doc.get("shared", {}).get("frames")
    if not isinstance(frames, list):
        raise ValueError("speedscope doc needs shared.frames")
    counts = {"frames": len(frames), "profiles": 0, "events": 0}
    for number, profile in enumerate(doc["profiles"]):
        if profile.get("type") != "evented":
            raise ValueError(f"profile {number} is not evented")
        stack: List[int] = []
        last_at = profile.get("startValue", 0)
        for event in profile.get("events", []):
            kind = event.get("type")
            frame = event.get("frame")
            at = event.get("at")
            if not isinstance(frame, int) or not 0 <= frame < len(frames):
                raise ValueError(
                    f"profile {number}: frame {frame!r} out of range"
                )
            if not isinstance(at, (int, float)) or at < last_at:
                raise ValueError(
                    f"profile {number}: 'at' went backwards ({at!r})"
                )
            last_at = at
            if kind == "O":
                stack.append(frame)
            elif kind == "C":
                if not stack or stack[-1] != frame:
                    raise ValueError(
                        f"profile {number}: close of frame {frame} does "
                        f"not match open stack {stack}"
                    )
                stack.pop()
            else:
                raise ValueError(
                    f"profile {number}: unknown event type {kind!r}"
                )
            counts["events"] += 1
        if stack:
            raise ValueError(
                f"profile {number}: {len(stack)} span(s) left open"
            )
        counts["profiles"] += 1
    return counts


def critical_path(tracers: Iterable[Any], limit: int = 12) -> List[Dict[str, object]]:
    """The heaviest root-to-leaf chain across the whole forest.

    "Heaviest" is by total cycles at each level — the chain a
    flamegraph reader would trace with a finger, extracted as data:
    one record per depth with the span name, lane, total and self
    cycles, and the share of its parent it covers.
    """
    best_root: Optional[Span] = None
    best_lane = ""
    for tracer in tracers:
        for tid, roots in span_forest(tracer).items():
            for root in roots:
                if best_root is None or root.total > best_root.total:
                    best_root = root
                    best_lane = _lane_label(tracer.label, tid)
    if best_root is None:
        return []
    path: List[Dict[str, object]] = []
    span: Optional[Span] = best_root
    parent_total = best_root.total
    depth = 0
    while span is not None and depth < limit:
        path.append({
            "depth": depth,
            "lane": best_lane,
            "name": span.name,
            "category": SPAN_CATEGORY.get(span.name, span.category),
            "total_cycles": span.total,
            "self_cycles": span.self_cycles,
            "share_of_parent": round(
                span.total / parent_total, 4
            ) if parent_total else 1.0,
        })
        parent_total = span.total
        span = max(
            span.children, key=lambda child: (child.total, -child.start),
            default=None,
        )
        depth += 1
    return path


def render_critical_path(path: List[Dict[str, object]]) -> str:
    """The critical path as indented text (printed by ``repro trace``)."""
    if not path:
        return "critical path: no spans recorded\n"
    lines = [f"critical path ({path[0]['lane']}):"]
    for record in path:
        indent = "  " * (int(record["depth"]) + 1)
        lines.append(
            f"{indent}{record['name']} [{record['category']}] "
            f"{record['total_cycles']:,} cycles "
            f"(self {record['self_cycles']:,}, "
            f"{record['share_of_parent']:.0%} of parent)"
        )
    return "\n".join(lines) + "\n"
