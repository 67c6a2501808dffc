"""Structural diffing of runs and config variants.

The paper's tables are all pairwise comparisons — hash vs no-hash
reload (Table 1), flush strategies (Table 2), reclaim on vs off (§8).
This module makes that comparison mechanical: flatten two records (or
the derived blocks of two :class:`ConfigVariant` cells of one
experiment) into dotted-path leaves, then report what changed, by how
much, and what exists on only one side.  The regression sentinel
(``repro bench compare``) is the same per-leaf comparison held to
exactness: bench docs carry no host time, so any differing leaf fails.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.spec import ExperimentSpec
from repro.obs import analytics

#: Document keys that are provenance, not measurements.
_INFO_KEYS = ("source", "schema_version")


def flatten(value: Any, prefix: str = "") -> Dict[str, object]:
    """Dotted-path -> scalar leaves of a JSON-shaped structure.

    Lists flatten by index, so series keep positional identity; the
    empty dict/list flattens to nothing (its absence is visible through
    the parent's other keys).
    """
    out: Dict[str, object] = {}
    if isinstance(value, dict):
        for key in sorted(value):
            child = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value[key], child))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            child = f"{prefix}.{index}" if prefix else str(index)
            out.update(flatten(item, child))
    else:
        out[prefix] = value
    return out


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_flat(a: Dict[str, object], b: Dict[str, object]) -> Dict:
    """Compare two flattened leaf maps.

    Returns ``{"changed": [...], "only_a": [...], "only_b": [...],
    "equal": n}``; each changed entry carries the leaf values plus, for
    numeric leaves, the delta and (where defined) the ratio.
    """
    changed: List[Dict[str, object]] = []
    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    equal = 0
    for key in sorted(set(a) & set(b)):
        left, right = a[key], b[key]
        # == alone would call True equal to 1; everything else that
        # compares equal across types (0 vs 0.0) is genuinely equal.
        if left == right and isinstance(left, bool) == isinstance(right, bool):
            equal += 1
            continue
        entry: Dict[str, object] = {"key": key, "a": left, "b": right}
        if _is_number(left) and _is_number(right):
            entry["delta"] = right - left
            if left:
                entry["ratio"] = round(right / left, 6)
        changed.append(entry)
    changed.sort(key=_change_magnitude)
    return {
        "changed": changed,
        "only_a": only_a,
        "only_b": only_b,
        "equal": equal,
    }


def _change_magnitude(entry: Dict[str, object]) -> Tuple:
    """Largest relative movement first; non-numeric changes lead."""
    left, right = entry["a"], entry["b"]
    if not (_is_number(left) and _is_number(right)):
        return (0, 0.0, entry["key"])
    scale = max(abs(left), abs(right))
    relative = abs(right - left) / scale if scale else 0.0
    return (1, -relative, entry["key"])


def diff_records(a: Dict, b: Dict) -> Dict:
    """Diff two experiment records (or any two JSON-shaped objects)."""
    flat_a = flatten({k: v for k, v in a.items() if k not in _INFO_KEYS})
    flat_b = flatten({k: v for k, v in b.items() if k not in _INFO_KEYS})
    return diff_flat(flat_a, flat_b)


def diff_docs(a: Dict, b: Dict) -> Dict[str, Dict]:
    """Diff two bench docs experiment-by-experiment, matched by id."""
    by_id_a = {record["id"]: record for record in a.get("experiments", [])}
    by_id_b = {record["id"]: record for record in b.get("experiments", [])}
    out: Dict[str, Dict] = {}
    for key in sorted(
        set(by_id_a) | set(by_id_b),
        key=lambda record_id: int(record_id[1:]),
    ):
        if key not in by_id_a:
            out[key] = {"only_b": ["<entire record>"], "changed": [],
                        "only_a": [], "equal": 0}
        elif key not in by_id_b:
            out[key] = {"only_a": ["<entire record>"], "changed": [],
                        "only_b": [], "equal": 0}
        else:
            out[key] = diff_records(by_id_a[key], by_id_b[key])
    return out


def differing_leaves(diff: Dict) -> int:
    """How many leaves of one diff changed, went missing or appeared."""
    return len(diff["changed"]) + len(diff["only_a"]) + len(diff["only_b"])


def compare_docs(baseline: Dict, new: Dict) -> Dict[str, object]:
    """The regression sentinel's verdict over two validated bench docs.

    Bench docs are deterministic end to end, so the comparison is
    exact: every changed, missing or extra record leaf is a
    regression.  ``summary`` needs no comparison of its own — the
    validator already ties it to the records.
    """
    experiments = diff_docs(baseline, new)
    regressions = sum(differing_leaves(diff) for diff in experiments.values())
    return {
        "ok": regressions == 0,
        "regressions": regressions,
        "equal": sum(diff["equal"] for diff in experiments.values()),
        "experiments": experiments,
    }


# -- variant splitting -------------------------------------------------------


def variant_observations(
    spec: ExperimentSpec, observed: Sequence[Any]
) -> Tuple[Dict[str, List], List]:
    """Group drained recorder handles under the spec's variant labels.

    A handle matches the first variant (in declaration order) whose
    machine spec and kernel config equal the booted ones; handles from
    ad-hoc configs a workload built itself (``with_changes``) land in
    the unmatched remainder.
    """
    groups: Dict[str, List] = {variant.label: [] for variant in spec.variants}
    unmatched: List = []
    for obs in observed:
        for variant in spec.variants:
            if (
                obs.machine.spec == variant.machine
                and obs.kernel.config == variant.config
            ):
                groups[variant.label].append(obs)
                break
        else:
            unmatched.append(obs)
    return groups, unmatched


def variant_derived(
    spec: ExperimentSpec, observed: Sequence[Any]
) -> Tuple[Dict[str, Dict], int]:
    """Per-variant derived blocks (labels with no handles are dropped)."""
    groups, unmatched = variant_observations(spec, observed)
    derived = {
        label: analytics.derive(handles)
        for label, handles in groups.items()
        if handles
    }
    return derived, len(unmatched)


def diff_variant_labels(
    spec: ExperimentSpec,
    observed: Sequence[Any],
    label_a: str,
    label_b: str,
) -> Dict:
    """Diff the derived analytics of two variants of one observed run."""
    derived, unmatched = variant_derived(spec, observed)
    for label in (label_a, label_b):
        if label not in derived:
            known = ", ".join(sorted(derived))
            raise KeyError(
                f"no recorder handles matched variant {label!r} "
                f"(observed variants: {known or 'none'})"
            )
    diff = diff_records(derived[label_a], derived[label_b])
    diff["unmatched_simulators"] = unmatched
    return diff


# -- rendering ---------------------------------------------------------------


def render_diff(
    diff: Dict,
    title_a: str,
    title_b: str,
    limit: Optional[int] = 24,
) -> str:
    """A prose diff table: biggest relative movements first."""
    changed = diff["changed"]
    lines = [f"diff: {title_a}  ->  {title_b}"]
    lines.append(
        f"  {diff['equal']} leaves equal, {len(changed)} changed, "
        f"{len(diff['only_a'])} only in A, {len(diff['only_b'])} only in B"
    )
    if diff.get("unmatched_simulators"):
        lines.append(
            f"  note: {diff['unmatched_simulators']} simulator(s) matched "
            "no declared variant (workload-built configs)"
        )
    shown = changed if limit is None else changed[:limit]
    if shown:
        width = max(len(entry["key"]) for entry in shown)
        for entry in shown:
            row = (f"  {entry['key']:<{width}}  "
                   f"{_fmt(entry['a'])} -> {_fmt(entry['b'])}")
            if "ratio" in entry:
                row += f"  (x{entry['ratio']:g})"
            elif "delta" in entry:
                row += f"  ({entry['delta']:+g})"
            lines.append(row)
        if limit is not None and len(changed) > limit:
            lines.append(f"  ... {len(changed) - limit} more changed leaves "
                         "(--json for all)")
    for label, keys in (("only in A", diff["only_a"]),
                        ("only in B", diff["only_b"])):
        for key in keys[:8]:
            lines.append(f"  {label}: {key}")
        if len(keys) > 8:
            lines.append(f"  {label}: ... {len(keys) - 8} more")
    return "\n".join(lines)


def render_doc_diff(
    per_experiment: Dict[str, Dict], name_a: str, name_b: str,
    limit: Optional[int] = 24,
) -> List[str]:
    """One :func:`render_diff` block per experiment that differs."""
    lines: List[str] = []
    for key, diff in per_experiment.items():
        if differing_leaves(diff):
            lines.append(render_diff(
                diff, f"{name_a}:{key}", f"{name_b}:{key}", limit=limit
            ))
            lines.append("")
    return lines


def render_verdict(verdict: Dict, baseline_name: str, new_name: str,
                   limit: Optional[int] = 24) -> str:
    """The prose verdict (``--json`` prints the record instead)."""
    lines = render_doc_diff(verdict["experiments"], baseline_name,
                            new_name, limit=limit)
    lines.append(
        f"bench compare: {baseline_name} (baseline) vs {new_name} (new): "
        f"{verdict['equal']} leaves equal, {verdict['regressions']} "
        "changed, missing or extra"
    )
    lines.append("VERDICT: " + (
        "ok — the benchmark trajectory matches the baseline"
        if verdict["ok"] else
        "REGRESSION — deterministic results diverged from the baseline"
    ))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,}"
    return str(value)
