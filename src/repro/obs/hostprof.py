"""Host-time profiling: where the *real* CPU seconds go.

Everything else in the observatory measures simulated cycles.  This
module answers the complementary question — which parts of the
reproduction burn host time — by running experiments under
:mod:`cProfile` and aggregating the per-function ``tottime`` onto the
simulator's hot kernels (the TLB, the hash table, the cache model,
the kernel paths).  That is the trajectory data for optimizing the
*repro itself*: PR 6's packed-int rewrite was motivated by exactly
this breakdown.

Host seconds are wall-clock-adjacent and therefore outside every
determinism contract in this package: two runs of ``repro profile
--host`` agree on the grouping and ordering logic but not on the
numbers.  Nothing here is ever fed into a bench doc's deterministic
sections.

``KERNEL_GROUPS`` is ordered and first match wins; a unit test checks
every path fragment names a real module (or package directory) of
the ``repro`` package, so the attribution cannot silently rot when
files move.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, List, Optional, Tuple

#: ``(path fragment, group)`` — a profiled function whose filename
#: contains the fragment lands in the group; first match wins, so the
#: specific hot kernels come before their packages.
KERNEL_GROUPS: Tuple[Tuple[str, str], ...] = (
    ("repro/hw/tlb.py", "hw.tlb"),
    ("repro/hw/hashtable.py", "hw.hashtable"),
    ("repro/hw/cache.py", "hw.cache"),
    ("repro/hw/walker.py", "hw.walker"),
    ("repro/hw/machine.py", "hw.machine"),
    ("repro/hw/", "hw.other"),
    ("repro/kernel/reload.py", "kernel.reload"),
    ("repro/kernel/flush.py", "kernel.flush"),
    ("repro/kernel/idle.py", "kernel.idle"),
    ("repro/kernel/", "kernel.other"),
    ("repro/sim/", "sim"),
    ("repro/workloads/", "workloads"),
    ("repro/obs/", "obs"),
    ("repro/analysis/", "analysis"),
    ("repro/check/", "check"),
)

#: Everything that matches no group (stdlib, interpreter overhead,
#: the rest of the package).
OTHER_GROUP = "other"


def group_for(filename: str) -> str:
    """The kernel group a profiled function's filename belongs to."""
    normalized = filename.replace("\\", "/")
    for fragment, group in KERNEL_GROUPS:
        if fragment in normalized:
            return group
    return OTHER_GROUP


def profile_experiments(ids: List[str]) -> Dict:
    """Run experiments under cProfile; return the host-time breakdown.

    Experiments run through the engine's pure path (no result cache —
    a cache hit would profile nothing but JSON parsing), one shared
    profiler across all of them.  The returned document carries the
    per-group seconds, the hottest functions per group, and the
    experiments' shape verdicts so a profiling run still reports
    correctness.
    """
    from repro.analysis import engine, specs

    profiler = cProfile.Profile()
    shapes: Dict[str, bool] = {}
    profiler.enable()
    try:
        for key in ids:
            result = engine.execute(specs.SPECS[key])
            shapes[key] = result.shape_holds
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    return breakdown_from_stats(stats, ids, shapes)


def breakdown_from_stats(
    stats: "pstats.Stats", ids: List[str], shapes: Dict[str, bool]
) -> Dict:
    """Fold pstats rows into the kernel-group breakdown document."""
    groups: Dict[str, Dict] = {}
    total = 0.0
    calls = 0
    for (filename, line, name), row in stats.stats.items():  # type: ignore[attr-defined]
        cc, nc, tt, _ct, _callers = row
        group = group_for(filename)
        entry = groups.setdefault(
            group, {"seconds": 0.0, "calls": 0, "functions": []}
        )
        entry["seconds"] += tt
        entry["calls"] += nc
        entry["functions"].append(
            {"function": f"{name} ({filename.rsplit('/', 1)[-1]}:{line})",
             "seconds": tt, "calls": nc}
        )
        total += tt
        calls += nc
    for entry in groups.values():
        entry["functions"].sort(
            key=lambda f: (-f["seconds"], f["function"])
        )
        del entry["functions"][5:]
        entry["seconds"] = round(entry["seconds"], 4)
        for function in entry["functions"]:
            function["seconds"] = round(function["seconds"], 4)
        entry["share"] = round(entry["seconds"] / total, 4) if total else 0.0
    return {
        "experiments": list(ids),
        "shapes": shapes,
        "host_seconds": round(total, 4),
        "calls": calls,
        "groups": dict(sorted(
            groups.items(),
            key=lambda item: (-item[1]["seconds"], item[0]),
        )),
    }


def render_host_profile(doc: Dict, top: Optional[int] = 3) -> str:
    """The host-time table ``repro profile --host`` prints."""
    ids = ", ".join(doc["experiments"])
    lines = [
        f"host-time profile — {ids} "
        f"({doc['host_seconds']:.2f}s in {doc['calls']:,} calls)",
        f"  {'group':<18}{'seconds':>10}{'share':>9}{'calls':>14}",
    ]
    for group, entry in doc["groups"].items():
        lines.append(
            f"  {group:<18}{entry['seconds']:>10.3f}"
            f"{entry['share']:>8.1%}{entry['calls']:>14,}"
        )
        for function in entry["functions"][: top or 0]:
            lines.append(
                f"      {function['seconds']:>8.3f}s  "
                f"{function['function']}"
            )
    broken = [key for key, holds in doc["shapes"].items() if not holds]
    if broken:
        lines.append(f"  SHAPE BROKEN under profiling: {', '.join(broken)}")
    return "\n".join(lines) + "\n"
