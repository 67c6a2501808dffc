"""Render results the way the paper's tables print them."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.analysis.spec import REPRODUCED


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Plain-text table with aligned columns."""
    materialized = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in materialized:
        lines.append(
            "  ".join(value.ljust(widths[i]) for i, value in enumerate(row))
        )
    return "\n".join(lines)


#: The claim-record fields the claims block shows, in column order.
_CLAIM_COLUMNS = ("name", "kind", "source", "paper", "measured", "gate",
                  "status")


def format_claims(claims: Sequence[Dict[str, object]]) -> List[str]:
    """The claims block under an experiment's report.

    One row per claim record (:meth:`repro.analysis.spec.Claim.evaluate`)
    under a header row, then the reason of every claim the run did not
    reproduce, once per distinct reason.
    """
    rows = [["claim", *_CLAIM_COLUMNS[1:]]] + [
        [_claim_cell(claim[column]) for column in _CLAIM_COLUMNS]
        for claim in claims
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  " + "  ".join(cell.ljust(width)
                         for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    missed: Dict[object, List[str]] = {}
    for claim in claims:
        if claim["status"] != REPRODUCED and claim["reason"]:
            missed.setdefault(claim["reason"], []).append(str(claim["name"]))
    lines += [
        f"  why {', '.join(names)}: {reason}"
        for reason, names in missed.items()
    ]
    return lines


def _claim_cell(value: object) -> str:
    """Four significant digits: claims compare values of any scale."""
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)
