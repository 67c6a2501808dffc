"""``python -m repro lint`` — the CLI front end of the lint engine.

Exit codes: 0 clean, 1 findings, 2 usage error (a path that does not
exist or lies outside the scanned package).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import LintEngine, rule_catalog


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent


def _resolve_paths(
    root: Path, raw_paths: Sequence[str]
) -> Optional[List[Path]]:
    """Map CLI path arguments onto the scanned tree (None on error).

    A path must name the scanned root or lie inside it: a file's
    layer, and so the rules that apply to it, is its place under the
    root.
    """
    resolved: List[Path] = []
    for raw in raw_paths:
        candidate = Path(raw)
        if not candidate.exists():
            candidate = root / raw
        if not candidate.exists():
            print(f"repro lint: no such path: {raw}", file=sys.stderr)
            return None
        candidate = candidate.resolve()
        if candidate != root and root not in candidate.parents:
            print(
                f"repro lint: {raw} is outside the scanned package {root}",
                file=sys.stderr,
            )
            return None
        resolved.append(candidate)
    return resolved


def list_rules() -> int:
    for entry in rule_catalog():
        print(f"  {entry['id']:<24} {entry['description']}")
    return 0


def run_lint(args: argparse.Namespace) -> int:
    """Entry point for the ``lint`` subcommand (parsed namespace)."""
    if args.list_rules:
        return list_rules()

    root = default_root() if args.root is None else Path(args.root).resolve()
    if not root.is_dir():
        print(f"repro lint: not a directory: {root}", file=sys.stderr)
        return 2

    paths = _resolve_paths(root, args.paths)
    if paths is None:
        return 2

    result = LintEngine(root).run(paths=paths)

    failed = (not result.ok) or (args.fail_on_warn and result.warnings)

    if args.json:
        record = result.to_record()
        record["root"] = str(root)
        print(json.dumps(record, indent=2, sort_keys=True))
        return 1 if failed else 0

    prefix = f"{root}/"
    for finding in result.findings:
        print(finding.render(prefix=prefix))
    summary = (
        f"{result.files_scanned} files scanned, "
        f"{len(result.findings)} finding(s)"
    )
    if result.warnings:
        summary += (
            f" ({len(result.errors)} error, "
            f"{len(result.warnings)} warn)"
        )
    if result.pragma_suppressed:
        summary += f", {result.pragma_suppressed} pragma-suppressed"
    print(summary)
    return 1 if failed else 0
