"""Finding records produced by the lint engine.

A finding pins one rule violation to a ``file:line`` location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    #: Rule identifier, e.g. ``layering``.
    rule: str
    #: Path relative to the scanned package root, posix-style
    #: (e.g. ``hw/machine.py``).
    path: str
    #: 1-based line of the offending node.
    line: int
    #: 0-based column of the offending node.
    col: int
    #: Human-readable description of the violation.
    message: str
    #: ``error`` findings fail the run; ``warn`` findings fail it only
    #: under ``--fail-on-warn``.
    severity: str = "error"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_record(self) -> Dict[str, object]:
        """Machine-readable form for ``repro lint --json``."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self, prefix: str = "") -> str:
        """One ``file:line:col: [rule] message`` diagnostic line."""
        location = f"{prefix}{self.path}" if prefix else self.path
        tag = self.rule if self.severity == "error" else (
            f"{self.severity}:{self.rule}"
        )
        return f"{location}:{self.line}:{self.col}: [{tag}] {self.message}"
