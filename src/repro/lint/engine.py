"""The lint engine: parse the requested files, run every rule on each.

Every rule is per-file, so the engine parses only the paths it is
given (the whole package when given none).  Inline pragmas are the one
way to silence a finding, at its exact line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.lint import rules
from repro.lint.base import FileContext, Report, Rule
from repro.lint.findings import Finding
from repro.lint.pragmas import PRAGMA_RULE, FilePragmas, parse_pragmas

#: Pseudo-rule for files the engine cannot parse.
PARSE_RULE = "parse-error"

#: Every shipped rule, in reporting order.
ALL_RULES: List[Rule] = [
    rules.UnseededRandomRule(),
    rules.WallClockRule(),
    rules.SetIterationRule(),
    rules.LayeringRule(),
    rules.ZeroPerturbationRule(),
    rules.HookGuardRule(),
    rules.ErrorDisciplineRule(),
    rules.GeometryLiteralRule(),
]

#: Ids a pragma may name: the rules and the engine's pseudo-rules.
KNOWN_RULE_IDS = {rule.id for rule in ALL_RULES} | {PRAGMA_RULE, PARSE_RULE}


def rule_catalog() -> List[Dict[str, str]]:
    """``[{"id", "description"}, ...]`` for ``--list-rules`` and docs."""
    catalog = [
        {
            "id": rule.id,
            "description": rule.description,
            "kind": "file",
            "severity": rule.severity,
        }
        for rule in ALL_RULES
    ]
    catalog.append({
        "id": PRAGMA_RULE,
        "description": (
            "every repro-lint pragma names known rules and carries a "
            "'-- justification'"
        ),
        "kind": "pseudo",
        "severity": "error",
    })
    catalog.append({
        "id": PARSE_RULE,
        "description": "every scanned file parses as Python",
        "kind": "pseudo",
        "severity": "error",
    })
    return catalog


@dataclass
class LintResult:
    """Outcome of one engine run."""

    #: Findings that fail the run (not suppressed), sorted.
    findings: List[Finding] = field(default_factory=list)
    #: Count of findings silenced by inline pragmas.
    pragma_suppressed: int = 0
    files_scanned: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warn"]

    @property
    def ok(self) -> bool:
        """No error findings (warns fail only under ``--fail-on-warn``)."""
        return not self.errors

    def to_record(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "counts": {
                "error": len(self.errors),
                "warn": len(self.warnings),
            },
            "files_scanned": self.files_scanned,
            "findings": [f.to_record() for f in self.findings],
            "suppressed": {"pragma": self.pragma_suppressed},
            "rules": rule_catalog(),
        }


class LintEngine:
    """Scans one package root with the shipped rule set."""

    def __init__(
        self,
        root: Path,
        lint_rules: Optional[Sequence[Rule]] = None,
    ) -> None:
        #: Directory of the package to scan (e.g. ``.../src/repro``).
        self.root = Path(root)
        self.rules: List[Rule] = list(
            ALL_RULES if lint_rules is None else lint_rules
        )

    # -- scanning ------------------------------------------------------------

    def _module_for(self, rel: Path) -> str:
        parts = [self.root.name] + list(rel.parts)
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][: -len(".py")]
        return ".".join(parts)

    def _files(self, paths: Optional[Sequence[Path]]) -> List[Path]:
        """The ``.py`` files under ``paths`` (the whole root if none)."""
        found: Set[Path] = set()
        for scope in paths or [self.root]:
            scope = Path(scope).resolve()
            if scope.is_file():
                found.add(scope)
            else:
                found.update(
                    path for path in scope.rglob("*.py")
                    if "__pycache__" not in path.parts
                )
        return sorted(found)

    def _load(
        self, paths: Optional[Sequence[Path]]
    ) -> "tuple[List[FileContext], List[Finding]]":
        root = self.root.resolve()
        contexts: List[FileContext] = []
        broken: List[Finding] = []
        for path in self._files(paths):
            rel = path.relative_to(root)
            source = path.read_text()
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                broken.append(
                    Finding(
                        rule=PARSE_RULE,
                        path=rel.as_posix(),
                        line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            layer = rel.parts[0] if len(rel.parts) > 1 else ""
            contexts.append(
                FileContext(
                    path=path,
                    rel=rel.as_posix(),
                    layer=layer,
                    module=self._module_for(rel),
                    tree=tree,
                    lines=source.splitlines(),
                )
            )
        return contexts, broken

    # -- running -------------------------------------------------------------

    def run(self, paths: Optional[Sequence[Path]] = None) -> LintResult:
        """Run every rule over the files under ``paths``.

        Each path is a file or directory inside the root; with none,
        the whole root is scanned.
        """
        contexts, raw = self._load(paths)

        for ctx in contexts:
            for rule in self.rules:
                rule.check_file(ctx, _reporter(raw, rule, ctx.rel))

        # Pragmas: line-exact suppression plus hygiene findings.
        pragmas_by_rel: Dict[str, FilePragmas] = {}
        for ctx in contexts:
            pragmas = parse_pragmas(ctx.lines, KNOWN_RULE_IDS)
            pragmas_by_rel[ctx.rel] = pragmas
            for line, message in pragmas.problems:
                raw.append(
                    Finding(
                        rule=PRAGMA_RULE,
                        path=ctx.rel,
                        line=line,
                        col=0,
                        message=message,
                    )
                )

        result = LintResult(files_scanned=len(contexts))
        for finding in sorted(set(raw), key=Finding.sort_key):
            pragmas = pragmas_by_rel.get(finding.path)
            if pragmas is not None and pragmas.suppresses(
                finding.rule, finding.line
            ):
                result.pragma_suppressed += 1
                continue
            result.findings.append(finding)
        return result


def _reporter(raw: List[Finding], rule: Rule, rel: str) -> Report:
    """The ``report(node, message)`` callback ``rule`` gets for ``rel``."""
    def report(node: ast.AST, message: str) -> None:
        raw.append(
            Finding(
                rule=rule.id,
                path=rel,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
                severity=rule.severity,
            )
        )
    return report
