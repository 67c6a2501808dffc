"""The lint engine: scan a package tree, run every rule, filter.

The engine always parses the *whole* package (the closure rules need
every charge site and publish site), then filters the reported
findings to the requested sub-paths.  Inline pragmas are the one way
to silence a finding, at its exact line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.lint import closure, rules
from repro.lint.base import FileContext, ProjectRule, Report, Rule
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
    closure.LedgerTaxonomyRule(),
    closure.EventRegistryRule(),
]

#: Ids a pragma may name: the rules and the engine's pseudo-rules.
KNOWN_RULE_IDS = {rule.id for rule in ALL_RULES} | {PRAGMA_RULE, PARSE_RULE}


def rule_catalog() -> List[Dict[str, str]]:
    """``[{"id", "description"}, ...]`` for ``--list-rules`` and docs."""
    catalog = [
        {
            "id": rule.id,
            "description": rule.description,
            "kind": (
                "project" if isinstance(rule, ProjectRule) else "file"
            ),
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

    def _load(self) -> "tuple[List[FileContext], List[Finding]]":
        contexts: List[FileContext] = []
        broken: List[Finding] = []
        for path in sorted(self.root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(self.root)
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
        """Run every rule; ``paths`` restricts *reported* locations.

        The whole package is always scanned so the closure rules see
        every callsite; path scoping only filters which findings are
        reported.
        """
        contexts, raw = self._load()

        def file_report(ctx: FileContext) -> Report:
            def report(node: ast.AST, message: str) -> None:
                raw.append(
                    Finding(
                        rule=current_rule.id,
                        path=ctx.rel,
                        line=getattr(node, "lineno", 1),
                        col=getattr(node, "col_offset", 0),
                        message=message,
                        severity=current_rule.severity,
                    )
                )
            return report

        current_rule: Rule
        for current_rule in self.rules:
            if isinstance(current_rule, ProjectRule):
                rule = current_rule

                def project_report(
                    ctx: FileContext, node: ast.AST, message: str,
                    rule: ProjectRule = rule,
                ) -> None:
                    raw.append(
                        Finding(
                            rule=rule.id,
                            path=ctx.rel,
                            line=getattr(node, "lineno", 1),
                            col=getattr(node, "col_offset", 0),
                            message=message,
                            severity=rule.severity,
                        )
                    )

                current_rule.check_project(contexts, project_report)
            else:
                for ctx in contexts:
                    current_rule.check_file(ctx, file_report(ctx))

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
        scoped = self._scope_filter(paths)
        for finding in sorted(set(raw), key=Finding.sort_key):
            pragmas = pragmas_by_rel.get(finding.path)
            if pragmas is not None and pragmas.suppresses(
                finding.rule, finding.line
            ):
                result.pragma_suppressed += 1
                continue
            if scoped(finding):
                result.findings.append(finding)
        return result

    def _scope_filter(
        self, paths: Optional[Sequence[Path]]
    ) -> "Callable[[Finding], bool]":
        if not paths:
            return lambda finding: True
        resolved = [Path(p).resolve() for p in paths]

        def scoped(finding: Finding) -> bool:
            absolute = (self.root / finding.path).resolve()
            for scope in resolved:
                if absolute == scope or scope in absolute.parents:
                    return True
            return False

        return scoped
