"""Rule plumbing: file contexts, the rule base class, AST helpers.

Every rule sees a :class:`FileContext` — the parsed AST plus the
file's place in the package (its *layer*: ``hw``, ``kernel``, ``sim``,
``obs``, ``check``, ...) — one file at a time.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set

#: ``report(node, message)`` — rules call this for each violation.
Report = Callable[[ast.AST, str], None]

#: Layers whose code runs *inside* the simulation: nondeterminism here
#: breaks the byte-identical-trace guarantee.  ``obs`` and ``check``
#: observe from outside (their wall-clock use is reporting only).
SIMULATED_LAYERS = frozenset(
    {"hw", "kernel", "sim", "workloads", "analysis", "oscompare", "perf"}
)


@dataclass
class FileContext:
    """One parsed source file plus its location metadata."""

    #: Absolute path on disk.
    path: Path
    #: Posix path relative to the scanned package root, e.g.
    #: ``hw/machine.py``.
    rel: str
    #: First directory under the package root (``""`` for top-level
    #: modules like ``params.py``).
    layer: str
    #: Dotted module name rooted at the package, e.g.
    #: ``repro.hw.machine``.
    module: str
    tree: ast.Module
    #: Source split into lines (1-based access via ``lines[lineno-1]``).
    lines: List[str]
    #: Child node -> parent node, for guard/ancestor walks.
    parents: Dict[int, ast.AST] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[id(child)] = parent

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The parent chain of ``node``, innermost first."""
        current: Optional[ast.AST] = self.parents.get(id(node))
        while current is not None:
            yield current
            current = self.parents.get(id(current))


class Rule:
    """A rule; subclasses override :meth:`check_file`."""

    #: Stable rule identifier used in findings, pragmas and baselines.
    id: str = ""
    #: One-line description for ``repro lint --list-rules``.
    description: str = ""
    #: ``error`` (fails the run) or ``warn`` (fails only under
    #: ``--fail-on-warn``).
    severity: str = "error"

    def check_file(self, ctx: FileContext, report: Report) -> None:
        raise NotImplementedError


# -- AST helpers shared by the rules ----------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def receiver_tail(node: ast.AST) -> Optional[str]:
    """The last component of a receiver expression.

    ``machine.tracer`` -> ``tracer``; ``tracer`` -> ``tracer``;
    anything else (calls, subscripts) -> ``None``.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def attr_root(node: ast.AST) -> Optional[ast.AST]:
    """The leftmost expression of an Attribute chain."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def not_none_exprs(test: ast.AST) -> Set[str]:
    """Unparsed expressions asserted ``is not None`` by ``test``.

    Descends through ``and`` chains: ``a and b.c is not None`` yields
    ``{"b.c"}``.
    """
    out: Set[str] = set()
    stack = [test]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            stack.extend(node.values)
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            comparator = node.comparators[0]
            if (
                isinstance(node.ops[0], ast.IsNot)
                and isinstance(comparator, ast.Constant)
                and comparator.value is None
            ):
                out.add(ast.unparse(node.left))
    return out


def _contains(container: ast.AST, node: ast.AST) -> bool:
    return any(child is node for child in ast.walk(container))


def active_guards(ctx: FileContext, node: ast.AST) -> Set[str]:
    """Expressions known ``is not None`` at ``node``'s position.

    Collects guards from enclosing ``if``/``while`` statements and
    ``if`` expressions (taken-branch only), preceding operands of
    ``and`` chains, and comprehension ``if`` clauses.
    """
    guards: Set[str] = set()
    child: ast.AST = node
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.If, ast.While)):
            if any(stmt is child or _contains(stmt, child)
                   for stmt in ancestor.body):
                guards |= not_none_exprs(ancestor.test)
        elif isinstance(ancestor, ast.IfExp):
            if ancestor.body is child or _contains(ancestor.body, child):
                guards |= not_none_exprs(ancestor.test)
        elif isinstance(ancestor, ast.BoolOp) and isinstance(
            ancestor.op, ast.And
        ):
            for operand in ancestor.values:
                if operand is child or _contains(operand, child):
                    break
                guards |= not_none_exprs(operand)
        elif isinstance(
            ancestor,
            (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp),
        ):
            for generator in ancestor.generators:
                for condition in generator.ifs:
                    guards |= not_none_exprs(condition)
        child = ancestor
    return guards
