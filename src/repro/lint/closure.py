"""The cross-file closure rules.

Two registries anchor runtime guarantees; these passes close them
statically, so deleting a registry entry (or adding an unregistered
publisher) fails lint instead of failing — or worse, silently skewing —
a simulator run:

* every raw cycle category charged to the ledger appears in the
  profiler's ``PATH_CATEGORIES`` taxonomy (what :class:`AttributionError`
  polices at runtime, on the paths a run happens to exercise);
* every event name published into the tracer or counted by the
  hardware monitor appears in the ``EVENT_NAMES`` registry of
  ``obs/events.py``, and every tracer publication passes one value per
  key its entry registers.

The observatory's derived tables (analytics, flamegraph) are built
from those registries at import time, so they need no pass.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.lint.base import (
    FileContext,
    ProjectRule,
    dotted_name,
    receiver_tail,
    str_const,
)

ProjectReport = Callable[[FileContext, ast.AST, str], None]


def _find_context(
    contexts: List[FileContext], rel_suffix: str
) -> Optional[FileContext]:
    for ctx in contexts:
        if ctx.rel.endswith(rel_suffix):
            return ctx
    return None


def _assigned_value(tree: ast.Module, name: str) -> Optional[ast.expr]:
    """The value of the first module-level ``NAME = ...`` assignment."""
    for node in tree.body:
        target: Optional[ast.expr]
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == name:
            return value
    return None


def _dict_literal(
    tree: ast.Module, name: str
) -> Optional[Dict[str, Tuple[ast.AST, ast.AST]]]:
    """String key -> (key node, value node) of ``NAME = {...}``."""
    value = _assigned_value(tree, name)
    if not isinstance(value, ast.Dict):
        return None
    out: Dict[str, Tuple[ast.AST, ast.AST]] = {}
    for key, entry in zip(value.keys, value.values):
        literal = str_const(key) if key is not None else None
        if key is not None and literal is not None:
            out[literal] = (key, entry)
    return out


def _dict_literal_keys(
    tree: ast.Module, name: str
) -> Optional[Dict[str, ast.AST]]:
    """String keys of a module-level ``NAME = {...}`` dict literal."""
    items = _dict_literal(tree, name)
    if items is None:
        return None
    return {literal: key for literal, (key, _entry) in items.items()}


def _frozenset_literal(
    tree: ast.Module, name: str
) -> Optional[List[Tuple[str, ast.AST]]]:
    """String elements of ``NAME = frozenset({...})`` / ``{...}``."""
    value = _assigned_value(tree, name)
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "frozenset"
        and len(value.args) == 1
    ):
        value = value.args[0]
    if not isinstance(value, ast.Set):
        return None
    out = []
    for element in value.elts:
        literal = str_const(element)
        if literal is not None:
            out.append((literal, element))
    return out


# -- ledger taxonomy ---------------------------------------------------------


def _charge_sites(ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
    """``(node, category)`` for every literal ledger charge.

    Matches ``<...>.clock.add(x, "cat")`` / ``ledger.add(x, "cat")``
    positionally or via ``category=``, plus a ``category="cat"``
    keyword on any call (the page allocator's ``clear_page`` threads
    the category through).
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        is_ledger_add = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "add"
            and receiver_tail(node.func.value) in ("clock", "ledger")
        )
        if is_ledger_add and len(node.args) >= 2:
            literal = str_const(node.args[1])
            if literal is not None:
                yield node, literal
                continue
        for keyword in node.keywords:
            if keyword.arg == "category":
                literal = str_const(keyword.value)
                if literal is not None:
                    yield node, literal


class LedgerTaxonomyRule(ProjectRule):
    id = "ledger-taxonomy"
    description = (
        "every cycle category charged to the ledger is covered by the "
        "profiler's PATH_CATEGORIES taxonomy (and vice versa)"
    )

    #: File that owns the taxonomy, relative to the package root.
    REGISTRY = "obs/profiler.py"
    REGISTRY_NAME = "PATH_CATEGORIES"
    #: The profiler's explicit catch-all output category.
    FALLBACK = "other"

    def check_project(
        self, contexts: List[FileContext], report: ProjectReport
    ) -> None:
        sites = [
            (ctx, node, category)
            for ctx in contexts
            for node, category in _charge_sites(ctx)
        ]
        registry_ctx = _find_context(contexts, self.REGISTRY)
        if registry_ctx is None:
            if sites:
                ctx, node, _category = sites[0]
                report(
                    ctx, node,
                    f"cycle categories are charged but no "
                    f"{self.REGISTRY} defines {self.REGISTRY_NAME}",
                )
            return
        keys = _dict_literal_keys(registry_ctx.tree, self.REGISTRY_NAME)
        if keys is None:
            report(
                registry_ctx, registry_ctx.tree,
                f"{self.REGISTRY_NAME} in {self.REGISTRY} must be a "
                "literal dict of raw-category -> path-category strings",
            )
            return
        charged = set()
        for ctx, node, category in sites:
            charged.add(category)
            if category not in keys and category != self.FALLBACK:
                report(
                    ctx, node,
                    f"cycle category {category!r} is not in the "
                    f"profiler taxonomy ({self.REGISTRY_NAME}); the "
                    "attribution would silently lump it into "
                    f"{self.FALLBACK!r}",
                )
        for category, key_node in keys.items():
            if category not in charged:
                report(
                    registry_ctx, key_node,
                    f"taxonomy entry {category!r} is never charged to "
                    "the ledger anywhere; delete it or charge it",
                )


# -- event registry ----------------------------------------------------------


#: Tracer publisher -> its positional arguments before the values (the
#: name, then the category and for spans the duration).
_LEADING_ARGS = {"instant": 2, "complete": 3, "counter": 1}


def _publish_sites(
    ctx: FileContext,
) -> Iterator[Tuple[ast.Call, Optional[str], Optional[str], Optional[int]]]:
    """``(node, literal_name, fstring_prefix, leading)`` for publishers.

    Covers tracer publications (``<...>.tracer.instant/complete/
    counter``) and hardware-monitor counts (``<...>.monitor.count``).
    For f-string names, the literal prefix is returned instead (matched
    against wildcard registry entries).  ``leading`` counts a tracer
    call's arguments before its values (``None`` for a monitor count).
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        tail = receiver_tail(node.func.value)
        leading = _LEADING_ARGS.get(node.func.attr)
        is_tracer_pub = tail == "tracer" and leading is not None
        is_monitor_count = tail == "monitor" and node.func.attr == "count"
        if not (is_tracer_pub or is_monitor_count) or not node.args:
            continue
        name_arg = node.args[0]
        literal = str_const(name_arg)
        if literal is not None:
            yield node, literal, None, leading
        elif isinstance(name_arg, ast.JoinedStr) and name_arg.values:
            prefix = str_const(name_arg.values[0])
            yield node, None, prefix, leading  # prefix None: dynamic name
        # Plain variables (e.g. the monitor re-publishing its filtered
        # event stream) are covered at their own literal callsites.


def _registered_key_counts(
    entries: Dict[str, Tuple[ast.AST, ast.AST]]
) -> Dict[str, int]:
    """Registry entry -> how many keys its ``args`` tuple registers.

    An entry that is not an ``Event(...)`` call registers none.
    Monitor-kind entries, whose counts reach the tracer only through
    ``on_monitor_event``, and an ``args`` that is not a literal tuple
    are left out: their callsites are not counted.
    """
    counts: Dict[str, int] = {}
    for name, (_key, entry) in entries.items():
        if not isinstance(entry, ast.Call):
            counts[name] = 0
            continue
        if entry.args and dotted_name(entry.args[0]) == "MONITOR":
            continue
        keys: Optional[ast.AST] = next(
            (kw.value for kw in entry.keywords if kw.arg == "args"),
            entry.args[3] if len(entry.args) > 3 else None,
        )
        if keys is None:
            counts[name] = 0
        elif isinstance(keys, ast.Tuple):
            counts[name] = len(keys.elts)
    return counts


class EventRegistryRule(ProjectRule):
    id = "event-registry"
    description = (
        "every event name published to the tracer or monitor exists "
        "in the EVENT_NAMES registry of obs/events.py, and every tracer "
        "callsite passes one value per key its entry registers"
    )

    REGISTRY = "obs/events.py"
    REGISTRY_NAME = "EVENT_NAMES"
    MONITOR_FILTER = "DEFAULT_MONITOR_EVENTS"

    def check_project(
        self, contexts: List[FileContext], report: ProjectReport
    ) -> None:
        sites = [
            (ctx, node, literal, prefix, leading)
            for ctx in contexts
            for node, literal, prefix, leading in _publish_sites(ctx)
        ]
        registry_ctx = _find_context(contexts, self.REGISTRY)
        if registry_ctx is None:
            if sites:
                ctx, node = sites[0][:2]
                report(
                    ctx, node,
                    f"events are published but no {self.REGISTRY} "
                    f"defines {self.REGISTRY_NAME}",
                )
            return
        entries = _dict_literal(registry_ctx.tree, self.REGISTRY_NAME)
        if entries is None:
            report(
                registry_ctx, registry_ctx.tree,
                f"{self.REGISTRY_NAME} in {self.REGISTRY} must be a "
                "literal dict keyed by event-name strings",
            )
            return
        key_counts = _registered_key_counts(entries)
        exact = {key for key in entries if not key.endswith("*")}
        wildcards = [key for key in entries if key.endswith("*")]
        for ctx, node, literal, prefix, leading in sites:
            entry: Optional[str] = None
            if literal is not None:
                entry = literal if literal in exact else next(
                    (key for key in wildcards
                     if literal.startswith(key[:-1])), None,
                )
                if entry is None:
                    report(
                        ctx, node,
                        f"event name {literal!r} is not in the "
                        f"{self.REGISTRY_NAME} registry of {self.REGISTRY}",
                    )
            elif prefix is None:
                report(
                    ctx, node,
                    "event name is built dynamically with no literal "
                    "prefix; registry closure cannot cover it",
                )
            else:
                entry = next(
                    (key for key in wildcards
                     if prefix.startswith(key[:-1])
                     or key[:-1].startswith(prefix)), None,
                )
                if entry is None:
                    report(
                        ctx, node,
                        f"f-string event name with prefix {prefix!r} has "
                        f"no matching wildcard entry in "
                        f"{self.REGISTRY_NAME} (add e.g. '{prefix}*')",
                    )
            expected = None if entry is None else key_counts.get(entry)
            # A starred value list is not counted: it must expand the
            # registered keys themselves (the sampler's monitor track).
            if (leading is None or expected is None
                    or any(isinstance(a, ast.Starred) for a in node.args)):
                continue
            passed = len(node.args) - leading
            if passed != expected:
                report(
                    ctx, node,
                    f"event {entry!r} passes {passed} value(s) but its "
                    f"{self.REGISTRY_NAME} entry registers {expected} "
                    "key(s)",
                )
        # The tracer's default monitor-event filter must itself be
        # registered: an entry here that is not an event name is dead.
        filtered = _frozenset_literal(registry_ctx.tree, self.MONITOR_FILTER)
        for name, element in filtered or ():
            if name not in exact:
                report(
                    registry_ctx, element,
                    f"{self.MONITOR_FILTER} lists {name!r}, which is "
                    f"not in {self.REGISTRY_NAME}",
                )
