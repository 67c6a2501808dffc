"""The per-file domain rules.

Each rule encodes one discipline the repo stakes guarantees on — see
DESIGN.md's "Static analysis" section for the inventory.  The rules are
conservative by construction: they flag only patterns they can prove
from the AST (e.g. iteration over an expression *known* to be a set),
so a clean run is meaningful and pragmas stay rare.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

from repro.lint.base import (
    SIMULATED_LAYERS,
    FileContext,
    Report,
    Rule,
    active_guards,
    attr_root,
    dotted_name,
    receiver_tail,
)

# -- determinism -------------------------------------------------------------

#: Module-level functions of :mod:`random` that use the shared,
#: unseeded global generator.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "getrandbits", "randbytes", "betavariate",
    "expovariate", "gauss", "normalvariate", "paretovariate",
    "triangular", "vonmisesvariate", "weibullvariate", "seed",
})

#: Wall-clock and entropy sources that differ between identical runs.
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
})


class UnseededRandomRule(Rule):
    id = "unseeded-random"
    description = (
        "simulated paths must draw randomness from a seeded "
        "random.Random(seed), never the global generator"
    )

    def check_file(self, ctx: FileContext, report: Report) -> None:
        if ctx.layer not in SIMULATED_LAYERS:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        report(
                            node,
                            f"'from random import {alias.name}' uses the "
                            "unseeded global generator; construct a "
                            "seeded random.Random(seed) instead",
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if (
                    name.startswith("random.")
                    and name[len("random."):] in _GLOBAL_RANDOM_FUNCS
                ):
                    report(
                        node,
                        f"{name}() draws from the unseeded global "
                        "generator; use a seeded random.Random(seed) "
                        "instance",
                    )
                elif (
                    name == "random.Random"
                    and not node.args
                    and not node.keywords
                ):
                    report(
                        node,
                        "random.Random() without a seed is "
                        "nondeterministic; pass an explicit seed",
                    )


class WallClockRule(Rule):
    id = "wall-clock"
    description = (
        "simulated paths must not read wall-clock time or OS entropy "
        "(time.time, datetime.now, os.urandom, ...)"
    )

    def check_file(self, ctx: FileContext, report: Report) -> None:
        if ctx.layer not in SIMULATED_LAYERS:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _WALL_CLOCK_CALLS:
                    report(
                        node,
                        f"{name}() varies between identical runs; "
                        "simulated time lives in the cycle ledger",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if f"time.{alias.name}" in _WALL_CLOCK_CALLS:
                        report(
                            node,
                            f"'from time import {alias.name}' pulls a "
                            "wall-clock source into a simulated path",
                        )


def _is_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` provably evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _iteration_sites(tree: ast.AST) -> Iterator[Tuple[ast.AST, ast.expr]]:
    """Every ``(node, iterable)`` pair: for-loops and comprehensions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(
            node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            for generator in node.generators:
                yield node, generator.iter


def _known_set_names(scope: ast.AST) -> Set[str]:
    """Local names provably holding sets for a whole function scope.

    A name counts only if *every* plain assignment to it is a set
    expression, so reassignment to a list or sorted() clears it.
    """
    good: Set[str] = set()
    bad: Set[str] = set()
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                if _is_set_expr(node.value):
                    good.add(target.id)
                else:
                    bad.add(target.id)
    return good - bad


def _known_set_self_attrs(klass: ast.ClassDef) -> Set[str]:
    """``self.X`` attributes provably holding sets class-wide."""
    good: Set[str] = set()
    bad: Set[str] = set()
    for node in ast.walk(klass):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if _is_set_expr(node.value):
                    good.add(target.attr)
                else:
                    bad.add(target.attr)
    return good - bad


class SetIterationRule(Rule):
    id = "set-iteration"
    description = (
        "simulated paths must not iterate sets directly (hash order "
        "is not stable); iterate sorted(...) instead"
    )

    _MESSAGE = (
        "iteration order over a set is not deterministic; "
        "iterate sorted(...) or keep an ordered structure"
    )

    def check_file(self, ctx: FileContext, report: Report) -> None:
        if ctx.layer not in SIMULATED_LAYERS:
            return
        # Direct set expressions, anywhere.
        for _node, iterable in _iteration_sites(ctx.tree):
            if _is_set_expr(iterable):
                report(iterable, self._MESSAGE)
        # Locals provably bound to sets, per function scope.
        for scope in ast.walk(ctx.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = _known_set_names(scope)
            if not names:
                continue
            for _node, iterable in _iteration_sites(scope):
                if isinstance(iterable, ast.Name) and iterable.id in names:
                    report(iterable, self._MESSAGE)
        # ``self.X`` attributes provably bound to sets, per class.
        for klass in ast.walk(ctx.tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            attrs = _known_set_self_attrs(klass)
            if not attrs:
                continue
            for _node, iterable in _iteration_sites(klass):
                if (
                    isinstance(iterable, ast.Attribute)
                    and isinstance(iterable.value, ast.Name)
                    and iterable.value.id == "self"
                    and iterable.attr in attrs
                ):
                    report(iterable, self._MESSAGE)


# -- layering ----------------------------------------------------------------

#: Layer -> sibling layers it must not import.  ``hw`` models silicon
#: and knows nothing above it; ``kernel`` sits on ``hw`` and is
#: observed *by* sim/obs/check through duck-typed hooks, never the
#: other way around.
_BANNED_IMPORTS: Dict[str, FrozenSet[str]] = {
    "hw": frozenset({
        "kernel", "sim", "obs", "check", "analysis", "workloads",
        "oscompare",
    }),
    "kernel": frozenset({
        "sim", "obs", "check", "analysis", "workloads", "oscompare",
    }),
}


class LayeringRule(Rule):
    id = "layering"
    description = (
        "hw/ imports no higher layer; kernel/ never imports sim/, "
        "obs/ or check/; only the CLI imports lint/"
    )

    def check_file(self, ctx: FileContext, report: Report) -> None:
        package = ctx.module.split(".", 1)[0]
        banned = set(_BANNED_IMPORTS.get(ctx.layer, frozenset()))
        if ctx.layer not in ("", "lint"):
            banned.add("lint")
        if not banned:
            return
        for node, target in self._internal_imports(ctx, package):
            parts = target.split(".")
            if len(parts) >= 2 and parts[1] in banned:
                report(
                    node,
                    f"{ctx.layer}/ must not import {parts[1]}/ "
                    f"(imports {target})",
                )

    @staticmethod
    def _internal_imports(
        ctx: FileContext, package: str
    ) -> Iterator[Tuple[ast.AST, str]]:
        """Every import of a module inside ``package``."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".", 1)[0] == package:
                        yield node, alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    module = node.module or ""
                    if module.split(".", 1)[0] == package:
                        yield node, module
                    continue
                # Resolve a relative import against this module's
                # package path.
                base = ctx.module.split(".")
                if not ctx.rel.endswith("__init__.py"):
                    base = base[:-1]
                if node.level - 1 <= len(base):
                    resolved = base[: len(base) - (node.level - 1)]
                    suffix = (node.module or "").split(".")
                    target = ".".join(resolved + [s for s in suffix if s])
                    if target.split(".", 1)[0] == package:
                        yield node, target


# -- zero perturbation -------------------------------------------------------


def _assignment_targets(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield node.target
    elif isinstance(node, ast.Delete):
        yield from node.targets


def _flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten_targets(target.value)
    else:
        yield target


class ZeroPerturbationRule(Rule):
    id = "zero-perturbation"
    description = (
        "obs/ and check/ may read foreign objects but never assign "
        "attributes on them (counter-free reads contract)"
    )

    def check_file(self, ctx: FileContext, report: Report) -> None:
        if ctx.layer not in ("obs", "check"):
            return
        owned = self._module_level_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            for raw in _assignment_targets(node):
                for target in _flatten_targets(raw):
                    if not isinstance(target, ast.Attribute):
                        continue
                    root = attr_root(target)
                    if isinstance(root, ast.Name) and (
                        root.id in ("self", "cls") or root.id in owned
                    ):
                        # self/cls state, or a module-level singleton this
                        # file itself defines — owned, not foreign.
                        continue
                    report(
                        target,
                        f"assignment to foreign attribute "
                        f"'{ast.unparse(target)}' perturbs the observed "
                        "system; observers only read",
                    )

    @staticmethod
    def _module_level_names(tree: ast.Module) -> Set[str]:
        """Names bound by assignment at module top level."""
        owned: Set[str] = set()
        for stmt in tree.body:
            for raw in _assignment_targets(stmt):
                for target in _flatten_targets(raw):
                    if isinstance(target, ast.Name):
                        owned.add(target.id)
        return owned


# -- hook discipline ---------------------------------------------------------

#: Optional hook attributes the machine carries (``None`` unless a
#: recorder/sanitizer is attached).
_HOOK_NAMES = ("tracer", "sanitizer")


class HookGuardRule(Rule):
    id = "hook-guard"
    description = (
        "every tracer/sanitizer hook callsite must be guarded by an "
        "'is not None' check on the hook"
    )

    def check_file(self, ctx: FileContext, report: Report) -> None:
        if ctx.layer not in ("hw", "kernel", "sim"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            receiver = node.func.value
            if receiver_tail(receiver) not in _HOOK_NAMES:
                continue
            expr = ast.unparse(receiver)
            if expr not in active_guards(ctx, node):
                report(
                    node,
                    f"hook call '{expr}.{node.func.attr}(...)' is not "
                    f"guarded by 'if {expr} is not None'",
                )


# -- error discipline --------------------------------------------------------

_BLIND_EXCEPTIONS = ("Exception", "BaseException")


def _names_in_handler_type(node: Optional[ast.expr]) -> Iterator[str]:
    if node is None:
        return
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _names_in_handler_type(element)
    else:
        name = dotted_name(node)
        if name is not None:
            yield name


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


class ErrorDisciplineRule(Rule):
    id = "error-discipline"
    description = (
        "no bare 'except:' and no blanket 'except Exception:' that "
        "does not re-raise"
    )

    def check_file(self, ctx: FileContext, report: Report) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                report(
                    node,
                    "bare 'except:' swallows every error, including "
                    "simulator invariant failures; catch specific types",
                )
                continue
            blind = [
                name
                for name in _names_in_handler_type(node.type)
                if name in _BLIND_EXCEPTIONS
            ]
            if blind and not _reraises(node):
                report(
                    node,
                    f"'except {blind[0]}:' without re-raise masks "
                    "programming errors; catch ReproError subclasses "
                    "or re-raise",
                )


# -- geometry discipline -----------------------------------------------------

#: Layers whose address arithmetic must spell geometry by name.  The
#: top-level ``params.py`` (layer ``""``) is the one place the raw
#: numbers may live.
_GEOMETRY_LAYERS: FrozenSet[str] = SIMULATED_LAYERS | frozenset({
    "check", "obs",
})

#: value -> (ops that make it geometry, identifier words that prove the
#: domain, the params name to use instead).  An entry fires only when a
#: bare literal of that value meets one of the listed operators *and*
#: the other operand's identifiers contain a domain word — e.g.
#: ``flat % 8`` fires, ``retries % 8`` does not.
_GEOMETRY_LITERALS: Dict[int, Tuple[
    Tuple[type, ...], FrozenSet[str], str,
]] = {
    8: (
        (ast.Mult, ast.FloorDiv, ast.Mod),
        frozenset({"flat", "slot", "slots", "pte", "ptes", "group"}),
        "PTE_BYTES or PTES_PER_GROUP",
    ),
    0xFFFF: (
        (ast.BitAnd,),
        frozenset({"ea", "va", "addr", "address", "page"}),
        "PAGE_INDEX_MASK",
    ),
    28: (
        (ast.RShift, ast.LShift),
        frozenset({"ea", "va", "addr", "address", "segment"}),
        "SEGMENT_SHIFT",
    ),
    0xFFF: (
        (ast.BitAnd,),
        frozenset({"ea", "va", "pa", "addr", "address"}),
        "PAGE_OFFSET_MASK",
    ),
    4096: (
        (ast.Mult, ast.FloorDiv, ast.Mod),
        frozenset({"ea", "va", "pa", "addr", "address", "page", "pages"}),
        "PAGE_SIZE",
    ),
    16384: (
        (ast.Mod,),
        frozenset({"flat", "slot", "slots", "position", "cursor"}),
        "HTAB_PTE_SLOTS (or better, the table's own .slots)",
    ),
}


def _identifier_words(node: ast.AST) -> Set[str]:
    """Snake-case fragments of every identifier under ``node``."""
    words: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            words.update(sub.id.lower().split("_"))
        elif isinstance(sub, ast.Attribute):
            words.update(sub.attr.lower().split("_"))
    return words


def _bare_int(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


class GeometryLiteralRule(Rule):
    id = "geometry-literal"
    description = (
        "address arithmetic names its geometry via repro.params "
        "(PTE_BYTES, PAGE_INDEX_MASK, ...), never bare 8/0xFFFF-style "
        "literals"
    )
    # Style-adjacent (a magic number is suspect, not provably wrong):
    # the one warn-severity rule in the shipped set.
    severity = "warn"

    def check_file(self, ctx: FileContext, report: Report) -> None:
        if ctx.layer not in _GEOMETRY_LAYERS:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp):
                self._check_binop(node, report)
            elif isinstance(node, ast.Call):
                self._check_divmod(node, report)

    def _check_binop(self, node: ast.BinOp, report: Report) -> None:
        for literal, operand in (
            (node.right, node.left), (node.left, node.right),
        ):
            value = _bare_int(literal)
            if value is None:
                continue
            entry = _GEOMETRY_LITERALS.get(value)
            if entry is None:
                continue
            ops, domain_words, replacement = entry
            if not isinstance(node.op, ops):
                continue
            if _identifier_words(operand) & domain_words:
                self._report(report, node, value, replacement)
                return

    def _check_divmod(self, node: ast.Call, report: Report) -> None:
        """``divmod(flat, 8)`` is ``// 8`` and ``% 8`` in one call."""
        if dotted_name(node.func) != "divmod" or len(node.args) != 2:
            return
        value = _bare_int(node.args[1])
        entry = _GEOMETRY_LITERALS.get(value) if value is not None else None
        if entry is None:
            return
        _ops, domain_words, replacement = entry
        if _identifier_words(node.args[0]) & domain_words:
            self._report(report, node, value, replacement)

    @staticmethod
    def _report(
        report: Report, node: ast.AST, value: int, replacement: str,
    ) -> None:
        report(
            node,
            f"bare geometry literal {value} in address/slot arithmetic "
            f"aliases a named constant; use {replacement}",
        )
