"""Project call graph over the parsed package.

Nodes are function definitions (methods, nested defs, module-level
lambdas get synthetic nodes); edges are *possible* calls, resolved
conservatively:

* plain names — local defs, module-level defs, imported functions,
  class constructors (edge to ``__init__``);
* ``self.m(...)`` / ``cls.m(...)`` — lookup in the enclosing class,
  then internal bases;
* ``obj.m(...)`` — the receiver-tail hint table first (``clock`` is a
  :class:`CycleLedger`, ``tracer`` an ``EventTracer``, ...: the same
  duck-typed hook slots the per-file rules key on), else every internal
  method named ``m`` in a layer the caller's layer may import (the
  layering map from :mod:`repro.lint.rules` prunes impossible edges);
  method names that shadow builtin container ops (``get``, ``append``,
  ...) resolve only through hints/``self`` — never by bare name;
* references that merely *take* a function (callbacks, registry dict
  literals) are address-taken edges, and reading a module-level name
  whose initializer references functions (the ``SPECS`` registry
  pattern) links to every function that initializer mentions.

The graph over-approximates: an edge means "this call *may* land
there", which is the right direction for reachability proofs — a
property verified on the over-approximation holds on the real program.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.base import FileContext, dotted_name, receiver_tail
from repro.lint.rules import _BANNED_IMPORTS

#: Receiver-name -> class-name hints for attribute calls.  These are
#: the machine's well-known slots and hook attributes; the per-file
#: hook-guard rule and the ledger/event closure passes key on the same
#: names, so the vocabulary is already load-bearing in this repo.
RECEIVER_CLASS_HINTS: Dict[str, Tuple[str, ...]] = {
    "clock": ("CycleLedger",),
    "ledger": ("CycleLedger",),
    "tracer": ("EventTracer",),
    "sanitizer": ("Sanitizer",),
    "monitor": ("HardwareMonitor",),
    "machine": ("MachineModel",),
    "kernel": ("Kernel",),
    "htab": ("HashedPageTable",),
    "tlb": ("Tlb",),
    "sampler": ("TimeSeriesSampler",),
    "profiler": ("CycleProfiler",),
    "shadow": ("ShadowMMU",),
    "sim": ("Simulator",),
    "simulator": ("Simulator",),
    "executive": ("Executive",),
    "trace": ("WorkingSetTrace",),
    "reporter": ("ViolationReporter",),
    "obs": ("Observability",),
}

#: Method names that are overwhelmingly builtin container/str/file ops.
#: Resolving these by bare name would wire ``d.get(...)`` to every
#: internal ``get`` method; they resolve only via ``self`` or a
#: receiver hint.
AMBIENT_METHODS: FrozenSet[str] = frozenset({
    "append", "appendleft", "add", "clear", "copy", "count", "decode",
    "discard", "encode", "endswith", "extend", "format", "get", "index",
    "insert", "items", "join", "keys", "lower", "lstrip", "most_common",
    "pop", "popitem", "read", "readline", "readlines", "remove",
    "replace", "reverse", "rstrip", "setdefault", "sort", "split",
    "splitlines", "startswith", "strip", "update", "upper", "values",
    "write", "writelines", "close", "open", "exists", "mkdir", "glob",
    "rglob", "resolve", "relative_to", "as_posix", "read_text",
    "write_text", "read_bytes", "is_dir", "is_file", "unlink", "touch",
    "hexdigest", "total_seconds", "group", "match", "search", "findall",
    "sub", "fullmatch", "dump", "dumps", "load", "loads", "flush",
})


@dataclass
class FunctionInfo:
    """One function node in the project call graph."""

    #: Fully qualified name, e.g. ``repro.obs.events.EventTracer.instant``.
    qualname: str
    #: Dotted module, e.g. ``repro.obs.events``.
    module: str
    #: Posix path relative to the package root.
    rel: str
    layer: str
    #: Bare function name (``instant``).
    name: str
    #: Enclosing class name, or ``None`` for module-level functions.
    cls: Optional[str]
    node: ast.AST
    line: int


@dataclass
class ClassInfo:
    """One class: its methods by name and its base-class names."""

    qualname: str
    module: str
    name: str
    #: method name -> function qualname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: Base names as written (``Rule``, ``base.Rule``).
    bases: List[str] = field(default_factory=list)


class CallGraph:
    """The resolved graph plus the indexes needed to query it."""

    def __init__(self) -> None:
        #: qualname -> FunctionInfo.
        self.functions: Dict[str, FunctionInfo] = {}
        #: qualname -> sorted callee qualnames.
        self.edges: Dict[str, List[str]] = {}
        #: class qualname -> ClassInfo.
        self.classes: Dict[str, ClassInfo] = {}
        #: bare class name -> class qualnames (for hint resolution).
        self.classes_by_name: Dict[str, List[str]] = {}
        #: method name -> function qualnames (for name-based resolution).
        self.methods_by_name: Dict[str, List[str]] = {}
        #: (module, module-level name) -> function qualnames referenced
        #: by that name's initializer (the registry-literal pattern).
        self.global_refs: Dict[Tuple[str, str], List[str]] = {}

    # -- queries -------------------------------------------------------------

    def callees(self, qualname: str) -> List[str]:
        return self.edges.get(qualname, [])

    def reachable(self, roots: Set[str]) -> Set[str]:
        """Every function reachable from ``roots`` (roots included)."""
        seen: Set[str] = set()
        stack = sorted(root for root in roots if root in self.functions)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for callee in self.callees(current):
                if callee not in seen:
                    stack.append(callee)
        return seen

    def shortest_chain(
        self, roots: Set[str], target: str
    ) -> Optional[List[str]]:
        """A shortest root->target call chain (BFS, deterministic)."""
        valid = sorted(root for root in roots if root in self.functions)
        if target in valid:
            return [target]
        parents: Dict[str, str] = {}
        frontier = list(valid)
        seen = set(valid)
        while frontier:
            nxt: List[str] = []
            for current in frontier:
                for callee in self.callees(current):
                    if callee in seen:
                        continue
                    seen.add(callee)
                    parents[callee] = current
                    if callee == target:
                        chain = [callee]
                        while chain[-1] in parents:
                            chain.append(parents[chain[-1]])
                        return list(reversed(chain))
                    nxt.append(callee)
            frontier = nxt
        return None


def build_callgraph(contexts: List[FileContext]) -> CallGraph:
    graph = CallGraph()
    builder = _Builder(graph, contexts)
    builder.index()
    builder.link()
    return graph


# -- the builder -------------------------------------------------------------


def _layer_allowed(caller_layer: str, callee_layer: str) -> bool:
    """Whether the layering map permits a caller->callee edge.

    Mirrors :class:`~repro.lint.rules.LayeringRule`: ``hw`` cannot name
    anything above it, ``kernel`` cannot name ``sim``/``obs``/..., and
    only top-level modules and ``lint`` itself may reach ``lint``.
    (Hook edges — kernel calling an attached tracer — bypass this via
    the receiver hints, exactly like the runtime bypasses it via
    duck-typed slots.)
    """
    banned: Set[str] = set(_BANNED_IMPORTS.get(caller_layer, frozenset()))
    if caller_layer not in ("", "lint"):
        banned.add("lint")
    return callee_layer not in banned


class _Scope:
    """One lexical scope while walking a module."""

    def __init__(
        self,
        kind: str,
        name: str,
        qualname: str,
        info: Optional[FunctionInfo] = None,
    ) -> None:
        self.kind = kind  # "module" | "class" | "function"
        self.name = name
        self.qualname = qualname
        self.info = info


class _Builder:
    def __init__(self, graph: CallGraph, contexts: List[FileContext]) -> None:
        self.graph = graph
        self.contexts = contexts
        #: module -> {local alias -> ("module", dotted) | ("name", module, name)}
        self.imports: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        #: module -> {module-level def/class name -> qualname}.
        self.module_defs: Dict[str, Dict[str, str]] = {}
        self.module_classes: Dict[str, Dict[str, str]] = {}
        #: every known module dotted name.
        self.modules: Set[str] = set()
        self._lambda_counter = 0

    # -- pass 1: index every definition --------------------------------------

    def index(self) -> None:
        for ctx in self.contexts:
            self.modules.add(ctx.module)
        for ctx in self.contexts:
            self.imports[ctx.module] = self._import_map(ctx)
            self.module_defs.setdefault(ctx.module, {})
            self.module_classes.setdefault(ctx.module, {})
            self._index_body(ctx, ctx.tree.body, [ctx.module], None)

    def _index_body(
        self,
        ctx: FileContext,
        body: List[ast.stmt],
        path: List[str],
        cls: Optional[ClassInfo],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(path + [stmt.name])
                info = FunctionInfo(
                    qualname=qualname,
                    module=ctx.module,
                    rel=ctx.rel,
                    layer=ctx.layer,
                    name=stmt.name,
                    cls=cls.name if cls is not None else None,
                    node=stmt,
                    line=stmt.lineno,
                )
                self.graph.functions[qualname] = info
                if cls is not None:
                    cls.methods.setdefault(stmt.name, qualname)
                    self.graph.methods_by_name.setdefault(
                        stmt.name, []
                    ).append(qualname)
                elif len(path) == 1:
                    self.module_defs[ctx.module][stmt.name] = qualname
                self._index_body(ctx, stmt.body, path + [stmt.name], None)
            elif isinstance(stmt, ast.ClassDef):
                qualname = ".".join(path + [stmt.name])
                info_cls = ClassInfo(
                    qualname=qualname,
                    module=ctx.module,
                    name=stmt.name,
                    bases=[
                        name for name in map(dotted_name, stmt.bases)
                        if name is not None
                    ],
                )
                self.graph.classes[qualname] = info_cls
                self.graph.classes_by_name.setdefault(
                    stmt.name, []
                ).append(qualname)
                if len(path) == 1:
                    self.module_classes[ctx.module][stmt.name] = qualname
                self._index_body(ctx, stmt.body, path + [stmt.name], info_cls)

    def _import_map(self, ctx: FileContext) -> Dict[str, Tuple[str, ...]]:
        package = ctx.module.split(".", 1)[0]
        table: Dict[str, Tuple[str, ...]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".", 1)[0] != package:
                        continue
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else package
                    table[local] = ("module", target)
            elif isinstance(node, ast.ImportFrom):
                module = self._resolve_from(ctx, node, package)
                if module is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    if f"{module}.{alias.name}" in self.modules:
                        table[local] = ("module", f"{module}.{alias.name}")
                    else:
                        table[local] = ("name", module, alias.name)
        return table

    @staticmethod
    def _resolve_from(
        ctx: FileContext, node: ast.ImportFrom, package: str
    ) -> Optional[str]:
        if node.level == 0:
            module = node.module or ""
            return module if module.split(".", 1)[0] == package else None
        base = ctx.module.split(".")
        if not ctx.rel.endswith("__init__.py"):
            base = base[:-1]
        if node.level - 1 > len(base):
            return None
        resolved = base[: len(base) - (node.level - 1)]
        suffix = [s for s in (node.module or "").split(".") if s]
        target = ".".join(resolved + suffix)
        return target if target.split(".", 1)[0] == package else None

    # -- pass 2: link edges ---------------------------------------------------

    def link(self) -> None:
        # Two passes: every module's registry literals must be indexed
        # before any body links, or an alphabetically-earlier module
        # reading a later module's registry would resolve to nothing.
        linkers = [_ModuleLinker(self, ctx) for ctx in self.contexts]
        for linker in linkers:
            linker._collect_global_refs()
        for linker in linkers:
            linker._link_scope(
                linker.ctx.tree.body,
                enclosing=f"<module {linker.module}>",
            )
        for qualname, callees in self.graph.edges.items():
            self.graph.edges[qualname] = sorted(set(callees))

    # -- shared resolution helpers -------------------------------------------

    def function_at(
        self, module: str, name: str
    ) -> Optional[str]:
        return self.module_defs.get(module, {}).get(name)

    def class_at(self, module: str, name: str) -> Optional[str]:
        return self.module_classes.get(module, {}).get(name)

    def constructor_of(self, class_qualname: str) -> List[str]:
        """``__init__`` (plus ``__post_init__``) of a class, if defined."""
        info = self.graph.classes.get(class_qualname)
        if info is None:
            return []
        out = []
        for dunder in ("__init__", "__post_init__"):
            found = self.lookup_method(class_qualname, dunder)
            if found is not None:
                out.append(found)
        return out

    def lookup_method(
        self, class_qualname: str, method: str, _depth: int = 0
    ) -> Optional[str]:
        """Resolve ``method`` on a class, walking internal bases."""
        if _depth > 8:
            return None
        info = self.graph.classes.get(class_qualname)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        for base in info.bases:
            base_qual = self._resolve_class_name(info.module, base)
            if base_qual is not None:
                found = self.lookup_method(base_qual, method, _depth + 1)
                if found is not None:
                    return found
        return None

    def _resolve_class_name(
        self, module: str, written: str
    ) -> Optional[str]:
        """A base-class reference as written -> class qualname."""
        head = written.split(".", 1)[0]
        local = self.class_at(module, written)
        if local is not None:
            return local
        entry = self.imports.get(module, {}).get(head)
        if entry is None:
            return None
        if entry[0] == "name" and "." not in written:
            return self.class_at(entry[1], entry[2])
        if entry[0] == "module" and "." in written:
            tail = written.split(".")
            target_module = entry[1] + (
                "." + ".".join(tail[1:-1]) if len(tail) > 2 else ""
            )
            return self.class_at(target_module, tail[-1])
        return None


class _ModuleLinker:
    """Links one module's references into the graph."""

    def __init__(self, builder: _Builder, ctx: FileContext) -> None:
        self.builder = builder
        self.graph = builder.graph
        self.ctx = ctx
        self.module = ctx.module

    # -- module-level registry literals --------------------------------------

    def _collect_global_refs(self) -> None:
        for stmt in self.ctx.tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value: Optional[ast.expr] = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            refs = self._function_refs(value)
            if not refs:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    key = (self.module, target.id)
                    self.graph.global_refs.setdefault(key, [])
                    self.graph.global_refs[key] = sorted(
                        set(self.graph.global_refs[key]) | set(refs)
                    )

    def _function_refs(self, value: ast.expr) -> List[str]:
        """Internal functions referenced anywhere inside ``value``."""
        out: Set[str] = set()
        for node in ast.walk(value):
            if isinstance(node, (ast.Name, ast.Attribute)):
                for qual in self._resolve_value(node):
                    out.add(qual)
            elif isinstance(node, ast.Lambda):
                out.add(self._synthesize_lambda(node))
        return sorted(out)

    def _synthesize_lambda(self, node: ast.Lambda) -> str:
        qualname = f"{self.module}.<lambda:{node.lineno}:{node.col_offset}>"
        if qualname not in self.graph.functions:
            self.graph.functions[qualname] = FunctionInfo(
                qualname=qualname,
                module=self.module,
                rel=self.ctx.rel,
                layer=self.ctx.layer,
                name="<lambda>",
                cls=None,
                node=node,
                line=node.lineno,
            )
            linker = _FunctionLinker(self, qualname)
            linker.link_body([node.body])
        return qualname

    # -- scope walk -----------------------------------------------------------

    def _link_scope(self, body: List[ast.stmt], enclosing: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = self._child_qualname(enclosing, stmt.name)
                if qualname in self.graph.functions:
                    linker = _FunctionLinker(self, qualname)
                    linker.link_function(stmt)
                    self._link_scope(stmt.body, qualname)
            elif isinstance(stmt, ast.ClassDef):
                qualname = self._child_qualname(enclosing, stmt.name)
                self._link_scope(stmt.body, qualname)

    def _child_qualname(self, enclosing: str, name: str) -> str:
        if enclosing.startswith("<module"):
            return f"{self.module}.{name}"
        return f"{enclosing}.{name}"

    # -- reference resolution -------------------------------------------------

    def _resolve_value(self, node: ast.AST) -> List[str]:
        """A Name/Attribute *reference* -> internal function qualnames."""
        if isinstance(node, ast.Name):
            found = self.builder.function_at(self.module, node.id)
            if found is not None:
                return [found]
            entry = self.builder.imports.get(self.module, {}).get(node.id)
            if entry is not None and entry[0] == "name":
                found = self.builder.function_at(entry[1], entry[2])
                return [found] if found is not None else []
            return []
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is None:
                return []
            resolved = self._resolve_dotted_function(dotted)
            return [resolved] if resolved is not None else []
        return []

    def _resolve_dotted_function(self, dotted: str) -> Optional[str]:
        """``alias.sub.name`` -> function qualname, via the import map."""
        parts = dotted.split(".")
        entry = self.builder.imports.get(self.module, {}).get(parts[0])
        if entry is None or len(parts) < 2:
            return None
        if entry[0] == "module":
            module = ".".join([entry[1]] + parts[1:-1])
            return self.builder.function_at(module, parts[-1])
        if entry[0] == "name" and len(parts) == 2:
            # ``from pkg import mod`` landed as a name but is a module.
            module = f"{entry[1]}.{entry[2]}"
            if module in self.builder.modules:
                return self.builder.function_at(module, parts[-1])
        return None

    def _resolve_dotted_global(self, dotted: str) -> List[str]:
        """``alias.NAME`` -> global_refs of the target module's NAME."""
        parts = dotted.split(".")
        entry = self.builder.imports.get(self.module, {}).get(parts[0])
        if entry is None or len(parts) != 2:
            return []
        if entry[0] == "module":
            return self.graph.global_refs.get((entry[1], parts[1]), [])
        if entry[0] == "name":
            module = f"{entry[1]}.{entry[2]}"
            if module in self.builder.modules:
                return self.graph.global_refs.get((module, parts[1]), [])
        return []


class _FunctionLinker:
    """Collects the outgoing edges of one function."""

    def __init__(self, mod: _ModuleLinker, qualname: str) -> None:
        self.mod = mod
        self.builder = mod.builder
        self.graph = mod.graph
        self.qualname = qualname
        self.info = self.graph.functions[qualname]
        #: Defs nested directly in this function, name -> qualname.
        self.locals: Dict[str, str] = {}

    def link_function(self, node: ast.stmt) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.locals[stmt.name] = f"{self.qualname}.{stmt.name}"
        self.link_body(node.body)

    def link_body(self, body: List[ast.AST]) -> None:
        edges = self.graph.edges.setdefault(self.qualname, [])
        for node in _local_walk(body):
            if isinstance(node, ast.Call):
                edges.extend(self._resolve_call(node))
                # Function-valued arguments are address-taken.
                for arg in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    edges.extend(self._resolve_reference(arg))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    edges.extend(self._resolve_reference(node))

    # -- resolution ----------------------------------------------------------

    def _resolve_reference(self, node: ast.AST) -> List[str]:
        """Address-taken references and registry-literal reads."""
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                return [self.locals[node.id]]
            out = list(self.mod._resolve_value(node))
            out.extend(
                self.graph.global_refs.get((self.info.module, node.id), [])
            )
            return out
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is None:
                return []
            out = list(self.mod._resolve_value(node))
            out.extend(self.mod._resolve_dotted_global(dotted))
            return out
        return []

    def _resolve_call(self, node: ast.Call) -> List[str]:
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attr_call(func)
        return []

    def _resolve_name_call(self, name: str) -> List[str]:
        if name in self.locals:
            return [self.locals[name]]
        module = self.info.module
        found = self.builder.function_at(module, name)
        if found is not None:
            return [found]
        cls = self.builder.class_at(module, name)
        if cls is not None:
            return self.builder.constructor_of(cls)
        entry = self.builder.imports.get(module, {}).get(name)
        if entry is not None and entry[0] == "name":
            found = self.builder.function_at(entry[1], entry[2])
            if found is not None:
                return [found]
            cls = self.builder.class_at(entry[1], entry[2])
            if cls is not None:
                return self.builder.constructor_of(cls)
        return []

    def _resolve_attr_call(self, func: ast.Attribute) -> List[str]:
        method = func.attr
        receiver = func.value
        # Fully-dotted module functions: ``specs.sorted_ids(...)``.
        dotted = dotted_name(func)
        if dotted is not None:
            resolved = self.mod._resolve_dotted_function(dotted)
            if resolved is not None:
                return [resolved]
        # ``self.m(...)`` / ``cls.m(...)``: the enclosing class.
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            return self._resolve_self_call(method)
        # ``ClassName.m(instance)``.
        if isinstance(receiver, ast.Name):
            cls = self.builder._resolve_class_name(
                self.info.module, receiver.id
            )
            if cls is not None:
                found = self.builder.lookup_method(cls, method)
                return [found] if found is not None else []
        # Receiver-tail hints: the machine's well-known slots.
        tail = receiver_tail(receiver)
        if tail in RECEIVER_CLASS_HINTS:
            out: List[str] = []
            for class_name in RECEIVER_CLASS_HINTS[tail]:
                for cls_qual in self.graph.classes_by_name.get(
                    class_name, []
                ):
                    found = self.builder.lookup_method(cls_qual, method)
                    if found is not None:
                        out.append(found)
            return out
        # Bare-name fallback, pruned by the layering map.  Dunders are
        # excluded (``super().__init__`` would otherwise link to every
        # constructor), and ambiguous names resolve only via hints —
        # a multi-candidate fan-out buries real findings in noise.
        if method in AMBIENT_METHODS or method.startswith("__"):
            return []
        out = []
        for qual in self.graph.methods_by_name.get(method, []):
            callee = self.graph.functions[qual]
            if _layer_allowed(self.info.layer, callee.layer):
                out.append(qual)
        return out if len(out) == 1 else []

    def _resolve_self_call(self, method: str) -> List[str]:
        info = self.info
        if info.cls is None:
            return []
        # The enclosing class qualname is qualname minus the method part.
        cls_qual = info.qualname.rsplit(".", 2)[0] + "." + info.cls
        found = self.builder.lookup_method(cls_qual, method)
        return [found] if found is not None else []


def _local_walk(body: List[ast.AST]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested defs/classes.

    Lambda bodies *are* walked (they execute in this frame's closure);
    decorator expressions and default values of nested defs are walked
    too (they evaluate in this scope).
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.extend(node.args.defaults)
            stack.extend(
                d for d in node.args.kw_defaults if d is not None
            )
            continue
        if isinstance(node, ast.ClassDef):
            stack.extend(node.decorator_list)
            stack.extend(node.bases)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
