"""Whole-program call graph over the ``repro`` package (DESIGN.md §9).

The intraprocedural lint (DT101-DT104, DT107) judges each file alone, so a
nondeterministic helper *called from* a decision path sails through.  This
module builds the call graph the interprocedural rules
(:mod:`repro.analysis.interproc`) and the dataflow pass
(:mod:`repro.analysis.dataflow`) walk.

Resolution is deliberately syntactic — no imports are executed — and
layered from precise to conservative:

1. **Direct calls**: bare names resolved through the module's own
   functions/classes and its ``import``/``from ... import`` table
   (absolute and relative forms).
2. **Methods**: ``self.m(...)`` through the enclosing class and its
   resolvable bases; ``Class.m(...)``; ``x.m(...)`` where ``x`` is a local
   variable assigned from a known constructor in the same function.
3. **Class-attribute lookup (CHA)**: ``expr.m(...)`` falls back to every
   project class defining ``m``.  A single candidate yields a precise
   edge; several yield *ambiguous* edges (the taint engine takes the
   union over them).
4. **Registry/factory dispatch**: module-level dict literals whose values
   are callables (``SCHEDULER_REGISTRY``, ``QUEUE_BACKENDS``...) become
   dispatch tables; subscripting one and calling the result fans out to
   every registered target.
5. **Escape hatch**: ``# repro: calls[a.b.c, Class.m]`` on a call line
   adds the listed edges and marks the line's dynamic calls resolved.

Anything still unresolved whose callee is a first-class value (a
parameter, a ``getattr`` result, a subscript) is recorded as a
:class:`DynamicCall` — rule DT202 fires on those inside decision paths.

The ``@decision_path``/``@entrypoint`` decorators of
:mod:`repro.analysis.annotations` (and the ``# repro: entrypoint[...]``
comment form) are recognised here and attached to :class:`FunctionInfo`
nodes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.engine import (
    is_decision_path_module,
    module_key,
    randomness_allowed_module,
)

__all__ = [
    "CallEdge",
    "CallGraph",
    "DynamicCall",
    "FunctionInfo",
    "ModuleInfo",
    "build_call_graph",
    "build_call_graph_from_paths",
]

_CALLS_RE = re.compile(r"#\s*repro:\s*calls\[([^\]]*)\]")
_ENTRYPOINT_RE = re.compile(r"#\s*repro:\s*entrypoint\[(fork|service)\]")

#: Names callable without producing an edge (Python builtins and friends).
_BUILTINS = frozenset(
    """abs all any ascii bin bool bytearray bytes callable chr classmethod
    complex delattr dict dir divmod enumerate eval exec filter float format
    frozenset getattr globals hasattr hash hex id input int isinstance
    issubclass iter len list locals map max memoryview min next object oct
    open ord pow print property range repr reversed round set setattr slice
    sorted staticmethod str sum super tuple type vars zip
    ValueError TypeError KeyError IndexError RuntimeError AssertionError
    AttributeError NotImplementedError StopIteration OSError IOError
    Exception BaseException DeprecationWarning UserWarning""".split()
)


@dataclass
class FunctionInfo:
    """One function or method node of the graph."""

    qualname: str  # "repro/core/scheduler.py::WohaScheduler.select_task"
    module: str  # module key ("repro/core/scheduler.py")
    name: str  # in-module dotted name ("WohaScheduler.select_task")
    line: int
    end_line: int
    decision_path: bool = False
    node: Optional[ast.AST] = field(default=None, repr=False, compare=False)
    owner_class: Optional[str] = None  # owning class name, methods only
    entrypoint: Optional[str] = None  # "fork" | "service" boundary kind


@dataclass(frozen=True)
class CallEdge:
    """A resolved call: ``caller`` may invoke ``callee`` at ``line``."""

    caller: str
    callee: str
    line: int
    kind: str  # direct | self | class | instance | cha | registry | annotation
    ambiguous: bool = False


@dataclass(frozen=True)
class DynamicCall:
    """A call the builder could not resolve to any project function."""

    function: str  # caller qualname
    module: str
    line: int
    description: str
    annotated: bool = False  # a `# repro: calls[...]` covered this line


@dataclass
class _ClassInfo:
    name: str
    module: str
    line: int
    bases: List[str] = field(default_factory=list)  # raw dotted base refs
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything the resolver knows about one analysed module."""

    key: str
    dotted: str
    source: str
    tree: ast.AST = field(repr=False)
    decision_path: bool = False
    randomness_allowed: bool = False
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, _ClassInfo] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)  # alias -> dotted
    tables: Dict[str, List[str]] = field(default_factory=dict)  # dict name -> refs
    calls_lines: Dict[int, List[str]] = field(default_factory=dict)
    entry_lines: Dict[int, str] = field(default_factory=dict)  # line -> kind


class CallGraph:
    """The resolved whole-program graph plus its unresolved remainder."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.edges: List[CallEdge] = []
        self.dynamic_calls: List[DynamicCall] = []
        self._out: Dict[str, List[CallEdge]] = {}
        self._in: Dict[str, List[CallEdge]] = {}

    # -- construction (builder-internal) -----------------------------------

    def _add_edge(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.caller, []).append(edge)
        self._in.setdefault(edge.callee, []).append(edge)

    # -- queries -------------------------------------------------------------

    def callees(self, qualname: str) -> List[CallEdge]:
        return self._out.get(qualname, [])

    def callers(self, qualname: str) -> List[CallEdge]:
        return self._in.get(qualname, [])

    def function_at(self, module: str, line: int) -> Optional[FunctionInfo]:
        """The innermost function of ``module`` whose span contains ``line``."""
        best: Optional[FunctionInfo] = None
        for fn in self.modules[module].functions.values() if module in self.modules else ():
            if fn.line <= line <= fn.end_line:
                if best is None or fn.line > best.line:
                    best = fn
        return best

    # -- exports --------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """A deterministic JSON-serialisable dump of nodes and edges."""
        return {
            "modules": sorted(self.modules),
            "functions": [
                {
                    "qualname": fn.qualname,
                    "module": fn.module,
                    "name": fn.name,
                    "line": fn.line,
                    "decision_path": fn.decision_path,
                    "entrypoint": fn.entrypoint,
                }
                for _, fn in sorted(self.functions.items())
            ],
            "edges": [
                {
                    "caller": e.caller,
                    "callee": e.callee,
                    "line": e.line,
                    "kind": e.kind,
                    "ambiguous": e.ambiguous,
                }
                for e in sorted(
                    set(self.edges), key=lambda e: (e.caller, e.callee, e.line, e.kind)
                )
            ],
            "dynamic_calls": [
                {
                    "function": d.function,
                    "line": d.line,
                    "description": d.description,
                    "annotated": d.annotated,
                }
                for d in sorted(
                    set(self.dynamic_calls), key=lambda d: (d.module, d.line, d.description)
                )
            ],
        }

    def to_dot(self) -> str:
        """GraphViz export: decision-path nodes boxed."""
        lines = [
            "digraph callgraph {",
            "  rankdir=LR;",
            '  node [fontsize=9, shape=ellipse];',
        ]
        for qualname, fn in sorted(self.functions.items()):
            label = fn.qualname.replace('"', "'")
            attrs = [f'label="{label}"']
            if fn.decision_path:
                attrs.append("shape=box")
            lines.append(f'  "{qualname}" [{", ".join(attrs)}];')
        for edge in sorted(set(self.edges), key=lambda e: (e.caller, e.callee, e.line, e.kind)):
            style = ', style=dashed' if edge.ambiguous else ""
            lines.append(
                f'  "{edge.caller}" -> "{edge.callee}" [label="{edge.kind}"{style}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- pass 1: module indexing ---------------------------------------------------


def _dotted_module_name(key: str) -> str:
    """``repro/core/scheduler.py`` -> ``repro.core.scheduler``; loose files
    become top-level modules named by their stem."""
    trimmed = key[:-3] if key.endswith(".py") else key
    if trimmed.endswith("/__init__"):
        trimmed = trimmed[: -len("/__init__")]
    return trimmed.replace("/", ".")


def _decorator_marks(node: ast.AST) -> Tuple[bool, Optional[str]]:
    """(decision_path, entrypoint kind) from a def's decorators."""
    decision = False
    entry: Optional[str] = None
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        ident = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if ident == "decision_path":
            decision = True
        elif ident == "entrypoint" and isinstance(dec, ast.Call) and dec.args:
            arg = dec.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                entry = arg.value
    return decision, entry


def _ref_string(node: ast.AST) -> Optional[str]:
    """A Name/Attribute chain as a dotted string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _table_targets(value: ast.Dict) -> List[str]:
    """Callable refs registered in a module-level dispatch-dict literal."""
    refs: List[str] = []
    for item in value.values:
        if isinstance(item, ast.Lambda):
            for call in ast.walk(item.body):
                if isinstance(call, ast.Call):
                    ref = _ref_string(call.func)
                    if ref is not None:
                        refs.append(ref)
        else:
            ref = _ref_string(item)
            if ref is not None:
                refs.append(ref)
    return refs


def _index_module(key: str, source: str, tree: ast.AST) -> ModuleInfo:
    info = ModuleInfo(
        key=key,
        dotted=_dotted_module_name(key),
        source=source,
        tree=tree,
        decision_path=is_decision_path_module(key, source),
        randomness_allowed=randomness_allowed_module(key, source),
    )
    for lineno, line in enumerate(source.splitlines(), start=1):
        calls = _CALLS_RE.search(line)
        if calls is not None:
            targets = [t.strip() for t in calls.group(1).split(",") if t.strip()]
            info.calls_lines[lineno] = targets
        entry = _ENTRYPOINT_RE.search(line)
        if entry is not None:
            info.entry_lines[lineno] = entry.group(1)

    def add_function(node: ast.AST, name: str, owner: Optional[str]) -> FunctionInfo:
        decision, entry = _decorator_marks(node)
        fn = FunctionInfo(
            qualname=f"{key}::{name}",
            module=key,
            name=name,
            line=node.lineno,
            end_line=getattr(node, "end_lineno", node.lineno),
            decision_path=info.decision_path or decision,
            node=node,
            owner_class=owner,
            entrypoint=entry
            or info.entry_lines.get(node.lineno)
            or info.entry_lines.get(node.lineno - 1),
        )
        info.functions[name] = fn
        return fn

    def walk_body(body: Sequence[ast.stmt], prefix: str, owner: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{stmt.name}"
                fn = add_function(stmt, name, owner)
                if owner is not None and prefix.count(".") == 1:
                    info.classes[owner].methods[stmt.name] = fn
                walk_body(stmt.body, f"{name}.", owner)
            elif isinstance(stmt, ast.ClassDef) and not prefix:
                cls = _ClassInfo(
                    name=stmt.name,
                    module=key,
                    line=stmt.lineno,
                    bases=[r for r in (_ref_string(b) for b in stmt.bases) if r],
                )
                info.classes[stmt.name] = cls
                walk_body(stmt.body, f"{stmt.name}.", stmt.name)

    walk_body(tree.body, "", None)

    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            _record_import(info, stmt)
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict):
            targets = _table_targets(stmt.value)
            if targets:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.tables[target.id] = targets
    return info


def _record_import(info: ModuleInfo, stmt: ast.stmt) -> None:
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            info.imports[local] = target
    elif isinstance(stmt, ast.ImportFrom):
        if stmt.level:
            # Level 1 is the containing package: the module's own dotted
            # name when it *is* a package (__init__), its parent otherwise.
            pkg_parts = info.dotted.split(".")
            if not info.key.endswith("__init__.py"):
                pkg_parts = pkg_parts[:-1]
            base = ".".join(pkg_parts[: len(pkg_parts) - (stmt.level - 1)])
            prefix = f"{base}.{stmt.module}" if stmt.module else base
        else:
            prefix = stmt.module or ""
        for alias in stmt.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            info.imports[local] = f"{prefix}.{alias.name}" if prefix else alias.name


# -- pass 2: call resolution ---------------------------------------------------


class _Program:
    """Cross-module lookup state shared by the resolver."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.by_dotted: Dict[str, ModuleInfo] = {m.dotted: m for m in modules.values()}
        # CHA index: method name -> all project methods with that name.
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        for mod in modules.values():
            for cls in mod.classes.values():
                for mname, fn in cls.methods.items():
                    self.methods_by_name.setdefault(mname, []).append(fn)
        for fns in self.methods_by_name.values():
            fns.sort(key=lambda f: f.qualname)

    # dotted-reference resolution ------------------------------------------

    def resolve_dotted(self, mod: ModuleInfo, dotted: str):
        """Resolve a dotted ref in ``mod``'s namespace.

        Returns ``("function", FunctionInfo)``, ``("class", _ClassInfo)``,
        ``("module", ModuleInfo)``, ``("external", None)`` or
        ``(None, None)`` (unknown name).
        """
        head, _, rest = dotted.partition(".")
        # Local names shadow imports.
        if not rest:
            if head in mod.functions:
                return "function", mod.functions[head]
            if head in mod.classes:
                return "class", mod.classes[head]
        elif head in mod.classes:
            method = self._class_method(mod.classes[head], rest)
            if method is not None:
                return "function", method
        if head in mod.imports:
            return self._resolve_absolute(mod.imports[head] + (f".{rest}" if rest else ""))
        return self._resolve_absolute(dotted)

    def _resolve_absolute(self, dotted: str):
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            target = self.by_dotted.get(prefix)
            if target is None:
                continue
            rest = parts[cut:]
            if not rest:
                return "module", target
            name = rest[0]
            if name in target.classes:
                cls = target.classes[name]
                if len(rest) == 1:
                    return "class", cls
                method = self._class_method(cls, ".".join(rest[1:]))
                if method is not None:
                    return "function", method
                return None, None
            fn = target.functions.get(".".join(rest))
            if fn is not None:
                return "function", fn
            return None, None
        root = parts[0]
        known_roots = {m.dotted.split(".")[0] for m in self.modules.values()}
        return ("external", None) if root not in known_roots else (None, None)

    def _class_method(self, cls: _ClassInfo, name: str, _seen: Optional[Set[str]] = None):
        """Look ``name`` up on ``cls`` and its resolvable bases."""
        if name in cls.methods:
            return cls.methods[name]
        seen = _seen if _seen is not None else set()
        marker = f"{cls.module}::{cls.name}"
        if marker in seen:
            return None
        seen.add(marker)
        mod = self.modules[cls.module]
        for base_ref in cls.bases:
            kind, obj = self.resolve_dotted(mod, base_ref)
            if kind == "class":
                found = self._class_method(obj, name, seen)
                if found is not None:
                    return found
        return None

    def constructor_of(self, cls: _ClassInfo) -> Optional[FunctionInfo]:
        return self._class_method(cls, "__init__")


class _FunctionResolver(ast.NodeVisitor):
    """Resolve every call inside one function body into edges."""

    def __init__(
        self,
        program: _Program,
        graph: CallGraph,
        mod: ModuleInfo,
        fn: FunctionInfo,
    ) -> None:
        self.program = program
        self.graph = graph
        self.mod = mod
        self.fn = fn
        self.env: Dict[str, object] = {}  # local name -> "param" | value AST
        node = fn.node
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            self.env[arg.arg] = "param"
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                self.env[extra.arg] = "param"
        for stmt in ast.walk(node):
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    self.env[target.id] = stmt.value
        # Nested defs are callable locals.
        for stmt in node.body if hasattr(node, "body") else []:
            self._collect_nested(stmt)

    def _collect_nested(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = self.mod.functions.get(f"{self.fn.name}.{stmt.name}")
            if nested is not None:
                self.env[stmt.name] = nested
        elif hasattr(stmt, "body") and not isinstance(stmt, (ast.ClassDef,)):
            for child in getattr(stmt, "body", []):
                self._collect_nested(child)
            for child in getattr(stmt, "orelse", []):
                self._collect_nested(child)

    # -- traversal ----------------------------------------------------------

    def run(self) -> None:
        node = self.fn.node
        for stmt in node.body:
            self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested functions resolve themselves

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        self._resolve_call(node)
        self.generic_visit(node)

    # -- resolution ----------------------------------------------------------

    def _edge(self, callee: FunctionInfo, line: int, kind: str, ambiguous: bool = False) -> None:
        self.graph._add_edge(
            CallEdge(self.fn.qualname, callee.qualname, line, kind, ambiguous)
        )

    def _edge_to_class(self, cls: _ClassInfo, line: int, kind: str) -> None:
        ctor = self.program.constructor_of(cls)
        if ctor is not None:
            self._edge(ctor, line, kind)

    def _dynamic(self, node: ast.Call, description: str) -> None:
        annotated = node.lineno in self.mod.calls_lines
        self.graph.dynamic_calls.append(
            DynamicCall(
                function=self.fn.qualname,
                module=self.mod.key,
                line=node.lineno,
                description=description,
                annotated=annotated,
            )
        )

    def _resolve_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self._resolve_name_call(node, func.id)
        elif isinstance(func, ast.Attribute):
            self._resolve_attribute_call(node, func)
        elif isinstance(func, ast.Subscript):
            self._resolve_subscript_call(node, func.value)
        elif isinstance(func, ast.Call):
            inner = func.func
            if isinstance(inner, ast.Name) and inner.id == "getattr":
                self._dynamic(node, "call of a getattr(...) result")
            else:
                self._dynamic(node, "call of a call result")
        # Lambdas / comprehension results: nothing to resolve.

    def _resolve_name_call(self, node: ast.Call, name: str) -> None:
        if name == "cls" and self.fn.owner_class is not None:
            # Classmethod constructor idiom: cls(...) builds the own class
            # (a subclass at runtime, but the own __init__ is the sound
            # syntactic approximation).
            self._edge_to_class(
                self.mod.classes[self.fn.owner_class], node.lineno, "self"
            )
            return
        bound = self.env.get(name)
        if isinstance(bound, FunctionInfo):  # nested def
            self._edge(bound, node.lineno, "direct")
            return
        if bound is not None:
            self._resolve_value_call(node, name, bound)
            return
        kind, obj = self.program.resolve_dotted(self.mod, name)
        if kind == "function":
            self._edge(obj, node.lineno, "direct")
        elif kind == "class":
            self._edge_to_class(obj, node.lineno, "class")
        elif kind is None and name not in _BUILTINS:
            # An unknown bare name: almost always a builtin or re-export;
            # stay quiet rather than flooding DT202.
            pass

    def _resolve_value_call(self, node: ast.Call, name: str, bound: object) -> None:
        """A call of a local variable: interpret its last assignment."""
        if bound == "param":
            self._dynamic(node, f"call of parameter {name!r}")
            return
        if isinstance(bound, ast.Subscript):
            self._resolve_subscript_call(node, bound.value)
            return
        if isinstance(bound, (ast.Name, ast.Attribute)):
            # Aliasing: `push = heappush` / `step = self._advance` — resolve
            # the aliased reference as if called directly.
            ref = _ref_string(bound)
            if ref is not None and ref.startswith("self."):
                method = None
                if self.fn.owner_class is not None and ref.count(".") == 1:
                    method = self.program._class_method(
                        self.mod.classes[self.fn.owner_class], ref.split(".")[1]
                    )
                if method is not None:
                    self._edge(method, node.lineno, "self")
                else:
                    self._dynamic(node, f"call of dynamically bound local {name!r}")
                return
            if ref is not None:
                kind, obj = self.program.resolve_dotted(self.mod, ref)
                if kind == "function":
                    self._edge(obj, node.lineno, "direct")
                    return
                if kind == "class":
                    self._edge_to_class(obj, node.lineno, "class")
                    return
                if kind == "external":
                    return
            self._dynamic(node, f"call of dynamically bound local {name!r}")
            return
        if isinstance(bound, ast.Call):
            inner = bound.func
            if isinstance(inner, ast.Name) and inner.id == "getattr":
                self._dynamic(node, f"call of getattr-bound local {name!r}")
                return
        self._dynamic(node, f"call of dynamically bound local {name!r}")

    def _resolve_subscript_call(self, node: ast.Call, table_expr: ast.AST) -> None:
        targets = None
        if isinstance(table_expr, ast.Name):
            targets = self.mod.tables.get(table_expr.id)
            if targets is None and table_expr.id in self.mod.imports:
                kind, obj = self.program._resolve_absolute(self.mod.imports[table_expr.id])
                # "from repro.registry import SCHEDULER_REGISTRY": the name
                # resolves to nothing above (it is a table, not a function),
                # so look the table up in its defining module.
                dotted = self.mod.imports[table_expr.id]
                owner, _, tname = dotted.rpartition(".")
                owner_mod = self.program.by_dotted.get(owner)
                if owner_mod is not None:
                    targets = owner_mod.tables.get(tname)
        if not targets:
            self._dynamic(node, "call through an unresolved subscript")
            return
        owner_mod = self.mod if isinstance(table_expr, ast.Name) and table_expr.id in self.mod.tables else None
        if owner_mod is None:
            dotted = self.mod.imports[table_expr.id]
            owner_mod = self.program.by_dotted[dotted.rpartition(".")[0]]
        for ref in targets:
            kind, obj = self.program.resolve_dotted(owner_mod, ref)
            if kind == "function":
                self._edge(obj, node.lineno, "registry")
            elif kind == "class":
                self._edge_to_class(obj, node.lineno, "registry")

    def _resolve_attribute_call(self, node: ast.Call, func: ast.Attribute) -> None:
        base = func.value
        attr = func.attr
        if isinstance(base, ast.Name):
            if base.id == "self" and self.fn.owner_class is not None:
                cls = self.mod.classes[self.fn.owner_class]
                method = self.program._class_method(cls, attr)
                if method is not None:
                    self._edge(method, node.lineno, "self")
                else:
                    # self.<attr> with no such method: an instance attribute
                    # holding a callable -- genuinely dynamic dispatch.
                    self._dynamic(node, f"call of instance attribute self.{attr}")
                return
            bound = self.env.get(base.id)
            if isinstance(bound, ast.Call) and isinstance(bound.func, ast.Name):
                kind, obj = self.program.resolve_dotted(self.mod, bound.func.id)
                if kind == "class":
                    method = self.program._class_method(obj, attr)
                    if method is not None:
                        self._edge(method, node.lineno, "instance")
                        return
            if bound is None:
                kind, obj = self.program.resolve_dotted(self.mod, base.id)
                if kind == "class":
                    method = self.program._class_method(obj, attr)
                    if method is not None:
                        self._edge(method, node.lineno, "class")
                    return
                if kind == "module":
                    mkind, mobj = self.program.resolve_dotted(obj, attr)
                    if mkind == "function":
                        self._edge(mobj, node.lineno, "direct")
                    elif mkind == "class":
                        self._edge_to_class(mobj, node.lineno, "class")
                    return
                if kind == "external":
                    return
        self._cha(node, attr)

    def _cha(self, node: ast.Call, attr: str) -> None:
        candidates = self.program.methods_by_name.get(attr, [])
        if not candidates:
            return  # stdlib/external method (list.append, dict.items, ...)
        ambiguous = len(candidates) > 1
        for method in candidates:
            self._edge(method, node.lineno, "cha", ambiguous=ambiguous)


def _apply_calls_annotations(program: _Program, graph: CallGraph, mod: ModuleInfo) -> None:
    """Resolve ``# repro: calls[...]`` targets into explicit edges."""
    for line, targets in sorted(mod.calls_lines.items()):
        fn = graph.function_at(mod.key, line)
        if fn is None:
            continue
        resolved_any = False
        for target in targets:
            kind, obj = program.resolve_dotted(mod, target)
            if kind == "function":
                graph._add_edge(CallEdge(fn.qualname, obj.qualname, line, "annotation"))
                resolved_any = True
            elif kind == "class":
                ctor = program.constructor_of(obj)
                if ctor is not None:
                    graph._add_edge(
                        CallEdge(fn.qualname, ctor.qualname, line, "annotation")
                    )
                    resolved_any = True
        if not resolved_any:
            # Nothing matched: leave the line's dynamic calls unresolved so
            # a typo cannot silently disable DT202.
            for i, dyn in enumerate(graph.dynamic_calls):
                if dyn.module == mod.key and dyn.line == line and dyn.annotated:
                    graph.dynamic_calls[i] = DynamicCall(
                        dyn.function, dyn.module, dyn.line, dyn.description, annotated=False
                    )


def build_call_graph(sources: Mapping[str, Tuple[str, ast.AST]]) -> CallGraph:
    """Build the program graph from ``{module_key: (source, tree)}``."""
    graph = CallGraph()
    for key in sorted(sources):
        source, tree = sources[key]
        graph.modules[key] = _index_module(key, source, tree)
    program = _Program(graph.modules)
    for key in sorted(graph.modules):
        mod = graph.modules[key]
        for fn in mod.functions.values():
            graph.functions[fn.qualname] = fn
    for key in sorted(graph.modules):
        mod = graph.modules[key]
        for name in sorted(mod.functions):
            _FunctionResolver(program, graph, mod, mod.functions[name]).run()
        _apply_calls_annotations(program, graph, mod)
    return graph


def build_call_graph_from_paths(paths: Iterable["str"]) -> CallGraph:
    """Convenience wrapper: parse every ``*.py`` under ``paths`` and build."""
    from pathlib import Path

    from repro.analysis.engine import LintError, _iter_python_files

    sources: Dict[str, Tuple[str, ast.AST]] = {}
    for file_path in _iter_python_files([Path(p) for p in paths]):
        text = file_path.read_text()
        try:
            tree = ast.parse(text, filename=str(file_path))
        except SyntaxError as exc:
            raise LintError(f"{file_path}: cannot parse: {exc}") from exc
        sources[module_key(file_path)] = (text, tree)
    return build_call_graph(sources)
