"""Flow-sensitive interprocedural dataflow pass (DT301-DT305; DESIGN.md §13).

The DT2xx pass answers *reachability* questions (does nondeterminism reach
a decision path, does a decision path call something unresolvable).  The
hazards the fork pool (DESIGN.md §11) and the multi-tenant planning service
expose are *state* questions: which module/class-level objects does a call
chain write, which operations can raise partway through a mutation
sequence, which callables actually cross a pickling boundary.  This module computes
per-function **summaries** over the :mod:`repro.analysis.callgraph` graph
and propagates them to a fixpoint:

* ``global_writes`` — writes to module-level or class-level *mutable*
  bindings (dict/list/set/OrderedDict/... literals and constructors),
  whether by rebinding through ``global``, subscript store/delete, a known
  mutator method (``append``/``update``/``setdefault``/...), or
  ``cls.attr`` / ``ClassName.attr`` assignment.  Imported names resolve to
  their defining module, so ``other.TABLE[k] = v`` is charged to ``other``.
* ``raises`` / ``may_raise`` — exception names from explicit ``raise``
  statements, closed over precise call edges by a caller-ward worklist.
* ``wallclock_return`` — does the function return a value derived from a
  wall-clock/OS-entropy source?  Computed by the same flow pass that
  checks DT305 sinks, iterated to a fixpoint because helpers returning
  ``time.perf_counter()`` taint their callers' locals.

The rules on top:

``DT301`` fork-shared mutable state
    A function reachable (over precise edges) from a declared entry point
    (``# repro: entrypoint[fork|service]`` or ``@entrypoint(...)``,
    :mod:`repro.analysis.annotations`) writes module/class-level mutable
    state.  In a forked worker the write mutates a silently diverging copy;
    in a service it races other tenants.  The documented safe pattern is
    per-shard regeneration — workers rebuild state from the cell key
    instead of sharing it (DESIGN.md §11).
``DT302`` unpicklable callable crossing the Pool boundary
    A ``pool.map``/``apply_async``/... call whose function argument is a
    lambda, a closure (nested ``def`` — its captured cells are listed), or
    a bound method.  Module-level functions — including a conditional
    rebinding between two of them — pass.
``DT303`` exception atomicity
    In a decision-path function or one named by :data:`HOT_PATH_REGISTRY`,
    two mutations of the same receiver in one statement block with a
    may-raise operation strictly between them: an exception there leaves
    contract-protected structures (``DoubleSkipList``, ``_WorkflowRecord``,
    WIP bookkeeping, cache counters) half-updated.  Also: a broad ``except Exception:`` /bare
    ``except:`` without a re-raise in such a function, which can swallow
    ``ContractError`` and convert an invariant violation into silent state
    corruption.
``DT304`` stale or unknown directives
    An ``allow[...]`` id that suppressed nothing this run (checked against
    the engine's suppression ledger *and* the taint-seed allows of
    :func:`repro.analysis.interproc.seed_allow_uses`), a ``calls[...]``
    on a line with no dynamic call left, an ``entrypoint[...]`` attached
    to no ``def``, or a ``# repro: <kind>`` comment whose kind is not one
    of :data:`DIRECTIVE_KINDS` (a typo, or a retired directive).
    Directives are read from real ``tokenize`` COMMENT tokens, never from
    string literals, so docstrings that *mention* directives (like this
    one) cannot go stale.
``DT305`` simulated-time purity
    A wall-clock-derived value (flow-sensitively tracked through local
    assignments, with kill on clean reassignment, and interprocedurally
    through ``wallclock_return`` summaries) compared with or added to a
    simulated-clock expression (``now``/``clock``/``sim_time``/deadline-
    like identifiers).  Wall-vs-wall arithmetic (bench timing) is fine;
    wall-vs-sim is how Algorithm 1's determinism dies.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    CallEdge,
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    _CALLS_RE,
    _ENTRYPOINT_RE,
    _ref_string,
)
from repro.analysis.engine import _ALLOW_RE
from repro.analysis.rules import Violation, _WALLCLOCK_CALLS

__all__ = [
    "DATAFLOW_RULES",
    "DIRECTIVE_KINDS",
    "FunctionSummary",
    "GlobalWrite",
    "HOT_PATH_REGISTRY",
    "analyze_dataflow",
    "compute_summaries",
    "directive_comments",
    "stale_suppression_violations",
]

#: The rule ids this pass owns (registered in ``rules.RULES``).
DATAFLOW_RULES: Tuple[str, ...] = ("DT301", "DT302", "DT303", "DT304", "DT305")

#: Functions that are hot by construction: the §IV data-structure mutators
#: and the per-heartbeat scheduling path.  DT303 holds them to exception
#: atomicity as if they sat on a decision path.  This table is the only way
#: to mark a function hot.
HOT_PATH_REGISTRY: Dict[str, Tuple[str, ...]] = {
    "repro/structures/dsl.py": (
        "DoubleSkipList.insert",
        "DoubleSkipList.remove",
        "DoubleSkipList.head_by_ct",
        "DoubleSkipList.head_by_priority",
        "DoubleSkipList.update_head_ct",
        "DoubleSkipList.update_priority",
        "DoubleSkipList.update_ct",
        "DoubleSkipList.get",
    ),
    "repro/structures/skiplist.py": (
        "DeterministicSkipList.insert",
        "DeterministicSkipList.delete",
        "DeterministicSkipList.rekey",
        "DeterministicSkipList.peek_head",
        "DeterministicSkipList.pop_head",
        "DeterministicSkipList.find",
    ),
    "repro/core/scheduler.py": (
        "WohaScheduler.select_task",
        "WohaScheduler._advance_ct_heads",
        "_pick_task_in_workflow",
    ),
    "repro/cluster/jobtracker.py": (
        "JobTracker.heartbeat",
        "JobTracker._heartbeat_batched",
        "JobTracker._heartbeat_tick",
        "JobTracker.schedule_round",
        "JobTracker._round_batched",
        "JobTracker._pick_tracker",
        "JobTracker._notify",
        "JobTracker._wake_parked",
        "JobTracker._tracker_quiescent",
        "JobTracker._launch",
        "JobTracker._complete_task",
    ),
    "repro/cluster/tasktracker.py": (
        "TaskTracker.free_slots",
        "TaskTracker.occupy",
        "TaskTracker.release",
    ),
    "repro/events.py": (
        "Simulator.schedule",
        "Simulator.run",
    ),
    "repro/schedulers/base.py": ("WorkflowScheduler.select_tasks",),
    "repro/schedulers/fifo.py": (
        "FifoScheduler.select_task",
        "FifoScheduler.select_tasks",
    ),
    "repro/schedulers/fair.py": ("FairScheduler.select_tasks",),
    "repro/metrics/collector.py": (
        "MetricsCollector.merge",
        "MetricsCollector.on_task_launch",
        "MetricsCollector.on_task_complete",
    ),
    "repro/serve/batching.py": (
        "BatchingPlanner.flush_now",
        "BatchingPlanner._flush",
    ),
    "repro/core/plancache.py": (
        "PlanCache.lookup",
        "PlanCache._commit",
    ),
}

#: Every ``# repro: <kind>`` directive the analyzer reads; any other kind
#: is a DT304 finding.
DIRECTIVE_KINDS: Tuple[str, ...] = (
    "allow", "calls", "entrypoint", "decision-path", "randomness-ok",
)

#: A comment that *is* a directive (modulo leading hash marks/space).
_DIRECTIVE_KIND_RE = re.compile(r"[#\s]*repro:\s*([A-Za-z][\w-]*)")

#: Constructors whose results are mutable containers.
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "bytearray",
    "OrderedDict", "defaultdict", "Counter", "deque",
}

#: Methods that mutate their receiver in place (containers + structures).
_MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "popitem", "move_to_end",
    "appendleft", "popleft", "sort", "reverse",
}

#: Structural mutators of the contract-protected §IV structures; together
#: with attribute/subscript stores these are the DT303 "paired mutation"
#: vocabulary.
_CONTRACT_MUTATORS = _MUTATOR_METHODS | {
    "delete", "pop_head", "rekey", "update_head_ct", "update_priority", "update_ct",
}

#: Pool methods that ship their function argument across a fork boundary.
_POOL_METHODS = {
    "map", "map_async", "imap", "imap_unordered",
    "starmap", "starmap_async", "apply", "apply_async",
}

#: Call wrappers through which wall-clock taint passes unchanged.
_TAINT_WRAPPERS = {"float", "int", "abs", "round", "min", "max"}

#: Identifiers (terminal attribute/name segments) that denote the
#: simulated clock or quantities measured on it.
_SIMCLOCK_IDENTS = {
    "now", "clock", "sim_time", "sim_now", "current_time",
    "submit_time", "completion_time",
}


def _is_wallclock_ref(mod: ModuleInfo, func: ast.AST) -> bool:
    """Is this call target a wall-clock/OS-entropy source?

    Resolves the head of the reference through the module's import table
    so both ``time.perf_counter()`` and a ``from time import perf_counter``
    call match the ``_WALLCLOCK_CALLS`` pairs.
    """
    ref = _ref_string(func)
    if ref is None:
        return False
    head, _, rest = ref.partition(".")
    dotted = mod.imports.get(head)
    if dotted is not None:
        ref = f"{dotted}.{rest}" if rest else dotted
    parts = ref.split(".")
    if len(parts) < 2:
        return False
    return (parts[-2], parts[-1]) in _WALLCLOCK_CALLS


def _is_simclockish(node: ast.AST) -> bool:
    """Does this expression name a simulated-time quantity?"""
    ident: Optional[str] = None
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    if ident is None:
        return False
    bare = ident.lower().lstrip("_")
    return bare in _SIMCLOCK_IDENTS or bare.endswith("deadline")


@dataclass(frozen=True)
class GlobalWrite:
    """One write of module/class-level mutable state inside a function."""

    target: str  # display name, e.g. "repro/registry.py::SCHEDULER_REGISTRY"
    line: int
    kind: str  # "rebind" | "subscript" | "delete" | "method" | "class-attr"


@dataclass
class FunctionSummary:
    """What one function does to shared state and control flow."""

    qualname: str
    global_writes: List[GlobalWrite] = field(default_factory=list)
    raises: Set[str] = field(default_factory=set)  # own explicit raises
    may_raise: Set[str] = field(default_factory=set)  # after propagation
    wallclock_return: bool = False


# -- module-level mutable state index -----------------------------------------


def _mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        ref = _ref_string(node.func)
        if ref is not None and ref.split(".")[-1] in _MUTABLE_CONSTRUCTORS:
            return True
    return False


def _module_mutable_names(mod: ModuleInfo) -> Set[str]:
    """Module-level names bound to mutable containers."""
    names: Set[str] = set()
    for stmt in mod.tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _class_mutable_attrs(mod: ModuleInfo) -> Dict[str, Set[str]]:
    """Class name -> class-level attributes bound to mutable containers."""
    attrs: Dict[str, Set[str]] = {}
    for stmt in mod.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        found: Set[str] = set()
        for sub in stmt.body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(sub, ast.Assign):
                targets, value = list(sub.targets), sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                targets, value = [sub.target], sub.value
            if value is None or not _mutable_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    found.add(target.id)
        if found:
            attrs[stmt.name] = found
    return attrs


@dataclass
class _StateIndex:
    """Program-wide view of where mutable module/class state lives."""

    module_names: Dict[str, Set[str]]  # module key -> mutable global names
    class_attrs: Dict[str, Dict[str, Set[str]]]  # module key -> class -> attrs

    @classmethod
    def build(cls, graph: CallGraph) -> "_StateIndex":
        return cls(
            module_names={
                key: _module_mutable_names(mod)
                for key, mod in graph.modules.items()
            },
            class_attrs={
                key: _class_mutable_attrs(mod)
                for key, mod in graph.modules.items()
            },
        )

    def resolve_global(self, mod: ModuleInfo, name: str) -> Optional[str]:
        """``name`` used in ``mod``: the display key of the module-level
        mutable binding it denotes, or None."""
        if name in self.module_names.get(mod.key, ()):
            return f"{mod.key}::{name}"
        dotted = mod.imports.get(name)
        if dotted is not None:
            owner, _, leaf = dotted.rpartition(".")
            for key, names in self.module_names.items():
                mod_dotted = _module_dotted(key)
                if mod_dotted == owner and leaf in names:
                    return f"{key}::{leaf}"
        return None

    def resolve_module_attr(self, mod: ModuleInfo, base: str, attr: str) -> Optional[str]:
        """``base.attr`` where ``base`` is an imported module object."""
        dotted = mod.imports.get(base)
        if dotted is None:
            return None
        for key, names in self.module_names.items():
            if _module_dotted(key) == dotted and attr in names:
                return f"{key}::{attr}"
        return None


def _module_dotted(key: str) -> str:
    trimmed = key[:-3] if key.endswith(".py") else key
    if trimmed.endswith("/__init__"):
        trimmed = trimmed[: -len("/__init__")]
    return trimmed.replace("/", ".")


# -- per-function summary extraction ------------------------------------------


def _local_names(node: ast.AST) -> Set[str]:
    """Names bound locally inside a function (params + assignments +
    loop/with targets + nested defs), which shadow module globals."""
    names: Set[str] = set()
    args = node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        names.add(arg.arg)
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.add(extra.arg)

    def collect_target(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                collect_target(elt)
        elif isinstance(target, ast.Starred):
            collect_target(target.value)

    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                collect_target(target)
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            collect_target(sub.target)
        elif isinstance(sub, ast.For):
            collect_target(sub.target)
        elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            collect_target(sub.optional_vars)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node:
            names.add(sub.name)
    return names


def _exception_name(exc: Optional[ast.AST]) -> Optional[str]:
    if exc is None:
        return None  # bare re-raise: charged to the original raiser
    target = exc.func if isinstance(exc, ast.Call) else exc
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None


class _SummaryVisitor(ast.NodeVisitor):
    """Collect global writes and explicit raises for one function body."""

    def __init__(self, mod: ModuleInfo, fn: FunctionInfo, state: _StateIndex) -> None:
        self.mod = mod
        self.fn = fn
        self.state = state
        self.summary = FunctionSummary(qualname=fn.qualname)
        self.locals = _local_names(fn.node)
        self.globals_declared: Set[str] = set()
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Global):
                self.globals_declared.update(sub.names)

    def run(self) -> FunctionSummary:
        for stmt in self.fn.node.body:
            self.visit(stmt)
        return self.summary

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs summarise themselves

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- writes --------------------------------------------------------------

    def _global_target(self, name: str) -> Optional[str]:
        """A bare name written through: the global it denotes, if any.

        A ``global`` declaration overrides local shadowing; otherwise a
        locally bound name never writes module state.
        """
        if name in self.globals_declared:
            return self.state.resolve_global(self.mod, name) or f"{self.mod.key}::{name}"
        if name in self.locals:
            return None
        return self.state.resolve_global(self.mod, name)

    def _record(self, target: str, line: int, kind: str) -> None:
        self.summary.global_writes.append(GlobalWrite(target, line, kind))

    def _check_store_target(self, target: ast.AST, line: int, kind_hint: str) -> None:
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                resolved = self._global_target(base.id)
                if resolved is not None:
                    self._record(resolved, line, kind_hint)
            elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                resolved = self.state.resolve_module_attr(
                    self.mod, base.value.id, base.attr
                )
                if resolved is not None and base.value.id not in self.locals:
                    self._record(resolved, line, kind_hint)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                if base.id == "cls" or base.id == self.fn.owner_class:
                    owner = self.fn.owner_class
                elif base.id in self.mod.classes and base.id not in self.locals:
                    owner = base.id
                else:
                    owner = None
                if owner is not None:
                    self._record(
                        f"{self.mod.key}::{owner}.{target.attr}", line, "class-attr"
                    )
        elif isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                resolved = self._global_target(target.id)
                if resolved is not None:
                    self._record(resolved, line, "rebind")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target, node.lineno, "subscript")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target, node.lineno, "subscript")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store_target(node.target, node.lineno, "subscript")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store_target(target, node.lineno, "delete")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS:
            base = func.value
            if isinstance(base, ast.Name):
                resolved = self._global_target(base.id)
                if resolved is not None:
                    self._record(resolved, node.lineno, f"method .{func.attr}()")
            elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                resolved = self.state.resolve_module_attr(
                    self.mod, base.value.id, base.attr
                )
                if resolved is not None and base.value.id not in self.locals:
                    self._record(resolved, node.lineno, f"method .{func.attr}()")
        self.generic_visit(node)

    # -- raises --------------------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        name = _exception_name(node.exc)
        if name is not None:
            self.summary.raises.add(name)
        self.generic_visit(node)


# -- summary propagation -------------------------------------------------------


def _precise_callee_edges(graph: CallGraph, qualname: str) -> List[CallEdge]:
    return sorted(
        {e for e in graph.callees(qualname) if not e.ambiguous},
        key=lambda e: (e.line, e.callee, e.kind),
    )


def _line_callees(graph: CallGraph, qualname: str) -> Dict[int, List[str]]:
    lines: Dict[int, List[str]] = {}
    for edge in _precise_callee_edges(graph, qualname):
        lines.setdefault(edge.line, []).append(edge.callee)
    return lines


def compute_summaries(graph: CallGraph) -> Dict[str, FunctionSummary]:
    """Per-function summaries, with may-raise and wallclock-return closed
    over precise call edges to a fixpoint."""
    state = _StateIndex.build(graph)
    summaries: Dict[str, FunctionSummary] = {}
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if fn.node is None:
            summaries[qualname] = FunctionSummary(qualname=qualname)
            continue
        summaries[qualname] = _SummaryVisitor(
            graph.modules[fn.module], fn, state
        ).run()

    # may-raise: caller-ward worklist until no set grows.
    for summary in summaries.values():
        summary.may_raise = set(summary.raises)
    worklist = sorted(summaries)
    while worklist:
        next_round: Set[str] = set()
        for qualname in worklist:
            own = summaries[qualname].may_raise
            if not own:
                continue
            for edge in graph.callers(qualname):
                caller = summaries.get(edge.caller)
                if caller is None or edge.ambiguous:
                    continue
                if not own <= caller.may_raise:
                    caller.may_raise |= own
                    next_round.add(edge.caller)
        worklist = sorted(next_round)

    # wallclock-return: iterate the flow pass until no flag flips (each
    # round can only turn flags True, so this terminates quickly).
    for _ in range(10):
        changed = False
        for qualname in sorted(summaries):
            fn = graph.functions[qualname]
            if fn.node is None or summaries[qualname].wallclock_return:
                continue
            flow = _TaintFlow(graph, graph.modules[fn.module], fn, summaries)
            flow.run(collect=False)
            if flow.returns_tainted:
                summaries[qualname].wallclock_return = True
                changed = True
        if not changed:
            break
    return summaries


# -- DT305: flow-sensitive wall-clock-into-sim-time taint ----------------------


class _TaintFlow:
    """One forward pass over a function body: track wall-clock-tainted
    locals (kill on clean reassignment), flag sinks, record whether the
    return value is tainted."""

    def __init__(
        self,
        graph: CallGraph,
        mod: ModuleInfo,
        fn: FunctionInfo,
        summaries: Mapping[str, FunctionSummary],
    ) -> None:
        self.mod = mod
        self.fn = fn
        self.summaries = summaries
        self.line_callees = _line_callees(graph, fn.qualname)
        self.tainted: Dict[str, str] = {}  # local name -> source description
        self.violations: List[Violation] = []
        self.returns_tainted = False
        self._collect = True

    # -- expression taint ----------------------------------------------------

    def _call_taint(self, node: ast.Call) -> Optional[str]:
        if _is_wallclock_ref(self.mod, node.func):
            ref = _ref_string(node.func)
            return f"{ref}() at line {node.lineno}"
        for callee in self.line_callees.get(node.lineno, ()):
            summary = self.summaries.get(callee)
            if summary is not None and summary.wallclock_return:
                return f"call to {callee} (returns wall-clock time)"
        func = node.func
        ident = func.id if isinstance(func, ast.Name) else None
        if ident in _TAINT_WRAPPERS:
            for arg in node.args:
                desc = self._expr_taint(arg)
                if desc is not None:
                    return desc
        return None

    def _expr_taint(self, node: ast.AST) -> Optional[str]:
        """A description of the wall-clock source this expression carries,
        or None when it is clean."""
        if isinstance(node, ast.Name):
            return self.tainted.get(node.id)
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.Attribute):
            return self._expr_taint(node.value)
        if isinstance(node, ast.BinOp):
            return self._expr_taint(node.left) or self._expr_taint(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._expr_taint(node.operand)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                desc = self._expr_taint(value)
                if desc is not None:
                    return desc
        if isinstance(node, ast.IfExp):
            return self._expr_taint(node.body) or self._expr_taint(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                desc = self._expr_taint(elt)
                if desc is not None:
                    return desc
        return None

    # -- sinks ---------------------------------------------------------------

    def _flag(self, line: int, col: int, desc: str, other: ast.AST, op: str) -> None:
        if not self._collect:
            return
        try:
            rendered = ast.unparse(other)
        except (ValueError, RecursionError):
            rendered = "<expression>"
        if len(rendered) > 40:
            rendered = rendered[:37] + "..."
        self.violations.append(
            Violation(
                rule="DT305",
                path=self.fn.module,
                line=line,
                col=col,
                message=(
                    f"wall-clock value ({desc}) {op} simulated-time "
                    f"expression `{rendered}` in {self.fn.name}"
                ),
            )
        )

    def _check_sinks(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare):
                operands = [sub.left] + list(sub.comparators)
                for i, left in enumerate(operands[:-1]):
                    right = operands[i + 1]
                    self._check_pair(sub, left, right, "compared with")
            elif isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Add, ast.Sub)):
                self._check_pair(sub, sub.left, sub.right, "added to/subtracted from")

    def _check_pair(self, site: ast.AST, left: ast.AST, right: ast.AST, op: str) -> None:
        for tainted_side, other in ((left, right), (right, left)):
            desc = self._expr_taint(tainted_side)
            if desc is None:
                continue
            if self._expr_taint(other) is not None:
                continue  # wall-vs-wall arithmetic is legitimate timing
            if _is_simclockish(other) or (
                isinstance(other, ast.BinOp) and (
                    _is_simclockish(other.left) or _is_simclockish(other.right)
                )
            ):
                self._flag(site.lineno, site.col_offset, desc, other, op)
            return

    # -- statement walk ------------------------------------------------------

    def run(self, collect: bool = True) -> None:
        self._collect = collect
        self._block(self.fn.node.body)

    def _block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes analyse themselves
        if isinstance(stmt, ast.Assign):
            self._check_sinks(stmt.value)
            desc = self._expr_taint(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if desc is not None:
                        self.tainted[target.id] = desc
                    else:
                        self.tainted.pop(target.id, None)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._check_sinks(stmt.value)
                desc = self._expr_taint(stmt.value)
                if isinstance(stmt.target, ast.Name):
                    if desc is not None:
                        self.tainted[stmt.target.id] = desc
                    else:
                        self.tainted.pop(stmt.target.id, None)
            return
        if isinstance(stmt, ast.AugAssign):
            self._check_sinks(stmt.value)
            desc = self._expr_taint(stmt.value)
            if isinstance(stmt.target, ast.Name) and desc is not None:
                self.tainted[stmt.target.id] = desc
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_sinks(stmt.value)
                if self._expr_taint(stmt.value) is not None:
                    self.returns_tainted = True
            return
        # Compound statements: check embedded expressions, then walk the
        # nested blocks in order sharing one taint state (union over
        # branches — conservative but simple).
        for expr in self._stmt_exprs(stmt):
            self._check_sinks(expr)
        for body in self._stmt_blocks(stmt):
            self._block(body)

    @staticmethod
    def _stmt_exprs(stmt: ast.stmt):
        for attr in ("test", "iter", "value", "exc"):
            node = getattr(stmt, attr, None)
            if isinstance(node, ast.AST):
                yield node
        for item in getattr(stmt, "items", []) or []:
            yield item.context_expr

    @staticmethod
    def _stmt_blocks(stmt: ast.stmt):
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(stmt, attr, None)
            if block:
                yield block
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body


# -- DT301: fork/service-reachable global writes -------------------------------


def _entry_reachable(graph: CallGraph) -> Dict[str, Tuple[FunctionInfo, Tuple[str, ...]]]:
    """qualname -> (entry point, call chain from it), BFS over precise
    edges from every declared entry point; first (shortest) chain wins."""
    reached: Dict[str, Tuple[FunctionInfo, Tuple[str, ...]]] = {}
    frontier: List[str] = []
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if fn.entrypoint:
            reached[qualname] = (fn, (qualname,))
            frontier.append(qualname)
    while frontier:
        discovered: List[str] = []
        for qualname in frontier:
            entry, chain = reached[qualname]
            for edge in _precise_callee_edges(graph, qualname):
                if edge.callee in reached or edge.callee not in graph.functions:
                    continue
                reached[edge.callee] = (entry, chain + (edge.callee,))
                discovered.append(edge.callee)
        frontier = sorted(discovered)
    return reached


def _dt301(graph: CallGraph, summaries: Mapping[str, FunctionSummary]) -> List[Violation]:
    violations: List[Violation] = []
    reached = _entry_reachable(graph)
    for qualname in sorted(reached):
        entry, chain = reached[qualname]
        summary = summaries.get(qualname)
        if summary is None or not summary.global_writes:
            continue
        fn = graph.functions[qualname]
        rendered = " -> ".join(chain)
        for write in sorted(set(summary.global_writes), key=lambda w: (w.line, w.target)):
            violations.append(
                Violation(
                    rule="DT301",
                    path=fn.module,
                    line=write.line,
                    col=0,
                    message=(
                        f"{write.target} ({write.kind}) is shared mutable state "
                        f"written on a path from {entry.entrypoint} entrypoint "
                        f"{entry.name}; chain: {rendered}"
                    ),
                )
            )
    return violations


# -- DT302: unpicklable callables at the Pool boundary -------------------------


def _free_names(node: ast.AST, enclosing_locals: Set[str]) -> List[str]:
    """Names a nested def reads from its enclosing function's scope."""
    own = _local_names(node)
    free: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in enclosing_locals and sub.id not in own:
                free.add(sub.id)
    return sorted(free)


def _dt302(graph: CallGraph) -> List[Violation]:
    violations: List[Violation] = []
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if fn.node is None:
            continue
        mod = graph.modules[fn.module]
        pool_names = {"pool"}
        assignments: Dict[str, ast.AST] = {}
        nested_defs: Dict[str, ast.AST] = {}
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and isinstance(
                sub.targets[0], ast.Name
            ):
                assignments[sub.targets[0].id] = sub.value
                ref = _ref_string(sub.value.func) if isinstance(sub.value, ast.Call) else None
                if ref is not None and ref.split(".")[-1].endswith("Pool"):
                    pool_names.add(sub.targets[0].id)
            elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
                ref = (
                    _ref_string(sub.context_expr.func)
                    if isinstance(sub.context_expr, ast.Call)
                    else None
                )
                if ref is not None and ref.split(".")[-1].endswith("Pool") and isinstance(
                    sub.optional_vars, ast.Name
                ):
                    pool_names.add(sub.optional_vars.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not fn.node:
                nested_defs[sub.name] = sub

        def check_callable(arg: ast.AST, call: ast.Call) -> None:
            if isinstance(arg, ast.Lambda):
                violations.append(
                    Violation(
                        rule="DT302",
                        path=fn.module,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"lambda crosses the Pool boundary in {fn.name}; "
                            "pickle cannot ship it — use a module-level function"
                        ),
                    )
                )
                return
            if isinstance(arg, ast.Attribute):
                ref = _ref_string(arg)
                if ref is not None and ref.startswith("self."):
                    violations.append(
                        Violation(
                            rule="DT302",
                            path=fn.module,
                            line=call.lineno,
                            col=call.col_offset,
                            message=(
                                f"bound method {ref} crosses the Pool boundary in "
                                f"{fn.name}; it drags its whole instance through pickle"
                            ),
                        )
                    )
                return
            if isinstance(arg, ast.IfExp):
                check_callable(arg.body, call)
                check_callable(arg.orelse, call)
                return
            if isinstance(arg, ast.Name):
                if arg.id in nested_defs:
                    captured = _free_names(nested_defs[arg.id], _local_names(fn.node))
                    cells = f" (captures {', '.join(captured)})" if captured else ""
                    violations.append(
                        Violation(
                            rule="DT302",
                            path=fn.module,
                            line=call.lineno,
                            col=call.col_offset,
                            message=(
                                f"closure {arg.id} crosses the Pool boundary in "
                                f"{fn.name}{cells}; nested functions are unpicklable"
                            ),
                        )
                    )
                    return
                bound = assignments.get(arg.id)
                if bound is not None and isinstance(bound, (ast.Lambda, ast.IfExp)):
                    check_callable(bound, call)

        for sub in ast.walk(fn.node):
            if not (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)):
                continue
            if sub.func.attr not in _POOL_METHODS:
                continue
            receiver = sub.func.value
            if not (isinstance(receiver, ast.Name) and receiver.id in pool_names):
                continue
            if sub.args:
                check_callable(sub.args[0], sub)
    return violations


# -- DT303: exception atomicity ------------------------------------------------


def _terminates(block: Sequence[ast.stmt]) -> bool:
    """Does control never fall out of the bottom of this block?"""
    return bool(block) and isinstance(
        block[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _protected_mutation_roots(stmt: ast.stmt) -> List[Tuple[str, int]]:
    """(receiver root, line) for every in-place mutation inside ``stmt``
    whose receiver is a name-rooted attribute/subscript chain.

    Mutations inside an ``if``/``try`` branch that *terminates* (ends in
    return/raise/continue/break) are excluded: control never reaches the
    statements after the enclosing statement on that path, so they cannot
    pair with a later mutation.  Each branch interior is still scanned on
    its own by the block recursion in :func:`_dt303`.
    """
    roots: List[Tuple[str, int]] = []

    def root_of(node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def walk(sub: ast.AST) -> None:
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested scopes are their own graph nodes
        if isinstance(sub, (ast.If, ast.Try)):
            if isinstance(sub, ast.If):
                walk(sub.test)
            blocks = [sub.body, sub.orelse]
            if isinstance(sub, ast.Try):
                blocks.append(sub.finalbody)
                blocks.extend(handler.body for handler in sub.handlers)
            for block in blocks:
                if not _terminates(block):
                    for child in block:
                        walk(child)
            return
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = root_of(target)
                    if root is not None:
                        roots.append((root, sub.lineno))
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = root_of(target)
                    if root is not None:
                        roots.append((root, sub.lineno))
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in _CONTRACT_MUTATORS:
                root = root_of(sub.func.value)
                if root is not None:
                    roots.append((root, sub.lineno))
        for child in ast.iter_child_nodes(sub):
            walk(child)

    walk(stmt)
    return roots


def _dt303(graph: CallGraph, summaries: Mapping[str, FunctionSummary]) -> List[Violation]:
    violations: List[Violation] = []
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if fn.node is None or not (
            fn.decision_path or fn.name in HOT_PATH_REGISTRY.get(fn.module, ())
        ):
            continue
        line_callees = _line_callees(graph, qualname)

        def raise_reason(stmt: ast.stmt) -> Optional[str]:
            """Why this statement may raise, if it may."""
            if isinstance(stmt, ast.Raise):
                return None  # an explicit raise is deliberate, not partial
            end = getattr(stmt, "end_lineno", stmt.lineno)
            for line in range(stmt.lineno, end + 1):
                for callee in line_callees.get(line, ()):
                    summary = summaries.get(callee)
                    if summary is not None and summary.may_raise:
                        names = ", ".join(sorted(summary.may_raise)[:3])
                        return f"call to {callee} may raise {names}"
            return None

        def scan_block(stmts: Sequence[ast.stmt], in_try: bool) -> None:
            # last completed mutation per receiver root, and the may-raise
            # statement seen since it (root -> (mutation line, reason, line)).
            pending: Dict[str, Tuple[int, str, int]] = {}
            last_mut: Dict[str, int] = {}
            reported: Set[int] = set()
            for stmt in stmts:
                muts = _protected_mutation_roots(stmt)
                if muts:
                    for root, line in muts:
                        if root in pending and pending[root][2] not in reported:
                            first_line, reason, raise_line = pending[root]
                            reported.add(raise_line)
                            violations.append(
                                Violation(
                                    rule="DT303",
                                    path=fn.module,
                                    line=raise_line,
                                    col=0,
                                    message=(
                                        f"{reason} between paired mutations of "
                                        f"`{root}` (lines {first_line} and {line}) "
                                        f"in {fn.name}; an exception here leaves "
                                        "the structure half-updated"
                                    ),
                                )
                            )
                        pending.pop(root, None)
                        last_mut[root] = line
                else:
                    # A try statement's own raisers are its handlers'
                    # business (the recursion below still scans them).
                    handled = in_try or isinstance(stmt, ast.Try)
                    reason = None if handled else raise_reason(stmt)
                    if reason is not None:
                        for root, line in last_mut.items():
                            if root not in pending:
                                pending[root] = (line, reason, stmt.lineno)
                # Recurse into nested blocks; a try body's raisers are
                # assumed handled by its handlers.
                nested_try = in_try or isinstance(stmt, ast.Try)
                for attr in ("body", "orelse", "finalbody"):
                    block = getattr(stmt, attr, None)
                    if block and not isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        scan_block(block, nested_try)
                for handler in getattr(stmt, "handlers", []) or []:
                    scan_block(handler.body, in_try)

        scan_block(fn.node.body, False)

        # Broad handlers that can swallow ContractError.
        for sub in ast.walk(fn.node):
            if not isinstance(sub, ast.Try):
                continue
            for handler in sub.handlers:
                htype = handler.type
                ident = None
                if htype is None:
                    ident = "bare except"
                elif isinstance(htype, ast.Name) and htype.id in ("Exception", "BaseException"):
                    ident = f"except {htype.id}"
                elif isinstance(htype, ast.Attribute) and htype.attr in ("Exception", "BaseException"):
                    ident = f"except {htype.attr}"
                if ident is None:
                    continue
                reraises = any(
                    isinstance(inner, ast.Raise) and inner.exc is None
                    for inner in ast.walk(ast.Module(body=list(handler.body), type_ignores=[]))
                )
                if reraises:
                    continue
                violations.append(
                    Violation(
                        rule="DT303",
                        path=fn.module,
                        line=handler.lineno,
                        col=handler.col_offset,
                        message=(
                            f"broad `{ident}` in decision/hot-path {fn.name} can "
                            "swallow ContractError; catch specific exceptions or re-raise"
                        ),
                    )
                )
    return violations


# -- DT304: stale suppressions -------------------------------------------------


def directive_comments(source: str) -> List[Tuple[int, str, str]]:
    """(line, kind, payload) for every real ``# repro:`` directive comment.

    Reads COMMENT tokens via :mod:`tokenize`, so directives mentioned in
    docstrings or string literals are invisible — exactly the property the
    regex-based extractors lack and DT304 needs to avoid flagging prose.
    Kinds: ``allow`` (payload = comma list of ids), ``calls`` (payload =
    target list), ``entrypoint`` (payload = the boundary kind), and
    ``unknown`` (payload = the unrecognised kind) for a directive naming
    none of :data:`DIRECTIVE_KINDS`.
    """
    found: List[Tuple[int, str, str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return found
    def directive(regex, text: str):
        """Match only when the directive *is* the comment (modulo leading
        hash marks/space) — prose comments that merely mention a directive
        (`# a \\`# repro: calls[...]\\` covered this line`) do not count."""
        match = regex.search(text)
        if match is None or text[: match.start()].strip(" \t#"):
            return None
        return match

    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        line = tok.start[0]
        allow = directive(_ALLOW_RE, tok.string)
        if allow is not None:
            found.append((line, "allow", allow.group(1)))
        calls = directive(_CALLS_RE, tok.string)
        if calls is not None:
            found.append((line, "calls", calls.group(1)))
        entry = directive(_ENTRYPOINT_RE, tok.string)
        if entry is not None:
            found.append((line, "entrypoint", entry.group(1)))
        kind = _DIRECTIVE_KIND_RE.match(tok.string)
        if kind is not None and kind.group(1) not in DIRECTIVE_KINDS:
            found.append((line, "unknown", kind.group(1)))
    return found


def stale_suppression_violations(
    graph: CallGraph,
    used_allows: Mapping[str, Set[Tuple[int, str]]],
) -> List[Violation]:
    """DT304: directives that suppressed or declared nothing this run.

    ``used_allows`` maps module key -> ``(line, rule-id)`` pairs credited
    by the engine's suppression ledger plus the interproc seed filter.
    ``allow[DT304]`` ids are exempt from the staleness computation itself
    (they are consumed by this very rule, downstream of it); the engine
    still honours them when filtering DT304's own output.
    """
    violations: List[Violation] = []
    dynamic_lines: Dict[str, Set[int]] = {}
    for dyn in graph.dynamic_calls:
        dynamic_lines.setdefault(dyn.module, set()).add(dyn.line)
    for key in sorted(graph.modules):
        mod = graph.modules[key]
        used = used_allows.get(key, set())
        entry_fns = {
            line
            for fn in mod.functions.values()
            if fn.entrypoint
            for line in (fn.line, fn.line - 1)
        }
        for line, kind, payload in directive_comments(mod.source):
            if kind == "allow":
                ids = [t.strip() for t in payload.split(",") if t.strip()]
                for rid in ids:
                    if rid == "DT304":
                        continue
                    if rid == "*":
                        if not any(uline == line for uline, _ in used):
                            violations.append(
                                Violation(
                                    rule="DT304",
                                    path=key,
                                    line=line,
                                    col=0,
                                    message="allow[*] suppresses nothing on this line",
                                )
                            )
                    elif (line, rid) not in used:
                        violations.append(
                            Violation(
                                rule="DT304",
                                path=key,
                                line=line,
                                col=0,
                                message=(
                                    f"allow[{rid}] suppresses nothing: {rid} no "
                                    "longer fires on this line — delete the directive"
                                ),
                            )
                        )
            elif kind == "calls":
                if line not in dynamic_lines.get(key, ()):
                    violations.append(
                        Violation(
                            rule="DT304",
                            path=key,
                            line=line,
                            col=0,
                            message=(
                                f"calls[{payload}] annotates a line with no "
                                "dynamic call left — delete the directive"
                            ),
                        )
                    )
            elif kind == "unknown":
                violations.append(
                    Violation(
                        rule="DT304",
                        path=key,
                        line=line,
                        col=0,
                        message=(
                            f"`repro: {payload}` is an unknown directive; it does "
                            f"nothing (known: {', '.join(DIRECTIVE_KINDS)})"
                        ),
                    )
                )
            elif kind == "entrypoint":
                if line not in entry_fns:
                    violations.append(
                        Violation(
                            rule="DT304",
                            path=key,
                            line=line,
                            col=0,
                            message=(
                                f"entrypoint[{payload}] declaration is attached to "
                                "no function def — move it onto (or above) a def line"
                            ),
                        )
                    )
    return violations


# -- the pass ------------------------------------------------------------------


def analyze_dataflow(graph: CallGraph) -> List[Violation]:
    """Run DT301/DT302/DT303/DT305 over a built call graph.

    DT304 is separate (:func:`stale_suppression_violations`): it needs the
    engine's post-filter suppression ledger, so the engine invokes it after
    every other rule's violations have been routed through the allows.
    """
    summaries = compute_summaries(graph)
    violations: List[Violation] = []
    violations.extend(_dt301(graph, summaries))
    violations.extend(_dt302(graph))
    violations.extend(_dt303(graph, summaries))
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if fn.node is None:
            continue
        flow = _TaintFlow(graph, graph.modules[fn.module], fn, summaries)
        flow.run(collect=True)
        violations.extend(flow.violations)
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule, v.message))
