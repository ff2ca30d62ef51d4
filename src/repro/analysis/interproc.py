"""Interprocedural determinism taint + complexity-budget pass (DT201-DT204).

WOHA's §IV claims are *per-heartbeat* properties of whole call chains: the
Double Skip List only buys O(1) head deletion / O(log n_w) updates if no
helper on the path re-introduces an O(n_w) scan, and a scheduling decision
is only reproducible if nothing it transitively calls reads the clock or
iterates a set.  The intraprocedural rules (DT101-DT107) see one file at a
time; this pass walks the :mod:`repro.analysis.callgraph` graph.

**Taint (DT201).**  Seeds are the intraprocedural nondeterminism rules
re-run unconditionally (DT101/DT102/DT107 hits in *any* module) plus
environment sources those rules don't cover: ``os.environ`` reads and
filesystem-listing calls (``os.listdir``/``scandir``/``walk``,
``glob.glob``/``iglob``, ``Path.iterdir``/``glob``/``rglob`` — directory
order is filesystem-dependent).  Taint propagates caller-ward along every
edge, including ambiguous ones — for soundness the taint lattice takes the
union over possible callees.  A violation is emitted at each *boundary
edge*: a decision-path caller invoking a tainted non-decision-path callee.
Seeds already inside decision-path modules are the intra rules' business —
reporting them again here would double every DT101.  The message carries
the full sink→source chain.

**Dynamic calls (DT202).**  A call the builder could not resolve (a
parameter invoked, ``getattr(...)(...)``, an instance-attribute callable)
inside a decision-path function is a hole in the taint analysis; either
resolve it or declare the possible targets with ``# repro: calls[...]``
(which only silences the rule if at least one target resolves).

**Budgets (DT203/DT204).**  A declared ``# repro: budget O(...)`` bounds
everything reachable through *precise* edges: O(n) scan sites (``for``
loops and order-sensitive comprehensions over unbounded collections,
single-argument ``sorted``/``min``/``max``/``sum``/``list``/``tuple`` over
non-literal iterables) and calls into functions whose own declared budget
exceeds the caller's.  ``while`` loops are exempt — the §IV-B head-advance
loop is amortised O(1) per element and a syntactic pass cannot see
amortisation.  Ambiguous CHA edges are excluded from budget arithmetic
(the Double Skip List is backend-generic *by design*; bench_fig13a
measures the actual per-backend cost) — that trade-off is documented in
DESIGN.md §9.  Violations are emitted at the terminal witness (the
offending loop line or the over-budget call line) with the chain from the
budgeted root, so one ``# repro: allow[DT203]`` at the loop covers every
chain through it.  DT204 keeps the system honest the other way around:
hot-path functions (the built-in registry below, ``# repro: hot-path``
markers, ``@hot_path``) must declare a budget at all.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    BUDGET_GRAMMAR,
    CallEdge,
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    build_call_graph,
)
from repro.analysis.engine import inline_allows
from repro.analysis.rules import Violation, scan_module

__all__ = [
    "HOT_PATH_REGISTRY",
    "INTERPROC_RULES",
    "TaintSeed",
    "analyze_graph",
    "seed_allow_uses",
]

#: The rule ids this pass owns (registered in ``rules.RULES``).
INTERPROC_RULES: Tuple[str, ...] = ("DT201", "DT202", "DT203", "DT204")

#: Functions that are hot by construction: the §IV data-structure mutators
#: and the per-heartbeat scheduling path.  Each must declare a budget
#: (DT204) whether or not its author remembered the marker comment.
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

#: Intraprocedural rules whose hits double as taint seeds.
_SEED_RULES = {"DT101", "DT102", "DT107"}
_SEED_LABELS = {
    "DT101": "set-order iteration",
    "DT102": "wall-clock/unseeded randomness",
    "DT107": "order-dependent single-element extraction",
}

#: module-function call pairs that enumerate the filesystem.
_FS_MODULE_CALLS = {
    ("os", "listdir"),
    ("os", "scandir"),
    ("os", "walk"),
    ("glob", "glob"),
    ("glob", "iglob"),
}
#: Path-like methods that enumerate the filesystem.
_FS_METHODS = {"iterdir", "glob", "rglob"}

#: Single-argument builtins doing O(n) work over their iterable.
_LINEAR_BUILTINS = {"sorted", "min", "max", "sum", "list", "tuple"}

#: Call wrappers through which boundedness passes to the arguments.
_BOUNDED_WRAPPERS = {"enumerate", "zip", "reversed", "sorted", "list", "tuple"}

#: Rank every scan site is charged at (a loop is O(n) until proven else).
_SCAN_RANK = BUDGET_GRAMMAR.index("O(n)")


@dataclass(frozen=True)
class TaintSeed:
    """One nondeterminism source: where it is and what it does."""

    module: str
    line: int
    description: str


@dataclass(frozen=True)
class _Taint:
    seed: TaintSeed
    via: Optional[str]  # next function qualname toward the seed, if any


@dataclass(frozen=True)
class _ScanSite:
    line: int
    description: str


# -- seed collection -----------------------------------------------------------


class _EnvFsSeedVisitor(ast.NodeVisitor):
    """os.environ reads and filesystem-listing calls."""

    def __init__(self) -> None:
        self.seeds: List[Tuple[int, str]] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr == "environ"
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            self.seeds.append((node.lineno, "os.environ read"))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else None
            if base_name is not None and (base_name, func.attr) in _FS_MODULE_CALLS:
                self.seeds.append(
                    (node.lineno, f"filesystem listing via {base_name}.{func.attr}()")
                )
            elif func.attr in _FS_METHODS and base_name not in ("glob",):
                self.seeds.append(
                    (node.lineno, f"filesystem listing via .{func.attr}()")
                )
        self.generic_visit(node)


def _seed_candidates(mod: ModuleInfo) -> List[Tuple[TaintSeed, Optional[str]]]:
    """Every candidate seed paired with the intra rule id that produced it
    (``None`` for the env/filesystem sources no intra rule covers)."""
    raw = scan_module(
        mod.tree,
        path=mod.key,
        decision_path=True,
        randomness_allowed=mod.randomness_allowed,
    )
    found: List[Tuple[TaintSeed, Optional[str]]] = [
        (TaintSeed(mod.key, v.line, _SEED_LABELS[v.rule]), v.rule)
        for v in raw
        if v.rule in _SEED_RULES
    ]
    env_fs = _EnvFsSeedVisitor()
    env_fs.visit(mod.tree)
    found.extend(
        (TaintSeed(mod.key, line, desc), None) for line, desc in env_fs.seeds
    )
    return sorted(set(found), key=lambda pair: (pair[0].line, pair[0].description))


def _collect_seeds(mod: ModuleInfo) -> List[TaintSeed]:
    """Every nondeterminism source in one module, wherever it lives.

    The intraprocedural scan runs with ``decision_path=True`` so DT101 and
    DT107 fire in *any* module — the point of taint is exactly that these
    sources sit outside decision paths.  Lines carrying an inline allow
    for the seed's rule (or DT201, or ``*``) are trusted and not seeded.
    """
    allows = inline_allows(mod.source)
    kept = []
    for seed, rule in _seed_candidates(mod):
        allowed = allows.get(seed.line, ())
        if "*" in allowed or "DT201" in allowed or (rule is not None and rule in allowed):
            continue
        kept.append(seed)
    return kept


def seed_allow_uses(mod: ModuleInfo) -> Set[Tuple[int, str]]:
    """``(line, rule-id)`` pairs of inline allows that suppressed a taint
    seed on that line.

    These allows consume a seed without ever producing a suppressed
    :class:`Violation` (the seed simply never enters the taint lattice),
    so the stale-suppression rule (DT304 in
    :mod:`repro.analysis.dataflow`) must credit them through this hook
    rather than through the engine's suppression ledger.
    """
    allows = inline_allows(mod.source)
    used: Set[Tuple[int, str]] = set()
    for seed, rule in _seed_candidates(mod):
        for rid in allows.get(seed.line, ()):
            if rid in ("*", "DT201") or (rule is not None and rid == rule):
                used.add((seed.line, rid))
    return used


# -- taint propagation ---------------------------------------------------------


def _propagate_taint(
    graph: CallGraph, direct: Dict[str, TaintSeed]
) -> Dict[str, _Taint]:
    """Caller-ward BFS from directly seeded functions; first hit wins,
    visiting in sorted order so chains are deterministic."""
    taint: Dict[str, _Taint] = {
        qualname: _Taint(seed, None) for qualname, seed in direct.items()
    }
    frontier = sorted(taint)
    while frontier:
        discovered: Set[str] = set()
        for qualname in frontier:
            for edge in sorted(
                graph.callers(qualname), key=lambda e: (e.caller, e.line)
            ):
                if edge.caller not in taint:
                    taint[edge.caller] = _Taint(taint[qualname].seed, qualname)
                    discovered.add(edge.caller)
        frontier = sorted(discovered)
    return taint


def _chain(taint: Dict[str, _Taint], start: str) -> List[str]:
    names = [start]
    while taint[names[-1]].via is not None:
        names.append(taint[names[-1]].via)  # type: ignore[arg-type]
    return names


# -- budget checking -----------------------------------------------------------


def _bounded(node: ast.AST) -> bool:
    """Can this iterable only ever yield a compile-time-constant number of
    elements?  Literals are; ``range(<const>)`` is; bounded wrappers pass
    boundedness through."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
        return True
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "range":
            return all(isinstance(arg, ast.Constant) for arg in node.args)
        if node.func.id in _BOUNDED_WRAPPERS:
            return bool(node.args) and all(_bounded(arg) for arg in node.args)
    return False


def _iter_snippet(node: ast.AST) -> str:
    # ast.unparse raises ValueError on nodes it cannot render and can
    # recurse past the limit on pathologically deep expressions; anything
    # else should surface, not be swallowed.
    try:
        text = ast.unparse(node)
    except (ValueError, RecursionError):  # pragma: no cover - exotic nodes
        return "<expression>"
    return text if len(text) <= 40 else text[:37] + "..."


def _scan_sites(fn: FunctionInfo) -> List[_ScanSite]:
    """O(n) work sites directly inside ``fn`` (nested defs excluded —
    they are graph nodes of their own and charge their callers by edge)."""
    sites: List[_ScanSite] = []

    def walk(node: ast.AST, root: bool = False) -> None:
        if not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return
        if isinstance(node, ast.For) and not _bounded(node.iter):
            sites.append(
                _ScanSite(
                    node.lineno, f"for-loop over {_iter_snippet(node.iter)}"
                )
            )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if not _bounded(gen.iter):
                    sites.append(
                        _ScanSite(
                            node.lineno,
                            f"comprehension over {_iter_snippet(gen.iter)}",
                        )
                    )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _LINEAR_BUILTINS
            and len(node.args) == 1
            and not isinstance(node.args[0], (ast.GeneratorExp,))
            and not _bounded(node.args[0])
        ):
            sites.append(
                _ScanSite(
                    node.lineno,
                    f"{node.func.id}({_iter_snippet(node.args[0])}) linear scan",
                )
            )
        for child in ast.iter_child_nodes(node):
            walk(child)

    if fn.node is not None:
        walk(fn.node, root=True)
    return sites


def _precise_edges(graph: CallGraph, qualname: str) -> List[CallEdge]:
    edges = [e for e in graph.callees(qualname) if not e.ambiguous]
    return sorted(set(edges), key=lambda e: (e.line, e.callee, e.kind))


def _check_budgets(
    graph: CallGraph, sites_by_fn: Dict[str, List[_ScanSite]]
) -> List[Violation]:
    violations: List[Violation] = []
    for qualname in sorted(graph.functions):
        root = graph.functions[qualname]
        rank = root.budget_rank
        if rank is None:
            continue
        # DFS through undeclared callees; declared callees are boundaries
        # (their bodies are their own budget's business).
        stack: List[Tuple[str, Tuple[str, ...]]] = [(qualname, (qualname,))]
        visited = {qualname}
        while stack:
            current, chain = stack.pop()
            fn = graph.functions[current]
            rendered = " -> ".join(chain)
            for site in sites_by_fn.get(current, []):
                if _SCAN_RANK > rank:
                    violations.append(
                        Violation(
                            rule="DT203",
                            path=fn.module,
                            line=site.line,
                            col=0,
                            message=(
                                f"{site.description} is O(n) work but "
                                f"{root.name} declares budget {root.budget}; "
                                f"chain: {rendered}"
                            ),
                        )
                    )
            for edge in reversed(_precise_edges(graph, current)):
                callee = graph.functions.get(edge.callee)
                if callee is None:
                    continue
                if callee.budget is not None:
                    if callee.budget_rank > rank:
                        violations.append(
                            Violation(
                                rule="DT203",
                                path=fn.module,
                                line=edge.line,
                                col=0,
                                message=(
                                    f"call into {callee.qualname} (declared "
                                    f"{callee.budget}) exceeds {root.name}'s "
                                    f"budget {root.budget}; chain: {rendered}"
                                ),
                            )
                        )
                    continue
                if edge.callee not in visited:
                    visited.add(edge.callee)
                    stack.append((edge.callee, chain + (edge.callee,)))
    return violations


# -- the pass ------------------------------------------------------------------


def _apply_hot_registry(graph: CallGraph) -> None:
    """Mark every built-in registry function hot on this graph (idempotent).

    :func:`analyze_graph` applies it before DT204; the flag stays set on
    the graph, so DT303 (:mod:`repro.analysis.dataflow`), which runs
    after this pass, sees the same notion of "hot".
    """
    for mod_key, names in HOT_PATH_REGISTRY.items():
        mod = graph.modules.get(mod_key)
        if mod is None:
            continue
        for name in names:
            fn = mod.functions.get(name)
            if fn is not None:
                fn.hot_path = True


def analyze_graph(graph: CallGraph) -> List[Violation]:
    """Run DT201-DT204 over a built call graph; raw (unsuppressed)
    violations, each attributed to the module its line lives in."""
    violations: List[Violation] = []

    # Built-in hot-path obligations (applies before DT204).
    _apply_hot_registry(graph)

    # -- DT201 ---------------------------------------------------------------
    direct: Dict[str, TaintSeed] = {}
    direct_lists: Dict[str, List[TaintSeed]] = {}
    for key in sorted(graph.modules):
        mod = graph.modules[key]
        for seed in _collect_seeds(mod):
            fn = graph.function_at(key, seed.line)
            if fn is None:
                continue  # module-level statement; no function to taint
            direct.setdefault(fn.qualname, seed)
            direct_lists.setdefault(fn.qualname, []).append(seed)
    taint = _propagate_taint(graph, direct)

    emitted: Set[Tuple[str, int, str]] = set()
    for edge in sorted(
        set(graph.edges), key=lambda e: (e.caller, e.line, e.callee, e.kind)
    ):
        caller = graph.functions.get(edge.caller)
        callee = graph.functions.get(edge.callee)
        if caller is None or callee is None:
            continue
        if not caller.decision_path or callee.decision_path:
            continue
        if edge.callee not in taint:
            continue
        dedup = (caller.module, edge.line, edge.callee)
        if dedup in emitted:
            continue
        emitted.add(dedup)
        info = taint[edge.callee]
        chain = [edge.caller] + _chain(taint, edge.callee)
        violations.append(
            Violation(
                rule="DT201",
                path=caller.module,
                line=edge.line,
                col=0,
                message=(
                    f"{info.seed.description} reaches decision path: "
                    f"{' -> '.join(chain)}; source at "
                    f"{info.seed.module}:{info.seed.line}"
                ),
            )
        )
    # A @decision_path function in a non-decision module with a source
    # directly inside it: the intra rules skip that module, so report here.
    for qualname in sorted(direct_lists):
        fn = graph.functions[qualname]
        if not fn.decision_path or graph.modules[fn.module].decision_path:
            continue
        for seed in direct_lists[qualname]:
            violations.append(
                Violation(
                    rule="DT201",
                    path=fn.module,
                    line=seed.line,
                    col=0,
                    message=(
                        f"{seed.description} directly inside @decision_path "
                        f"function {fn.name}"
                    ),
                )
            )

    # -- DT202 ---------------------------------------------------------------
    for dyn in sorted(
        set(graph.dynamic_calls), key=lambda d: (d.module, d.line, d.description)
    ):
        fn = graph.functions.get(dyn.function)
        if fn is None or not fn.decision_path or dyn.annotated:
            continue
        violations.append(
            Violation(
                rule="DT202",
                path=dyn.module,
                line=dyn.line,
                col=0,
                message=(
                    f"unresolved dynamic call in decision path ({dyn.description}); "
                    "resolve statically or declare targets with `# repro: calls[...]`"
                ),
            )
        )

    # -- DT203 ---------------------------------------------------------------
    sites_by_fn = {
        qualname: _scan_sites(fn) for qualname, fn in graph.functions.items()
    }
    violations.extend(_check_budgets(graph, sites_by_fn))

    # -- DT204 ---------------------------------------------------------------
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if fn.hot_path and fn.budget is None:
            violations.append(
                Violation(
                    rule="DT204",
                    path=fn.module,
                    line=fn.line,
                    col=0,
                    message=(
                        f"hot-path function {fn.name} has no declared budget; "
                        "add `# repro: budget O(1)|O(log n)|O(n)` on its def"
                    ),
                )
            )

    return sorted(violations, key=lambda v: (v.path, v.line, v.rule, v.message))
