"""Interprocedural determinism taint + dynamic-call pass (DT201-DT202).

WOHA's §IV claims are *per-heartbeat* properties of whole call chains: a
scheduling decision is only reproducible if nothing it transitively calls
reads the clock or iterates a set.  The intraprocedural rules
(DT101-DT104, DT107) see one file at a time; this pass walks the
:mod:`repro.analysis.callgraph` graph.

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
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, ModuleInfo
from repro.analysis.engine import inline_allows
from repro.analysis.rules import Violation, scan_module

__all__ = [
    "INTERPROC_RULES",
    "TaintSeed",
    "analyze_graph",
    "seed_allow_uses",
]

#: The rule ids this pass owns (registered in ``rules.RULES``).
INTERPROC_RULES: Tuple[str, ...] = ("DT201", "DT202")

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


# -- the pass ------------------------------------------------------------------


def analyze_graph(graph: CallGraph) -> List[Violation]:
    """Run DT201-DT202 over a built call graph; raw (unsuppressed)
    violations, each attributed to the module its line lives in."""
    violations: List[Violation] = []

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

    return sorted(violations, key=lambda v: (v.path, v.line, v.rule, v.message))
