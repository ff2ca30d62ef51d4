"""The determinism rule catalog (DT101-DT104, DT107) and its AST visitor.

WOHA's correctness argument is determinism all the way down: Algorithm 1
must emit the same progress-requirement list ``F_i`` for the same workflow
(the plan cache and the byte-equivalence oracle depend on it), and the
Double Skip List must stay deterministic for the §IV complexity claims to
hold.  One stray ``set`` iteration or unseeded ``random`` call in a
decision path silently breaks cache hits, trace invariance and every
figure benchmark — this module encodes those project contracts as
pyflakes-style syntactic rules.

Rule catalog (see DESIGN.md §8 for the full rationale):

``DT101`` unordered-set-iteration
    Iterating a set-typed expression in an order-sensitive position (a
    ``for`` loop, a list/dict comprehension, ``list()``/``tuple()``/
    ``enumerate()``/``reversed()``/``iter()``/``join()``) inside a
    *decision path* module.  Set iteration order follows per-process hash
    randomisation for strings and memory addresses for objects, so any
    decision derived from it varies across interpreter invocations.
    Order-insensitive consumers (``sorted``, ``set``/``frozenset``,
    ``len``, ``sum``, ``min``, ``max``, ``any``, ``all``, set
    comprehensions) are allowed.
``DT102`` wall-clock-or-unseeded-random
    ``time.time()``/``datetime.now()``-style wall-clock reads, the global
    ``random`` module, legacy global ``numpy.random`` functions,
    ``uuid.uuid4`` or ``os.urandom`` anywhere outside ``noise.py`` and
    ``workloads/`` (the two places randomness is deliberately — and
    seedably — injected).
``DT103`` float-equality-on-durations
    ``==``/``!=`` where an operand's identifier names a duration-like
    quantity (deadline, duration, makespan, ttd, tardiness, workspan).
    Exact float comparison on derived times is almost always a latent
    platform dependence; compare with an ordering or an epsilon, or
    suppress with a justification where exact equality is the contract.
``DT104`` frozen-model-mutation
    Attribute assignment through a name that conventionally binds an
    immutable description (``workflow``, ``wf``, ``plan``, ``wjob``,
    ``definition``), or ``object.__setattr__`` outside ``__init__``/
    ``__post_init__``.  ``Workflow``/``ProgressPlan`` immutability is what
    makes plan-cache sharing safe.
``DT107`` order-dependent-single-element-extraction
    ``next(iter(<set>))``, zero-argument ``.pop()`` on a set-typed
    expression, or ``.popitem()`` in a decision path.  Each extracts *one*
    element whose identity depends on insertion/hash order — the sneakiest
    form of DT101 because no loop is visible.  (``dict.popitem()`` is
    LIFO on CPython ≥ 3.7, but which key is last inserted is itself
    history-dependent; decisions must not hang off it.)

Rules DT201-DT202 are the *interprocedural* pass (``lint --interproc``);
they live in :mod:`repro.analysis.interproc`.  Rules DT301 and DT303-DT305 are the
*flow-sensitive dataflow* pass layered on the same call graph; they live
in :mod:`repro.analysis.dataflow`.  All are registered here so the
baseline parser and the CLI catalog know them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["Violation", "RULES", "DECISION_PATH_DIRS", "scan_module"]


@dataclass(frozen=True)
class Violation:
    """One rule hit: where, which rule, and a human-readable message."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


#: rule id -> one-line description (the catalog the CLI prints).
RULES: Dict[str, str] = {
    "DT101": "iteration over a set-typed expression without an explicit ordering (decision paths)",
    "DT102": "wall-clock read or unseeded randomness outside noise.py / workloads/",
    "DT103": "float == / != on a duration- or deadline-like value",
    "DT104": "mutation of an immutable model object (Workflow / ProgressPlan) after construction",
    "DT107": "order-dependent single-element extraction (next(iter(set)), set.pop(), dict.popitem()) in a decision path",
    "DT201": "nondeterministic source reaches a decision-path function through the call graph",
    "DT202": "unresolved dynamic call inside a decision-path function (annotate with `# repro: calls[...]`)",
    "DT301": "module/class-level mutable state written on a path reachable from a fork/service entrypoint",
    "DT303": "paired mutations of contract-protected state span a may-raise operation, or a broad except swallows ContractError",
    "DT304": "stale or unknown directive: an allow[...]/calls[...]/entrypoint[...] that no longer suppresses or declares anything, or a `# repro:` kind that does not exist",
    "DT305": "wall-clock or OS-entropy value compared or added to a simulated-time expression",
}

#: Package sub-directories whose modules take scheduling decisions.  Set
#: iteration order (DT101) and single-element extraction (DT107) only
#: matter where the element feeds a decision; model/metrics/report code
#: is exempt.
DECISION_PATH_DIRS: Tuple[str, ...] = ("core", "schedulers", "structures", "cluster")

#: Modules allowed to use randomness (they seed it explicitly).
_RANDOMNESS_ALLOWED = ("noise.py", "workloads/")

# -- DT101 helpers -----------------------------------------------------------

#: Attributes known (project-wide) to hold set types on model objects.
_SET_ATTRS = {"prerequisites", "completed"}
#: Zero/one-argument methods known to return frozensets.
_SET_METHODS = {"dependents", "prerequisites", "ancestors", "descendants"}
#: Set-algebra methods: set-typed result when the receiver is set-typed.
_SET_ALGEBRA = {"difference", "union", "intersection", "symmetric_difference", "copy"}
#: Subscripted containers whose values are sets.
_SET_VALUED_MAPS = {"pending_prereqs"}
#: Calls whose consumption of an iterable is order-insensitive.
_ORDER_FREE_CALLS = {"sorted", "set", "frozenset", "len", "sum", "min", "max", "any", "all"}
#: Calls that materialise iteration order (order-sensitive consumers).
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "reversed", "iter", "next"}

_SET_OPS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)

_DURATIONISH = ("deadline", "duration", "makespan", "ttd", "tardiness", "workspan")

_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("os", "urandom"),
}

#: numpy.random entry points that are fine: explicitly seeded constructors.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937"}

#: Names conventionally bound to immutable model descriptions (DT104).
_FROZEN_MODEL_NAMES = {"workflow", "wf", "plan", "wjob", "definition"}
_FROZEN_MODEL_SUFFIXES = ("_workflow", "_plan", "_wjob")

#: Methods where object.__setattr__ on self is the sanctioned frozen-
#: dataclass construction idiom.
_SETATTR_OK_METHODS = {"__init__", "__post_init__", "__setstate__"}


def _is_setish(node: ast.AST) -> bool:
    """Is this expression syntactically recognisable as a set?

    Purely syntactic (no type inference): set/frozenset literals and
    calls, set comprehensions, set-algebra over a set-ish operand, and the
    project's known set-returning attributes and methods.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in _SET_METHODS:
                return True
            if func.attr in _SET_ALGEBRA and _is_setish(func.value):
                return True
        return False
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ATTRS
    if isinstance(node, ast.Subscript):
        value = node.value
        return isinstance(value, ast.Attribute) and value.attr in _SET_VALUED_MAPS
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_setish(node.left) or _is_setish(node.right)
    return False


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a name/attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _durationish(node: ast.AST) -> Optional[str]:
    ident = _terminal_identifier(node)
    if ident is None:
        return None
    lowered = ident.lower()
    for marker in _DURATIONISH:
        if marker in lowered:
            return ident
    return None


class _LintVisitor(ast.NodeVisitor):
    """Single-pass visitor emitting violations for every rule."""

    def __init__(self, path: str, decision_path: bool, randomness_allowed: bool) -> None:
        self.path = path
        self.decision_path = decision_path
        self.randomness_allowed = randomness_allowed
        self.violations: List[Violation] = []
        self._parents: List[ast.AST] = []
        self._function_stack: List[str] = []
        #: iter(...) call nodes already reported as part of a DT107
        #: ``next(iter(S))`` — DT101 skips them to avoid double-flagging.
        self._dt107_inner: Set[int] = set()

    # -- plumbing ----------------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def generic_visit(self, node: ast.AST) -> None:
        self._parents.append(node)
        try:
            super().generic_visit(node)
        finally:
            self._parents.pop()

    def _parent(self) -> Optional[ast.AST]:
        return self._parents[-1] if self._parents else None

    # -- DT101: set iteration ------------------------------------------------

    def _flag_set_iteration(self, iterable: ast.AST, context: str) -> None:
        if self.decision_path and _is_setish(iterable):
            self._emit(
                "DT101",
                iterable,
                f"iteration over a set in {context} depends on hash order; "
                "wrap in sorted(...) or use an ordered collection",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_set_iteration(node.iter, "a for loop")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, order_sensitive=True)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, order_sensitive=True)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # The result is itself unordered: iteration order cannot leak out.
        self._visit_comprehension(node, order_sensitive=False)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # A generator's order matters exactly when its consumer's does.
        parent = self._parent()
        sensitive = True
        if isinstance(parent, ast.Call):
            callee = parent.func
            name = callee.id if isinstance(callee, ast.Name) else None
            if name in _ORDER_FREE_CALLS:
                sensitive = False
        self._visit_comprehension(node, order_sensitive=sensitive)

    def _visit_comprehension(self, node: ast.AST, order_sensitive: bool) -> None:
        if order_sensitive:
            for gen in node.generators:  # type: ignore[attr-defined]
                self._flag_set_iteration(gen.iter, "a comprehension")
        self.generic_visit(node)

    # -- Calls: DT101 consumers + DT102 ---------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        self._check_single_extraction(node)
        # DT101: list(S) / tuple(S) / enumerate(S) / "x".join(S) over a set.
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
            for arg in node.args[:1]:
                if id(arg) not in self._dt107_inner:
                    self._flag_set_iteration(arg, f"{func.id}(...)")
        if isinstance(func, ast.Attribute) and func.attr == "join" and node.args:
            self._flag_set_iteration(node.args[0], "str.join(...)")
        self._check_randomness(node)
        self._check_frozen_setattr(node)
        self.generic_visit(node)

    # -- DT107: order-dependent single-element extraction ----------------------

    def _check_single_extraction(self, node: ast.Call) -> None:
        if not self.decision_path:
            return
        func = node.func
        # next(iter(S)) over a set: picks "some" element by hash order.
        if (
            isinstance(func, ast.Name)
            and func.id == "next"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "iter"
            and node.args[0].args
            and _is_setish(node.args[0].args[0])
        ):
            inner = node.args[0]
            self._dt107_inner.add(id(inner))
            self._dt107_inner.add(id(inner.args[0]))
            self._emit(
                "DT107",
                node,
                "next(iter(<set>)) extracts a hash-order-dependent element; "
                "use min/max or sort first",
            )
            return
        if isinstance(func, ast.Attribute) and not node.args and not node.keywords:
            # set.pop() removes an arbitrary element; dict.popitem() the
            # most recently inserted — both are history/hash dependent.
            if func.attr == "pop" and _is_setish(func.value):
                self._emit(
                    "DT107",
                    node,
                    "set.pop() removes a hash-order-dependent element; "
                    "pick deterministically (min/sorted) then discard",
                )
            elif func.attr == "popitem":
                self._emit(
                    "DT107",
                    node,
                    ".popitem() extracts an insertion-history-dependent entry; "
                    "key the choice explicitly instead",
                )

    def _check_randomness(self, node: ast.Call) -> None:
        if self.randomness_allowed:
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # time.time() / datetime.now() / uuid.uuid4() / os.urandom()
        base_name = _terminal_identifier(base)
        if base_name is not None and (base_name, func.attr) in _WALLCLOCK_CALLS:
            self._emit(
                "DT102",
                node,
                f"{base_name}.{func.attr}() is wall-clock/entropy; decision code "
                "must be a pure function of its inputs",
            )
            return
        # random.random() etc: the process-global, implicitly seeded RNG.
        if isinstance(base, ast.Name) and base.id == "random":
            self._emit(
                "DT102",
                node,
                f"random.{func.attr}() uses the global RNG; thread a seeded "
                "numpy Generator through instead",
            )
            return
        # np.random.<legacy fn>: the global numpy RNG (default_rng is fine).
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in {"np", "numpy"}
            and func.attr not in _NP_RANDOM_OK
        ):
            self._emit(
                "DT102",
                node,
                f"numpy.random.{func.attr}() uses the global numpy RNG; "
                "use numpy.random.default_rng(seed)",
            )

    # -- DT103: float equality ------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                ident = _durationish(side)
                if ident is not None:
                    self._emit(
                        "DT103",
                        node,
                        f"exact float comparison on {ident!r}; use an ordering "
                        "or an epsilon (or justify with a suppression)",
                    )
                    break
        self.generic_visit(node)

    # -- DT104: frozen-model mutation -----------------------------------------

    @staticmethod
    def _frozen_model_base(target: ast.AST) -> Optional[str]:
        if not isinstance(target, ast.Attribute):
            return None
        base = target.value
        if not isinstance(base, ast.Name):
            return None
        name = base.id
        if name in _FROZEN_MODEL_NAMES or name.endswith(_FROZEN_MODEL_SUFFIXES):
            return name
        return None

    def _check_mutation_targets(self, targets: Sequence[ast.AST], node: ast.AST) -> None:
        for target in targets:
            name = self._frozen_model_base(target)
            if name is not None:
                self._emit(
                    "DT104",
                    node,
                    f"attribute assignment on {name!r} mutates an immutable "
                    "model object after construction",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_mutation_targets(node.targets, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_targets([node.target], node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_mutation_targets([node.target], node)
        self.generic_visit(node)

    def _check_frozen_setattr(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            return
        enclosing = self._function_stack[-1] if self._function_stack else None
        if enclosing in _SETATTR_OK_METHODS:
            return
        self._emit(
            "DT104",
            node,
            "object.__setattr__ outside __init__/__post_init__ defeats a "
            "frozen dataclass's immutability",
        )

    # -- function-name tracking (for the __setattr__ whitelist) ---------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._function_stack.pop()


def scan_module(
    tree: ast.AST,
    path: str,
    decision_path: bool,
    randomness_allowed: bool,
) -> List[Violation]:
    """Run every rule over one parsed module; returns raw (unsuppressed)
    violations in source order."""
    visitor = _LintVisitor(path, decision_path, randomness_allowed)
    visitor.visit(tree)
    return sorted(visitor.violations, key=lambda v: (v.line, v.col, v.rule))
