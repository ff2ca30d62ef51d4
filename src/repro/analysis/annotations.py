"""Runtime-visible markers consumed by the interprocedural analyzer.

``DECISION_PATH_DIRS`` marks whole directories as decision paths; these
decorators mark *individual functions* that live outside them — e.g. the
Oozie-lite coordinator's submission loop, or the event engine's dispatch —
so the taint engine (:mod:`repro.analysis.interproc`, rule DT201) treats
them as sinks and the dynamic-call rule (DT202) covers them.

The decorators are deliberately trivial at runtime: they tag the function
object and record it in a registry, nothing else.  The analyzer recognises
them *syntactically* (a decorator whose terminal identifier is
``decision_path`` / ``entrypoint``), so annotated code needs no
import-time coupling to the analysis package beyond this leaf module.

Hot-path functions are not marked here: the exception-atomicity rule
(DT303) reads them from ``HOT_PATH_REGISTRY`` in
:mod:`repro.analysis.dataflow`, the one place that names them.
"""

from __future__ import annotations

from typing import Callable, Dict, TypeVar

__all__ = [
    "decision_path",
    "entrypoint",
    "DECISION_PATH_REGISTRY",
    "ENTRYPOINT_KINDS",
    "ENTRYPOINT_REGISTRY",
]

_F = TypeVar("_F", bound=Callable)

#: ``module.qualname`` -> function, for every ``@decision_path`` target.
DECISION_PATH_REGISTRY: Dict[str, Callable] = {}

#: The boundary kinds an entry point may declare.
ENTRYPOINT_KINDS = ("fork", "service")

#: ``module.qualname`` -> kind, for every ``@entrypoint(...)`` target.
ENTRYPOINT_REGISTRY: Dict[str, str] = {}


def decision_path(fn: _F) -> _F:
    """Mark ``fn`` as a scheduling-decision function for the taint engine.

    Equivalent to the function living under one of ``DECISION_PATH_DIRS``:
    nondeterminism reaching it interprocedurally is a DT201 violation, and
    unresolved dynamic calls inside it are DT202.
    """
    fn.__repro_decision_path__ = True  # type: ignore[attr-defined]
    DECISION_PATH_REGISTRY[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return fn


def entrypoint(kind: str) -> Callable[[_F], _F]:
    """Mark ``fn`` as a concurrency boundary for the dataflow pass (DT301).

    ``kind`` is ``"fork"`` (a ``multiprocessing`` pool worker — everything
    reachable from it runs in a forked child, so module/class-level mutable
    writes diverge from the parent silently) or ``"service"`` (a request
    handler serving concurrent tenants over shared process state).  The
    comment form ``# repro: entrypoint[fork]`` on (or directly above) the
    ``def`` line is equivalent and keeps annotated modules import-free.
    """
    if kind not in ENTRYPOINT_KINDS:
        raise ValueError(f"entrypoint kind must be one of {ENTRYPOINT_KINDS}, got {kind!r}")

    def mark(fn: _F) -> _F:
        fn.__repro_entrypoint__ = kind  # type: ignore[attr-defined]
        ENTRYPOINT_REGISTRY[f"{fn.__module__}.{fn.__qualname__}"] = kind
        return fn

    return mark
