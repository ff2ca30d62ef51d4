"""Per-layer span tracing for ``--trace`` runs, applied from outside.

The benchmark does not instrument the program: it replaces each layer's
entry points with timing wrappers, and restores them afterwards.

* **Where.**  A wrapper is installed on the attribute *where the caller
  resolves it*: ``repro.core.client.find_min_cap`` rather than
  ``repro.core.capsearch.find_min_cap``, because ``client.py`` imports the
  function by name.  Install wrappers before the simulation or service is
  built, because ``JobTracker.add_listener`` pre-binds listener hooks.
* **Sync spans.**  Each sync call pushes a frame on a span stack and
  records count, total time and self time (duration minus the wrapped
  children it contains), keyed by its ``(parent span, span)`` edge.
* **Coroutine spans.**  Awaits interleave, so a coroutine span records
  only its elapsed time, keyed by ``(span, outcome)``, and never sits on
  the stack.
* **Missing entry points.**  A target that no longer exists is reported in
  :attr:`Installation.absent` and skipped, so refactors that delete a code
  path do not break the benchmark.

Spans are aggregated in memory; :meth:`Tracer.snapshot` turns them into
JSON-ready rows and :func:`layer_table` folds the rows into layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Parent name of a span entered with no wrapped caller on the stack.
ROOT = "<root>"


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable of a layer.

    ``attr`` is the dotted path inside ``module`` at which callers resolve
    the callable.  ``before(args)`` runs ahead of the call and its value is
    handed to ``outcome(before_value, args, result)``, whose string
    classifies the call (for example ``"idle"``).
    """

    layer: str
    module: str
    attr: str
    before: Optional[Callable[[tuple], Any]] = None
    outcome: Optional[Callable[[Any, tuple, Any], str]] = None

    @property
    def label(self) -> str:
        return f"{self.module}:{self.attr}"


class Tracer:
    """In-memory span aggregation (one per traced process)."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        self.layer_of: Dict[str, str] = {}
        # (parent span, span) -> [calls, total s, self s]
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        # (parent span, span, outcome) -> calls
        self.outcomes: Dict[Tuple[str, str, str], int] = {}
        # (span, outcome) -> [calls, elapsed s]
        self.coroutines: Dict[Tuple[str, str], List[float]] = {}

    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        self.edges.clear()
        self.outcomes.clear()
        self.coroutines.clear()

    def wrap(
        self,
        span: str,
        layer: str,
        fn: Callable,
        before: Optional[Callable[[tuple], Any]] = None,
        outcome: Optional[Callable[[Any, tuple, Any], str]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` recording under ``span``/``layer``."""
        self.layer_of[span] = layer
        perf = time.perf_counter
        if inspect.iscoroutinefunction(fn):
            coroutines = self.coroutines

            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                start = perf()
                result = await fn(*args, **kwargs)
                elapsed = perf() - start
                key = (span, outcome(None, args, result) if outcome else "")
                record = coroutines.get(key)
                if record is None:
                    record = coroutines[key] = [0, 0.0]
                record[0] += 1
                record[1] += elapsed
                return result

            return traced_coroutine

        stack = self._stack
        edges = self.edges
        outcomes = self.outcomes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0.0]  # name, time covered by wrapped children
            stack.append(frame)
            state = before(args) if before is not None else None
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                key = (parent[0] if parent is not None else ROOT, span)
                record = edges.get(key)
                if record is None:
                    record = edges[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if outcome is not None:
                okey = (key[0], span, outcome(state, args, result))
                outcomes[okey] = outcomes.get(okey, 0) + 1
            return result

        return traced

    def snapshot(self) -> Dict[str, List[list]]:
        """JSON-ready rows of everything recorded."""
        layer = self.layer_of
        return {
            "edges": [
                [parent, span, layer[span], int(calls), total, self_s]
                for (parent, span), (calls, total, self_s) in sorted(self.edges.items())
            ],
            "outcomes": [
                [parent, span, outcome, count]
                for (parent, span, outcome), count in sorted(self.outcomes.items())
            ],
            "coroutines": [
                [span, layer[span], outcome, int(calls), elapsed]
                for (span, outcome), (calls, elapsed) in sorted(self.coroutines.items())
            ],
        }


class Installation:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self) -> None:
        self.absent: List[str] = []
        self._undo: List[Callable[[], None]] = []

    def uninstall(self) -> None:
        """Restore every patched attribute exactly as it was."""
        while self._undo:
            self._undo.pop()()


def _restorer(owner: Any, name: str) -> Callable[[], None]:
    if name in vars(owner):
        original = vars(owner)[name]
        return lambda: setattr(owner, name, original)
    # Inherited attribute: the wrapper shadows it on ``owner`` only.
    return lambda: delattr(owner, name)


def install(tracer: Tracer, entries: List[EntryPoint]) -> Installation:
    """Wrap every entry point that exists; record the rest as absent."""
    installation = Installation()
    for entry in entries:
        *path, name = entry.attr.split(".")
        try:
            owner = importlib.import_module(entry.module)
            for part in path:
                owner = getattr(owner, part)
            current = inspect.getattr_static(owner, name)
        except (ImportError, AttributeError):
            installation.absent.append(entry.label)
            continue
        span = entry.attr
        if isinstance(current, (staticmethod, classmethod)):
            replacement = type(current)(
                tracer.wrap(span, entry.layer, current.__func__, entry.before, entry.outcome)
            )
        elif callable(current):
            replacement = tracer.wrap(span, entry.layer, current, entry.before, entry.outcome)
        else:
            installation.absent.append(entry.label)
            continue
        installation._undo.append(_restorer(owner, name))
        setattr(owner, name, replacement)
    return installation


def layer_table(snapshot: Dict[str, List[list]]) -> Dict[str, Dict[str, Any]]:
    """Fold span rows into per-layer totals.

    A layer's ``calls`` and ``total_s`` count only entries from outside the
    layer, so a layer function calling another of the same layer is one
    call; ``self_s`` sums the self time of every span in the layer.
    ``outcomes`` counts the classified layer entries.  Coroutine layers
    carry calls and elapsed time per outcome.
    """
    layers: Dict[str, Dict[str, Any]] = {}

    def row(layer: str) -> Dict[str, Any]:
        return layers.setdefault(
            layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "outcomes": {}}
        )

    layer_of = {span: layer for _parent, span, layer, *_rest in snapshot["edges"]}
    for parent, span, layer, calls, total, self_s in snapshot["edges"]:
        entry = row(layer)
        entry["self_s"] += self_s
        if layer_of.get(parent) != layer:
            entry["calls"] += calls
            entry["total_s"] += total
    for parent, span, outcome, count in snapshot["outcomes"]:
        layer = layer_of[span]
        if layer_of.get(parent) != layer:
            counts = row(layer)["outcomes"]
            counts[outcome] = counts.get(outcome, 0) + count
    for span, layer, outcome, calls, elapsed in snapshot["coroutines"]:
        entry = row(layer)
        entry["calls"] += calls
        entry["total_s"] += elapsed
        if outcome:
            entry["outcomes"][outcome] = entry["outcomes"].get(outcome, 0) + calls
            entry.setdefault("elapsed_s", {})
            entry["elapsed_s"][outcome] = entry["elapsed_s"].get(outcome, 0.0) + elapsed
    return layers


def layer_rows(layers: Dict[str, Dict[str, Any]], base_s: float) -> Dict[str, Dict[str, Any]]:
    """:func:`layer_table` in milliseconds, self time as a share of ``base_s``."""
    return {
        name: {
            "calls": row["calls"],
            "total_ms": 1e3 * row["total_s"],
            "self_ms": 1e3 * row["self_s"],
            "self_share": row["self_s"] / base_s if base_s else 0.0,
            "outcomes": row["outcomes"],
        }
        for name, row in sorted(layers.items())
    }


def calls_between(snapshot: Dict[str, List[list]], parent: str, span: str) -> int:
    """Calls of ``span`` made directly from ``parent`` (e.g. probes per search)."""
    return sum(
        calls for p, s, _layer, calls, _total, _self in snapshot["edges"] if (p, s) == (parent, span)
    )
