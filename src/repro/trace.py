"""Structured decision tracing for the scheduler stack.

The paper's evaluation (§V, Figs 12-19) explains *why* the Workflow
Scheduler served workflow A before B at a given instant; the metrics
collector alone cannot answer that — it only sees task launches.  This
module records the decisions themselves: every ``select_task`` call emits
one ``decision`` event carrying the chosen workflow, its current lag
``F_h(ttd) - rho_h``, its position in the priority queue, the workflows
that were skipped because they had nothing runnable of the requested kind,
and how many ct-head advances (Algorithm 2 lines 4-19) preceded the pick.
The JobTracker adds ``assign`` and ``slot_free`` events so slot idle gaps
are attributable.

Design constraints:

* **Zero cost when disabled.**  Schedulers hold :data:`NULL_TRACER` by
  default and guard instrumentation with ``tracer.enabled`` — an attribute
  read and a branch, nothing else.  Tracing must never change a scheduling
  decision; ``tests/integration/test_trace_invariance.py`` and
  ``benchmarks/bench_trace_smoke.py`` assert the assignment sequence is
  byte-identical with and without a tracer attached.
* **Bounded memory.**  Events live in a ring buffer (``capacity=None`` for
  unbounded); overwritten events are counted in :attr:`DecisionTracer.dropped`
  so a truncated trace is never mistaken for a complete one.
* **Replayable.**  Events are plain dicts, dumped one-JSON-object-per-line
  (JSONL).  :func:`read_jsonl` loads them back for post-mortem analysis
  (:func:`repro.metrics.postmortem.explain_miss`).

Event vocabulary (``event`` field):

``decision``
    One ``select_task`` call, recorded by the single emitter
    :meth:`repro.schedulers.base.WorkflowScheduler.trace_decision`, which
    also bumps the scheduler's ``decisions`` (or, for an idle answer,
    ``idle_decisions``) counter.  Fields: ``scheduler``, ``slot_kind``,
    ``workflow``/``task`` (``None`` when the scheduler had nothing to
    assign), ``lag`` (``None`` for unplanned or best-effort workflows),
    ``queue_len``, ``position`` (0-based rank of the served workflow in the
    scheduler's own order), ``skipped`` (workflow or job names examined
    before the winner and found non-runnable), ``ct_advances``.
``ct_advance``
    One ct-head advance inside Algorithm 2: ``workflow``, ``index``
    (the new ``W_h.i``), ``lag`` (the recomputed priority).
``assign``
    A selected task was launched on a tracker: ``workflow``, ``task``,
    ``slot_kind``, ``tracker``, ``wait`` (seconds the consumed slot sat
    free, when known).
``slot_free``
    A slot returned to the pool: ``slot_kind``, ``workflow`` (whose task
    released it), ``free`` (cluster-wide free count of that kind after).
``workflow_submitted`` / ``workflow_completed``
    Lifecycle markers with ``workflow``, ``deadline``, ``total_tasks`` /
    ``met`` — recorded because the tracer doubles as a JobTracker listener.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from typing import IO, Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = ["NullTracer", "NULL_TRACER", "DecisionTracer", "read_jsonl"]


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Schedulers and the JobTracker hold this singleton until a real
    :class:`DecisionTracer` is attached, so the hot path pays one
    ``enabled`` attribute read per guarded block and nothing more.
    """

    enabled = False

    def record(self, event: str, time: float, **fields: Any) -> None:
        """Discard the event."""

    def incr(self, scheduler: str, counter: str, amount: Union[int, float] = 1) -> None:
        """Discard the counter increment."""


NULL_TRACER = NullTracer()


def _jsonable(value: Any) -> Any:
    """Map non-JSON floats to ``None`` so dumps stay standard-compliant."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class DecisionTracer:
    """Ring-buffer recorder of scheduler decisions and counters.

    Args:
        capacity: maximum events retained (oldest dropped first);
            ``None`` keeps everything.

    The tracer is also a JobTracker listener: registering it via
    ``JobTracker.add_listener`` (done by ``attach_tracer``) records
    workflow lifecycle events alongside the decisions, which makes a dumped
    trace self-contained for post-mortem queries.
    """

    enabled = True

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.capacity = capacity
        self._events: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0
        # (scheduler name, counter name) -> value.  Counters survive ring
        # eviction: they aggregate the whole run, not the retained window.
        self.counters: "Counter[Tuple[str, str]]" = Counter()

    # -- recording ----------------------------------------------------------

    def record(self, event: str, time: float, **fields: Any) -> None:
        """Append one event to the ring buffer."""
        if self.capacity is not None and len(self._events) == self.capacity:
            self.dropped += 1
        payload = {"seq": self._seq, "event": event, "time": time}
        for key, value in fields.items():
            payload[key] = _jsonable(value)
        self._seq += 1
        self._events.append(payload)

    def incr(self, scheduler: str, counter: str, amount: Union[int, float] = 1) -> None:
        """Bump a per-scheduler counter (kept outside the ring buffer)."""
        self.counters[(scheduler, counter)] += amount

    # -- JobTracker listener hooks ------------------------------------------

    def on_workflow_submitted(self, wip, now: float) -> None:
        """Record a workflow's arrival (with deadline and task count)."""
        self.record(
            "workflow_submitted",
            now,
            workflow=wip.name,
            deadline=wip.deadline,
            total_tasks=wip.total_tasks,
        )

    def on_workflow_completed(self, wip, now: float) -> None:
        """Record a workflow finishing (and whether it met its deadline)."""
        self.record(
            "workflow_completed",
            now,
            workflow=wip.name,
            deadline=wip.deadline,
            met=wip.deadline is None or now <= wip.deadline,
        )

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self._events)

    def events(self, event: Optional[str] = None) -> List[Dict[str, Any]]:
        """Retained events, optionally filtered by ``event`` type."""
        if event is None:
            return list(self._events)
        return [e for e in self._events if e["event"] == event]

    @property
    def next_seq(self) -> int:
        """Sequence number the next recorded event will carry."""
        return self._seq

    def events_since(self, seq: int, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Retained events with ``seq >= seq``, oldest first.

        The incremental-consumer primitive behind the serve tier's
        ``GET /v1/trace`` stream: a client holds the last sequence number
        it has seen and re-polls from there.  Ring eviction can drop events
        between polls; comparing the first returned ``seq`` against the
        requested one detects the gap (``dropped`` counts it globally).
        """
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1 or None")
        # Events are appended in sequence order, so the deque is sorted by
        # seq; skip the prefix below the cursor and take up to ``limit``.
        out: List[Dict[str, Any]] = []
        for event in self._events:
            if event["seq"] < seq:
                continue
            out.append(event)
            if limit is not None and len(out) == limit:
                break
        return out

    def counter_table(self) -> Dict[str, Dict[str, Union[int, float]]]:
        """Counters grouped by scheduler name: ``{scheduler: {name: value}}``."""
        table: Dict[str, Dict[str, Union[int, float]]] = {}
        for (scheduler, name), value in sorted(self.counters.items()):
            table.setdefault(scheduler, {})[name] = value
        return table

    def clear(self) -> None:
        """Drop retained events and counters (sequence numbers keep rising)."""
        self._events.clear()
        self.counters.clear()
        self.dropped = 0

    # -- (de)serialisation ---------------------------------------------------

    def to_jsonl(self, fh: IO[str]) -> int:
        """Write the retained events as JSON Lines; returns the line count."""
        count = 0
        for event in self._events:
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")
            count += 1
        return count

    def dumps_jsonl(self) -> str:
        """The retained events as one JSONL string."""
        return "".join(json.dumps(e, sort_keys=True) + "\n" for e in self._events)


def read_jsonl(source: Union[str, IO[str], Iterable[str]]) -> List[Dict[str, Any]]:
    """Load a JSONL decision log (path, open file, or iterable of lines)."""
    if isinstance(source, str):
        with open(source) as fh:
            return [json.loads(line) for line in fh if line.strip()]
    return [json.loads(line) for line in source if line.strip()]
