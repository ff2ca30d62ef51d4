"""Event-stream metrics collection.

A :class:`MetricsCollector` is a JobTracker listener that records every task
launch/completion.  From the raw event log it derives:

* per-workflow, per-slot-kind **allocation time series** — the data behind
  the paper's Figs 14-19 (map/reduce slots in use by each workflow over
  time);
* **cluster utilization** (busy slot-seconds over capacity), Fig 12;
* busy-time and task-count counters used in tests;
* **per-scheduler decision counters** aggregated from a
  :class:`~repro.trace.DecisionTracer` (decisions, idle calls, ct
  advances, slot frees, assignment-wait totals).

Collectors from independent runs (the shards of a
:mod:`repro.experiments` sweep) combine via :meth:`MetricsCollector.merge`.
Merging is order-deterministic and purely additive, with one wrinkle:
each constituent run's busy seconds are weighed against *its own*
``slots x window`` capacity, so shards with disjoint — or identically
overlapping — simulated time ranges neither stretch nor double-count the
merged utilization window (see :meth:`MetricsCollector.merge`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.cluster.config import ClusterConfig
from repro.cluster.tasks import Task, TaskKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.trace import DecisionTracer

__all__ = ["SlotSample", "MetricsCollector"]


@dataclass(frozen=True)
class SlotSample:
    """One step of an allocation series: ``count`` slots in use from ``time``."""

    time: float
    count: int


class MetricsCollector:
    """Records task events and derives evaluation metrics."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        # (time, workflow_name, uses_map_slot, delta)
        self._deltas: List[Tuple[float, Optional[str], bool, int]] = []
        # (time, workflow_name) for every non-submitter launch: the true
        # progress rho_i as a function of time.
        self._progress_events: List[Tuple[float, Optional[str]]] = []
        self.busy_map_seconds = 0.0
        self.busy_reduce_seconds = 0.0
        self.tasks_launched = 0
        self.tasks_completed = 0
        self.tasks_lost = 0
        self.first_event: Optional[float] = None
        self.last_event: Optional[float] = None
        # {scheduler name: {counter name: value}}, filled by
        # aggregate_counters; accumulates across tracers/runs so sweeps can
        # pool several traced simulations into one table.
        self.scheduler_counters: Dict[str, Dict[str, Union[int, float]]] = {}
        # Merge accounting: once another collector has been folded in, the
        # window/utilization denominators come from these per-shard sums
        # instead of (last_event - first_event) x self.config — a single
        # global span would count each shard's warm-up against every other
        # shard's capacity.  Zero/False until the first merge.
        self._merged = False
        self._window_sum = 0.0
        self._map_capacity_s = 0.0
        self._reduce_capacity_s = 0.0

    # -- JobTracker listener hooks -----------------------------------------

    def on_task_launch(self, task: Task, now: float) -> None:
        # Once per launch on the simulation hot path: identity tests and a
        # direct job attribute read instead of enum/Task property dispatch.
        kind = task.kind
        wf_name = task.job.workflow_name
        self.tasks_launched += 1
        self._deltas.append((now, wf_name, kind is not TaskKind.REDUCE, +1))
        if kind is not TaskKind.SUBMIT and not task.speculative:
            self._progress_events.append((now, wf_name))
        if self.first_event is None:
            self.first_event = now
        self.last_event = now

    def on_task_complete(self, task: Task, now: float) -> None:
        uses_map = task.kind is not TaskKind.REDUCE
        duration = task.duration
        self.tasks_completed += 1
        self._deltas.append((now, task.job.workflow_name, uses_map, -1))
        if uses_map:
            self.busy_map_seconds += duration
        else:
            self.busy_reduce_seconds += duration
        if self.first_event is None:
            self.first_event = now
        self.last_event = now

    def on_task_lost(self, task: Task, now: float) -> None:
        """A tracker failure killed a running attempt; the partial work it
        burned counts as busy slot time (it occupied the slot)."""
        self.tasks_lost += 1
        self._deltas.append((now, task.workflow_name, task.kind.uses_map_slot, -1))
        burned = max(0.0, now - (task.launch_time if task.launch_time is not None else now))
        if task.kind.uses_map_slot:
            self.busy_map_seconds += burned
        else:
            self.busy_reduce_seconds += burned
        self._touch(now)

    def _touch(self, now: float) -> None:
        if self.first_event is None:
            self.first_event = now
        self.last_event = now

    # -- decision-counter aggregation ----------------------------------------

    def aggregate_counters(
        self, tracer: "DecisionTracer"
    ) -> Dict[str, Dict[str, Union[int, float]]]:
        """Fold a tracer's per-scheduler counters into this collector.

        Values *add* to whatever was aggregated before, so calling this for
        several tracers (e.g. one per run of a sweep) pools them into one
        per-scheduler table.  Returns the updated table.
        """
        for scheduler, counters in tracer.counter_table().items():
            bucket = self.scheduler_counters.setdefault(scheduler, {})
            for name, value in counters.items():
                bucket[name] = bucket.get(name, 0) + value
        return self.scheduler_counters

    # -- shard merging --------------------------------------------------------

    def _seal(self) -> None:
        """Freeze this collector's own window into the merge accumulators."""
        if self._merged:
            return
        span = self.window
        self._window_sum = span
        self._map_capacity_s = self.config.total_map_slots * span
        self._reduce_capacity_s = self.config.total_reduce_slots * span
        self._merged = True

    def merge(self, other: "MetricsCollector") -> "MetricsCollector":
        """Fold another run's collector into this one (in place).

        This is the reduction step of the sharded experiment runner
        (:mod:`repro.experiments.runner`): each worker returns its cell's
        collector and the parent merges them in deterministic cell order,
        so a sharded sweep's merged metrics are byte-identical to a
        sequential run of the same grid.

        Counters, busy seconds and the raw event lists add; ``first_event``
        / ``last_event`` take the min/max.  :attr:`window` becomes the
        *sum* of the constituents' windows and :meth:`utilization` weighs
        each constituent's busy seconds against its own ``slots x window``
        capacity — shards are independent simulations (each starting at its
        own t=0), so a single ``max(last) - min(first)`` span would
        double-count overlapping shard warm-ups and dilute disjoint ones.

        Per-workflow derived series (:meth:`allocation_series`,
        :meth:`progress_curve`) remain meaningful only when workflow names
        are unique across the merged runs; aggregate counters and
        utilization are always well-defined.  ``other`` is not modified.
        """
        self._seal()
        self._deltas.extend(other._deltas)
        self._progress_events.extend(other._progress_events)
        self.busy_map_seconds += other.busy_map_seconds
        self.busy_reduce_seconds += other.busy_reduce_seconds
        self.tasks_launched += other.tasks_launched
        self.tasks_completed += other.tasks_completed
        self.tasks_lost += other.tasks_lost
        other_first = other.first_event
        if other_first is not None:
            self.first_event = (
                other_first if self.first_event is None
                else min(self.first_event, other_first)
            )
        other_last = other.last_event
        if other_last is not None:
            self.last_event = (
                other_last if self.last_event is None
                else max(self.last_event, other_last)
            )
        if other._merged:
            self._window_sum += other._window_sum
            self._map_capacity_s += other._map_capacity_s
            self._reduce_capacity_s += other._reduce_capacity_s
        else:
            span = other.window
            config = other.config
            self._window_sum += span
            self._map_capacity_s += config.total_map_slots * span
            self._reduce_capacity_s += config.total_reduce_slots * span
        for scheduler, counters in other.scheduler_counters.items():
            # Merge folds a handful of shard tables once per run, not
            # per-event work; the fresh bucket dict is the output itself.
            bucket = self.scheduler_counters.setdefault(scheduler, {})
            for name, value in counters.items():
                bucket[name] = bucket.get(name, 0) + value
        return self

    # -- derived series -------------------------------------------------------

    @property
    def window(self) -> float:
        """Span between the first and last recorded event.

        After a :meth:`merge` this is the sum of the constituent runs'
        windows (each run spans its own simulated time axis)."""
        if self._merged:
            return self._window_sum
        if self.first_event is None or self.last_event is None:
            return 0.0
        return self.last_event - self.first_event

    def utilization(self, kind: Optional[TaskKind] = None, window: Optional[float] = None) -> float:
        """Busy slot-seconds divided by slot capacity over the window.

        With ``kind=None``, both slot pools are combined (this is the
        cluster utilization of Fig 12).  On a merged collector the
        capacity denominator is the sum of each constituent's own
        ``slots x window`` product (an explicit ``window`` override still
        wins, priced at *this* collector's config).
        """
        if window is None and self._merged:
            if kind is None:
                capacity = self._map_capacity_s + self._reduce_capacity_s
                busy = self.busy_map_seconds + self.busy_reduce_seconds
            elif kind.uses_map_slot:
                capacity = self._map_capacity_s
                busy = self.busy_map_seconds
            else:
                capacity = self._reduce_capacity_s
                busy = self.busy_reduce_seconds
            return busy / capacity if capacity > 0 else 0.0
        span = self.window if window is None else window
        if span <= 0:
            return 0.0
        if kind is None:
            capacity = (self.config.total_map_slots + self.config.total_reduce_slots) * span
            busy = self.busy_map_seconds + self.busy_reduce_seconds
        elif kind.uses_map_slot:
            capacity = self.config.total_map_slots * span
            busy = self.busy_map_seconds
        else:
            capacity = self.config.total_reduce_slots * span
            busy = self.busy_reduce_seconds
        return busy / capacity if capacity > 0 else 0.0

    def allocation_series(
        self, kind: TaskKind, workflow: Optional[str] = None
    ) -> List[SlotSample]:
        """Step series of slots of ``kind`` in use over time.

        With ``workflow`` set, only that workflow's tasks are counted —
        one line of a Fig 14-19 panel.  Events at the same instant are
        merged into a single step.
        """
        use_map = kind.uses_map_slot
        samples: List[SlotSample] = []
        count = 0
        for time, wf, is_map, delta in sorted(self._deltas, key=lambda d: d[0]):
            if is_map is not use_map:
                continue
            if workflow is not None and wf != workflow:
                continue
            count += delta
            if samples and samples[-1].time == time:
                samples[-1] = SlotSample(time, count)
            else:
                samples.append(SlotSample(time, count))
        return samples

    def allocation_matrix(
        self, kind: TaskKind, workflows: List[str], step: float
    ) -> Tuple[List[float], Dict[str, List[int]]]:
        """Sample each workflow's allocation series on a regular grid.

        Returns ``(times, {workflow: counts})`` — the exact data a Fig 14-19
        panel plots (one stacked line per workflow, darker = earlier
        release, in the paper's rendering).
        """
        if self.first_event is None:
            return [], {wf: [] for wf in workflows}
        t0, t1 = self.first_event, self.last_event
        times = []
        t = t0
        while t <= t1 + 1e-9:
            times.append(t)
            t += step
        result: Dict[str, List[int]] = {}
        for wf in workflows:
            series = self.allocation_series(kind, wf)
            counts: List[int] = []
            idx = 0
            current = 0
            for t in times:
                while idx < len(series) and series[idx].time <= t:
                    current = series[idx].count
                    idx += 1
                counts.append(current)
            result[wf] = counts
        return times, result

    def peak_allocation(self, kind: TaskKind, workflow: Optional[str] = None) -> int:
        """Maximum simultaneous slots of ``kind`` in use."""
        series = self.allocation_series(kind, workflow)
        return max((s.count for s in series), default=0)

    def progress_curve(self, workflow: str) -> List[Tuple[float, int]]:
        """The true progress ``rho_i(t)``: cumulative wjob task launches.

        Submitter and speculative-backup attempts are excluded, matching
        the scheduler's own accounting.  Plotted against the plan's
        requirement curve this shows how closely a workflow followed its
        scheduling plan — the paper's core intuition.
        """
        times = sorted(t for t, wf in self._progress_events if wf == workflow)
        return [(t, i + 1) for i, t in enumerate(times)]
