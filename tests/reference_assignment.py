"""Frozen references for the JobTracker's assignment and heartbeat paths.

* :func:`use_reference_loops` — the one-``select_task``-per-launch
  ``heartbeat``, heartbeat tick and out-of-band ``schedule_round`` loops as
  they stood before the loops were unrolled and rounds began reusing
  proven-idle scheduler answers (DESIGN.md §10), with the scheduler-side
  :func:`has_runnable` / :func:`note_idle` hint accessors they were
  written against.
* :func:`use_unparked_heartbeats` — heartbeat timers that never park: every
  tracker ticks every ``heartbeat_interval`` for the whole run, as Hadoop's
  TaskTrackers poll unconditionally.

They are test oracles only: each swaps its behaviour onto
:class:`~repro.cluster.jobtracker.JobTracker` through pytest's
``monkeypatch`` so an equivalence test can run the same scenario on the
production paths and on these, and compare the outcomes.

Keep this module frozen.  The production paths may change shape; these
may not, or the equivalence suites stop testing anything.
"""

from typing import List

from repro.cluster.jobtracker import JobTracker
from repro.cluster.tasks import Task, TaskKind
from repro.cluster.tasktracker import TaskTracker
from repro.schedulers.base import WorkflowScheduler

__all__ = ["has_runnable", "note_idle", "use_reference_loops", "use_unparked_heartbeats"]


def has_runnable(scheduler: WorkflowScheduler, kind: TaskKind) -> bool:
    """Cheap hint: may ``scheduler.select_task`` return a task of ``kind``?

    ``False`` is authoritative (a prior ``select_task`` proved idle and
    nothing changed since); ``True`` merely permits asking.
    """
    return scheduler.maybe_map if kind is not TaskKind.REDUCE else scheduler.maybe_reduce


def note_idle(scheduler: WorkflowScheduler, kind: TaskKind) -> None:
    """Record that ``scheduler.select_task(kind, ...)`` just returned ``None``."""
    if kind is not TaskKind.REDUCE:
        scheduler.maybe_map = False
    else:
        scheduler.maybe_reduce = False


def reference_heartbeat_tick(self: JobTracker, tracker: TaskTracker) -> None:
    if not tracker.alive:
        return
    config = self.config
    launched = self.heartbeat(tracker)
    tid = tracker.tracker_id
    sim = self.sim
    self._hb_anchor[tid] = sim.now
    parked = self._parked
    if self._hb_quiescent and not launched and self._tracker_quiescent(tracker):
        parked[tid] = None
        self._parked_mask |= 1 << tid
        return
    parked.pop(tid, None)
    self._parked_mask &= ~(1 << tid)
    sim.schedule(sim.now + config.heartbeat_interval, self._heartbeat_tick, tracker)


def reference_heartbeat(self: JobTracker, tracker: TaskTracker) -> List[Task]:
    launched: List[Task] = []
    scheduler = self.scheduler
    now = self.sim.now
    for kind in (TaskKind.MAP, TaskKind.REDUCE):
        while tracker.free_slots(kind) > 0:
            if not has_runnable(scheduler, kind):
                break
            task = scheduler.select_task(kind, now)
            if task is None:
                note_idle(scheduler, kind)
                break
            self._launch(task, tracker)
            launched.append(task)
    return launched


def reference_schedule_round(self: JobTracker) -> None:
    """Asks the scheduler once more per kind on every round, even for a
    kind already proven idle; never takes the batched path."""
    if not self.config.eager_heartbeats or self._in_round:
        return
    self._in_round = True
    try:
        for kind in (TaskKind.MAP, TaskKind.REDUCE):
            while self.free_slots(kind) > 0:
                task = self.scheduler.select_task(kind, self.sim.now)
                if task is None:
                    note_idle(self.scheduler, kind)
                    if self.speculator is not None:
                        task = self.speculator.select_backup(kind, self.sim.now)
                if task is None:
                    break
                tracker = self._pick_tracker(kind)
                self._launch(task, tracker)
    finally:
        self._in_round = False


def use_reference_loops(monkeypatch) -> None:
    """Route every JobTracker through the frozen per-call loops, whatever
    its ``batched_assignment`` setting."""
    monkeypatch.setattr(JobTracker, "_heartbeat_tick", reference_heartbeat_tick)
    monkeypatch.setattr(JobTracker, "heartbeat", reference_heartbeat)
    monkeypatch.setattr(JobTracker, "schedule_round", reference_schedule_round)


def _never_quiescent(self: JobTracker, tracker: TaskTracker) -> bool:
    return False


def use_unparked_heartbeats(monkeypatch) -> None:
    """Keep every heartbeat timer armed: no tick ever parks, so no wake
    ever fires, and every tracker polls on its original phase grid."""
    monkeypatch.setattr(JobTracker, "_tracker_quiescent", _never_quiescent)
