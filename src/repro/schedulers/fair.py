"""Oozie + Fair (paper §V-B): the Facebook FairScheduler behaviour.

"All running jobs evenly share the resources of the Hadoop cluster in a
work conserving way."  We implement the classic deficit form: a free slot
of a kind goes to the runnable job currently occupying the fewest slots of
that kind (ties broken by submission time, then job id), which converges to
an even split while never idling a slot a job could use.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, List, Optional, Tuple

from repro.cluster.job import JobInProgress
from repro.cluster.tasks import Task, TaskKind
from repro.schedulers.base import WorkflowScheduler

__all__ = ["FairScheduler"]


class FairScheduler(WorkflowScheduler):
    """Even slot sharing across running jobs."""

    name = "Fair"

    def __init__(self) -> None:
        super().__init__()
        self._jobs: List[JobInProgress] = []

    def on_wjob_submitted(self, jip: JobInProgress, now: float) -> None:
        self._jobs.append(jip)

    def on_job_completed(self, jip: JobInProgress, now: float) -> None:
        try:
            self._jobs.remove(jip)
        except ValueError:
            pass

    def select_task(self, kind: TaskKind, now: float) -> Optional[Task]:
        tracing = self.tracer.enabled
        skipped = [] if tracing else None
        best: Optional[JobInProgress] = None
        best_key = None
        best_position = None
        for position, jip in enumerate(self._jobs):
            if jip.completed or not jip.has_runnable(kind):
                if tracing and not jip.completed:
                    # Fair shares across jobs; skipped entries are job ids.
                    skipped.append(jip.job_id)
                continue
            occupancy = jip.running_maps if kind.uses_map_slot else jip.running_reduces
            key = (occupancy, jip.submit_time, jip.job_id)
            if best_key is None or key < best_key:
                best, best_key, best_position = jip, key, position
        if best is None:
            if tracing:
                self.trace_decision(kind, now, len(self._jobs), skipped)
            return None
        task = best.obtain(kind)
        if tracing:
            self.trace_decision(
                kind, now, len(self._jobs), skipped, best_position, best.workflow_name, task
            )
        return task

    def select_tasks(
        self, kind: TaskKind, now: float, limit: int, launch: Callable[[Task], None]
    ) -> int:
        """One scan plus a heap fills up to ``limit`` slots (DESIGN.md §11).

        Byte-identical to repeated :meth:`select_task` calls: between
        launches of one round only the launched job's occupancy changes,
        so the argmin sequence over ``(occupancy, submit_time, job_id)``
        is exactly what popping a heap — re-pushing the launched job with
        its new occupancy — produces.  Keys are unique (job ids are), so
        heap order equals the linear scan's strict-``<`` first-wins order.
        The ``skipped`` list of every decision is the position-ordered set
        of non-runnable, non-completed jobs at that instant, matching the
        full scan each unbatched call would make; the trailing idle
        decision fires only when the heap empties before ``limit``.
        """
        tracing = self.tracer.enabled
        use_map = kind.uses_map_slot
        jobs = self._jobs
        queue_len = len(jobs)
        heap: List[Tuple[int, float, str, int, JobInProgress]] = []
        # (position, job_id), kept sorted by position — the scan order the
        # unbatched path's skipped lists follow.
        nonrunnable: List[Tuple[int, str]] = []
        # The heap/skipped entries ARE this round's working set: one tuple
        # per job per batched round (not per event), bounded by the job
        # count — a bounded-accumulator bargain.
        for position, jip in enumerate(jobs):
            if jip.completed:
                continue
            job_id = jip.job_id
            if not jip.has_runnable(kind):
                nonrunnable.append((position, job_id))
                continue
            occupancy = jip.running_maps if use_map else jip.running_reduces
            heap.append((occupancy, jip.submit_time, job_id, position, jip))
        heapq.heapify(heap)
        launched = 0
        while launched < limit and heap:
            occupancy, submit_time, job_id, position, jip = heapq.heappop(heap)
            task = jip.obtain_map() if use_map else jip.obtain_reduce()
            if tracing:
                self.trace_decision(
                    kind, now, queue_len, [jid for _, jid in nonrunnable],
                    position, jip.workflow_name, task,
                )
            if task is None:
                # has_runnable lied (defensive; mirrors select_task's
                # task=None decision, after which the caller goes idle
                # without a second, trailing idle decision).
                return launched
            launch(task)  # repro: calls[repro.cluster.jobtracker.JobTracker._launch]
            launched += 1
            if jip.has_runnable(kind):
                occupancy = jip.running_maps if use_map else jip.running_reduces
                # Re-queue entries are one tuple per launch, not per event
                # (same bounded-accumulator bargain as the heap build).
                heapq.heappush(heap, (occupancy, submit_time, job_id, position, jip))
            else:
                insort(nonrunnable, (position, job_id))
        if launched < limit and tracing:
            self.trace_decision(kind, now, queue_len, [jid for _, jid in nonrunnable])
        return launched
