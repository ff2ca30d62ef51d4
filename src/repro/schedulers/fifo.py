"""Oozie + FIFO (paper §V-B): Hadoop's default JobQueueTaskScheduler.

Jobs are held in submission order; to fill a slot the scheduler walks the
ordered list until it finds a job with an available task of the right kind.
Workflow structure and deadlines are invisible — exactly the information
separation the paper criticises.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster.job import JobInProgress
from repro.cluster.tasks import Task, TaskKind
from repro.schedulers.base import WorkflowScheduler

__all__ = ["FifoScheduler"]


class FifoScheduler(WorkflowScheduler):
    """First-in, first-out over submitted jobs."""

    name = "FIFO"

    def __init__(self) -> None:
        super().__init__()
        self._queue: List[JobInProgress] = []

    def on_wjob_submitted(self, jip: JobInProgress, now: float) -> None:
        self._queue.append(jip)

    def on_job_completed(self, jip: JobInProgress, now: float) -> None:
        # Lazy removal also happens in select_task; eager removal here keeps
        # the queue short for long runs.
        try:
            self._queue.remove(jip)
        except ValueError:
            pass

    def select_task(self, kind: TaskKind, now: float) -> Optional[Task]:
        tracing = self.tracer.enabled
        use_map = kind.uses_map_slot
        queue = self._queue
        # FIFO queues jobs, not workflows; skipped entries are job ids.
        skipped: Optional[List[str]] = [] if tracing else None
        for position, jip in enumerate(queue):
            if jip.completed:
                continue
            # The pre-check reads the maintained plain flags instead of a
            # property chain; obtain_* re-checks them, so a hit stays correct.
            if jip.has_pending_maps if use_map else jip.map_phase_done and jip._pending_reduces:
                task = jip.obtain_map() if use_map else jip.obtain_reduce()
                if task is not None:
                    if tracing:
                        self.trace_decision(
                            kind, now, len(queue), skipped, position, jip.workflow_name, task
                        )
                    return task
            if tracing:
                skipped.append(jip.job_id)
        if tracing:
            self.trace_decision(kind, now, len(queue), skipped)
        return None

    def select_tasks(
        self, kind: TaskKind, now: float, limit: int, launch: Callable[[Task], None]
    ) -> int:
        """One queue walk fills up to ``limit`` slots (DESIGN.md §11).

        Byte-identical to repeated :meth:`select_task` calls: between
        launches of one round no job completes and no job earlier in the
        queue can become runnable, so every re-walk the unbatched path
        makes would re-skip exactly the prefix this walk has already
        proven non-runnable.  Decision events are emitted with the same
        ``position``/``queue_len``/``skipped`` fields the re-walks would
        record (snapshot copies, since the walk keeps appending), and the
        trailing idle decision fires only when the walk exhausts the queue
        with slots left over — the case where the unbatched path would
        have made one final, fruitless full walk.
        """
        tracing = self.tracer.enabled
        use_map = kind.uses_map_slot
        queue = self._queue
        queue_len = len(queue)
        # Job ids, including jobs this very walk just drained.
        skipped: Optional[List[str]] = [] if tracing else None
        launched = 0
        for position, jip in enumerate(queue):
            if jip.completed:
                continue
            if jip.has_pending_maps if use_map else jip.map_phase_done and jip._pending_reduces:
                while launched < limit:
                    task = jip.obtain_map() if use_map else jip.obtain_reduce()
                    if task is None:
                        break
                    if tracing:
                        self.trace_decision(
                            kind, now, queue_len, list(skipped), position, jip.workflow_name, task
                        )
                    launch(task)  # repro: calls[repro.cluster.jobtracker.JobTracker._launch]
                    launched += 1
            if launched >= limit:
                return launched
            if tracing:
                skipped.append(jip.job_id)
        if tracing:
            self.trace_decision(kind, now, queue_len, skipped)
        return launched
