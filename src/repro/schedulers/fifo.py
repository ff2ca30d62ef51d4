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
        queue = self._queue
        if not tracing:
            # Untraced micro-kernel: same walk, same decisions, but no
            # skipped-list bookkeeping and no per-job property chains —
            # the reduce probe reads the maintained plain flags directly
            # (obtain_reduce re-checks them, so a hit stays correct).
            if kind.uses_map_slot:
                for jip in queue:
                    if jip.completed or not jip.has_pending_maps:
                        continue
                    task = jip.obtain_map()
                    if task is not None:
                        return task
            else:
                for jip in queue:
                    if jip.completed or not jip.map_phase_done or not jip._pending_reduces:
                        continue
                    task = jip.obtain_reduce()
                    if task is not None:
                        return task
            return None
        skipped = []
        for position, jip in enumerate(queue):
            if jip.completed:
                continue
            task = jip.obtain(kind)
            if task is not None:
                if tracing:
                    self.tracer.incr(self.name, "decisions")
                    self.tracer.record(
                        "decision",
                        now,
                        scheduler=self.name,
                        slot_kind=kind.value,
                        workflow=jip.workflow_name,
                        task=task.task_id,
                        lag=None,
                        queue_len=len(queue),
                        position=position,
                        skipped=skipped,
                        ct_advances=0,
                    )
                return task
            if tracing:
                # FIFO queues jobs, not workflows; skipped entries are job ids.
                skipped.append(jip.job_id)
        if tracing:
            self.tracer.incr(self.name, "idle_decisions")
            self.tracer.record(
                "decision",
                now,
                scheduler=self.name,
                slot_kind=kind.value,
                workflow=None,
                task=None,
                lag=None,
                queue_len=len(queue),
                position=None,
                skipped=skipped,
                ct_advances=0,
            )
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
        if not tracing:
            # Untraced micro-kernel of the same single walk (see
            # select_task): identical launch sequence, no trace payloads.
            launched = 0
            if use_map:
                for jip in queue:
                    if jip.completed or not jip.has_pending_maps:
                        continue
                    while launched < limit:
                        task = jip.obtain_map()
                        if task is None:
                            break
                        launch(task)  # repro: calls[repro.cluster.jobtracker.JobTracker._launch]
                        launched += 1
                    if launched >= limit:
                        return launched
            else:
                for jip in queue:
                    if jip.completed or not jip.map_phase_done or not jip._pending_reduces:
                        continue
                    while launched < limit:
                        task = jip.obtain_reduce()
                        if task is None:
                            break
                        launch(task)  # repro: calls[repro.cluster.jobtracker.JobTracker._launch]
                        launched += 1
                    if launched >= limit:
                        return launched
            return launched
        skipped: List[str] = []
        launched = 0
        queue_len = len(queue)
        for position, jip in enumerate(queue):
            if jip.completed:
                continue
            while launched < limit:
                task = jip.obtain_map() if use_map else jip.obtain_reduce()
                if task is None:
                    break
                if tracing:
                    self.tracer.incr(self.name, "decisions")
                    self.tracer.record(
                        "decision",
                        now,
                        scheduler=self.name,
                        slot_kind=kind.value,
                        workflow=jip.workflow_name,
                        task=task.task_id,
                        lag=None,
                        queue_len=queue_len,
                        position=position,
                        skipped=list(skipped),
                        ct_advances=0,
                    )
                launch(task)  # repro: calls[repro.cluster.jobtracker.JobTracker._launch]
                launched += 1
            if launched >= limit:
                return launched
            if tracing:
                # FIFO queues jobs, not workflows; skipped entries are job
                # ids (including jobs this very walk just drained).
                skipped.append(jip.job_id)
        if tracing:
            self.tracer.incr(self.name, "idle_decisions")
            self.tracer.record(
                "decision",
                now,
                scheduler=self.name,
                slot_kind=kind.value,
                workflow=None,
                task=None,
                lag=None,
                queue_len=queue_len,
                position=None,
                skipped=skipped,
                ct_advances=0,
            )
        return launched
