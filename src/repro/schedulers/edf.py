"""Earliest Deadline First over workflows (paper §V-B).

Verma et al. [10] brought EDF to Hadoop *job* scheduling; the paper ports
it to workflows by giving the whole workflow the priority of its deadline.
Within a workflow, submitted jobs run in submission (FIFO) order.
Workflows without deadlines sort last; ties break on submission time, then
name, so runs are deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.cluster.job import JobInProgress
from repro.cluster.tasks import Task, TaskKind
from repro.schedulers.base import WorkflowScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.cluster.jobtracker import WorkflowInProgress

__all__ = ["EdfScheduler"]


class EdfScheduler(WorkflowScheduler):
    """Static workflow priority: earlier deadline wins."""

    name = "EDF"

    def __init__(self) -> None:
        super().__init__()
        # Kept sorted by (deadline, submit, name); workflow counts here are
        # small enough (paper: <= 61) that insertion sort is the clear choice
        # over a tree.  The DSL experiments (Fig 13a) stress the WOHA
        # scheduler, not EDF.
        self._order: List[Tuple[float, float, str, "WorkflowInProgress"]] = []
        self._standalone: List[JobInProgress] = []

    def on_workflow_submitted(self, wip: "WorkflowInProgress", now: float) -> None:
        deadline = wip.deadline if wip.deadline is not None else float("inf")
        self._order.append((deadline, wip.submit_time, wip.name, wip))
        self._order.sort(key=lambda entry: entry[:3])

    def on_workflow_completed(self, wip: "WorkflowInProgress", now: float) -> None:
        self._order = [entry for entry in self._order if entry[3] is not wip]

    def on_wjob_submitted(self, jip: JobInProgress, now: float) -> None:
        if jip.workflow_name is None:
            self._standalone.append(jip)

    def select_task(self, kind: TaskKind, now: float) -> Optional[Task]:
        tracing = self.tracer.enabled
        skipped = [] if tracing else None
        for position, (deadline, _submit, _name, wip) in enumerate(self._order):
            task = None
            if wip.submitter is not None and not wip.submitter.completed:
                task = wip.submitter.obtain(kind) if kind.uses_map_slot else None
            if task is None:
                for jip in wip.jobs.values():
                    if jip.completed:
                        continue
                    task = jip.obtain(kind)
                    if task is not None:
                        break
            if task is not None:
                if tracing:
                    self.trace_decision(
                        kind, now, len(self._order), skipped, position, wip.name, task
                    )
                return task
            if tracing:
                skipped.append(wip.name)
        for jip in self._standalone:
            if not jip.completed:
                task = jip.obtain(kind)
                if task is not None:
                    if tracing:
                        self.trace_decision(
                            kind, now, len(self._order), skipped,
                            len(self._order), jip.workflow_name, task,
                        )
                    return task
        if tracing:
            self.trace_decision(kind, now, len(self._order), skipped)
        return None
