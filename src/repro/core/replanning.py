"""Mid-flight replanning: a WOHA extension the paper leaves as future work.

Submission-time plans go stale: estimation error, contention and failures
can push a workflow so far behind its plan that the plan's remaining steps
no longer describe a feasible trajectory.  The paper closes §VI-C noting
"an interesting future direction will be to study what is the best we can
do under WOHA framework"; this module implements the obvious candidate —
when a workflow's lag crosses a threshold, regenerate its plan from the
*remaining* work and the *remaining* time, exactly as a client would do
for a freshly submitted workflow of that shape.

Residual-workflow construction is deliberately the same rough-estimation
philosophy as Algorithm 1 itself:

* finished jobs disappear;
* unscheduled tasks of submitted jobs carry over with their counts;
* in-flight tasks (scheduled, unfinished) are treated as done — they will
  finish without further scheduling decisions;
* dependency edges survive only between jobs that both still have
  schedulable work.

:class:`ReplanningWohaScheduler` drops in anywhere :class:`WohaScheduler`
does; the replan itself would run client-side in a real deployment (the
master only swaps the stored plan), so master-side cost stays at the swap.
A regenerated plan that is infeasible even at full cluster size is
declined: feasibility survives installation, so swapping it in would
demote the workflow to best-effort priority — a strictly worse outcome
than keeping the stale plan's scheduling pressure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Union

from repro.cluster.tasks import Task, TaskKind
from repro.core.capsearch import capped_plan
from repro.core.priorities import PRIORITIZERS, Prioritizer
from repro.core.scheduler import WohaScheduler, _WorkflowRecord
from repro.workflow.model import WJob, Workflow

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.jobtracker import WorkflowInProgress

__all__ = ["residual_workflow", "ReplanningWohaScheduler"]


def residual_workflow(wip: "WorkflowInProgress") -> Optional[Workflow]:
    """The unscheduled remainder of a running workflow, or ``None`` when
    every task has already been handed out."""
    definition = wip.definition
    remaining: dict = {}
    for wjob in definition.jobs:
        if wjob.name in wip.completed:
            continue
        jip = wip.jobs.get(wjob.name)
        if jip is None:
            maps, reduces = wjob.num_maps, wjob.num_reduces
        else:
            maps = wjob.num_maps - jip.maps_scheduled
            reduces = wjob.num_reduces - jip.reduces_scheduled
        if maps <= 0 and reduces <= 0:
            continue
        remaining[wjob.name] = (maps, reduces)
    if not remaining:
        return None
    jobs: List[WJob] = []
    for wjob in definition.jobs:
        if wjob.name not in remaining:
            continue
        maps, reduces = remaining[wjob.name]
        jobs.append(
            WJob(
                name=wjob.name,
                num_maps=maps,
                num_reduces=reduces,
                map_duration=wjob.map_duration if maps else 0.0,
                reduce_duration=wjob.reduce_duration if reduces else 0.0,
                # Iterating the prerequisites frozenset is safe here: the
                # consumer is another frozenset, so no ordering escapes.
                prerequisites=frozenset(p for p in wjob.prerequisites if p in remaining),
            )
        )
    return Workflow(f"{definition.name}#residual", jobs, submit_time=0.0, deadline=None)


class ReplanningWohaScheduler(WohaScheduler):
    """WOHA's progress scheduler with lag-triggered replanning.

    Args:
        prioritizer: intra-workflow order used for regenerated plans.
        lag_fraction: replan once a workflow's lag exceeds this fraction of
            its total task count (and ``min_lag`` tasks).
        min_lag: absolute lag floor before replanning triggers.
        cooldown: minimum simulated seconds between replans of the same
            workflow.
    """

    name = "WOHA-replan"

    # Every call runs the replan check, which stamps cooldowns and may
    # install a plan, so an idle answer is not free to reuse: rounds must
    # ask again, exactly when the traced run would.
    pure_idle_select = False

    def __init__(
        self,
        prioritizer: Union[str, Prioritizer] = "lpf",
        lag_fraction: float = 0.15,
        min_lag: int = 10,
        cooldown: float = 60.0,
    ) -> None:
        super().__init__()
        self.prioritizer = PRIORITIZERS[prioritizer] if isinstance(prioritizer, str) else prioritizer
        if not (0.0 < lag_fraction <= 1.0):
            raise ValueError("lag_fraction must be in (0, 1]")
        self.lag_fraction = lag_fraction
        self.min_lag = min_lag
        self.cooldown = cooldown
        self.replans = 0
        self._last_replan: dict = {}

    def _threshold(self, record: _WorkflowRecord) -> float:
        return max(self.min_lag, self.lag_fraction * record.wip.total_tasks)

    def _maybe_replan(self, now: float) -> None:
        head = self._queue.head_by_priority()
        if head is None:
            return
        record: _WorkflowRecord = head.payload
        if not record.has_plan:
            return
        lag = record.current_priority()
        if lag < self._threshold(record):
            return
        name = record.wip.name
        if now - self._last_replan.get(name, float("-inf")) < self.cooldown:
            return
        remaining_time = record.wip.deadline - now
        residual = residual_workflow(record.wip)
        if residual is None or remaining_time <= 0:
            self._last_replan[name] = now
            return
        # What a client would compute for this shape with this much time.
        total_slots = self.jobtracker.total_slots if self.jobtracker is not None else 1
        plan = capped_plan(
            residual,
            max_slots=max(1, total_slots),
            job_order=self.prioritizer(residual),  # repro: calls[repro.core.priorities.hlf_order, repro.core.priorities.lpf_order, repro.core.priorities.mpf_order]
            relative_deadline=remaining_time,
        )
        if not plan.feasible:
            # Even the whole cluster cannot finish the remainder in time.
            # Installing this plan would demote the workflow to best-effort
            # (infeasible plans carry -inf lag priority), guaranteeing it
            # misses by more than if it keeps pushing on its stale plan —
            # so keep the stale plan's scheduling pressure.  The cooldown
            # stamp still spaces out re-evaluations.
            self._last_replan[name] = now
            return
        record.install_plan(plan, now)
        # All may-raise work (residual extraction, planning, install) is
        # done; commit the scheduler-side bookkeeping as one unit (DT303).
        self._last_replan[name] = now
        self.replans += 1
        # Reposition under the new keys.
        self._queue.remove(name)
        self._queue.insert(
            item_id=name,
            ct=record.next_change_time(),
            priority=record.current_priority(),
            payload=record,
        )
        if self.jobtracker is not None:
            # A plan install is a quiescence wake condition: parked
            # heartbeat timers must re-check the scheduler (DESIGN.md §10).
            self.jobtracker.notify_plan_installed()

    def select_task(self, kind: TaskKind, now: float) -> Optional[Task]:
        self._advance_ct_heads(now)
        self._maybe_replan(now)
        return super().select_task(kind, now)
