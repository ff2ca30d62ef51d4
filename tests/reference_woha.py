"""Frozen references for WOHA's queue and selection kernel (DESIGN.md §12).

* :class:`ChurningDoubleSkipList` — the Double Skip List whose update paths
  always remove and reinsert, even when the new key equals the old one.
  The production :class:`~repro.structures.dsl.DoubleSkipList` elides those
  no-op moves; any op sequence must leave both with identical orderings.
* :func:`reference_select_task` — ``WohaScheduler.select_task`` as it
  stood with two walks: an untraced head-first walk and a traced
  ``enumerate`` walk that builds the ``position``/``skipped`` payload of
  every ``decision`` event.  :func:`use_reference_select_task` swaps it
  onto :class:`~repro.core.scheduler.WohaScheduler` (and so onto its
  subclasses) through pytest's ``monkeypatch``.

Keep this module frozen: these are test oracles, and the production code
may change shape while these may not.
"""

from typing import Any, List, Optional

from repro.cluster.tasks import Task, TaskKind
from repro.core.scheduler import WohaScheduler, _pick_task_in_workflow, _WorkflowRecord
from repro.structures.dsl import DoubleEntry, DoubleSkipList

__all__ = ["ChurningDoubleSkipList", "reference_select_task", "use_reference_select_task"]


class ChurningDoubleSkipList(DoubleSkipList):
    """A Double Skip List without no-op elision: every update removes and
    reinserts the entry in each list it names."""

    def update_head_ct(self, new_ct: float, new_priority: float) -> DoubleEntry:
        """Reposition the ct-head in both lists, changed keys or not."""
        ct_list = self._ct_list
        priority_list = self._priority_list
        key, entry = ct_list.pop_head()
        assert key == entry.ct_key
        priority_list.delete(entry.priority_key)
        entry.ct = new_ct
        entry.priority = new_priority
        ct_list.insert(entry.ct_key, entry)
        priority_list.insert(entry.priority_key, entry)
        if self.contracts.enabled:
            self.contracts.check_dsl(self)
        return entry

    def update_priority(self, item_id: Any, new_priority: float) -> DoubleEntry:
        """Reposition one workflow in the priority list, changed or not."""
        entry = self._entries[item_id]
        priority_list = self._priority_list
        head = priority_list.peek_head()
        if head is not None and head[0] == entry.priority_key:
            priority_list.pop_head()
        else:
            priority_list.delete(entry.priority_key)
        entry.priority = new_priority
        priority_list.insert(entry.priority_key, entry)
        if self.contracts.enabled:
            self.contracts.check_dsl(self)
        return entry

    def update_ct(self, item_id: Any, new_ct: float) -> DoubleEntry:
        """Reposition one workflow in the ct list, changed or not."""
        entry = self._entries[item_id]
        ct_list = self._ct_list
        ct_list.delete(entry.ct_key)
        entry.ct = new_ct
        ct_list.insert(entry.ct_key, entry)
        if self.contracts.enabled:
            self.contracts.check_dsl(self)
        return entry


def reference_select_task(self: WohaScheduler, kind: TaskKind, now: float) -> Optional[Task]:
    self.assign_calls += 1
    advanced = self._advance_ct_heads(now)
    tracing = self.tracer.enabled
    queue = self._queue
    if not tracing:
        # Untraced micro-kernel: the identical head-first walk and the
        # identical decisions, minus the enumerate/skipped-list
        # bookkeeping that exists only to populate decision events.
        # Head first without building the generator — the common case
        # is that the priority head has a runnable task.
        head = queue.head_by_priority()
        if head is None:
            return None
        # Per-workflow scan is bounded by the workflow's job count — the
        # same §IV-B work-conservation exception the traced path claims.
        task = _pick_task_in_workflow(head.payload, kind)  # repro: allow[DT203]
        if task is not None:
            return task
        first = True
        for entry in queue.iter_by_priority():  # repro: allow[DT203]
            if first:  # the head was already probed (and proved empty)
                first = False
                continue
            task = _pick_task_in_workflow(entry.payload, kind)  # repro: allow[DT203]
            if task is not None:
                return task
        return None
    skipped: List[str] = []
    # Serve the largest lag first; skip workflows with nothing runnable
    # of this kind (work conservation).  The scan is O(1) on the common
    # path (the priority head is runnable); it only walks past a prefix
    # of workflows with no runnable task of this kind — the §IV-B
    # work-conservation exception to the O(log n_w) claim.
    for position, entry in enumerate(queue.iter_by_priority()):  # repro: allow[DT203]
        record: _WorkflowRecord = entry.payload
        task = _pick_task_in_workflow(record, kind)  # repro: allow[DT203]
        if task is not None:
            if tracing:
                self.tracer.incr(self.name, "decisions")
                self.tracer.record(
                    "decision",
                    now,
                    scheduler=self.name,
                    slot_kind=kind.value,
                    workflow=record.wip.name,
                    task=task.task_id,
                    lag=record.current_priority() if record.has_plan else None,
                    queue_len=len(self._queue),
                    position=position,
                    skipped=skipped,
                    ct_advances=advanced,
                )
            return task
        if tracing:
            skipped.append(record.wip.name)
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
            queue_len=len(self._queue),
            position=None,
            skipped=skipped,
            ct_advances=advanced,
        )
    return None


def use_reference_select_task(monkeypatch) -> None:
    """Route every WOHA scheduler through the frozen two-walk kernel."""
    monkeypatch.setattr(WohaScheduler, "select_task", reference_select_task)
