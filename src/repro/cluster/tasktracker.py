"""TaskTracker: a worker node with fixed map/reduce slot counts."""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.tasks import Task, TaskKind

__all__ = ["TaskTracker"]


class TaskTracker:
    """Slot bookkeeping for one worker.

    The tracker itself is passive; the JobTracker drives it by launching
    tasks into free slots on heartbeats.  Occupancy invariants (never more
    running tasks than slots) are asserted here so scheduler bugs surface
    as exceptions, not silently-wrong results.
    """

    def __init__(self, tracker_id: int, map_slots: int, reduce_slots: int) -> None:
        self.tracker_id = tracker_id
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        # Launch-ordered (dict, not set): Task hashes by identity, so set
        # iteration order would vary run-to-run — and kill_tracker's loss
        # handling iterates this to re-queue attempts (DT101).
        self.running: Dict[Task, None] = {}
        # Free counts are plain maintained ints, not ``slots - running``
        # properties: the quiescence tests and wake scans read them once
        # per tracker per event, which is exactly the per-event overhead
        # the loaded-trace fast path must not pay in property dispatch.
        self.free_map_slots = map_slots
        self.free_reduce_slots = reduce_slots
        self.alive = True

    @property
    def _running_maps(self) -> int:
        return self.map_slots - self.free_map_slots

    @property
    def _running_reduces(self) -> int:
        return self.reduce_slots - self.free_reduce_slots

    def free_slots(self, kind: TaskKind) -> int:
        # Identity test instead of the ``uses_map_slot`` enum property:
        # called once per kind per heartbeat/assignment round.
        return self.free_map_slots if kind is not TaskKind.REDUCE else self.free_reduce_slots

    def occupy(self, task: Task) -> None:
        """Place a task into a slot; raises if no slot of its kind is free."""
        if not self.alive:
            raise RuntimeError(f"tracker {self.tracker_id} is dead")
        if task.kind is not TaskKind.REDUCE:
            if self.free_map_slots <= 0:
                raise RuntimeError(f"tracker {self.tracker_id}: map slots oversubscribed")
            self.free_map_slots -= 1
        else:
            if self.free_reduce_slots <= 0:
                raise RuntimeError(f"tracker {self.tracker_id}: reduce slots oversubscribed")
            self.free_reduce_slots -= 1
        self.running[task] = None
        task.tracker_id = self.tracker_id

    def release(self, task: Task) -> None:
        """Free the slot a finished (or killed) task occupied."""
        self.running.pop(task, None)
        if task.kind is not TaskKind.REDUCE:
            self.free_map_slots += 1
        else:
            self.free_reduce_slots += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskTracker({self.tracker_id}, maps {self._running_maps}/{self.map_slots}, "
            f"reduces {self._running_reduces}/{self.reduce_slots})"
        )
