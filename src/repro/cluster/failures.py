"""Failure injection: scripted and random TaskTracker outages.

Hadoop's fault model (the paper's substrate inherits it): a TaskTracker
that stops heartbeating is declared dead; its running task attempts are
re-queued, and completed map outputs it held are recomputed for jobs whose
reducers still need them.  :class:`FailureInjector` drives the
:meth:`~repro.cluster.jobtracker.JobTracker.kill_tracker` /
:meth:`~repro.cluster.jobtracker.JobTracker.revive_tracker` pair either
from an explicit schedule or from a seeded random outage process, so
scheduler robustness can be tested deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.jobtracker import JobTracker
from repro.events import Simulator

__all__ = ["Outage", "FailureSchedule", "FailureInjector"]


@dataclass(frozen=True)
class Outage:
    """One scripted tracker outage; ``down_for=None`` means permanent."""

    time: float
    tracker_id: int
    down_for: Optional[float] = None


@dataclass(frozen=True)
class FailureSchedule:
    """An explicit, validated outage script.

    The audited contract (DESIGN.md §10): every kill and revive this
    schedule triggers lands in
    :meth:`~repro.cluster.jobtracker.JobTracker.kill_tracker` /
    :meth:`~repro.cluster.jobtracker.JobTracker.revive_tracker`, both of
    which end in the scheduler's ``note_state_change`` and an eager round
    that, once done, wakes every quiescent-parked heartbeat timer whose
    tracker could still be served.  Traces are therefore
    byte-identical with parking on or off under any schedule
    (``tests/cluster/test_failures.py::TestFailureSchedule``).
    """

    outages: Tuple[Outage, ...]

    def __post_init__(self) -> None:
        for outage in self.outages:
            if outage.time < 0:
                raise ValueError(f"outage time {outage.time} is negative")
            if outage.down_for is not None and outage.down_for <= 0:
                raise ValueError(f"outage downtime {outage.down_for} must be positive")

    def validate(self, num_trackers: int) -> None:
        """Check every outage names a tracker the cluster actually has."""
        for outage in self.outages:
            if not (0 <= outage.tracker_id < num_trackers):
                raise ValueError(
                    f"outage names tracker {outage.tracker_id}; cluster has {num_trackers}"
                )

    def apply(self, sim: Simulator, jobtracker: JobTracker) -> "FailureInjector":
        """Validate against ``jobtracker`` and schedule every outage."""
        self.validate(len(jobtracker.trackers))
        injector = FailureInjector(sim, jobtracker)
        injector.schedule(self.outages)
        return injector


class FailureInjector:
    """Schedules tracker outages against a JobTracker.

    Use :meth:`schedule` with explicit :class:`Outage` entries for
    reproducible scenarios, or :meth:`random_outages` to draw a seeded
    outage process.
    """

    def __init__(self, sim: Simulator, jobtracker: JobTracker) -> None:
        self.sim = sim
        self.jobtracker = jobtracker
        self.killed: List[Tuple[float, int]] = []
        self.revived: List[Tuple[float, int]] = []

    def schedule(self, outages: Sequence[Outage]) -> None:
        for outage in outages:
            if not (0 <= outage.tracker_id < len(self.jobtracker.trackers)):
                raise ValueError(f"no tracker {outage.tracker_id}")
            self.sim.schedule(outage.time, self._kill, outage)

    def random_outages(
        self,
        horizon: float,
        rate_per_hour: float,
        mean_downtime: float = 300.0,
        seed: int = 0,
    ) -> List[Outage]:
        """Draw and schedule a Poisson outage process over ``[0, horizon]``.

        Args:
            horizon: simulated seconds covered by the process.
            rate_per_hour: expected tracker failures per hour, cluster-wide.
            mean_downtime: exponential mean of each outage's length.
            seed: RNG seed.
        """
        rng = np.random.default_rng(seed)
        outages: List[Outage] = []
        t = 0.0
        rate_per_second = rate_per_hour / 3600.0
        if rate_per_second <= 0:
            return []
        while True:
            t += float(rng.exponential(1.0 / rate_per_second))
            if t >= horizon:
                break
            outages.append(
                Outage(
                    time=t,
                    tracker_id=int(rng.integers(0, len(self.jobtracker.trackers))),
                    down_for=float(rng.exponential(mean_downtime)),
                )
            )
        self.schedule(outages)
        return outages

    def _kill(self, outage: Outage) -> None:
        tracker = self.jobtracker.trackers[outage.tracker_id]
        if not tracker.alive:
            return  # already down from an overlapping outage
        self.jobtracker.kill_tracker(outage.tracker_id)
        self.killed.append((self.sim.now, outage.tracker_id))
        if outage.down_for is not None:
            self.sim.schedule_after(outage.down_for, self._revive, outage.tracker_id)

    def _revive(self, tracker_id: int) -> None:
        if self.jobtracker.trackers[tracker_id].alive:
            return
        self.jobtracker.revive_tracker(tracker_id)
        self.revived.append((self.sim.now, tracker_id))
