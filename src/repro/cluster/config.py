"""Cluster sizing and timing knobs."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of a simulated Hadoop-1 cluster.

    The paper's testbed ran 80 servers with 2 map slots and 1 reduce slot
    each (§V-A); its trace experiments use abstract sizes like "200m-200r"
    (§VI-A).  Both are expressible here.

    Attributes:
        num_nodes: number of TaskTrackers.
        map_slots_per_node: map slots on each tracker.
        reduce_slots_per_node: reduce slots on each tracker.
        heartbeat_interval: seconds between a tracker's periodic heartbeats.
            Hadoop-1 used ~3 s for small clusters.
        eager_heartbeats: also trigger a scheduling round the moment a task
            finishes (Hadoop's out-of-band heartbeat,
            ``mapreduce.tasktracker.outofband.heartbeat``).  Keeps slot idle
            time near zero; on by default, matching a tuned cluster.
        quiescent_heartbeats: simulator fast path — park a tracker's
            periodic heartbeat timer once a tick launches nothing and its
            slots are full or unservable, waking it (re-aligned to its
            original phase grid) on any state change that could make the
            scheduler answer differently.  Only active alongside
            ``eager_heartbeats`` (where every parked tick is provably a
            no-op); decisions and traces are byte-identical either way
            (DESIGN.md §10).  On by default.
        batched_assignment: simulator fast path for busy clusters — fill
            all free slots of a kind in one
            :meth:`~repro.schedulers.base.WorkflowScheduler.select_tasks`
            round per tracker tick / scheduling round instead of one
            queue walk per launch.  Schedulers whose batched walk is
            provably decision-identical override ``select_tasks``; the
            base-class default replays the one-launch-per-call loop, so
            decisions and traces are byte-identical either way
            (DESIGN.md §11).  Off by default: the per-call loops reuse
            proven-idle answers the same way and match or beat batching
            for WOHA; batching still pays for FIFO rounds that fill many
            slots at once.
        submit_task_duration: seconds one WOHA submitter map task occupies a
            map slot to load jars and initialise a wjob (§III-A).
        oozie_poll_interval: seconds between Oozie-lite readiness polls for
            the baseline submission path; 0 means submit immediately on the
            completion event.
    """

    num_nodes: int
    map_slots_per_node: int = 2
    reduce_slots_per_node: int = 1
    heartbeat_interval: float = 3.0
    eager_heartbeats: bool = True
    quiescent_heartbeats: bool = True
    batched_assignment: bool = False
    submit_task_duration: float = 1.0
    oozie_poll_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.map_slots_per_node < 0 or self.reduce_slots_per_node < 0:
            raise ValueError("slot counts must be non-negative")
        if self.map_slots_per_node + self.reduce_slots_per_node == 0:
            raise ValueError("cluster has no slots at all")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.submit_task_duration < 0 or self.oozie_poll_interval < 0:
            raise ValueError("durations must be non-negative")

    @property
    def total_map_slots(self) -> int:
        return self.num_nodes * self.map_slots_per_node

    @property
    def total_reduce_slots(self) -> int:
        return self.num_nodes * self.reduce_slots_per_node

    @property
    def total_slots(self) -> int:
        """The pooled slot count ``n`` a WOHA client asks the master for."""
        return self.total_map_slots + self.total_reduce_slots

    @classmethod
    def from_total_slots(
        cls,
        map_slots: int,
        reduce_slots: int,
        nodes: int = 100,
        **kwargs,
    ) -> "ClusterConfig":
        """Build a config from aggregate slot counts like the paper's
        "200m-200r" cluster sizes, spreading slots over ``nodes`` trackers.

        ``map_slots`` and ``reduce_slots`` must be divisible by ``nodes``;
        pick ``nodes`` accordingly (the default 100 divides the paper's
        200/240/280 sizes... 240 and 280 are divisible by 40, so pass
        ``nodes=40`` for those, or use :func:`math.gcd` yourself).
        """
        if map_slots % nodes or reduce_slots % nodes:
            raise ValueError(
                f"slot totals ({map_slots}m/{reduce_slots}r) not divisible by nodes={nodes}"
            )
        return cls(
            num_nodes=nodes,
            map_slots_per_node=map_slots // nodes,
            reduce_slots_per_node=reduce_slots // nodes,
            **kwargs,
        )

    @classmethod
    def paper_testbed(cls, num_nodes: int = 80, **kwargs) -> "ClusterConfig":
        """The paper's 80-server testbed: 2 map + 1 reduce slot per server."""
        return cls(num_nodes=num_nodes, map_slots_per_node=2, reduce_slots_per_node=1, **kwargs)
