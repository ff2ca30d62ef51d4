"""The JobTracker: Hadoop-1's master node.

Responsibilities mirrored from Hadoop-1.2.1 + WOHA's extensions:

* accept workflow and job submissions, hand out unique ids;
* on each heartbeat, ask the pluggable Workflow Scheduler for tasks to fill
  the reporting tracker's free slots;
* track task completions, free slots, advance job/workflow state;
* (WOHA mode) hold each workflow's scheduling plan, run the map-only
  submitter job, and unlock submitter tasks as prerequisites finish.

The JobTracker deliberately performs **no workflow analysis** — that is the
paper's core design constraint (§III-A).  Plans arrive pre-computed from
clients; dependency bookkeeping is O(edges) counter decrements.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Union

from repro.cluster.config import ClusterConfig
from repro.cluster.job import JobInProgress, SubmitterJob
from repro.cluster.tasks import Task, TaskKind
from repro.cluster.tasktracker import TaskTracker
from repro.events import EventHandle, Simulator
from repro.schedulers.base import WorkflowScheduler
from repro.trace import NULL_TRACER, DecisionTracer, NullTracer
from repro.workflow.model import Workflow

__all__ = ["WorkflowInProgress", "JobTracker"]


class WorkflowInProgress:
    """Master-side runtime state of one submitted workflow.

    Attributes:
        definition: the immutable :class:`Workflow`.
        wf_id: JobTracker-assigned unique id.
        plan: the scheduling plan shipped by the client (WOHA mode), opaque
            to the JobTracker itself; the Workflow Scheduler interprets it.
        scheduled_tasks: the *true progress* ``rho_i`` of §IV-B — wjob tasks
            launched so far (submitter tasks do not count; they are not part
            of the plan's task population).
    """

    def __init__(self, definition: Workflow, wf_id: str, submit_time: float) -> None:
        self.definition = definition
        self.wf_id = wf_id
        self.submit_time = submit_time
        self.plan = None  # type: object
        self.submitter: Optional[SubmitterJob] = None
        self.jobs: Dict[str, JobInProgress] = {}
        self.completed: Set[str] = set()
        self.pending_prereqs: Dict[str, Set[str]] = {
            job.name: set(job.prerequisites) for job in definition.jobs
        }
        self.scheduled_tasks = 0
        self.completion_time: Optional[float] = None
        # Incremental readiness/activity tracking (DESIGN.md §10): the
        # ready set is a sorted list of topological indexes maintained on
        # prerequisite completion and submission, and active jobs live in
        # an insertion-ordered dict — so ready_wjobs()/active_jobs() stop
        # rescanning the whole workflow per call.
        order = definition.topological_order()
        self._topo_index: Dict[str, int] = {name: i for i, name in enumerate(order)}
        self._ready_indexes: List[int] = [
            i for i, name in enumerate(order) if not self.pending_prereqs[name]
        ]
        self._active_jobs: Dict[str, JobInProgress] = {}

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def deadline(self) -> Optional[float]:
        return self.definition.deadline

    @property
    def done(self) -> bool:
        return len(self.completed) == len(self.definition)

    @property
    def total_tasks(self) -> int:
        return self.definition.total_tasks

    def ready_wjobs(self) -> List[str]:
        """Wjobs whose prerequisites have all finished and which are not yet
        submitted, in the workflow's deterministic topological order."""
        order = self.definition.topological_order()
        return [order[i] for i in self._ready_indexes]

    def active_jobs(self) -> List[JobInProgress]:
        """Submitted-but-unfinished wjobs, submission-ordered."""
        return list(self._active_jobs.values())

    # -- incremental bookkeeping (called by the JobTracker) ----------------

    def _register_job(self, name: str, jip: JobInProgress) -> None:
        """A wjob was submitted: it leaves the ready set and becomes active."""
        self.jobs[name] = jip
        self._active_jobs[name] = jip
        idx = self._topo_index[name]
        pos = bisect_left(self._ready_indexes, idx)
        if pos < len(self._ready_indexes) and self._ready_indexes[pos] == idx:
            del self._ready_indexes[pos]

    def _mark_ready(self, name: str) -> None:
        """``name``'s last prerequisite finished: it joins the ready set."""
        if name not in self.jobs:
            insort(self._ready_indexes, self._topo_index[name])

    def _mark_job_completed(self, name: str) -> None:
        self.completed.add(name)
        self._active_jobs.pop(name, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WorkflowInProgress({self.name!r}, {len(self.completed)}/{len(self.definition)} jobs, "
            f"rho={self.scheduled_tasks})"
        )


class JobTracker:
    """The master node.

    Args:
        sim: the discrete-event engine everything runs on.
        config: cluster sizing/timing.
        scheduler: the Workflow Scheduler policy to consult.

    Listener objects registered via :meth:`add_listener` receive the hooks
    they define out of: ``on_task_launch``, ``on_task_complete``,
    ``on_wjob_submitted``, ``on_job_completed``, ``on_workflow_submitted``,
    ``on_workflow_completed``.  Metrics collectors and the Oozie-lite
    coordinator are both plain listeners.
    """

    def __init__(
        self,
        sim: Simulator,
        config: ClusterConfig,
        scheduler: WorkflowScheduler,
        duration_sampler_factory: Optional[Callable] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.scheduler = scheduler
        # Optional per-job actual-duration override (estimation-error
        # ablation); plans always see the declared estimates.
        self.duration_sampler_factory = duration_sampler_factory
        self.trackers: List[TaskTracker] = [
            TaskTracker(i, config.map_slots_per_node, config.reduce_slots_per_node)
            for i in range(config.num_nodes)
        ]
        self.workflows: Dict[str, WorkflowInProgress] = {}  # by workflow name
        self.jobs: List[JobInProgress] = []  # submission order, all kinds
        self._job_seq = itertools.count(1)
        self._wf_seq = itertools.count(1)
        self._free_maps = config.total_map_slots
        self._free_reduces = config.total_reduce_slots
        self._rr_pointer = 0  # round-robin start for tracker selection
        # Free-tracker rings: bit i is set iff trackers[i] is alive with a
        # free slot of the pool.  _pick_tracker reads the round-robin
        # pointer's cyclic successor with two lowest-set-bit probes instead
        # of an O(n) scan; bits are re-derived on every slot transition by
        # _update_free_mask.  Two flat ints (not a bool-keyed dict): the
        # mask updates run twice per task lifetime and the wake scan reads
        # both masks per completion.
        full_mask = (1 << config.num_nodes) - 1
        self._free_mask_map = full_mask if config.map_slots_per_node > 0 else 0
        self._free_mask_reduce = full_mask if config.reduce_slots_per_node > 0 else 0
        self._listeners: List[object] = []
        # Per-hook pre-bound listener callables (built in add_listener) so
        # _notify dispatches without per-event getattr probing.
        self._hook_listeners: Dict[str, List[Callable]] = {hook: [] for hook in self._HOOKS}
        self._in_round = False
        # Quiescent-heartbeat state (DESIGN.md §10): ids of trackers whose
        # periodic timer is parked (insertion-ordered for deterministic
        # wake-ups), and each tracker's phase anchor — the time its last
        # tick fired — so wakes re-align to the original tick grid.
        # Parking is only sound alongside eager heartbeats, where every
        # periodic tick is provably a no-op (see DESIGN.md §10), and only
        # means anything while there is a periodic loop to park.
        self._hb_quiescent = (
            config.eager_heartbeats and config.heartbeat_interval != float("inf")
        )
        self._parked: Dict[int, None] = {}
        # Bit i set iff trackers[i] is parked — mirrors ``_parked`` so the
        # wake scan can prove "nothing to wake" with one AND instead of
        # iterating the parked set per state change.
        self._parked_mask = 0
        self._hb_anchor: List[float] = [0.0] * config.num_nodes
        # Each tracker's pending tick, so kill_tracker can end its chain.
        self._hb_handle: List[Optional[EventHandle]] = [None] * config.num_nodes
        # Unfinished wjobs registered via submit_wjob (submitters excluded),
        # maintained on submission/completion transitions.
        self._wjob_running = 0
        self.speculator = None  # optional SpeculationManager
        self.tracer: Union[DecisionTracer, NullTracer] = NULL_TRACER
        # Flat mirror of ``tracer.enabled`` so the per-launch/per-complete
        # guards cost one attribute read instead of two (null-object
        # indirection priced at zero when tracing is off).
        self._tracing = False
        # Free-up timestamps per slot pool (True = map pool), consumed
        # FIFO by launches to derive slot-idle ("assignment latency")
        # counters.  Only maintained while a tracer is attached.
        self._free_since: Dict[bool, Deque[float]] = {True: deque(), False: deque()}
        scheduler.bind(self)

    def attach_speculator(self, speculator: object) -> None:
        """Enable speculative execution (see :mod:`repro.cluster.speculation`)."""
        self.speculator = speculator

    def attach_tracer(self, tracer: Union[DecisionTracer, NullTracer]) -> None:
        """Record decision/slot events into ``tracer`` (and via the
        scheduler, which gets the same tracer from ClusterSimulation).

        The tracer is also registered as a listener so workflow lifecycle
        events land in the same log.
        """
        self.tracer = tracer
        self._tracing = tracer.enabled
        if tracer.enabled:
            self.add_listener(tracer)

    # -- listeners ---------------------------------------------------------

    #: Every hook _notify can dispatch; add_listener pre-binds per hook.
    _HOOKS = (
        "on_task_launch",
        "on_task_complete",
        "on_task_lost",
        "on_wjob_submitted",
        "on_job_completed",
        "on_workflow_submitted",
        "on_workflow_completed",
    )

    def add_listener(self, listener: object) -> None:
        """Register an event listener (metrics, Oozie, post-mortem, ...)."""
        self._listeners.append(listener)
        for hook in self._HOOKS:
            fn = getattr(listener, hook, None)
            if fn is not None:
                self._hook_listeners[hook].append(fn)

    def _notify(self, hook: str, *args) -> None:
        # Listeners are a fixed config-time set (tracer, Oozie, metrics,
        # contract monitor), not a function of the workflow count; the
        # per-hook bound-method lists are built once in add_listener so
        # dispatch does no per-event getattr probing.
        for fn in self._hook_listeners[hook]:
            fn(*args)

    # -- cluster introspection ----------------------------------------------

    @property
    def total_slots(self) -> int:
        """What a WOHA client gets when it asks for the system slot count."""
        return self.config.total_slots

    def free_slots(self, kind: TaskKind) -> int:
        """Cluster-wide free slots of the given kind."""
        return self._free_maps if kind.uses_map_slot else self._free_reduces

    def running_wjob_count(self) -> int:
        """Unfinished wjobs currently registered (submitter jobs excluded)."""
        return self._wjob_running

    # -- submission paths ----------------------------------------------------

    def submit_workflow(self, workflow: Workflow, plan: object = None, use_submitter: bool = True) -> WorkflowInProgress:
        """Register a workflow's configuration (WOHA client path, steps e-i).

        With ``use_submitter`` (WOHA mode) a map-only submitter job is
        created whose tasks, once run on slaves, submit the wjobs; root
        wjobs are unlocked immediately.  With ``use_submitter=False`` the
        caller (Oozie-lite) submits wjobs itself via :meth:`submit_wjob`.
        """
        if workflow.name in self.workflows:
            raise ValueError(f"workflow name {workflow.name!r} already submitted")
        wf_id = f"wf_{next(self._wf_seq):06d}"
        wip = WorkflowInProgress(workflow, wf_id, self.sim.now)
        wip.plan = plan
        self.workflows[workflow.name] = wip
        self._notify("on_workflow_submitted", wip, self.sim.now)
        self.scheduler.on_workflow_submitted(wip, self.sim.now)
        if use_submitter:
            submitter = SubmitterJob(
                job_id=f"job_{next(self._job_seq):06d}",
                workflow_name=workflow.name,
                wjob_names=workflow.topological_order(),
                submit_time=self.sim.now,
                task_duration=self.config.submit_task_duration,
            )
            wip.submitter = submitter
            self.jobs.append(submitter)
            for name in workflow.roots():
                submitter.unlock(name)
            self.scheduler.on_wjob_submitted(submitter, self.sim.now)
        self.scheduler.note_state_change()
        self.schedule_round()
        return wip

    def submit_wjob(self, workflow_name: str, wjob_name: str) -> JobInProgress:
        """Register one wjob as a runnable Hadoop job (submitter / Oozie path)."""
        wip = self.workflows[workflow_name]
        if wjob_name in wip.jobs:
            raise ValueError(f"{workflow_name}/{wjob_name} submitted twice")
        if wip.pending_prereqs[wjob_name]:
            raise ValueError(
                f"{workflow_name}/{wjob_name} submitted with unfinished prerequisites "
                f"{sorted(wip.pending_prereqs[wjob_name])}"
            )
        wjob = wip.definition.job(wjob_name)
        sampler = None
        if self.duration_sampler_factory is not None:
            # Injected estimation-noise hook (repro.noise); samplers are
            # seeded there, which is the deal DT102's allow-list encodes.
            sampler = self.duration_sampler_factory(wjob)  # repro: allow[DT202]
        jip = JobInProgress(
            job_id=f"job_{next(self._job_seq):06d}",
            wjob=wjob,
            workflow_name=workflow_name,
            submit_time=self.sim.now,
            duration_sampler=sampler,
        )
        wip._register_job(wjob_name, jip)
        self.jobs.append(jip)
        self._wjob_running += 1
        self._notify("on_wjob_submitted", jip, self.sim.now)
        self.scheduler.on_wjob_submitted(jip, self.sim.now)
        self.scheduler.note_state_change()
        self.schedule_round()
        return jip

    # -- heartbeats & assignment ---------------------------------------------

    def start_heartbeats(self) -> None:
        """Begin each tracker's periodic heartbeat loop.

        Trackers are staggered across the first interval so the master does
        not see all heartbeats at the same instant (as in a real cluster).
        An infinite ``heartbeat_interval`` disables the periodic loop —
        useful for large sweeps where ``eager_heartbeats`` already covers
        every scheduling opportunity.
        """
        interval = self.config.heartbeat_interval
        if interval == float("inf"):
            return
        for tracker in self.trackers:
            offset = interval * (tracker.tracker_id + 1) / len(self.trackers)
            tick_time = self.sim.now + offset
            self._hb_anchor[tracker.tracker_id] = tick_time
            self._hb_handle[tracker.tracker_id] = self.sim.schedule(
                tick_time, self._heartbeat_tick, tracker
            )

    def _heartbeat_tick(self, tracker: TaskTracker) -> None:
        if not tracker.alive:
            # The chain dies with the tracker; revive_tracker re-arms it.
            return
        config = self.config
        if config.batched_assignment:
            launched = self._heartbeat_batched(tracker)
        else:
            launched = self.heartbeat(tracker)
        tid = tracker.tracker_id
        sim = self.sim
        self._hb_anchor[tid] = sim.now
        parked = self._parked
        if self._hb_quiescent and not launched and self._tracker_quiescent(tracker):
            # Park the timer: under eager heartbeats this tick was a no-op
            # and every future one would be too, until a wake (after a
            # round, a plan install or a slot freeing) re-arms it on the
            # same phase grid.
            parked[tid] = None
            self._parked_mask |= 1 << tid
            return
        parked.pop(tid, None)
        self._parked_mask &= ~(1 << tid)
        self._hb_handle[tid] = sim.schedule(
            sim.now + config.heartbeat_interval, self._heartbeat_tick, tracker
        )

    def _tracker_quiescent(self, tracker: TaskTracker) -> bool:
        """Park test: every slot kind is full or provably unservable."""
        scheduler = self.scheduler
        if tracker.free_map_slots > 0 and scheduler.maybe_map:
            return False
        return not (tracker.free_reduce_slots > 0 and scheduler.maybe_reduce)

    def heartbeat(self, tracker: TaskTracker) -> List[Task]:
        """One tracker reports in; fill its free slots from the scheduler.

        A kind whose runnability hint is down is not asked: a prior
        ``select_task`` proved it idle and nothing changed since, so asking
        again could not answer differently.
        """
        launched: List[Task] = []
        scheduler = self.scheduler
        # Unrolled over the two pools with direct slot and hint reads, in the
        # shape of _heartbeat_batched.  The hint is re-read per launch, as
        # has_runnable was: a launch's listeners may change it.  Nothing is
        # pre-bound: most ticks launch nothing, and a pre-bind would tax
        # every one of them to save a load on the few that do.
        while tracker.free_map_slots > 0 and scheduler.maybe_map:
            task = scheduler.select_task(TaskKind.MAP, self.sim.now)
            if task is None:
                scheduler.maybe_map = False
                break
            self._launch(task, tracker)
            launched.append(task)
        while tracker.free_reduce_slots > 0 and scheduler.maybe_reduce:
            task = scheduler.select_task(TaskKind.REDUCE, self.sim.now)
            if task is None:
                scheduler.maybe_reduce = False
                break
            self._launch(task, tracker)
            launched.append(task)
        return launched

    def _heartbeat_batched(self, tracker: TaskTracker) -> List[Task]:
        """Batched form of :meth:`heartbeat`: one ``select_tasks`` round per
        kind fills every free slot of this tracker
        (``ClusterConfig.batched_assignment``, DESIGN.md §11).  Decisions
        and traces are byte-identical to the one-launch-per-call loop —
        within a tick nothing but our own launches changes scheduler state.
        """
        launched: List[Task] = []
        scheduler = self.scheduler
        now = self.sim.now

        def _launch_here(task: Task) -> None:
            self._launch(task, tracker)
            launched.append(task)

        # Unrolled over the two kinds with direct slot/hint attribute reads:
        # this runs once per non-parked tick, and the common loaded-cluster
        # outcome is "nothing to do" — the probes must cost two attribute
        # reads, not method dispatch per kind.
        free = tracker.free_map_slots
        if free > 0 and scheduler.maybe_map:
            if scheduler.select_tasks(TaskKind.MAP, now, free, _launch_here) < free:
                scheduler.maybe_map = False
        free = tracker.free_reduce_slots
        if free > 0 and scheduler.maybe_reduce:
            if scheduler.select_tasks(TaskKind.REDUCE, now, free, _launch_here) < free:
                scheduler.maybe_reduce = False
        return launched

    def _wake_parked(self) -> None:
        """Re-arm parked heartbeat timers whose tracker could now be served.

        A woken timer is re-aligned to the tracker's original phase grid —
        the smallest ``anchor + k * interval`` strictly after ``now`` — so
        tick times match the never-parked reference path exactly.
        """
        # A parked tracker must wake iff some kind has both a free slot on
        # it and a maybe-runnable task.  The free-slot rings already encode
        # "alive with a free slot of the pool" per tracker bit, so the
        # per-tracker quiescence probes collapse to one bit test against
        # the union of the servable pools' masks (parked order preserved).
        scheduler = self.scheduler
        mask = 0
        if scheduler.maybe_map:
            mask |= self._free_mask_map
        if scheduler.maybe_reduce:
            mask |= self._free_mask_reduce
        mask &= self._parked_mask
        if not mask:
            return
        sim = self.sim
        now = sim.now
        interval = self.config.heartbeat_interval
        parked = self._parked
        hb_anchor = self._hb_anchor
        hb_handle = self._hb_handle
        trackers = self.trackers
        tick_cb = self._heartbeat_tick
        # Walk in parked (insertion) order so timers that land on the same
        # tick instant keep their established FIFO order.
        woken = [tid for tid in parked if mask >> tid & 1]
        for tid in woken:
            del parked[tid]
            self._parked_mask &= ~(1 << tid)
            anchor = hb_anchor[tid]
            tick = anchor + (math.floor((now - anchor) / interval) + 1) * interval
            if tick <= now:
                tick += interval
            hb_handle[tid] = sim.schedule(tick, tick_cb, trackers[tid])

    def notify_plan_installed(self) -> None:
        """A scheduling plan was (re)installed mid-run (replanning path).

        The one state change no eager round follows: refresh the
        scheduler's runnability hints and wake parked timers here.
        """
        self.scheduler.note_state_change()
        if self._parked:
            self._wake_parked()

    def _may_skip_idle(self) -> bool:
        """May a round reuse a proven-idle hint instead of asking again?

        Skipping launches nothing and changes nothing only when the run is
        untraced (a traced ask emits the idle ``decision`` event the trace
        records), no speculator waits on idle answers for its backups, and
        the scheduler's idle ``select_task`` calls are pure
        (:attr:`~repro.schedulers.base.WorkflowScheduler.pure_idle_select`).
        """
        return (
            not self._tracing
            and self.speculator is None
            and self.scheduler.pure_idle_select
        )

    def schedule_round(self) -> None:
        """Cluster-wide assignment sweep (out-of-band heartbeat path).

        Because no scheduler here is locality-aware, one ``None`` answer
        from the scheduler means no tracker can be served, so the sweep is
        O(assignments), not O(trackers x assignments).  A kind already
        proven idle is not asked again where :meth:`_may_skip_idle` allows.
        Parked heartbeat timers are woken once the outermost round ends.
        """
        config = self.config
        if not config.eager_heartbeats or self._in_round:
            # Re-entrant calls (a submission triggered from within a
            # completion) fold into the outer round's loop and wake.
            return
        self._in_round = True
        try:
            speculator = self.speculator
            if config.batched_assignment and speculator is None:
                # Speculative backups piggyback on proven-idle answers the
                # unbatched loop surfaces per call; with a speculator
                # attached the per-call loop below stays authoritative.
                self._round_batched()
                return
            scheduler = self.scheduler
            now = self.sim.now
            ask_idle = not self._may_skip_idle()
            select = scheduler.select_task
            launch = self._launch
            pick = self._pick_tracker
            # Unrolled over the two pools with direct count and hint reads,
            # in the shape of _round_batched: this runs on every completion.
            kind = TaskKind.MAP
            if ask_idle or scheduler.maybe_map:
                while self._free_maps > 0:
                    task = select(kind, now)
                    if task is None:
                        # A proven-idle answer: parked heartbeat timers and
                        # later rounds may reuse it until the next state
                        # change.
                        scheduler.maybe_map = False
                        if speculator is None:
                            break
                        # Idle slots may back up stragglers (Hadoop's
                        # speculative execution kicks in when the regular
                        # scheduler has nothing to assign).
                        task = speculator.select_backup(kind, now)
                        if task is None:
                            break
                    launch(task, pick(kind))
            kind = TaskKind.REDUCE
            if ask_idle or scheduler.maybe_reduce:
                while self._free_reduces > 0:
                    task = select(kind, now)
                    if task is None:
                        scheduler.maybe_reduce = False
                        if speculator is None:
                            break
                        task = speculator.select_backup(kind, now)
                        if task is None:
                            break
                    launch(task, pick(kind))
        finally:
            self._in_round = False
            # Wake parked timers from the post-round state, where every kind
            # is slot-saturated or proven idle: a tracker left wakeable has a
            # servable free slot.  Waking before the round would re-arm timers
            # for slots the round is about to fill or prove idle — ticks that
            # fire, find nothing, and re-park, at one queue event apiece.
            if self._parked:
                self._wake_parked()

    def _round_batched(self) -> None:
        """Batched form of :meth:`schedule_round`: one ``select_tasks``
        round per kind fills every free slot cluster-wide, each launch
        landing on the round-robin tracker the unbatched sweep would have
        picked (DESIGN.md §11).  Like the per-call round, it reuses a
        proven-idle hint only where :meth:`_may_skip_idle` allows; a traced
        round must still ask, to emit the idle decision the trace records.
        """
        scheduler = self.scheduler
        now = self.sim.now
        ask_idle = not self._may_skip_idle()
        # Unrolled over the two kinds with direct pool/hint reads — this is
        # the once-per-completion sweep on the loaded-trace hot path.
        free = self._free_maps
        if free > 0 and (ask_idle or scheduler.maybe_map):

            def _launch_map(task: Task) -> None:
                self._launch(task, self._pick_tracker(TaskKind.MAP))

            if scheduler.select_tasks(TaskKind.MAP, now, free, _launch_map) < free:
                scheduler.maybe_map = False
        free = self._free_reduces
        if free > 0 and (ask_idle or scheduler.maybe_reduce):

            def _launch_reduce(task: Task) -> None:
                self._launch(task, self._pick_tracker(TaskKind.REDUCE))

            if scheduler.select_tasks(TaskKind.REDUCE, now, free, _launch_reduce) < free:
                scheduler.maybe_reduce = False

    def _pick_tracker(self, kind: TaskKind) -> TaskTracker:
        """Round-robin over trackers with a free slot of ``kind``.

        The free-tracker ring is a bitmask over tracker ids; the cyclic
        successor of the round-robin pointer falls out of two word-packed
        lowest-set-bit probes (first set bit at or after the pointer, else
        wrap to the lowest set bit) instead of an O(n) probe loop.
        """
        mask = self._free_mask_map if kind is not TaskKind.REDUCE else self._free_mask_reduce
        if not mask:
            raise RuntimeError("no free slot despite positive cluster-wide count")
        upper = mask >> self._rr_pointer
        if upper:
            tid = self._rr_pointer + ((upper & -upper).bit_length() - 1)
        else:
            tid = (mask & -mask).bit_length() - 1
        trackers = self.trackers
        self._rr_pointer = (tid + 1) % len(trackers)
        return trackers[tid]

    def _update_free_mask(self, tracker: TaskTracker) -> None:
        """Re-derive one tracker's free-ring bits from its slot state."""
        bit = 1 << tracker.tracker_id
        alive = tracker.alive
        if alive and tracker.free_map_slots > 0:
            self._free_mask_map |= bit
        else:
            self._free_mask_map &= ~bit
        if alive and tracker.free_reduce_slots > 0:
            self._free_mask_reduce |= bit
        else:
            self._free_mask_reduce &= ~bit

    def _launch(self, task: Task, tracker: TaskTracker) -> None:
        sim = self.sim
        now = sim.now
        kind = task.kind
        uses_map = kind is not TaskKind.REDUCE
        tid = tracker.tracker_id
        tracker.occupy(task)
        # Inline one-pool mask maintenance (occupy already decremented the
        # tracker's free count): only the consumed pool's bit can change,
        # and only when the tracker's last slot of that pool just went busy.
        if uses_map:
            self._free_maps -= 1
            if tracker.free_map_slots == 0:
                self._free_mask_map &= ~(1 << tid)
        else:
            self._free_reduces -= 1
            if tracker.free_reduce_slots == 0:
                self._free_mask_reduce &= ~(1 << tid)
        task.launch_time = now
        if self._tracing:
            # Slot-idle gap: seconds since the consumed pool's oldest
            # free-up.  Slots free at simulation start have no recorded
            # free-up, so their first assignment carries wait=None.
            pool = self._free_since[uses_map]
            wait = now - pool.popleft() if pool else None
            self.tracer.incr(self.scheduler.name, "assignments")
            if wait is not None:
                self.tracer.incr(self.scheduler.name, "assign_wait_seconds", wait)
                self.tracer.incr(self.scheduler.name, "assign_wait_samples")
            self.tracer.record(
                "assign",
                now,
                workflow=task.workflow_name,
                task=task.task_id,
                slot_kind=kind.value,
                tracker=tracker.tracker_id,
                wait=wait,
            )
        speculative = task.speculative
        if not speculative:
            wf_name = task.job.workflow_name
            if kind is not TaskKind.SUBMIT and wf_name is not None:
                # Backup attempts duplicate an index already counted in rho.
                self.workflows[wf_name].scheduled_tasks += 1
            self.scheduler.on_task_assigned(task, now)
        self._notify("on_task_launch", task, now)
        task.completion_handle = sim.schedule(
            now + task.duration, self._complete_task, task, tracker
        )

    # -- completion ----------------------------------------------------------

    def _complete_task(self, task: Task, tracker: TaskTracker) -> None:
        now = self.sim.now
        kind = task.kind
        job = task.job
        tid = tracker.tracker_id
        tracker.release(task)
        # The freed pool's ring bit is set unconditionally: the tracker is
        # alive (it just completed a task) and now has >= 1 free slot.
        if kind is not TaskKind.REDUCE:
            self._free_maps += 1
            self._free_mask_map |= 1 << tid
        else:
            self._free_reduces += 1
            self._free_mask_reduce |= 1 << tid
        task.finish_time = now
        if self._tracing:
            self._trace_slot_free(task, now)
        speculator = self.speculator
        if speculator is not None:
            # This attempt committed; retire any sibling attempts first so
            # the logical task is accounted exactly once.
            for loser in speculator.commit(task):
                self._kill_attempt(loser)
        maps_done, job_done = job.on_task_complete(task, now)
        self._notify("on_task_complete", task, now)

        scheduler = self.scheduler
        if kind is TaskKind.SUBMIT:
            # The submitter map task loaded the wjob's jar and initialised
            # its tasks on this slave; the wjob now reaches the master.
            self.submit_wjob(job.workflow_name, task.payload)
            if job_done:
                scheduler.on_job_completed(job, now)
        elif job_done:
            self._on_wjob_completed(job, now)
        # Targeted hint refresh: a mid-phase completion frees a slot but
        # adds no runnable work (pending sets only shrink at launch time),
        # so proven-idle hints stay valid.  New work appears only when the
        # map phase finishes (reduces expose) or the job finishes (unlocks
        # dependents; their submissions mark dirty themselves, but the
        # unlock made submit tasks runnable).  Every scheduler here is
        # work-conserving — select_task returns None only when nothing is
        # runnable — which is what makes the stale-False case impossible.
        if maps_done or job_done:
            scheduler.note_state_change()
        self.schedule_round()

    def _kill_attempt(self, task: Task) -> None:
        """Retire a running attempt whose logical task is covered elsewhere."""
        if task.completion_handle is not None:
            task.completion_handle.cancel()
        tracker = self.trackers[task.tracker_id]
        tracker.release(task)
        if tracker.alive:
            if task.kind.uses_map_slot:
                self._free_maps += 1
            else:
                self._free_reduces += 1
            if self._tracing:
                self._trace_slot_free(task, self.sim.now)
        self._update_free_mask(tracker)
        task.job.on_attempt_killed(task)
        self._notify("on_task_lost", task, self.sim.now)

    def _trace_slot_free(self, task: Task, now: float) -> None:
        """Record a slot returning to the pool (tracer attached only)."""
        uses_map = task.kind.uses_map_slot
        self._free_since[uses_map].append(now)
        self.tracer.incr(self.scheduler.name, "slot_frees")
        self.tracer.record(
            "slot_free",
            now,
            slot_kind="map" if uses_map else "reduce",
            workflow=task.workflow_name,
            free=self._free_maps if uses_map else self._free_reduces,
        )

    # -- failure handling ------------------------------------------------------

    def kill_tracker(self, tracker_id: int) -> List[Task]:
        """A TaskTracker stops heartbeating: Hadoop's node-failure path.

        Running attempts die and are re-queued on their jobs; finished map
        outputs stored on the node are invalidated for still-running jobs
        (their maps re-execute); WOHA submit tasks re-arm.  The node's
        slots leave the capacity pool until :meth:`revive_tracker`.

        Returns the task attempts that were lost.
        """
        tracker = self.trackers[tracker_id]
        if not tracker.alive:
            raise ValueError(f"tracker {tracker_id} is already dead")
        now = self.sim.now
        tracker.alive = False
        # Idle slots leave the pool; the timer dies with the tracker, pending
        # or parked (revive_tracker re-arms it).  A pending tick is cancelled
        # so a revive before it fires leaves one chain, not two.
        self._free_maps -= tracker.free_map_slots
        self._free_reduces -= tracker.free_reduce_slots
        self._update_free_mask(tracker)
        handle = self._hb_handle[tracker_id]
        if handle is not None:
            handle.cancel()
        self._parked.pop(tracker_id, None)
        self._parked_mask &= ~(1 << tracker_id)
        lost = list(tracker.running)
        for task in lost:
            if task.completion_handle is not None:
                task.completion_handle.cancel()
            tracker.release(task)
            if self.speculator is not None and self.speculator.has_sibling(task):
                # A backup still covers the index; nothing to re-queue.
                task.job.on_attempt_killed(task)
            else:
                # The index is now uncovered: re-queue it and roll back the
                # single rho increment its original launch made (whichever
                # attempt happened to die last).
                task.job.on_task_lost(task)
                if task.kind is not TaskKind.SUBMIT and task.workflow_name is not None:
                    self.workflows[task.workflow_name].scheduled_tasks -= 1
            self._notify("on_task_lost", task, now)
        # Re-execute completed maps whose intermediate output died with the
        # node (only jobs with unfinished reducers are affected).
        for jip in self.jobs:
            if jip.completed:
                continue
            rerun = jip.invalidate_map_outputs(tracker_id)
            if rerun and jip.workflow_name is not None:
                self.workflows[jip.workflow_name].scheduled_tasks -= rerun
        self.scheduler.note_state_change()
        self.schedule_round()
        return lost

    def revive_tracker(self, tracker_id: int) -> None:
        """Bring a failed tracker back with empty slots."""
        tracker = self.trackers[tracker_id]
        if tracker.alive:
            raise ValueError(f"tracker {tracker_id} is already alive")
        tracker.alive = True
        self._free_maps += tracker.free_map_slots
        self._free_reduces += tracker.free_reduce_slots
        self._update_free_mask(tracker)
        if self.config.heartbeat_interval != float("inf"):
            self._parked.pop(tracker_id, None)
            self._parked_mask &= ~(1 << tracker_id)
            self._hb_handle[tracker_id] = self.sim.schedule_after(
                self.config.heartbeat_interval, self._heartbeat_tick, tracker
            )
        self.scheduler.note_state_change()
        self.schedule_round()

    def _on_wjob_completed(self, jip: JobInProgress, now: float) -> None:
        wf_name = jip.workflow_name
        if wf_name is None:
            self.scheduler.on_job_completed(jip, now)
            self._notify("on_job_completed", jip, now)
            return
        # Dependency bookkeeping must precede the completion notifications:
        # the Oozie-lite coordinator reacts to `on_job_completed` by asking
        # which wjobs are now ready.
        wip = self.workflows[wf_name]
        wip._mark_job_completed(jip.name)
        self._wjob_running -= 1
        # Unlock dependents.  In WOHA mode the JobTracker holds the
        # topology (it arrived with the configuration) and pokes the
        # submitter job; in Oozie mode only the coordinator (a listener)
        # reacts, preserving the paper's information separation.
        # (sorted: frozenset iteration is hash-ordered, which would make
        # unlock order — and thus entire runs — vary across processes.)
        for dep in sorted(wip.definition.dependents(jip.name)):
            pending = wip.pending_prereqs[dep]
            pending.discard(jip.name)
            if not pending:
                wip._mark_ready(dep)
                if wip.submitter is not None:
                    wip.submitter.unlock(dep)
        self.scheduler.on_job_completed(jip, now)
        self._notify("on_job_completed", jip, now)
        if wip.done and wip.completion_time is None:
            wip.completion_time = now
            self.scheduler.on_workflow_completed(wip, now)
            self._notify("on_workflow_completed", wip, now)
