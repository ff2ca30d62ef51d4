"""Hadoop-1 cluster substrate: a discrete-event slot-level simulator.

The paper evaluates WOHA on Hadoop-1.2.1 over 80 servers; we reproduce the
scheduling-relevant behaviour of that stack — a JobTracker master assigning
map/reduce tasks to TaskTracker slots on heartbeats — as a deterministic
simulation (see DESIGN.md §2 for why this substitution preserves the
paper's results).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ClusterConfig": "repro.cluster.config",
    "Task": "repro.cluster.tasks",
    "TaskKind": "repro.cluster.tasks",
    "JobInProgress": "repro.cluster.job",
    "SubmitterJob": "repro.cluster.job",
    "JobState": "repro.cluster.job",
    "TaskTracker": "repro.cluster.tasktracker",
    "JobTracker": "repro.cluster.jobtracker",
    "WorkflowInProgress": "repro.cluster.jobtracker",
    "ClusterSimulation": "repro.cluster.simulation",
    "SimulationResult": "repro.cluster.simulation",
    "WorkflowStats": "repro.cluster.simulation",
})
