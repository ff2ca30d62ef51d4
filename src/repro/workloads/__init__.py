"""Workload generation: the paper's synthetic and Yahoo!-like inputs."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "TraceDistributions": "repro.workloads.distributions",
    "JobShape": "repro.workloads.distributions",
    "cdf_points": "repro.workloads.distributions",
    "fig7_topology": "repro.workloads.topologies",
    "fig11_workflows": "repro.workloads.topologies",
    "FIG11_DURATION_SCALE": "repro.workloads.topologies",
    "chain_workflow": "repro.workloads.topologies",
    "fanout_workflow": "repro.workloads.topologies",
    "diamond_workflow": "repro.workloads.topologies",
    "random_dag_workflow": "repro.workloads.topologies",
    "YahooTraceConfig": "repro.workloads.yahoo",
    "generate_yahoo_workflows": "repro.workloads.yahoo",
    "generate_job_trace": "repro.workloads.yahoo",
    "assign_deadlines": "repro.workloads.deadlines",
    "stretch_deadline": "repro.workloads.deadlines",
})
