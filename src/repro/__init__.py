"""WOHA reproduction: deadline-aware Map-Reduce workflow scheduling.

A full Python reproduction of *WOHA: Deadline-Aware Map-Reduce Workflow
Scheduling Framework over Hadoop Clusters* (Li et al., ICDCS 2014) on a
discrete-event Hadoop-1 cluster simulator.

Quickstart::

    from repro import (
        ClusterConfig, ClusterSimulation, WohaScheduler, make_planner,
        WorkflowBuilder,
    )

    wf = (
        WorkflowBuilder("pipeline")
        .job("extract", maps=20, reduces=4, map_s=30, reduce_s=120)
        .job("report", maps=5, reduces=1, map_s=20, reduce_s=60, after=["extract"])
        .deadline(relative=1800)
        .build()
    )
    sim = ClusterSimulation(
        ClusterConfig(num_nodes=8),
        WohaScheduler(),
        submission="woha",
        planner=make_planner("lpf"),
    )
    sim.add_workflow(wf)
    result = sim.run()
    print(result.stats["pipeline"].met_deadline)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduction of every figure in the paper's evaluation.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Each public name and the module defining it; resolved on first use, so
# importing one submodule (say ``repro.serve.api``) does not load numpy,
# the simulator or the lint engine.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ClusterConfig": "repro.cluster.config",
    "ClusterSimulation": "repro.cluster.simulation",
    "FailureInjector": "repro.cluster.failures",
    "Outage": "repro.cluster.failures",
    "SpeculationManager": "repro.cluster.speculation",
    "LognormalNoise": "repro.noise",
    "Recurrence": "repro.workloads.recurrence",
    "expand_recurrences": "repro.workloads.recurrence",
    "parse_scheduler_config": "repro.registry",
    "register_scheduler": "repro.registry",
    "register_plan_generator": "repro.registry",
    "SimulationResult": "repro.cluster.simulation",
    "WorkflowStats": "repro.cluster.simulation",
    "CapSearchResult": "repro.core.capsearch",
    "find_min_cap": "repro.core.capsearch",
    "PlanCache": "repro.core.plancache",
    "WohaClient": "repro.core.client",
    "make_planner": "repro.core.client",
    "generate_requirements": "repro.core.plangen",
    "PRIORITIZERS": "repro.core.priorities",
    "hlf_order": "repro.core.priorities",
    "lpf_order": "repro.core.priorities",
    "mpf_order": "repro.core.priorities",
    "ProgressEntry": "repro.core.progress",
    "ProgressPlan": "repro.core.progress",
    "WohaScheduler": "repro.core.scheduler",
    "NaiveWohaScheduler": "repro.core.scheduler",
    "Simulator": "repro.events",
    "HdfsNamespace": "repro.hdfs",
    "MissExplanation": "repro.metrics.postmortem",
    "explain_miss": "repro.metrics.postmortem",
    "DecisionTracer": "repro.trace",
    "read_jsonl": "repro.trace",
    "EdfScheduler": "repro.schedulers.edf",
    "FairScheduler": "repro.schedulers.fair",
    "FifoScheduler": "repro.schedulers.fifo",
    "DoubleSkipList": "repro.structures.dsl",
    "DeterministicSkipList": "repro.structures.skiplist",
    "WorkflowBuilder": "repro.workflow.builder",
    "WJob": "repro.workflow.model",
    "Workflow": "repro.workflow.model",
    "WorkflowValidationError": "repro.workflow.model",
    "parse_workflow_xml": "repro.workflow.xmlconfig",
    "workflow_to_xml": "repro.workflow.xmlconfig",
})
__all__.append("__version__")
