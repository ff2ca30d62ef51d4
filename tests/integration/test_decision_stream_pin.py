"""Pinned decision streams: every scheduler's traced output is frozen.

The equivalence suites (batched vs. unbatched, traced vs. untraced, the
assignment oracle) compare two runs of the current code, so a change that
alters both sides the same way passes them.  This test compares against
digests recorded from a known-good tree instead: the SHA-256 of a traced
run's JSONL decision log and of its counter table, for every scheduler in
:data:`~repro.registry.SCHEDULER_REGISTRY` plus
:class:`~repro.core.replanning.ReplanningWohaScheduler` under the LPF
planner, and for the HLF and MPF stacks of :data:`~repro.registry.STACKS`,
on a small ``outages`` scenario (tracker kill and revive, finite
heartbeats) and a small ``yahoo`` one (event-driven), with batched
assignment off and on.  The batched runs reach the FIFO and Fair
``select_tasks`` overrides.

A change that is meant to alter decisions re-records the digests (run
this module as a script) and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.failures import FailureSchedule
from repro.cluster.simulation import ClusterSimulation
from repro.core.client import make_planner
from repro.core.replanning import ReplanningWohaScheduler
from repro.experiments.scenarios import SCENARIOS
from repro.registry import SCHEDULER_REGISTRY, STACK_NAMES, make_stack

#: Scheduler name -> factory; the XML registry's schedulers plus the replanner.
SCHEDULERS = {**SCHEDULER_REGISTRY, "woha-replanning": ReplanningWohaScheduler}
NAMES = sorted({*SCHEDULERS, "woha-hlf", "woha-mpf"})

#: Scenario name -> (scale, heartbeat interval).
SCENARIO_RUNS = {"outages": (0.5, 3.0), "yahoo": (0.1, float("inf"))}

#: (scheduler, scenario, batched) -> (sha256 of the JSONL log,
#: sha256 of the sorted-keys counter table JSON).
DIGESTS = {
    ("edf", "outages", False): (
        "017e4f2beaf0c1cf52de6c03b66506e97f9096a920bb7e178333dff49e4a81f2",
        "1e55883eac7d8610fc9efbdeacb22dc59c1728a861e8f33c477a10b158d6385f",
    ),
    ("edf", "outages", True): (
        "017e4f2beaf0c1cf52de6c03b66506e97f9096a920bb7e178333dff49e4a81f2",
        "1e55883eac7d8610fc9efbdeacb22dc59c1728a861e8f33c477a10b158d6385f",
    ),
    ("edf", "yahoo", False): (
        "648e47e3104c32d5461f08cb2de0e6ce7447c8f4484ff1ce388175e5760f51cc",
        "f71cc5b89ceb2ac6f626151062cca36be8078dfb7d1e41bc2eab902d3c670b2e",
    ),
    ("edf", "yahoo", True): (
        "648e47e3104c32d5461f08cb2de0e6ce7447c8f4484ff1ce388175e5760f51cc",
        "f71cc5b89ceb2ac6f626151062cca36be8078dfb7d1e41bc2eab902d3c670b2e",
    ),
    ("fair", "outages", False): (
        "b2ef39c991d4437110a842e61232c80a4bb19b180c5de94c2cccf84a33626397",
        "5ded0d2c9d12ecb238685234785f2accf5834c36ce870ccd9fddc90e28d1ae0f",
    ),
    ("fair", "outages", True): (
        "b2ef39c991d4437110a842e61232c80a4bb19b180c5de94c2cccf84a33626397",
        "5ded0d2c9d12ecb238685234785f2accf5834c36ce870ccd9fddc90e28d1ae0f",
    ),
    ("fair", "yahoo", False): (
        "6ceec42c22767b9e294dc74d17ffebfdd43ebe3d2004de151e82d345bec08742",
        "e8e8cb5d680672dadf5432f950301c5c92379dd3ca1c7df1bed9b2a7168e241e",
    ),
    ("fair", "yahoo", True): (
        "6ceec42c22767b9e294dc74d17ffebfdd43ebe3d2004de151e82d345bec08742",
        "e8e8cb5d680672dadf5432f950301c5c92379dd3ca1c7df1bed9b2a7168e241e",
    ),
    ("fifo", "outages", False): (
        "3858f61fac3b898ef0e994649e3bab7fd7bd7b3432f9a7fb9b4b90e982a45932",
        "952b5b3409a6e9e2df3ceb6fa86d758152769e8e275d8deff0ca1e10ea07448b",
    ),
    ("fifo", "outages", True): (
        "3858f61fac3b898ef0e994649e3bab7fd7bd7b3432f9a7fb9b4b90e982a45932",
        "952b5b3409a6e9e2df3ceb6fa86d758152769e8e275d8deff0ca1e10ea07448b",
    ),
    ("fifo", "yahoo", False): (
        "743856444b40a17bdc2a1cf37ec10f1eba503bd80839d6ed766def660dd207b8",
        "fe652d064191110a4cf8143918f337503f216d28c5299d1f5907609626156199",
    ),
    ("fifo", "yahoo", True): (
        "743856444b40a17bdc2a1cf37ec10f1eba503bd80839d6ed766def660dd207b8",
        "fe652d064191110a4cf8143918f337503f216d28c5299d1f5907609626156199",
    ),
    ("woha-bst", "outages", False): (
        "b40c3ee373116a4a8283e479a4d23e2cf444bfd0265e94f986d437b5112da988",
        "c80621b5cb6c6c78f970151209c9026064dbb5275b3aca2ba58b1ed77430e0db",
    ),
    ("woha-bst", "outages", True): (
        "b40c3ee373116a4a8283e479a4d23e2cf444bfd0265e94f986d437b5112da988",
        "c80621b5cb6c6c78f970151209c9026064dbb5275b3aca2ba58b1ed77430e0db",
    ),
    ("woha-bst", "yahoo", False): (
        "6036f53a793233bf5fe5e3b33e68dc8cd02610d72c004b6525a7d652f0bf0f77",
        "efa5819bde108b482fa03a0741c1b4cd160e314da6870956db27b66bd3ea83e8",
    ),
    ("woha-bst", "yahoo", True): (
        "6036f53a793233bf5fe5e3b33e68dc8cd02610d72c004b6525a7d652f0bf0f77",
        "efa5819bde108b482fa03a0741c1b4cd160e314da6870956db27b66bd3ea83e8",
    ),
    ("woha-dsl", "outages", False): (
        "b40c3ee373116a4a8283e479a4d23e2cf444bfd0265e94f986d437b5112da988",
        "c80621b5cb6c6c78f970151209c9026064dbb5275b3aca2ba58b1ed77430e0db",
    ),
    ("woha-dsl", "outages", True): (
        "b40c3ee373116a4a8283e479a4d23e2cf444bfd0265e94f986d437b5112da988",
        "c80621b5cb6c6c78f970151209c9026064dbb5275b3aca2ba58b1ed77430e0db",
    ),
    ("woha-dsl", "yahoo", False): (
        "6036f53a793233bf5fe5e3b33e68dc8cd02610d72c004b6525a7d652f0bf0f77",
        "efa5819bde108b482fa03a0741c1b4cd160e314da6870956db27b66bd3ea83e8",
    ),
    ("woha-dsl", "yahoo", True): (
        "6036f53a793233bf5fe5e3b33e68dc8cd02610d72c004b6525a7d652f0bf0f77",
        "efa5819bde108b482fa03a0741c1b4cd160e314da6870956db27b66bd3ea83e8",
    ),
    ("woha-hlf", "outages", False): (
        "b40c3ee373116a4a8283e479a4d23e2cf444bfd0265e94f986d437b5112da988",
        "c80621b5cb6c6c78f970151209c9026064dbb5275b3aca2ba58b1ed77430e0db",
    ),
    ("woha-hlf", "outages", True): (
        "b40c3ee373116a4a8283e479a4d23e2cf444bfd0265e94f986d437b5112da988",
        "c80621b5cb6c6c78f970151209c9026064dbb5275b3aca2ba58b1ed77430e0db",
    ),
    ("woha-hlf", "yahoo", False): (
        "01952b04246bdc5d20d5d6f3b786fe27d3826f802cd560aded7b40b7e804269c",
        "212c1db9f16de54890188572c5956821fa98df84f60330fbab5409fc4ac5da7f",
    ),
    ("woha-hlf", "yahoo", True): (
        "01952b04246bdc5d20d5d6f3b786fe27d3826f802cd560aded7b40b7e804269c",
        "212c1db9f16de54890188572c5956821fa98df84f60330fbab5409fc4ac5da7f",
    ),
    ("woha-mpf", "outages", False): (
        "b40c3ee373116a4a8283e479a4d23e2cf444bfd0265e94f986d437b5112da988",
        "c80621b5cb6c6c78f970151209c9026064dbb5275b3aca2ba58b1ed77430e0db",
    ),
    ("woha-mpf", "outages", True): (
        "b40c3ee373116a4a8283e479a4d23e2cf444bfd0265e94f986d437b5112da988",
        "c80621b5cb6c6c78f970151209c9026064dbb5275b3aca2ba58b1ed77430e0db",
    ),
    ("woha-mpf", "yahoo", False): (
        "01952b04246bdc5d20d5d6f3b786fe27d3826f802cd560aded7b40b7e804269c",
        "212c1db9f16de54890188572c5956821fa98df84f60330fbab5409fc4ac5da7f",
    ),
    ("woha-mpf", "yahoo", True): (
        "01952b04246bdc5d20d5d6f3b786fe27d3826f802cd560aded7b40b7e804269c",
        "212c1db9f16de54890188572c5956821fa98df84f60330fbab5409fc4ac5da7f",
    ),
    ("woha-naive", "outages", False): (
        "56f6f69091b184715f3141182ca25efde276bd706abd38b3b3633c28eba653b5",
        "ac3f20babe07d5a9723c16fbd35145f267bdc1c120d4b5286419f712a8531b24",
    ),
    ("woha-naive", "outages", True): (
        "56f6f69091b184715f3141182ca25efde276bd706abd38b3b3633c28eba653b5",
        "ac3f20babe07d5a9723c16fbd35145f267bdc1c120d4b5286419f712a8531b24",
    ),
    ("woha-naive", "yahoo", False): (
        "ac8d2cd2e53c465fd8abf0b0007433628c0d677370b1167510890a64d356ae9d",
        "7da32420786018fff3a0eaf6479c91e3aa11a3c5511c784af5bedcef420fd657",
    ),
    ("woha-naive", "yahoo", True): (
        "ac8d2cd2e53c465fd8abf0b0007433628c0d677370b1167510890a64d356ae9d",
        "7da32420786018fff3a0eaf6479c91e3aa11a3c5511c784af5bedcef420fd657",
    ),
    ("woha-replanning", "outages", False): (
        "4500fcc8a5bfd9ab0415eef887cd3ce2b2bb82c37d15dfa4c239c9047fdc91fc",
        "b241a2ef3a7498ba16032175f342311bf8f536767e61870d9221ae8aa448c6a4",
    ),
    ("woha-replanning", "outages", True): (
        "4500fcc8a5bfd9ab0415eef887cd3ce2b2bb82c37d15dfa4c239c9047fdc91fc",
        "b241a2ef3a7498ba16032175f342311bf8f536767e61870d9221ae8aa448c6a4",
    ),
    ("woha-replanning", "yahoo", False): (
        "c3c703c85f9be5f6dbd628663ef54499ad38919941c05e14f26053dbbe1569cc",
        "0b48497fe53dd2a8171fd24db24fd24bab2adcc939080d3c361a3cbdd9affa22",
    ),
    ("woha-replanning", "yahoo", True): (
        "c3c703c85f9be5f6dbd628663ef54499ad38919941c05e14f26053dbbe1569cc",
        "0b48497fe53dd2a8171fd24db24fd24bab2adcc939080d3c361a3cbdd9affa22",
    ),
}


def build(sched_name):
    """A stack of the evaluation by its name, else an XML-registry
    scheduler (or the replanner) under the LPF planner."""
    if sched_name in STACK_NAMES:
        return make_stack(sched_name)
    return SCHEDULERS[sched_name](), "woha", make_planner("lpf")


def traced_run(sched_name, scenario, batched):
    scale, heartbeat = SCENARIO_RUNS[scenario]
    workflows, outages = SCENARIOS[scenario](7, scale)
    config = ClusterConfig(
        num_nodes=4, heartbeat_interval=heartbeat, batched_assignment=batched
    )
    scheduler, mode, planner = build(sched_name)
    sim = ClusterSimulation(config, scheduler, submission=mode, planner=planner, trace=True)
    sim.add_workflows(workflows)
    if outages:
        FailureSchedule(tuple(outages)).apply(sim.sim, sim.jobtracker)
    tracer = sim.run().tracer
    return (
        hashlib.sha256(tracer.dumps_jsonl().encode()).hexdigest(),
        hashlib.sha256(json.dumps(tracer.counter_table(), sort_keys=True).encode()).hexdigest(),
    )


CASES = [
    (sched_name, scenario, batched)
    for sched_name in NAMES
    for scenario in sorted(SCENARIO_RUNS)
    for batched in (False, True)
]


def test_every_stack_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("sched_name,scenario,batched", CASES)
def test_decision_stream_matches_the_pinned_digests(sched_name, scenario, batched):
    assert traced_run(sched_name, scenario, batched) == DIGESTS[(sched_name, scenario, batched)]


if __name__ == "__main__":  # re-record: PYTHONPATH=src python <this file>
    for sched_name, scenario, batched in CASES:
        log, counters = traced_run(sched_name, scenario, batched)
        print(f'    ("{sched_name}", "{scenario}", {batched}): (')
        print(f'        "{log}",\n        "{counters}",\n    ),')
