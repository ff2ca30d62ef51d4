"""Unit tests for the resource-cap binary search (§IV-A improvement)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks._reference_plangen import reference_find_min_cap, reference_planner
from repro.core.capsearch import (
    _BOUND_EPS,
    _chain_time,
    capped_plan,
    find_min_cap,
    find_min_cap_split,
    plan_from_search,
)
from repro.core.plangen import _SimProblem, simulate_makespan
from repro.core.priorities import PRIORITIZERS
from repro.workflow import dag
from repro.workflow.builder import WorkflowBuilder
from tests.strategies import workflows


def wide_job(maps=12, map_s=10.0):
    return WorkflowBuilder("w").job("a", maps=maps, reduces=0, map_s=map_s).build()


class TestFindMinCap:
    def test_loose_deadline_gives_small_cap(self):
        # 12 maps @10s: cap 1 -> 120s; deadline 120 is met by a single slot.
        w = wide_job()
        result = find_min_cap(w, max_slots=50, relative_deadline=120.0)
        assert result.cap == 1
        assert result.feasible

    def test_tight_deadline_needs_more_slots(self):
        w = wide_job()
        # deadline 30s: need ceil(12/3)=... cap 4 -> 30s exactly.
        result = find_min_cap(w, max_slots=50, relative_deadline=30.0)
        assert result.cap == 4
        assert result.makespan == 30.0

    def test_exact_deadline_boundary(self):
        w = wide_job()
        # 20s requires 6 slots (2 waves); 5 slots -> 30s.
        assert find_min_cap(w, 50, relative_deadline=20.0).cap == 6

    def test_infeasible_returns_max_slots(self):
        w = wide_job()
        result = find_min_cap(w, max_slots=50, relative_deadline=5.0)
        assert result.cap == 50
        assert not result.feasible
        assert result.makespan == 10.0

    def test_minimality(self):
        """The returned cap meets the deadline and cap-1 does not."""
        w = (
            WorkflowBuilder("w")
            .job("a", maps=7, reduces=3, map_s=13, reduce_s=29)
            .job("b", maps=5, reduces=2, map_s=11, reduce_s=17, after=["a"])
            .build()
        )
        deadline = 150.0
        result = find_min_cap(w, max_slots=32, relative_deadline=deadline)
        assert result.feasible
        assert simulate_makespan(w, result.cap) <= deadline
        if result.cap > 1:
            assert simulate_makespan(w, result.cap - 1) > deadline

    def test_workflow_deadline_used_by_default(self):
        w = (
            WorkflowBuilder("w")
            .job("a", maps=12, reduces=0, map_s=10)
            .deadline(relative=60.0)
            .build()
        )
        result = find_min_cap(w, max_slots=50)
        assert result.cap == 2  # 12 maps / 2 slots = 60s

    def test_no_deadline_plans_at_full_size(self):
        w = wide_job()
        result = find_min_cap(w, max_slots=24)
        assert result.cap == 24
        assert result.feasible

    def test_probe_count_logarithmic(self):
        w = wide_job(maps=100)
        result = find_min_cap(w, max_slots=1024, relative_deadline=200.0)
        # 1 feasibility probe + ~log2(1024) bisection probes
        assert result.probes <= 12

    def test_bad_max_slots_rejected(self):
        with pytest.raises(ValueError):
            find_min_cap(wide_job(), max_slots=0)

    def test_loose_deadline_decided_by_ceiling(self):
        """W/1 + L <= D: every cap is certainly feasible, so the only
        simulation is the one that yields the returned cap's batches."""
        w = (
            WorkflowBuilder("w")
            .job("a", maps=7, reduces=3, map_s=13, reduce_s=29)
            .job("b", maps=5, reduces=2, map_s=11, reduce_s=17, after=["a"])
            .build()
        )
        deadline = w.total_work + dag.critical_path_length(w)
        order = PRIORITIZERS["lpf"](w)
        result = find_min_cap(w, max_slots=64, relative_deadline=deadline, job_order=order)
        assert (result.cap, result.feasible, result.probes) == (1, True, 1)
        assert result.batches is not None
        assert result.makespan == simulate_makespan(w, 1, order)
        ref = reference_find_min_cap(w, 64, relative_deadline=deadline, job_order=order)
        assert (ref.cap, ref.feasible, ref.makespan) == (1, True, result.makespan)
        assert ref.probes > result.probes
        timed = w.with_timing(0.0, deadline)
        assert (
            plan_from_search(w, order, result).to_bytes()
            == reference_planner("lpf")(timed, 64).to_bytes()
        )


@st.composite
def _workflow_and_cap(draw):
    workflow = draw(workflows())
    return workflow, draw(st.integers(1, workflow.total_tasks + 1))


@given(_workflow_and_cap(), st.sampled_from(sorted(PRIORITIZERS)))
@settings(max_examples=200, deadline=None)
def test_analytic_bounds_bracket_simulated_makespan(case, prioritizer):
    """The floor and the ceiling the search relies on, on random DAGs:
    max(W/cap, chain bound) <= makespan <= W/cap + L."""
    workflow, cap = case
    order = PRIORITIZERS[prioritizer](workflow)
    _batches, makespan = _SimProblem(workflow, order).run(cap, pooled=True)
    weights = dag.longest_path_weights(workflow)
    chain = [workflow.job(name) for name in dag.critical_path(workflow)]
    area = workflow.total_work / cap
    lower = max(area, _chain_time(chain, cap, cap))
    upper = area + max(weights.values())
    tolerance = _BOUND_EPS * max(1.0, upper)
    assert lower <= makespan + tolerance
    assert makespan <= upper + tolerance


class TestCappedPlan:
    def test_plan_generated_at_found_cap(self):
        w = (
            WorkflowBuilder("w")
            .job("a", maps=12, reduces=0, map_s=10)
            .deadline(relative=40.0)
            .build()
        )
        plan = capped_plan(w, max_slots=50)
        assert plan.resource_cap == 3
        assert plan.makespan == 40.0
        assert plan.feasible

    def test_infeasible_plan_flagged(self):
        w = (
            WorkflowBuilder("w")
            .job("a", maps=12, reduces=0, map_s=10)
            .deadline(relative=5.0)
            .build()
        )
        plan = capped_plan(w, max_slots=8)
        assert plan.resource_cap == 8
        assert not plan.feasible


class TestPaperFig2Property:
    """The qualitative claim of the paper's Fig 2: uncapped plans
    procrastinate; capped plans demand early progress."""

    def test_capped_plan_demands_earlier_progress(self):
        w = (
            WorkflowBuilder("w")
            .job("j1", maps=3, reduces=3, map_s=1, reduce_s=1)
            .job("j2", maps=3, reduces=3, map_s=1, reduce_s=1, after=["j1"])
            .deadline(relative=9.0)
            .build()
        )
        uncapped = capped_plan(w, max_slots=6, relative_deadline=None)  # uses D, still searches
        from repro.core.plangen import generate_requirements

        full = generate_requirements(w, cap=6)
        tight = generate_requirements(w, cap=2)
        # With the full cluster the plan finishes in 4s, so nothing is
        # required until ttd=4 (i.e. 5s of procrastination before D=9).
        assert full.makespan < tight.makespan <= 9.0
        # At half the remaining time (ttd such that absolute time = 4.5),
        # the capped plan requires strictly more scheduled tasks.
        D = 9.0
        t_mid = 4.0
        assert tight.requirement_at(D - t_mid) >= full.requirement_at(D - t_mid)
        # And the capped plan requires progress from the very start.
        assert tight.requirement_at(tight.makespan) > 0


class TestSharedProblemInputs:
    """The bounds' structure-only inputs are cached on ``_SimProblem``."""

    def _workflow(self):
        return (
            WorkflowBuilder("w")
            .job("a", maps=7, reduces=3, map_s=13, reduce_s=29)
            .job("b", maps=5, reduces=2, map_s=11, reduce_s=17, after=["a"])
            .job("c", maps=9, reduces=0, map_s=8, after=["a"])
            .deadline(relative=120.0)
            .build()
        )

    def test_inputs_match_the_dag_functions(self):
        w = self._workflow()
        problem = _SimProblem(w, PRIORITIZERS["lpf"](w))
        assert problem.total_work == w.total_work
        assert problem.longest_path_weights == dag.longest_path_weights(w)
        assert [job.name for job in problem.critical_chain] == list(dag.critical_path(w))

    def test_a_shared_problem_walks_the_dag_once(self, monkeypatch):
        walks = []
        real = dag._longest_path_weights
        monkeypatch.setattr(
            dag, "_longest_path_weights", lambda wf: walks.append(wf) or real(wf)
        )
        w = self._workflow()
        order = PRIORITIZERS["lpf"](w)
        problem = _SimProblem(w, order)
        for deadline in (120.0, 150.0, 400.0):
            shared = find_min_cap(w, 64, deadline, order, problem=problem)
            alone = find_min_cap(w, 64, deadline, order)
            assert (shared.cap, shared.feasible, shared.makespan) == (
                alone.cap, alone.feasible, alone.makespan
            )
        split = find_min_cap_split(w, 64, relative_deadline=150.0, job_order=order, problem=problem)
        assert split == find_min_cap_split(w, 64, relative_deadline=150.0, job_order=order)
        # One walk for the workflow object, shared by LPF, the shared
        # problem and every unshared search's fresh problem.
        assert walks == [w]
