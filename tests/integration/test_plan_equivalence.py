"""Fast-path planning is byte-identical to the frozen reference path.

The fast path (heap kernel, memoised + analytically seeded cap search,
plan built from the search's final probe, optional plan cache) promises to
change *nothing* about the emitted plans — only how fast they are
produced.  Following the trace-invariance pattern, this corpus test pins
that promise over the evaluation workloads: the Yahoo! trace behind
Figs 8-10, the Fig 11 topologies and the serve tier's templates across a
deadline sweep (where the cap search's analytic ceiling decides most
midpoints), for all three prioritizers and both
pool modes, comparing ``ProgressPlan.to_bytes()`` pair-wise against
``benchmarks/_reference_plangen`` (the planning pipeline as it stood
before the rewrite, kept verbatim).
"""

import pytest

from benchmarks._helpers import yahoo_trace
from benchmarks._reference_plangen import (
    reference_find_min_cap,
    reference_planner,
)
from repro.core.capsearch import find_min_cap
from repro.core.client import make_planner
from repro.core.plancache import PlanCache
from repro.core.priorities import PRIORITIZERS
from repro.experiments.scenarios import SCENARIOS
from repro.workloads.topologies import fig11_workflows

#: Deadline stretches applied to each serve template's own: 0.1 is
#: infeasible even on the whole cluster, 0.3 leaves the Graham ceiling
#: above most midpoints, and the loose ones put it low enough that most
#: of the bisection is decided without simulating.
_SERVE_STRETCHES = (0.1, 0.3, 0.6, 1.0, 1.5, 4.0)


#: (corpus name, workflows, total_slots) — slot counts match the figure
#: benches: Fig 8's 200m+200r cluster and Fig 11's 32-node cluster; the
#: serve templates run at the serve tier's 200 slots.
def _corpus():
    # The 64 serve templates are dated copies of a few shapes; planning
    # reads only what the plan-cache fingerprint holds, so one template
    # per fingerprint covers them all.
    shapes = {
        PlanCache.fingerprint(t, t.topological_order(), 200): t
        for t in SCENARIOS["serve"](0, 16.0)[0]
    }
    serve = [
        template.with_timing(0.0, template.relative_deadline * stretch)
        for template in shapes.values()
        for stretch in _SERVE_STRETCHES
    ]
    return [
        ("yahoo", list(yahoo_trace()), 400),
        ("fig11", list(fig11_workflows()), 96),
        ("serve", serve, 200),
    ]


@pytest.mark.parametrize("pool", ["pooled", "split"])
@pytest.mark.parametrize("prioritizer", sorted(PRIORITIZERS))
def test_fast_path_plans_byte_identical(prioritizer, pool):
    fast = make_planner(prioritizer, pool=pool)
    reference = reference_planner(prioritizer, pool=pool)
    for corpus_name, workflows, slots in _corpus():
        for workflow in workflows:
            got = fast(workflow, slots).to_bytes()
            want = reference(workflow, slots).to_bytes()
            assert got == want, (corpus_name, workflow.name, prioritizer, pool)


@pytest.mark.parametrize("prioritizer", sorted(PRIORITIZERS))
def test_cap_search_matches_reference(prioritizer):
    """Same cap/feasible/makespan; never more probes than the naive search."""
    order_fn = PRIORITIZERS[prioritizer]
    for corpus_name, workflows, slots in _corpus():
        for workflow in workflows:
            order = order_fn(workflow)
            fast = find_min_cap(workflow, slots, job_order=order)
            ref = reference_find_min_cap(workflow, slots, job_order=order)
            assert (fast.cap, fast.feasible, fast.makespan) == (
                ref.cap,
                ref.feasible,
                ref.makespan,
            ), (corpus_name, workflow.name, prioritizer)
            assert fast.probes <= ref.probes


@pytest.mark.parametrize("pool", ["pooled", "split"])
def test_plan_cache_serves_byte_identical_plans(pool):
    """Cache hits return the same bytes a fresh planning run would emit."""
    cache = PlanCache()
    cached = make_planner("lpf", pool=pool, plan_cache=cache)
    plain = make_planner("lpf", pool=pool)
    for _corpus_name, workflows, slots in _corpus():
        for _round in range(2):  # second round is served from the cache
            for workflow in workflows:
                assert cached(workflow, slots).to_bytes() == plain(workflow, slots).to_bytes()
    assert cache.hits > 0 and cache.misses > 0
