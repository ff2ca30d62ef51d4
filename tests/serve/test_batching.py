"""Unit tests for the micro-batching planner (DESIGN.md §15)."""

import asyncio

import pytest

from repro.cluster.jobtracker import JobTracker
from repro.core.client import WohaClient, make_planner, plan_cache_mode
from repro.core.plancache import PlanCache
from repro.core.priorities import PRIORITIZERS
from repro.core.scheduler import WohaScheduler
from repro.events import Simulator
from repro.metrics.collector import MetricsCollector
from repro.cluster.config import ClusterConfig
from repro.serve.batching import BatchingPlanner
from repro.trace import DecisionTracer
from repro.workflow.builder import WorkflowBuilder


def diamond(name="wf", *, maps=8, relative_deadline=400.0):
    return (
        WorkflowBuilder(name)
        .job("extract", maps=maps, reduces=2, map_s=10.0, reduce_s=15.0)
        .job("left", maps=4, reduces=1, map_s=8.0, reduce_s=9.0, after=["extract"])
        .job("right", maps=6, reduces=0, map_s=12.0, after=["extract"])
        .job("load", maps=2, reduces=1, map_s=5.0, reduce_s=20.0, after=["left", "right"])
        .deadline(relative=relative_deadline)
        .build()
    )


def order_of(workflow):
    return tuple(PRIORITIZERS["lpf"](workflow))


def plan_flushes(planner, flushes, cap_search=True, pool="pooled"):
    """Run each list of ``(workflow, slots)`` requests as one concurrent
    burst (one flush); returns the ``(entry, outcome)`` results in order."""

    async def go():
        results = []
        for requests in flushes:
            results += await asyncio.gather(*(
                planner.plan(w, order_of(w), slots, cap_search=cap_search, pool=pool)
                for w, slots in requests
            ))
        return results

    return asyncio.run(go())


def plan_all(planner, requests):
    """Drive concurrent plan() calls to completion; returns (entry, outcome) list."""
    return plan_flushes(planner, [requests])


class TestNextTurnFlush:
    def test_lone_miss_resolves_next_turn_and_repeat_hits(self):
        cache = PlanCache()
        planner = BatchingPlanner(cache)
        w = diamond()

        async def go():
            before = asyncio.all_tasks()
            task = asyncio.ensure_future(planner.plan(w, order_of(w), 24))
            await asyncio.sleep(0)  # the miss parks and schedules its flush
            assert not task.done() and len(planner._pending) == 1
            # The flush is a loop callback, not a planner-created task.
            assert asyncio.all_tasks() == before | {task}
            for _turn in range(2):
                if task.done():
                    break
                await asyncio.sleep(0)
            assert task.done()
            entry, outcome = task.result()
            assert outcome == "miss"
            # A repeat is a hit: served synchronously, never parked.
            assert await planner.plan(w, order_of(w), 24) == (entry, "hit")
            assert not planner._pending

        asyncio.run(go())
        assert planner.batches == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_one_batch_per_loop_iteration(self):
        base = diamond()
        variants = [base.with_timing(0.0, 400.0 + k) for k in range(4)]

        async def same_iteration(planner):
            await asyncio.gather(*(planner.plan(w, order_of(w), 24) for w in variants))

        async def successive_iterations(planner):
            tasks = []
            for w in variants:
                tasks.append(asyncio.ensure_future(planner.plan(w, order_of(w), 24)))
                await asyncio.sleep(0)
            await asyncio.gather(*tasks)

        together = BatchingPlanner(PlanCache())
        asyncio.run(same_iteration(together))
        assert (together.batches, together.batched_requests) == (1, 4)

        apart = BatchingPlanner(PlanCache())
        asyncio.run(successive_iterations(apart))
        assert (apart.batches, apart.batched_requests) == (4, 4)

    def test_cancelled_waiter_does_not_fail_its_fused_group(self):
        cache = PlanCache()
        planner = BatchingPlanner(cache)
        w = diamond()
        loop_errors = []

        async def go():
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: loop_errors.append(context)
            )
            gone = asyncio.ensure_future(planner.plan(w, order_of(w), 24))
            kept = asyncio.ensure_future(planner.plan(w, order_of(w), 24))
            await asyncio.sleep(0)  # both park; the flush is scheduled
            assert len(planner._pending) == 2
            gone.cancel()  # the client went away before the flush ran
            with pytest.raises(asyncio.CancelledError):
                await gone
            return await kept

        entry, outcome = asyncio.run(go())
        assert outcome == "miss"  # the surviving waiter led its group
        assert cache.misses == 1 and len(cache) == 1
        assert cache.lookup(w, order_of(w), 24, plan_cache_mode()) is entry
        assert planner.batched_requests == 1 and planner.fused == 0
        assert loop_errors == []


class TestOutcomes:
    def test_identical_concurrent_requests_fuse_to_one_build(self):
        cache = PlanCache()
        planner = BatchingPlanner(cache)
        w = diamond()
        results = plan_all(planner, [(w, 24)] * 4)
        outcomes = sorted(outcome for _entry, outcome in results)
        assert outcomes == ["fused", "fused", "fused", "miss"]
        assert cache.misses == 1 and len(cache) == 1
        entries = {id(entry[1]) for entry, _ in results}
        assert len(entries) == 1  # everyone got the same plan object

    def test_deadline_jittered_requests_share_one_problem(self):
        cache = PlanCache()
        tracer = DecisionTracer()
        planner = BatchingPlanner(cache, tracer=tracer)
        base = diamond()
        variants = [
            base.with_timing(0.0, 400.0 + k) for k in range(4)
        ]  # distinct relative deadlines -> distinct fingerprints
        results = plan_all(planner, [(w, 24) for w in variants])
        assert [outcome for _e, outcome in results] == ["miss"] * 4
        assert cache.misses == 4
        # One fusion group of four members -> three shared setups.
        assert planner.shared_setups == 3
        assert planner.fused == 0
        assert tracer.counter_table()["serve_batch"]["shared_setups"] == 3

    def test_different_structures_do_not_fuse(self):
        cache = PlanCache()
        planner = BatchingPlanner(cache)
        results = plan_all(planner, [(diamond(maps=8), 24), (diamond(maps=9), 24)])
        assert planner.shared_setups == 0
        assert cache.misses == 2

    def test_identical_miss_one_turn_later_hits_without_a_second_build(self):
        # The flush is synchronous and is the only build path, so the
        # first miss's entry is committed before a request issued one loop
        # turn later looks it up: no in-flight guard is needed.
        cache = PlanCache()
        planner = BatchingPlanner(cache)
        w = diamond()

        async def go():
            first = asyncio.ensure_future(planner.plan(w, order_of(w), 24))
            await asyncio.sleep(0)  # the first miss parks and schedules its flush
            second = asyncio.ensure_future(planner.plan(w, order_of(w), 24))
            return await asyncio.gather(first, second)

        (first_entry, first), (second_entry, second) = asyncio.run(go())
        assert [first, second] == ["miss", "hit"]
        assert second_entry is first_entry
        assert cache.misses == 1 and cache.hits == 1
        assert (planner.batches, planner.batched_requests) == (1, 1)


class TestErrorPropagation:
    def test_planner_failure_reaches_every_fused_requester(self, monkeypatch):
        cache = PlanCache()
        planner = BatchingPlanner(cache)
        w = diamond()

        def boom(*args, **kwargs):
            raise RuntimeError("planner blew up")

        monkeypatch.setattr("repro.serve.batching._plan_entry", boom)

        async def go():
            return await asyncio.gather(
                planner.plan(w, order_of(w), 24),
                planner.plan(w, order_of(w), 24),
                return_exceptions=True,
            )

        results = asyncio.run(go())
        assert len(results) == 2
        assert all(isinstance(r, RuntimeError) for r in results)
        assert len(cache) == 0 and cache.misses == 0  # DT303: no phantom state


class TestAccounting:
    def test_counter_table_feeds_metrics_collector(self):
        cache = PlanCache()
        planner = BatchingPlanner(cache)
        w = diamond()
        plan_all(planner, [(w, 24)] * 3)
        collector = MetricsCollector(ClusterConfig(num_nodes=1))
        table = collector.aggregate_counters(planner)
        assert table["serve_batch"] == {
            "batched_requests": 3,
            "batches": 1,
            "fused": 2,
            "shared_setups": 0,
        }

    def test_service_entries_collide_with_client_and_planner_entries(self):
        # One cache key owner: a batcher-built entry is a hit for both
        # WohaClient.generate_plan and make_planner on the same cache.
        cache = PlanCache()
        planner = BatchingPlanner(cache)
        w = diamond()
        [(entry, outcome)] = plan_all(planner, [(w, 24)])
        assert outcome == "miss"
        jobtracker = JobTracker(Simulator(), ClusterConfig(num_nodes=1), WohaScheduler())
        client = WohaClient(jobtracker, plan_cache=cache)
        assert client.generate_plan(w, total_slots=24) is entry[1]
        assert make_planner(plan_cache=cache)(w, 24) is entry[1]
        assert (cache.misses, cache.hits) == (1, 2)


def chain(name="etl", *, relative_deadline=600.0):
    return (
        WorkflowBuilder(name)
        .job("ingest", maps=10, reduces=3, map_s=9.0, reduce_s=21.0)
        .job("clean", maps=5, reduces=2, map_s=14.0, reduce_s=11.0, after=["ingest"])
        .job("report", maps=3, reduces=1, map_s=6.0, reduce_s=30.0, after=["clean"])
        .deadline(relative=relative_deadline)
        .build()
    )


class TestRetainedSetups:
    """Setups and finished plans outlive the flush (DESIGN.md §15)."""

    # Deadlines per structure: jitter around a feasible one, a loose one
    # and one no cap can meet.
    DEADLINES = (400.0, 401.0, 402.5, 900.0, 1.0)

    def _bursts(self):
        shapes = [diamond("d", maps=8), diamond("e", maps=9), chain("c")]
        requests = [
            (shape.with_timing(0.0, deadline), slots)
            for deadline in self.DEADLINES
            for slots in (24, 30)
            for shape in shapes  # interleaved: consecutive requests differ in structure
        ]
        half = len(requests) // 2
        return shapes, [requests[:half], requests[half:]]

    @pytest.mark.parametrize(
        "pool,cap_search",
        [("pooled", True), ("split", True), ("pooled", False), ("split", False)],
    )
    @pytest.mark.parametrize("capacity", [1, 256])
    def test_mixed_structures_across_flushes_match_the_direct_planner(
        self, pool, cap_search, capacity
    ):
        shapes, bursts = self._bursts()
        planner = BatchingPlanner(PlanCache(capacity=capacity))
        results = plan_flushes(planner, bursts, cap_search=cap_search, pool=pool)
        direct = make_planner("lpf", cap_search=cap_search, pool=pool)
        requests = bursts[0] + bursts[1]
        assert [outcome for _e, outcome in results] == ["miss"] * len(requests)
        for (w, slots), ((search, plan), _outcome) in zip(requests, results):
            assert plan.to_bytes() == direct(w, slots).to_bytes(), (w.name, w.deadline, slots)
            if cap_search:
                assert search.batches is None
            else:
                assert search is None
        assert any(not plan.feasible for (_s, plan), _o in results) == cap_search
        assert planner.batches == 2
        setups = planner.setup_table()
        assert setups["size"] <= capacity and setups["plans"] <= capacity
        if capacity > len(shapes):
            # One setup per structure, built in the first flush; every
            # other build, the whole second flush included, reused one.
            assert setups["size"] == len(shapes)
            assert planner.shared_setups == len(requests) - len(shapes)

    def test_reuse_is_counted_across_flushes(self):
        planner = BatchingPlanner(PlanCache())
        base = diamond()
        plan_flushes(planner, [[(base, 24)]])
        assert (planner.shared_setups, planner.setup_table()["size"]) == (0, 1)
        later = [(base.with_timing(0.0, 400.0 + k), 24) for k in (1, 2)]
        plan_flushes(planner, [later[:1], later[1:]])
        assert planner.batches == 3
        assert planner.shared_setups == 2  # one per later flush, none built
        assert planner.setup_table()["size"] == 1

    def test_equal_search_outcomes_share_one_plan_object(self):
        planner = BatchingPlanner(PlanCache())
        base = diamond()
        results = plan_flushes(planner, [
            [(base.with_timing(0.0, 400.0 + k), 24)] for k in range(3)
        ])
        (first, _), *rest = results
        assert all(entry[1] is first[1] for entry, _o in rest)
        assert len({entry[0] for entry, _o in results}) == 1  # same cap search outcome
        assert planner.setup_table() == {"size": 1, "plans": 1}

    @pytest.mark.parametrize("pool,met", [("pooled", 20.0), ("split", 30.0)])
    def test_feasibility_keeps_plans_at_one_cap_apart(self, pool, met):
        # 12 maps of 10 s on 6 slots: the full pool (6 pooled slots, or 4
        # split map slots) is the only cap that meets ``met`` and nothing
        # meets ``met - 0.5``, so both searches end at the full pool and
        # differ only in the feasibility bit.
        wide = WorkflowBuilder("wide").job("a", maps=12, reduces=0, map_s=10.0).build()
        requests = [(wide.with_timing(0.0, deadline), 6) for deadline in (met, met - 0.5)]
        planner = BatchingPlanner(PlanCache())
        results = plan_flushes(planner, [requests[:1], requests[1:]], pool=pool)
        plans = [plan for (_search, plan), _outcome in results]
        assert [plan.feasible for plan in plans] == [True, False]
        direct = make_planner("lpf", pool=pool)
        for (w, slots), plan in zip(requests, plans):
            assert plan.to_bytes() == direct(w, slots).to_bytes()

    def test_retained_setups_and_plans_stay_within_capacity(self):
        capacity, extra = 3, 4
        planner = BatchingPlanner(PlanCache(capacity=capacity))
        shapes = [diamond(f"s{i}", maps=2 + i) for i in range(capacity + extra)]
        for shape in shapes:
            plan_flushes(planner, [
                [(shape.with_timing(0.0, deadline), 24) for deadline in (60.0, 400.0, 1.0)]
            ])
            setups = planner.setup_table()
            assert setups["size"] <= capacity and setups["plans"] <= capacity

    def test_evicted_structure_rebuilds_identical_bytes(self):
        planner = BatchingPlanner(PlanCache(capacity=2))
        first, second, third = (diamond(f"s{i}", maps=5 + i) for i in range(3))
        plan_flushes(planner, [[(first, 24)], [(second, 24)], [(third, 24)]])
        assert planner.shared_setups == 0
        # ``first`` was evicted (from the setups and the plan cache alike):
        # a new deadline for it builds a fresh setup and the same bytes.
        again = first.with_timing(0.0, 401.0)
        [((_search, plan), outcome)] = plan_flushes(planner, [[(again, 24)]])
        assert outcome == "miss" and planner.shared_setups == 0
        assert plan.to_bytes() == make_planner("lpf")(again, 24).to_bytes()

    def test_fingerprint_computed_once_per_miss(self, monkeypatch):
        calls = []
        fingerprint = PlanCache.fingerprint

        def counting(*args, **kwargs):
            calls.append(args[0])
            return fingerprint(*args, **kwargs)

        monkeypatch.setattr(PlanCache, "fingerprint", staticmethod(counting))
        planner = BatchingPlanner(PlanCache())
        w = diamond()
        variants = [w.with_timing(0.0, 400.0 + k) for k in range(3)]
        plan_flushes(planner, [[(v, 24) for v in variants]])
        assert len(calls) == 3 and planner.cache.misses == 3
        plan_flushes(planner, [[(variants[0], 24)]])  # a hit: one lookup
        assert len(calls) == 4 and planner.cache.hits == 1
