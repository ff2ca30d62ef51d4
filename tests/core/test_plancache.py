"""Unit tests for the recurrence-aware plan cache (DESIGN.md §6)."""

import weakref

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.client import make_planner
from repro.core.plancache import PlanCache
from repro.metrics.collector import MetricsCollector
from repro.trace import DecisionTracer
from repro.workflow.builder import WorkflowBuilder
from repro.workloads.recurrence import Recurrence, expand_recurrences


def diamond(name="wf", *, maps=8, map_s=10.0, relative_deadline=400.0):
    return (
        WorkflowBuilder(name)
        .job("extract", maps=maps, reduces=2, map_s=map_s, reduce_s=15.0)
        .job("left", maps=4, reduces=1, map_s=8.0, reduce_s=9.0, after=["extract"])
        .job("right", maps=6, reduces=0, map_s=12.0, after=["extract"])
        .job("load", maps=2, reduces=1, map_s=5.0, reduce_s=20.0, after=["left", "right"])
        .deadline(relative=relative_deadline)
        .build()
    )


class TestAccounting:
    def test_miss_then_hit(self):
        cache = PlanCache()
        planner = make_planner("lpf", plan_cache=cache)
        w = diamond()
        planner(w, 24)
        assert (cache.hits, cache.misses) == (0, 1)
        planner(w, 24)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1
        assert cache.hit_ratio == 0.5

    def test_hit_ratio_zero_before_first_lookup(self):
        assert PlanCache().hit_ratio == 0.0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_counter_table_feeds_metrics_collector(self):
        cache = PlanCache()
        planner = make_planner("lpf", plan_cache=cache)
        planner(diamond(), 24)
        planner(diamond(), 24)
        collector = MetricsCollector(ClusterConfig(num_nodes=1))
        table = collector.aggregate_counters(cache)
        assert table["plan_cache"] == {"evictions": 0, "hits": 1, "misses": 1}

    def test_tracer_mirrors_events(self):
        tracer = DecisionTracer()
        cache = PlanCache(capacity=1, tracer=tracer)
        planner = make_planner("lpf", plan_cache=cache)
        planner(diamond(), 24)
        planner(diamond(), 24)
        planner(diamond(maps=9), 24)  # second distinct problem: miss + eviction
        counters = tracer.counter_table()["plan_cache"]
        assert counters == {"hits": 1, "misses": 2, "evictions": 1}

    def test_raising_build_leaves_cache_untouched(self):
        # DT303 regression: a planner that raises mid-build must not leave
        # a phantom miss count or a dangling entry behind.
        cache = PlanCache()
        w = diamond()

        def explode():
            raise RuntimeError("planner blew up")

        with pytest.raises(RuntimeError):
            cache.get_or_build(w, ("extract",), 24, ("lpf",), explode)
        assert (len(cache), cache.hits, cache.misses, cache.evictions) == (0, 0, 0, 0)
        assert cache.counter_table()["plan_cache"]["misses"] == 0

    def test_clear_resets(self):
        cache = PlanCache()
        planner = make_planner("lpf", plan_cache=cache)
        planner(diamond(), 24)
        cache.clear()
        assert (len(cache), cache.hits, cache.misses, cache.evictions) == (0, 0, 0, 0)


class TestPrecomputedKey:
    def test_key_argument_stands_in_for_the_fingerprint(self):
        cache = PlanCache()
        w = diamond()
        order = ("extract", "left", "right", "load")
        key = PlanCache.fingerprint(w, order, 24, ("lpf",))
        entry = (None, make_planner("lpf")(w, 24))
        assert cache.lookup(w, order, 24, ("lpf",), key=key) is None
        assert cache.get_or_build(w, order, 24, ("lpf",), lambda: entry, key=key) is entry
        # Keyed and unkeyed calls address the same slot.
        assert cache.lookup(w, order, 24, ("lpf",)) is entry
        assert cache.get_or_build(w, order, 24, ("lpf",), lambda: None) is entry
        assert (cache.misses, cache.hits, len(cache)) == (1, 2, 1)


class TestStructureMemo:
    ORDER = ("extract", "left", "right", "load")

    def test_second_fingerprint_of_one_object_reuses_the_structure(self):
        w = diamond()
        first = PlanCache.fingerprint(w, self.ORDER, 24, ("lpf",))
        second = PlanCache.fingerprint(w, self.ORDER, 48, ("lpf",))
        assert second[0] is first[0]
        assert first[1:] != second[1:]

    def test_equal_but_distinct_workflow_gives_an_equal_key(self):
        a, b = diamond("a"), diamond("b")
        key_a = PlanCache.fingerprint(a, self.ORDER, 24, ("lpf",))
        key_b = PlanCache.fingerprint(b, self.ORDER, 24, ("lpf",))
        assert key_a == key_b and hash(key_a) == hash(key_b)
        assert key_a[0] is not key_b[0]

    def test_memo_does_not_outlive_the_workflow(self):
        # The structure lives in the workflow's own memo: no module-level
        # table holds the workflow, so dropping it frees it.
        w = diamond()
        PlanCache.fingerprint(w, self.ORDER, 24)
        ref = weakref.ref(w)
        del w
        assert ref() is None


class TestLru:
    def test_eviction_order_is_least_recently_used(self):
        cache = PlanCache(capacity=2)
        planner = make_planner("lpf", plan_cache=cache)
        a, b, c = diamond(maps=4), diamond(maps=5), diamond(maps=6)
        planner(a, 24)
        planner(b, 24)
        planner(a, 24)  # refresh a; b is now the LRU entry
        planner(c, 24)  # evicts b
        assert cache.evictions == 1
        hits_before = cache.hits
        planner(a, 24)
        planner(c, 24)
        assert cache.hits == hits_before + 2
        planner(b, 24)  # must be a miss again
        assert cache.misses == 4


class TestRecurrence:
    def test_dated_instances_share_one_entry(self):
        cache = PlanCache()
        planner = make_planner("lpf", plan_cache=cache)
        instances = expand_recurrences(diamond(), Recurrence(period=600.0, count=20))
        plans = [planner(w, 24) for w in instances]
        assert (cache.misses, cache.hits) == (1, 19)
        assert len(cache) == 1
        first = plans[0].to_bytes()
        assert all(p.to_bytes() == first for p in plans)

    def test_absolute_timing_does_not_enter_the_key(self):
        w = diamond()
        shifted = w.renamed("wf@later").with_timing(submit_time=10_000.0, deadline=10_400.0)
        assert PlanCache.fingerprint(w, w.topological_order(), 24) == PlanCache.fingerprint(
            shifted, shifted.topological_order(), 24
        )


class TestEquivalence:
    @pytest.mark.parametrize("pool", ["pooled", "split"])
    @pytest.mark.parametrize("cap_search", [True, False])
    def test_cached_plans_byte_identical_to_uncached(self, pool, cap_search):
        cache = PlanCache()
        cached = make_planner("lpf", cap_search=cap_search, pool=pool, plan_cache=cache)
        plain = make_planner("lpf", cap_search=cap_search, pool=pool)
        w = diamond()
        for _ in range(2):  # second call is served from the cache
            assert cached(w, 24).to_bytes() == plain(w, 24).to_bytes()
        assert cache.hits == 1

    def test_pool_and_cap_search_config_partition_the_cache(self):
        cache = PlanCache()
        w = diamond()
        for pool in ("pooled", "split"):
            for cap_search in (True, False):
                make_planner("lpf", cap_search=cap_search, pool=pool, plan_cache=cache)(w, 24)
        assert (cache.misses, cache.hits) == (4, 0)


class TestMutationsMiss:
    """Any input the planning pipeline reads must invalidate the key."""

    def _misses(self, first, second, slots=(24, 24)):
        cache = PlanCache()
        planner = make_planner("lpf", plan_cache=cache)
        planner(first, slots[0])
        planner(second, slots[1])
        return cache.misses

    def test_changed_map_count(self):
        assert self._misses(diamond(), diamond(maps=9)) == 2

    def test_changed_duration(self):
        assert self._misses(diamond(), diamond(map_s=11.0)) == 2

    def test_changed_relative_deadline(self):
        assert self._misses(diamond(), diamond(relative_deadline=500.0)) == 2

    def test_changed_slot_count(self):
        assert self._misses(diamond(), diamond(), slots=(24, 32)) == 2

    def test_renaming_alone_hits(self):
        """The workflow *name* is presentation, not structure."""
        assert self._misses(diamond(), diamond().renamed("other")) == 1
