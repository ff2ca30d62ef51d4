"""No-op-reorder elision and key caching.

The DSL update paths skip the remove+reinsert churn when the new key equals
the old one.  Elision must be *invisible*: any op sequence replayed against
the production DSL and the always-churning oracle of
:class:`tests.reference_woha.ChurningDoubleSkipList` has to leave both
orderings identical, and a whole scheduler run on top of the eliding queue
has to emit byte-identical decision traces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation
from repro.experiments.runner import _make_stack
from repro.experiments.scenarios import yahoo_scenario
from repro.structures.dsl import DoubleEntry, DoubleSkipList

from tests.reference_woha import ChurningDoubleSkipList


def snapshot(dsl):
    """Both orderings, with the keys the lists actually filed entries under."""
    return (
        [(e.item_id, e.ct_key, e.priority_key) for e in dsl.iter_by_ct()],
        [(e.item_id, e.ct_key, e.priority_key) for e in dsl.iter_by_priority()],
    )


# Small value pools on purpose: collisions are what make updates no-ops,
# and no-ops are the behavior under test.
_VALUES = st.integers(-3, 3)


@given(
    st.lists(st.tuples(st.integers(0, 12), _VALUES, _VALUES), max_size=80),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_elision_on_and_off_keep_identical_orders(ops, data):
    eliding = DoubleSkipList()
    plain = ChurningDoubleSkipList()
    live = set()
    for item, priority, ct in ops:
        choice = data.draw(
            st.sampled_from(["insert", "remove", "upd_p", "upd_ct", "upd_head", "same_p", "same_ct"])
        )
        key = f"i{item}"
        if choice == "insert" and key not in live:
            for dsl in (eliding, plain):
                dsl.insert(key, ct=float(ct), priority=float(priority))
            live.add(key)
        elif choice == "remove" and live:
            victim = data.draw(st.sampled_from(sorted(live)))
            for dsl in (eliding, plain):
                dsl.remove(victim)
            live.discard(victim)
        elif choice == "upd_p" and live:
            victim = data.draw(st.sampled_from(sorted(live)))
            for dsl in (eliding, plain):
                dsl.update_priority(victim, float(priority))
        elif choice == "upd_ct" and live:
            victim = data.draw(st.sampled_from(sorted(live)))
            for dsl in (eliding, plain):
                dsl.update_ct(victim, float(ct))
        elif choice == "upd_head" and live:
            for dsl in (eliding, plain):
                dsl.update_head_ct(float(ct), float(priority))
        elif choice == "same_p" and live:
            # A guaranteed no-op: rewrite the current priority verbatim.
            victim = data.draw(st.sampled_from(sorted(live)))
            for dsl in (eliding, plain):
                dsl.update_priority(victim, dsl.get(victim).priority)
        elif choice == "same_ct" and live:
            victim = data.draw(st.sampled_from(sorted(live)))
            for dsl in (eliding, plain):
                dsl.update_ct(victim, dsl.get(victim).ct)
        assert snapshot(eliding) == snapshot(plain)
    eliding.check_invariants()
    plain.check_invariants()


def test_fully_elided_head_update_touches_nothing():
    dsl = DoubleSkipList()
    dsl.insert("a", ct=1.0, priority=2.0)
    dsl.insert("b", ct=5.0, priority=9.0)
    entry = dsl.get("a")
    before = snapshot(dsl)
    assert dsl.update_head_ct(1.0, 2.0) is entry
    assert dsl.update_priority("a", 2.0) is entry
    assert dsl.update_ct("a", 1.0) is entry
    assert snapshot(dsl) == before
    dsl.check_invariants()


def test_cached_keys_track_setters():
    entry = DoubleEntry("w", ct=3.0, priority=4.0)
    assert entry.ct_key == (3.0, "w")
    assert entry.priority_key == (-4.0, "w")
    entry.ct = 7.5
    entry.priority = -1.0
    assert entry.ct == 7.5 and entry.priority == -1.0
    assert entry.ct_key == (7.5, "w")
    assert entry.priority_key == (1.0, "w")


def _traced_run(elide: bool) -> str:
    workflows, _ = yahoo_scenario(seed=7, scale=0.05)
    scheduler, mode, planner = _make_stack("woha-lpf")
    # The queue is empty until the first submission, so swapping in the
    # churning twin before the run is equivalent to building it that way.
    if not elide:
        scheduler._queue = ChurningDoubleSkipList()
    config = ClusterConfig(num_nodes=4, heartbeat_interval=3.0)
    sim = ClusterSimulation(config, scheduler, submission=mode, planner=planner, trace=True)
    sim.add_workflows(workflows)
    result = sim.run()
    return result.tracer.dumps_jsonl()


def test_scheduler_traces_byte_identical_with_and_without_elision():
    assert _traced_run(elide=True) == _traced_run(elide=False)
