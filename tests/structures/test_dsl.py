"""Unit + property tests for the Double Skip List (paper §IV-B)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.avl import AvlTree
from repro.structures.dsl import DoubleSkipList
from repro.structures.skiplist import DeterministicSkipList

BACKENDS = [DeterministicSkipList, AvlTree]


@pytest.fixture(params=BACKENDS, ids=lambda c: c.__name__)
def dsl(request):
    return DoubleSkipList(map_factory=request.param)


class TestBasics:
    def test_insert_and_heads(self, dsl):
        dsl.insert("w1", ct=10.0, priority=5.0)
        dsl.insert("w2", ct=3.0, priority=1.0)
        dsl.insert("w3", ct=7.0, priority=9.0)
        assert dsl.head_by_ct().item_id == "w2"       # soonest change
        assert dsl.head_by_priority().item_id == "w3"  # largest lag
        assert len(dsl) == 3
        dsl.check_invariants()

    def test_duplicate_item_rejected(self, dsl):
        dsl.insert("w", ct=1.0, priority=1.0)
        with pytest.raises(KeyError):
            dsl.insert("w", ct=2.0, priority=2.0)

    def test_remove_clears_both_lists(self, dsl):
        dsl.insert("w1", ct=1.0, priority=1.0)
        dsl.insert("w2", ct=2.0, priority=2.0)
        dsl.remove("w1")
        assert "w1" not in dsl
        assert dsl.head_by_ct().item_id == "w2"
        assert dsl.head_by_priority().item_id == "w2"
        dsl.check_invariants()

    def test_priority_ties_break_by_id(self, dsl):
        dsl.insert("b", ct=1.0, priority=5.0)
        dsl.insert("a", ct=2.0, priority=5.0)
        assert dsl.head_by_priority().item_id == "a"

    def test_iter_by_priority_descending(self, dsl):
        for i, p in enumerate([3.0, 9.0, 1.0, 7.0]):
            dsl.insert(f"w{i}", ct=float(i), priority=p)
        priorities = [e.priority for e in dsl.iter_by_priority()]
        assert priorities == sorted(priorities, reverse=True)

    def test_iter_by_ct_ascending(self, dsl):
        for i, ct in enumerate([3.0, 9.0, 1.0, 7.0]):
            dsl.insert(f"w{i}", ct=ct, priority=float(i))
        cts = [e.ct for e in dsl.iter_by_ct()]
        assert cts == sorted(cts)


class TestUpdates:
    def test_update_head_ct_repositions_both(self, dsl):
        dsl.insert("w1", ct=1.0, priority=0.0)
        dsl.insert("w2", ct=5.0, priority=3.0)
        entry = dsl.update_head_ct(new_ct=9.0, new_priority=10.0)
        assert entry.item_id == "w1"
        assert dsl.head_by_ct().item_id == "w2"
        assert dsl.head_by_priority().item_id == "w1"
        dsl.check_invariants()

    def test_update_priority_only_moves_priority_list(self, dsl):
        dsl.insert("w1", ct=1.0, priority=5.0)
        dsl.insert("w2", ct=2.0, priority=3.0)
        dsl.update_priority("w1", 1.0)
        assert dsl.head_by_priority().item_id == "w2"
        assert dsl.head_by_ct().item_id == "w1"  # ct untouched
        dsl.check_invariants()

    def test_update_priority_of_non_head(self, dsl):
        dsl.insert("w1", ct=1.0, priority=5.0)
        dsl.insert("w2", ct=2.0, priority=3.0)
        dsl.update_priority("w2", 9.0)
        assert dsl.head_by_priority().item_id == "w2"
        dsl.check_invariants()

    def test_update_ct_only_moves_ct_list(self, dsl):
        dsl.insert("w1", ct=1.0, priority=5.0)
        dsl.insert("w2", ct=2.0, priority=3.0)
        dsl.update_ct("w1", 10.0)
        assert dsl.head_by_ct().item_id == "w2"
        assert dsl.head_by_priority().item_id == "w1"
        dsl.check_invariants()

    def test_missing_item_raises(self, dsl):
        with pytest.raises(KeyError):
            dsl.remove("ghost")
        with pytest.raises(KeyError):
            dsl.update_priority("ghost", 1.0)


class TestAlgorithm2Walk:
    """The scheduler's canonical usage pattern: drain fired ct-heads, then
    serve and reposition the priority head."""

    def test_ct_walk_until_future(self, dsl):
        for i, ct in enumerate([1.0, 2.0, 8.0]):
            dsl.insert(f"w{i}", ct=ct, priority=float(i))
        now = 5.0
        fired = []
        while dsl.head_by_ct() is not None and dsl.head_by_ct().ct <= now:
            entry = dsl.head_by_ct()
            fired.append(entry.item_id)
            dsl.update_head_ct(new_ct=now + 100.0, new_priority=entry.priority + 1)
        assert fired == ["w0", "w1"]
        assert dsl.head_by_ct().item_id == "w2"
        dsl.check_invariants()

    def test_serve_head_decrement_reinsert(self, dsl):
        dsl.insert("big", ct=100.0, priority=10.0)
        dsl.insert("small", ct=100.0, priority=9.0)
        served = []
        for _ in range(4):
            head = dsl.head_by_priority()
            served.append(head.item_id)
            dsl.update_priority(head.item_id, head.priority - 1)
        # big is served twice until its lag matches, then they alternate
        # (ties break toward "big" alphabetically).
        assert served[0] == "big"
        assert set(served) == {"big", "small"}
        dsl.check_invariants()


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(-20, 20), st.integers(0, 100)), max_size=60), st.data())
@settings(max_examples=80, deadline=None)
def test_dsl_property_random_ops(ops, data):
    """DSL stays consistent with a dict model under random op sequences."""
    dsl = DoubleSkipList()
    model = {}
    for item, priority, ct in ops:
        choice = data.draw(st.sampled_from(["insert", "remove", "upd_p", "upd_ct", "head"]))
        key = f"i{item}"
        if choice == "insert" and key not in model:
            dsl.insert(key, ct=float(ct), priority=float(priority))
            model[key] = (float(ct), float(priority))
        elif choice == "remove" and model:
            victim = data.draw(st.sampled_from(sorted(model)))
            dsl.remove(victim)
            del model[victim]
        elif choice == "upd_p" and model:
            victim = data.draw(st.sampled_from(sorted(model)))
            dsl.update_priority(victim, float(priority))
            model[victim] = (model[victim][0], float(priority))
        elif choice == "upd_ct" and model:
            victim = data.draw(st.sampled_from(sorted(model)))
            dsl.update_ct(victim, float(ct))
            model[victim] = (float(ct), model[victim][1])
        elif choice == "head" and model:
            expect_ct = min(model.items(), key=lambda kv: (kv[1][0], kv[0]))[0]
            expect_p = min(model.items(), key=lambda kv: (-kv[1][1], kv[0]))[0]
            assert dsl.head_by_ct().item_id == expect_ct
            assert dsl.head_by_priority().item_id == expect_p
        assert len(dsl) == len(model)
    dsl.check_invariants()
