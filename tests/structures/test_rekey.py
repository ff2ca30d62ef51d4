"""``OrderedMap.rekey`` on both queue back-ends, against a sorted-list oracle.

The deterministic skip list overrides ``rekey`` with an in-place rewrite of
the entry's tower when the new key keeps the entry's neighbours, falling
back to unlink + insert otherwise; the AVL tree inherits the delete +
insert default.  Each back-end must leave the same ordering as the oracle
and pass its structural checks after every operation, and a failed re-key
must leave the structure exactly as it was.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.avl import AvlTree
from repro.structures.skiplist import DeterministicSkipList

BACKENDS = [DeterministicSkipList, AvlTree]
IDS = ["dsl", "bst"]


def build(factory, keys):
    m = factory()
    for key in keys:
        m.insert(key, f"v{key}")
    m.check_invariants()
    return m


def oracle_rekey(oracle, old_key, new_key, value):
    """The sorted-list oracle: a list of (key, value) pairs."""
    pairs = dict(oracle)
    if old_key not in pairs or (new_key != old_key and new_key in pairs):
        raise KeyError(old_key)
    del pairs[old_key]
    pairs[new_key] = value
    return sorted(pairs.items())


def moves(keys):
    """Named re-keys of the middle entry of an ascending key list (step 10)."""
    mid = keys[len(keys) // 2]
    return {
        "in_place": (mid, mid + 3),
        "past_neighbour": (mid, mid + 15),
        "to_head": (mid, keys[0] - 5),
        "to_tail": (mid, keys[-1] + 5),
        "head_in_place": (keys[0], keys[0] + 1),
        "tail_in_place": (keys[-1], keys[-1] + 1),
        "same_key": (mid, mid),
    }


@pytest.mark.parametrize("factory", BACKENDS, ids=IDS)
@pytest.mark.parametrize("size", [1, 2, 5, 40])
@pytest.mark.parametrize(
    "move", ["in_place", "past_neighbour", "to_head", "to_tail", "head_in_place",
             "tail_in_place", "same_key"]
)
def test_named_moves(factory, size, move):
    keys = list(range(0, 10 * size, 10))
    m = build(factory, keys)
    old_key, new_key = moves(keys)[move]
    m.rekey(old_key, new_key, "moved")
    expected = oracle_rekey([(k, f"v{k}") for k in keys], old_key, new_key, "moved")
    assert list(m.items()) == expected
    assert m.find(new_key) == "moved"
    m.check_invariants()
    assert len(m) == size


@pytest.mark.parametrize("factory", BACKENDS, ids=IDS)
def test_missing_key_raises_and_changes_nothing(factory):
    m = build(factory, range(0, 200, 10))
    before = list(m.items())
    with pytest.raises(KeyError):
        m.rekey(55, 57, "x")
    assert list(m.items()) == before
    m.check_invariants()
    with pytest.raises(KeyError):
        factory().rekey(1, 2, "x")


@pytest.mark.parametrize("factory", BACKENDS, ids=IDS)
def test_taken_key_raises_and_changes_nothing(factory):
    m = build(factory, range(0, 200, 10))
    before = list(m.items())
    with pytest.raises(KeyError):
        m.rekey(50, 120, "x")  # falls back to unlink + insert, then collides
    with pytest.raises(KeyError):
        m.rekey(50, 60, "x")  # the right neighbour's own key
    assert list(m.items()) == before
    assert len(m) == len(before)
    m.check_invariants()


def test_in_place_rekey_keeps_the_skip_list_shape():
    m = build(DeterministicSkipList, range(0, 400, 10))
    shape = [m._level_keys(level) for level in range(m.height)]
    m.rekey(200, 205, "moved")
    after = [m._level_keys(level) for level in range(m.height)]
    assert after == [[205 if k == 200 else k for k in level] for level in shape]
    m.check_invariants()


# Keys are drawn from a small pool so moves collide with live keys, land
# between neighbours, and jump past them.
_KEYS = st.integers(0, 60)


@pytest.mark.parametrize("factory", BACKENDS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(_KEYS, unique=True, max_size=30),
    ops=st.lists(st.tuples(st.sampled_from(["rekey", "insert", "delete", "pop"]), _KEYS, _KEYS),
                 max_size=60),
)
def test_rekey_matches_sorted_list_oracle(factory, initial, ops):
    m = factory()
    oracle = []
    for key in initial:
        m.insert(key, f"v{key}")
        oracle = sorted(oracle + [(key, f"v{key}")])
    for step, (op, a, b) in enumerate(ops):
        live = [k for k, _ in oracle]
        if op == "rekey":
            # Half the time re-key a live entry, so moves are not mostly misses.
            old_key = live[a % len(live)] if live and a % 2 else a
            value = f"r{step}"
            try:
                expected = oracle_rekey(oracle, old_key, b, value)
            except KeyError:
                with pytest.raises(KeyError):
                    m.rekey(old_key, b, value)
            else:
                m.rekey(old_key, b, value)
                oracle = expected
        elif op == "insert" and a not in live:
            m.insert(a, f"i{step}")
            oracle = sorted(oracle + [(a, f"i{step}")])
        elif op == "delete" and a in live:
            assert m.delete(a) == dict(oracle)[a]
            oracle = [(k, v) for k, v in oracle if k != a]
        elif op == "pop" and oracle:
            assert m.pop_head() == oracle[0]
            oracle = oracle[1:]
        assert list(m.items()) == oracle
        assert len(m) == len(oracle)
        m.check_invariants()
