"""A deterministic 1-2-3 skip list (Munro, Papadakis & Sedgewick, SODA '92).

The invariant: at every level ``l >= 1``, the *gap* between two horizontally
consecutive level-``l`` nodes — the number of level-``l-1`` nodes strictly
between their towers — never exceeds 3.  Searches therefore take at most 3
rightward steps per level, giving worst-case O(log n) search/insert/delete,
which is why the paper picks this structure over Pugh's probabilistic lists
for the master node's scheduler.

Implementation notes (documented deviations, none visible through the API):

* Insertion is the textbook top-down pass: before descending into a gap of
  size 3, raise the gap's middle element one level, exactly like top-down
  2-3-4-tree splitting.  The upper bound (<= 3) can then never break.
* Deletion unlinks the key's whole tower, then repairs *oversized* merged
  gaps bottom-up by raising middle elements.  Undersized (even empty) gaps
  are tolerated: an empty gap costs searches nothing — only the upper bound
  matters for the O(log) walk — at the price of the height being
  O(log n_max) in the maximum historical size rather than the live size.
  This keeps deletion simple (no borrow/merge cascade) while preserving
  every bound the scheduler relies on.
* **Head deletion is O(tower height) with no repair at all**: the head
  element's left gap is empty at every level, so removing its tower can
  only shrink gaps.  This is the cheap ``D^h`` operation the Double Skip
  List's complexity analysis (paper §IV-B) counts as O(1).
* :meth:`DeterministicSkipList.rekey` moves an entry to a new key with one
  search.  When the new key still falls strictly between the entry's
  level-0 neighbours it rewrites the key along the entry's tower in place:
  every level's order and every gap are unchanged, so nothing is unlinked
  or repaired.  Otherwise it unlinks the tower through the predecessors it
  already found and inserts under the new key — the worst case stays
  O(log n).  This is the Double Skip List's priority update.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.structures.base import OrderedMap

__all__ = ["DeterministicSkipList"]


class _PosInf:
    """Sentinel key greater than every real key."""

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return other is self

    def __gt__(self, other: Any) -> bool:
        return other is not self

    def __ge__(self, other: Any) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "+inf"


_POS_INF = _PosInf()


class _Node:
    __slots__ = ("key", "value", "right", "down")

    def __init__(self, key: Any, value: Any = None, right: "_Node" = None, down: "_Node" = None):
        self.key = key
        self.value = value
        self.right = right
        self.down = down

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Node({self.key!r})"


class DeterministicSkipList(OrderedMap):
    """1-2-3 deterministic skip list implementing :class:`OrderedMap`."""

    def __init__(self) -> None:
        self._tail = _Node(_POS_INF)
        self._tail.right = self._tail
        self._tail.down = self._tail
        # One head node per level, bottom (level 0) first.  The top level is
        # kept empty (head.right is tail) so raises at the current top have
        # somewhere to land.
        bottom = _Node(None, right=self._tail)
        self._heads: List[_Node] = [bottom]
        self._len = 0

    # -- internals ---------------------------------------------------------

    def _grow_if_needed(self) -> None:
        """Keep the invariant that the topmost level is empty."""
        while self._heads[-1].right is not self._tail:
            new_head = _Node(None, right=self._tail, down=self._heads[-1])
            self._heads.append(new_head)

    def _raise_middle(self, upper: _Node) -> _Node:
        """Raise the 2nd element of the gap right of ``upper`` one level up.

        Returns the newly created upper-level node.
        """
        first = upper.down.right
        second = first.right
        new_node = _Node(second.key, right=upper.right, down=second)
        upper.right = new_node
        return new_node

    # -- OrderedMap API ------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        if key is None:
            raise TypeError("None is not a valid key")
        # A duplicate key may only be detected after the top-down pass has
        # already split a gap; splits are always structurally safe, but the
        # empty-top invariant must be restored even on the error path.
        heads = self._heads
        try:
            # Pre-bound level-walk: ``right`` shadows ``x.right`` so the
            # rightward scan pays one attribute load per step, not two.
            x = heads[-1]
            level = len(heads) - 1
            while level > 0:
                right = x.right
                while right.key < key:
                    x = right
                    right = x.right
                if right.key == key:
                    raise KeyError(f"duplicate key {key!r}")
                # Top-down split: never descend into a full gap, i.e. one
                # with >= 3 level-below nodes strictly between the towers of
                # ``x`` and ``right`` (tower nodes are linked by ``down``, so
                # identity marks the gap's end; the tail's ``down`` is the
                # tail).
                stop = right.down
                node = x.down.right
                if node is not stop and node.right is not stop and node.right.right is not stop:
                    raised = self._raise_middle(x)
                    if raised.key < key:
                        x = raised
                    elif raised.key == key:
                        raise KeyError(f"duplicate key {key!r}")
                x = x.down
                level -= 1
            right = x.right
            while right.key < key:
                x = right
                right = x.right
            if right.key == key:
                raise KeyError(f"duplicate key {key!r}")
            x.right = _Node(key, value=value, right=right)
            self._len += 1
        finally:
            self._grow_if_needed()

    def delete(self, key: Any) -> Any:
        preds = self._find_preds(key)
        victim = preds[0].right
        if victim.key != key:
            raise KeyError(key)
        self._unlink(preds, victim)
        return victim.value

    def rekey(self, old_key: Any, new_key: Any, value: Any) -> None:
        """Move ``old_key``'s entry to ``new_key`` with one search: in place
        when it keeps its level-0 neighbours, else unlink + insert."""
        if new_key is None:
            raise TypeError("None is not a valid key")
        preds = self._find_preds(old_key)
        pred = preds[0]
        victim = pred.right
        if victim.key != old_key:
            raise KeyError(old_key)
        succ = victim.right
        if (pred is self._heads[0] or pred.key < new_key) and (
            succ is self._tail or new_key < succ.key
        ):
            # Same neighbours at level 0, hence at every level it reaches:
            # rewrite the tower's keys bottom up, nothing is relinked.
            victim.key = new_key
            victim.value = value
            below = victim
            # Climbs the tower: O(log n_max) iterations.
            for level in range(1, len(preds)):
                node = preds[level].right
                if node.down is not below:
                    break
                node.key = new_key
                below = node
            return
        old_value = victim.value
        self._unlink(preds, victim)
        try:
            self.insert(new_key, value)
        except (KeyError, TypeError):
            # ``new_key`` is taken or incomparable: put the entry back.
            self.insert(old_key, old_value)
            raise

    def _unlink(self, preds: List[_Node], victim: _Node) -> None:
        """Remove ``victim``'s tower given its per-level predecessors, then
        repair the gaps the removal merged."""
        heads = self._heads  # grown/shrunk in place, never rebound
        # Unlink the tower, bottom up, stopping at the first level it does
        # not reach: O(tower height) iterations.
        preds[0].right = victim.right
        below = victim
        tower_top = 0
        for level in range(1, len(preds)):
            pred = preds[level]
            node = pred.right
            if node.down is not below:
                break
            pred.right = node.right
            below = node
            tower_top = level
        self._len -= 1
        # Repair oversized merged gaps (> 3 level-below nodes) bottom-up.
        # Level l's repair can grow the gap at l+1, so keep going while
        # changes happen below.  A raise into the empty top level makes the
        # next iteration grow a fresh one.  The head's tower has an empty
        # gap on its left at every level, so removing it grows no gap.
        last = 0 if preds[0] is heads[0] else tower_top + 1
        level = 1
        dirty_below = last > 0
        while level <= last or dirty_below:
            if level >= len(heads):
                self._grow_if_needed()
                if level >= len(heads):
                    break
            pred = preds[level] if level < len(preds) else heads[level]
            dirty_below = False
            while True:
                stop = pred.right.down
                node = pred.down.right
                if (
                    node is stop
                    or node.right is stop
                    or node.right.right is stop
                    or node.right.right.right is stop
                ):
                    break
                pred = self._raise_middle(pred)
                dirty_below = True
            level += 1
        # Only a tower whose top level it leaves empty lowers the height
        # (every level above an empty one is empty too).
        if heads[tower_top].right is self._tail:
            self._shrink()

    def _find_preds(self, key: Any) -> List[_Node]:
        """Per-level strict predecessors of ``key``, bottom first."""
        heads = self._heads
        preds: List[_Node] = [None] * len(heads)
        x = heads[-1]
        # Descends one level per iteration: O(log n_max) iterations.
        for level in range(len(heads) - 1, -1, -1):
            right = x.right
            while right.key < key:
                x = right
                right = x.right
            preds[level] = x
            if level > 0:
                x = x.down
        return preds

    def _shrink(self) -> None:
        """Drop empty levels above the first (keeping one empty top)."""
        while len(self._heads) > 1 and self._heads[-1].right is self._tail and self._heads[-2].right is self._tail:
            self._heads.pop()

    def peek_head(self) -> Optional[Tuple[Any, Any]]:
        first = self._heads[0].right
        if first is self._tail:
            return None
        return first.key, first.value

    def pop_head(self) -> Tuple[Any, Any]:
        heads = self._heads
        first = heads[0].right
        if first is self._tail:
            raise KeyError("pop_head from empty skip list")
        key, value = first.key, first.value
        # The head tower is head.right at every level it reaches; its left
        # gaps are all empty, so unlinking cannot oversize anything.  One
        # step per level: O(log n_max) iterations.
        for head in heads:
            if head.right.key == key:
                head.right = head.right.right
            else:
                break
        self._len -= 1
        self._shrink()
        return key, value

    def find(self, key: Any) -> Any:
        heads = self._heads
        x = heads[-1]
        # Descends one level per iteration: O(log n_max) iterations.
        for level in range(len(heads) - 1, -1, -1):
            right = x.right
            while right.key < key:
                x = right
                right = x.right
            if right.key == key and level == 0:
                return right.value
            if level > 0:
                x = x.down
        raise KeyError(key)

    def __len__(self) -> int:
        return self._len

    def items(self) -> Iterator[Tuple[Any, Any]]:
        node = self._heads[0].right
        while node is not self._tail:
            yield node.key, node.value
            node = node.right

    # -- verification (used heavily by tests) --------------------------------

    @property
    def height(self) -> int:
        """Number of levels, including the empty top."""
        return len(self._heads)

    def check_invariants(self) -> None:
        """Assert structural soundness; raises ``AssertionError`` on breakage.

        Checks: ascending unique keys at level 0; every upper-level node has
        a down pointer to a same-keyed node one level below; every gap at
        levels >= 1 has at most 3 elements; the recorded length matches.
        """
        # Level 0 ordering.
        keys = [key for key, _ in self.items()]
        assert len(keys) == self._len, f"len mismatch: {len(keys)} vs {self._len}"
        for a, b in zip(keys, keys[1:]):
            assert a < b, f"level 0 not strictly ascending at {a!r} >= {b!r}"
        # Tower consistency + gap bound per level.
        for level in range(1, len(self._heads)):
            node = self._heads[level].right
            below_keys = self._level_keys(level - 1)
            prev_key = None
            while node is not self._tail:
                assert node.down.key == node.key, f"tower broken at {node.key!r}"
                node = node.right
            # Gap bound: walk upper level, counting lower-level keys between.
            upper_keys = self._level_keys(level)
            bounds = [None] + upper_keys + [None]
            idx = 0
            for i in range(len(bounds) - 1):
                lo, hi = bounds[i], bounds[i + 1]
                count = 0
                while idx < len(below_keys) and (hi is None or below_keys[idx] < hi):
                    if below_keys[idx] != lo:
                        count += 1
                    idx += 1
                assert count <= 3, f"gap of {count} at level {level} below ({lo!r}, {hi!r})"
        assert self._heads[-1].right is self._tail, "top level is not empty"

    def _level_keys(self, level: int) -> List[Any]:
        node = self._heads[level].right
        keys = []
        while node is not self._tail:
            keys.append(node.key)
            node = node.right
        return keys
