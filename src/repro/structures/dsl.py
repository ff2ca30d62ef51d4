"""The Double Skip List of paper §IV-B.

Two cross-linked ordered lists over the same set of workflows:

* the **ct list**, ordered by each workflow's next progress-requirement
  change time (``W_h.t``), ascending — the scheduler walks its head to find
  workflows whose requirement just changed;
* the **priority list**, ordered by current inter-workflow priority
  (``W_h.p = F_h(ttd) - rho_h``, the progress *lag*), highest first — its
  head is the workflow to serve next.

The cross-link is the shared :class:`DoubleEntry`: deleting a workflow from
one list hands you everything needed to find it in the other in O(1), which
is what makes Algorithm 2's head-walk cheap.  Both constituent lists default
to :class:`~repro.structures.skiplist.DeterministicSkipList` (the "DSL" of
Fig 13a) but accept any :class:`~repro.structures.base.OrderedMap` factory,
giving the BST variant of the same figure for free.

Key layout: ct keys are ``(ct, item_id)`` and priority keys
``(-priority, item_id)`` — the id component breaks ties deterministically,
and negation turns "largest lag first" into the maps' ascending order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.analysis.contracts import NULL_CONTRACTS
from repro.structures.base import OrderedMap
from repro.structures.skiplist import DeterministicSkipList

__all__ = ["DoubleEntry", "DoubleSkipList"]

#: The entry of an ordered map's ``(key, entry)`` item.
_VALUE = itemgetter(1)


class DoubleEntry:
    """One workflow's node pair, shared by both lists.

    ``ct_key``/``priority_key`` are *cached* tuples, not derived per read:
    every comparison inside a skip-list walk touches them, so the hot path
    pays a slot load instead of a property call plus tuple allocation.  The
    ``ct``/``priority`` setters keep the caches coherent — which also
    preserves the contract layer's corruption story: a test that assigns
    ``entry.ct = x`` behind the list's back refreshes ``ct_key`` while the
    list still files the entry under the old tuple, and the very next
    ``check_dsl`` sees the mismatch.
    """

    __slots__ = ("item_id", "payload", "_ct", "_priority", "ct_key", "priority_key")

    def __init__(self, item_id: Any, ct: float, priority: float, payload: Any = None) -> None:
        self.item_id = item_id
        self.payload = payload
        self._ct = ct
        self._priority = priority
        self.ct_key: Tuple[float, Any] = (ct, item_id)
        self.priority_key: Tuple[float, Any] = (-priority, item_id)

    @property
    def ct(self) -> float:
        return self._ct

    @ct.setter
    def ct(self, value: float) -> None:
        self._ct = value
        self.ct_key = (value, self.item_id)

    @property
    def priority(self) -> float:
        return self._priority

    @priority.setter
    def priority(self, value: float) -> None:
        self._priority = value
        self.priority_key = (-value, self.item_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DoubleEntry({self.item_id!r}, ct={self._ct!r}, priority={self._priority!r})"
        )


class DoubleSkipList:
    """The two-index workflow queue of §IV-B."""

    def __init__(
        self,
        map_factory: Callable[[], OrderedMap] = DeterministicSkipList,
    ) -> None:
        self._ct_list = map_factory()  # repro: calls[DeterministicSkipList, repro.structures.avl.AvlTree]
        self._priority_list = map_factory()  # repro: calls[DeterministicSkipList, repro.structures.avl.AvlTree]
        self._entries: Dict[Any, DoubleEntry] = {}
        # Runtime contract checker (repro.analysis.contracts); the null
        # singleton until one is attached, so every mutation pays exactly
        # one attribute read + branch when contracts are off.
        self.contracts = NULL_CONTRACTS

    def attach_contracts(self, checker) -> None:
        """Verify cross-link consistency after every mutating operation."""
        self.contracts = checker

    # -- basic operations ----------------------------------------------------

    def insert(self, item_id: Any, ct: float, priority: float, payload: Any = None) -> DoubleEntry:
        """Add a workflow under both orderings."""
        entries = self._entries
        if item_id in entries:
            raise KeyError(f"item {item_id!r} already present")
        entry = DoubleEntry(item_id=item_id, ct=ct, priority=priority, payload=payload)
        self._ct_list.insert(entry.ct_key, entry)
        self._priority_list.insert(entry.priority_key, entry)
        entries[item_id] = entry
        if self.contracts.enabled:
            self.contracts.check_dsl(self)
        return entry

    def remove(self, item_id: Any) -> DoubleEntry:
        """Remove a workflow from both lists (e.g. on completion)."""
        entry = self._entries.pop(item_id)
        self._ct_list.delete(entry.ct_key)
        self._priority_list.delete(entry.priority_key)
        if self.contracts.enabled:
            self.contracts.check_dsl(self)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item_id: Any) -> bool:
        return item_id in self._entries

    def get(self, item_id: Any) -> DoubleEntry:
        """Look an entry up by its id (the O(1) cross-link access)."""
        return self._entries[item_id]

    # -- heads ----------------------------------------------------------------

    def head_by_ct(self) -> Optional[DoubleEntry]:
        """The workflow whose progress requirement changes soonest."""
        head = self._ct_list.peek_head()
        return None if head is None else head[1]

    def head_by_priority(self) -> Optional[DoubleEntry]:
        """The workflow with the largest progress lag."""
        head = self._priority_list.peek_head()
        return None if head is None else head[1]

    def iter_by_priority(self) -> Iterator[DoubleEntry]:
        """All workflows, largest lag first (used for work-conserving scans).

        Lazy: the iterator costs O(1) to create; consumers pay per element
        drawn.  ``WohaScheduler.select_task`` stops at the first runnable
        workflow — Algorithm 2's work-conserving walk.
        """
        return map(_VALUE, self._priority_list.items())

    def iter_by_ct(self) -> Iterator[DoubleEntry]:
        """All workflows, soonest requirement change first."""
        return map(_VALUE, self._ct_list.items())

    # -- the two update paths of Algorithm 2 ----------------------------------

    def update_head_ct(self, new_ct: float, new_priority: float) -> DoubleEntry:
        """Reposition the ct-head after its requirement change fired.

        This is the paper's cheap path: the ct deletion is a head deletion
        (O(1)); the reinsertion and the priority-list move are O(log n).
        Each list is touched only when its key actually changes — an
        unchanged key means an identical position, so the remove+reinsert
        would be a structural no-op.  A changed key moves by
        :meth:`~repro.structures.base.OrderedMap.rekey`, in place when the
        entry keeps its neighbours; the list moves before the entry's
        fields change, so a ``KeyError`` leaves both consistent.
        """
        ct_list = self._ct_list
        head = ct_list.peek_head()
        if head is None:
            raise KeyError("update_head_ct on empty DoubleSkipList")
        entry: DoubleEntry = head[1]
        ct_same = new_ct == entry._ct
        priority_same = new_priority == entry._priority
        if ct_same and priority_same:
            return entry  # nothing moved: no churn, nothing to re-check
        if not ct_same:
            ct_key = (new_ct, entry.item_id)
            ct_list.rekey(entry.ct_key, ct_key, entry)
            entry._ct = new_ct
            entry.ct_key = ct_key
        if not priority_same:
            priority_key = (-new_priority, entry.item_id)
            self._priority_list.rekey(entry.priority_key, priority_key, entry)
            entry._priority = new_priority
            entry.priority_key = priority_key
        if self.contracts.enabled:
            self.contracts.check_dsl(self)
        return entry

    def update_priority(self, item_id: Any, new_priority: float) -> DoubleEntry:
        """Reposition one workflow in the priority list only.

        Used after a task assignment (``rho += 1`` so the lag drops by one).
        The workflow is usually the priority head, and its lag usually
        stays ahead of the next workflow's; the move is then an in-place
        re-key.  An unchanged priority returns immediately (the common case
        for unplanned workflows, whose lag is pinned at -inf).
        """
        entry = self._entries[item_id]
        if new_priority == entry._priority:
            return entry
        priority_key = (-new_priority, item_id)
        self._priority_list.rekey(entry.priority_key, priority_key, entry)
        entry._priority = new_priority
        entry.priority_key = priority_key
        if self.contracts.enabled:
            self.contracts.check_dsl(self)
        return entry

    def update_ct(self, item_id: Any, new_ct: float) -> DoubleEntry:
        """Reposition one workflow in the ct list only (no-op when the ct
        is unchanged)."""
        entry = self._entries[item_id]
        if new_ct == entry._ct:
            return entry
        ct_key = (new_ct, item_id)
        self._ct_list.rekey(entry.ct_key, ct_key, entry)
        entry._ct = new_ct
        entry.ct_key = ct_key
        if self.contracts.enabled:
            self.contracts.check_dsl(self)
        return entry

    # -- verification -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Both lists contain exactly the registered entries, consistently keyed."""
        assert len(self._ct_list) == len(self._entries)
        assert len(self._priority_list) == len(self._entries)
        for key, entry in self._ct_list.items():
            assert key == entry.ct_key
            assert self._entries[entry.item_id] is entry
        for key, entry in self._priority_list.items():
            assert key == entry.priority_key
            assert self._entries[entry.item_id] is entry
        for checkable in (self._ct_list, self._priority_list):
            check = getattr(checkable, "check_invariants", None)
            if check is not None:
                check()  # repro: calls[DeterministicSkipList.check_invariants, repro.structures.avl.AvlTree.check_invariants]
