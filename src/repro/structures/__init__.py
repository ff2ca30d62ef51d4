"""Ordered-queue data structures for the Workflow Scheduler (paper §IV-B).

Both back-ends implement the same :class:`~repro.structures.base.OrderedMap`
interface so the scheduler and the Fig 13a throughput bench can swap them:

* :class:`~repro.structures.skiplist.DeterministicSkipList` — the paper's
  choice, a 1-2-3 deterministic skip list with O(1) head deletion;
* :class:`~repro.structures.avl.AvlTree` — the "BST" comparison point.

:class:`~repro.structures.dsl.DoubleSkipList` combines two ordered maps into
the paper's cross-linked ct/priority structure.
"""

from repro.structures.base import OrderedMap
from repro.structures.skiplist import DeterministicSkipList
from repro.structures.avl import AvlTree
from repro.structures.dsl import DoubleSkipList, DoubleEntry

__all__ = [
    "OrderedMap",
    "DeterministicSkipList",
    "AvlTree",
    "DoubleSkipList",
    "DoubleEntry",
]
