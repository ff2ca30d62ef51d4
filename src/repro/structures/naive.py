"""The naive baseline: a sorted Python list.

Deletion and insertion are O(n) memory moves; this back-end exists so the
Fig 13a throughput bench has the paper's "naive" lower bound.  (The paper's
naive *scheduler* additionally recomputes every workflow's priority per
call; that part lives in
:class:`repro.core.scheduler.NaiveWohaScheduler`.)
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

from repro.structures.base import OrderedMap

__all__ = ["SortedListMap"]


class SortedListMap(OrderedMap):
    """Keys kept in a sorted list; values in a parallel list."""

    def __init__(self) -> None:
        self._keys: List[Any] = []
        self._values: List[Any] = []

    def insert(self, key: Any, value: Any) -> None:
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            raise KeyError(f"duplicate key {key!r}")
        self._keys.insert(idx, key)
        self._values.insert(idx, value)

    def delete(self, key: Any) -> Any:
        idx = bisect.bisect_left(self._keys, key)
        if idx >= len(self._keys) or self._keys[idx] != key:
            raise KeyError(key)
        self._keys.pop(idx)
        return self._values.pop(idx)

    def peek_head(self) -> Optional[Tuple[Any, Any]]:
        if not self._keys:
            return None
        return self._keys[0], self._values[0]

    def pop_head(self) -> Tuple[Any, Any]:
        if not self._keys:
            raise KeyError("pop_head from empty list")
        return self._keys.pop(0), self._values.pop(0)

    def find(self, key: Any) -> Any:
        idx = bisect.bisect_left(self._keys, key)
        if idx >= len(self._keys) or self._keys[idx] != key:
            raise KeyError(key)
        return self._values[idx]

    def __len__(self) -> int:
        return len(self._keys)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(zip(list(self._keys), list(self._values)))

    def check_invariants(self) -> None:
        """Assert strictly ascending keys and one value per key."""
        keys = self._keys
        assert len(keys) == len(self._values), "key/value lists differ in length"
        for a, b in zip(keys, keys[1:]):
            assert a < b, f"keys not strictly ascending at {a!r} >= {b!r}"
