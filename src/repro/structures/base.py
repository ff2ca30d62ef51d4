"""The ordered-map interface shared by the scheduler's queue back-ends."""

from __future__ import annotations

import abc
from typing import Any, Iterator, Optional, Tuple

__all__ = ["OrderedMap"]


class OrderedMap(abc.ABC):
    """A key-ordered map with cheap access to the minimum.

    Keys must be unique and mutually comparable (the scheduler uses tuples
    with a tie-breaking id component).  The operations named in the paper's
    complexity analysis map as: ``A^h``/``D^h`` = :meth:`peek_head` /
    :meth:`pop_head`, ``I^a``/``D^a`` = :meth:`insert` / :meth:`delete`.
    """

    @abc.abstractmethod
    def insert(self, key: Any, value: Any) -> None:
        """Insert a new key.  Raises ``KeyError`` if the key already exists."""

    @abc.abstractmethod
    def delete(self, key: Any) -> Any:
        """Remove a key, returning its value.  Raises ``KeyError`` if absent."""

    def rekey(self, old_key: Any, new_key: Any, value: Any) -> None:
        """Move the entry under ``old_key`` to ``new_key``, storing ``value``.

        Raises ``KeyError`` (leaving the map unchanged) if ``old_key`` is
        absent or ``new_key`` is taken by another entry.  This default is
        :meth:`delete` then :meth:`insert`; a back-end that can move an
        entry whose neighbours stay the same without relinking it
        overrides it.
        """
        old_value = self.delete(old_key)
        try:
            self.insert(new_key, value)
        except (KeyError, TypeError):
            self.insert(old_key, old_value)
            raise

    @abc.abstractmethod
    def peek_head(self) -> Optional[Tuple[Any, Any]]:
        """The (key, value) with the smallest key, or ``None`` when empty."""

    @abc.abstractmethod
    def pop_head(self) -> Tuple[Any, Any]:
        """Remove and return the smallest entry.  Raises ``KeyError`` if empty."""

    @abc.abstractmethod
    def find(self, key: Any) -> Any:
        """Return the value stored under ``key``.  Raises ``KeyError`` if absent."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All entries in ascending key order."""

    def __contains__(self, key: Any) -> bool:
        try:
            self.find(key)
            return True
        except KeyError:
            return False

    def __iter__(self) -> Iterator[Any]:
        return (key for key, _ in self.items())
