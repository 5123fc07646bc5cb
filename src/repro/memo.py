"""The one rule for every memo table: bounded, oldest insertion out first.

Correctness never depends on a hit.  A hit is the inherited ``dict.get``
and reorders nothing; a miss stores through :meth:`Memo.put`, which
evicts the oldest insertion when the table is full.  ``put`` queues each
key, so eviction is O(1): a dict finds its first key only by stepping
over the holes earlier deletions left.
"""

from collections import deque

_TABLES = []


class Memo(dict):
    """A memo table of at most ``bound`` entries."""

    __slots__ = ("bound", "_order")

    def __init__(self, bound: int):
        self.bound = bound
        self._order = None  # made by the first put: most zones never answer

    def make_room(self) -> None:
        """Evict the oldest insertion if the table is full."""
        if len(self) >= self.bound:
            del self[self._order.popleft()]

    def put(self, key, value):
        """Store *value* under a *key* not yet in the table, making room
        first; return *value*."""
        if self._order is None:
            self._order = deque()
        self.make_room()
        self._order.append(key)
        self[key] = value
        return value

    def clear(self) -> None:
        dict.clear(self)
        self._order = None


def table(bound: int) -> Memo:
    """A module-level memo of at most *bound* entries, emptied by :func:`clear_all`."""
    memo = Memo(bound)
    _TABLES.append(memo)
    return memo


def clear_all() -> None:
    """Empty every module-level memo."""
    for memo in _TABLES:
        memo.clear()
