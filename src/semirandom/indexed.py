"""Array-backed set with O(1) add/discard and uniform sampling."""

from __future__ import annotations


class IndexedSet:
    """Set of hashable items kept in a packed list plus a position map.

    ``discard`` swaps the removed slot with the tail, so membership, insertion
    and removal are all O(1) and ``sample`` can draw uniformly by index.
    Iteration order is deterministic for a fixed operation history.
    """

    __slots__ = ("_items", "_pos")

    def __init__(self, items=()):
        self._items = []
        self._pos = {}
        for v in items:
            if v not in self._pos:
                self._pos[v] = len(self._items)
                self._items.append(v)

    def __len__(self):
        return len(self._items)

    def __contains__(self, v):
        return v in self._pos

    def __iter__(self):
        return iter(self._items)

    def add(self, v):
        if v not in self._pos:
            self._pos[v] = len(self._items)
            self._items.append(v)

    def discard(self, v):
        i = self._pos.pop(v, None)
        if i is None:
            return
        last = self._items.pop()
        if last != v:
            self._items[i] = last
            self._pos[last] = i

    def sample(self, rng):
        """Uniform random element; requires a nonempty set."""
        return self._items[rng.integers(len(self._items))]
