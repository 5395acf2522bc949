"""Evolving multigraph state of the k-choice process.

The state tracks only per-vertex degrees (loops and parallel edges are
legal) plus a degree-bucket index giving O(1) minimum-degree queries and
constant-time per-degree counts.  Vertices are 1-based ids ``1..n``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heappush, heappop

from .indexed import IndexedSet

TIE_LOWEST = "lowest_index"
TIE_AVOID = "avoid_square_then_lowest"
TIE_UNIFORM = "uniform_random"
CIRCLE_POLICIES = (TIE_LOWEST, TIE_AVOID, TIE_UNIFORM)
SQUARE_POLICIES = (TIE_LOWEST, TIE_UNIFORM)

LOOP_COUNTS_TWO = "counts_two"
LOOP_COUNTS_ONE = "counts_one"
LOOP_POLICIES = (LOOP_COUNTS_TWO, LOOP_COUNTS_ONE)


@dataclass(frozen=True)
class ProcessConfig:
    """Parameters of one process instance.

    ``tie_break`` governs circle placement among equally good vertices,
    ``square_tie_break`` the square pick among equally good offers.  A loop
    adds 2 to its endpoint's degree under ``counts_two`` and 1 under
    ``counts_one``.
    """

    n: int
    k: int
    seed: int = 0
    tie_break: str = TIE_AVOID
    square_tie_break: str = TIE_LOWEST
    loop_degree: str = LOOP_COUNTS_TWO
    debug: bool = False

    def validate(self) -> "ProcessConfig":
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        if self.k < 1:
            raise ValueError(f"squares per round must be >= 1, got {self.k}")
        if self.tie_break not in CIRCLE_POLICIES:
            raise ValueError(f"unknown circle tie-break {self.tie_break!r}")
        if self.square_tie_break not in SQUARE_POLICIES:
            raise ValueError(f"unknown square tie-break {self.square_tie_break!r}")
        if self.loop_degree not in LOOP_POLICIES:
            raise ValueError(f"unknown loop policy {self.loop_degree!r}")
        return self

    def with_seed(self, seed: int) -> "ProcessConfig":
        return replace(self, seed=seed)


class DegreeBuckets:
    """Per-degree vertex sets with a lazy min-heap per bucket.

    Degrees only grow, so ``min_nonempty`` and ``max_nonempty`` advance
    monotonically and each vertex enters any given bucket at most once,
    which keeps the lazy heaps linear in the number of edge insertions.
    """

    __slots__ = ("n", "degree", "_sets", "_heaps", "min_nonempty", "max_nonempty")

    def __init__(self, degree: list[int], n: int):
        self.n = n
        self.degree = degree  # shared with the owning GraphState
        top = max(degree[1:]) if n else 0
        self._sets = [IndexedSet() for _ in range(top + 1)]
        self._heaps: list[list[int]] = [[] for _ in range(top + 1)]
        for v in range(1, n + 1):
            d = degree[v]
            self._sets[d].add(v)
            self._heaps[d].append(v)
        for h in self._heaps:
            h.sort()  # sorted lists are valid heaps
        self.min_nonempty = 0
        self.max_nonempty = top
        while not self._sets[self.min_nonempty]:
            self.min_nonempty += 1

    def _grow(self, d: int) -> None:
        while len(self._sets) <= d:
            self._sets.append(IndexedSet())
            self._heaps.append([])

    def move(self, v: int, old: int, new: int) -> None:
        self._grow(new)
        self._sets[old].discard(v)
        self._sets[new].add(v)
        heappush(self._heaps[new], v)
        if new > self.max_nonempty:
            self.max_nonempty = new
        if old == self.min_nonempty:
            s = self._sets
            m = self.min_nonempty
            while not s[m]:
                m += 1
            self.min_nonempty = m

    def count(self, d: int) -> int:
        return len(self._sets[d]) if 0 <= d < len(self._sets) else 0

    def lowest(self, d: int, exclude: int | None = None) -> int:
        """Lowest-index vertex of degree d, preferring one != exclude.

        Falls back to ``exclude`` itself when it is the only such vertex.
        Stale heap entries (vertices that have moved on) are popped for good.
        """
        h = self._heaps[d]
        deg = self.degree
        while deg[h[0]] != d:
            heappop(h)
        top = h[0]
        if exclude is None or top != exclude:
            return top
        first = heappop(h)
        while h and deg[h[0]] != d:
            heappop(h)
        second = h[0] if h else None
        heappush(h, first)
        return second if second is not None else first

    def sample(self, d: int, rng) -> int:
        return self._sets[d].sample(rng)

    def validate(self) -> None:
        """Full O(n) rescan; raises AssertionError on any inconsistency."""
        seen = 0
        for d, s in enumerate(self._sets):
            for v in s:
                assert self.degree[v] == d, f"vertex {v} in bucket {d}, degree {self.degree[v]}"
            seen += len(s)
        assert seen == self.n, f"buckets cover {seen} vertices, expected {self.n}"
        nonempty = [d for d, s in enumerate(self._sets) if s]
        assert self.min_nonempty == min(nonempty)
        assert self.max_nonempty >= max(nonempty)
        for d, h in enumerate(self._heaps):
            live = {v for v in h if self.degree[v] == d}
            assert live == set(self._sets[d].as_list()), f"heap/bucket mismatch at degree {d}"


class GraphState:
    """Degree state of an evolving multigraph, one edge added per round."""

    __slots__ = ("config", "t", "degree", "buckets")

    def __init__(self, config: ProcessConfig, degree: list[int] | None = None):
        config.validate()
        self.config = config
        self.t = 0
        n = config.n
        self.degree = degree if degree is not None else [0] * (n + 1)
        self.buckets = DegreeBuckets(self.degree, n)

    def validate(self) -> None:
        assert self.degree[0] == 0
        if self.config.loop_degree == LOOP_COUNTS_TWO:
            assert sum(self.degree) == 2 * self.t, "degree sum must be twice the round count"
        self.buckets.validate()


def init_state(config: ProcessConfig) -> GraphState:
    """Fresh empty-graph state; rejects n = 0 or k = 0."""
    return GraphState(config)


def state_from_degrees(config: ProcessConfig, degree: list[int], t: int) -> GraphState:
    """State with prescribed degrees (bulk construction for batched phases)."""
    state = GraphState(config, degree=degree)
    state.t = t
    return state


def add_edge(state: GraphState, u: int, v: int) -> GraphState:
    """Add edge uv (loops and parallel edges allowed) and update buckets."""
    deg = state.degree
    b = state.buckets
    state.t += 1
    if u == v:
        inc = 2 if state.config.loop_degree == LOOP_COUNTS_TWO else 1
        d = deg[u]
        deg[u] = d + inc
        b.move(u, d, d + inc)
    else:
        d = deg[u]
        deg[u] = d + 1
        b.move(u, d, d + 1)
        d = deg[v]
        deg[v] = d + 1
        b.move(v, d, d + 1)
    if state.config.debug:
        n = state.config.n
        assert 1 <= u <= n and 1 <= v <= n
    return state


def min_degree(state: GraphState) -> int:
    return state.buckets.min_nonempty


def count_degree(state: GraphState, d: int) -> int:
    return state.buckets.count(d)
