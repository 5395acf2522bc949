"""Evolving multigraph state of the k-choice process.

The state tracks only per-vertex degrees (loops and parallel edges are
legal) plus a degree-bucket index giving O(1) minimum-degree queries,
constant-time per-degree counts and a cursor to the lowest-index vertex of
minimum degree (no minimum-degree vertex lies below it).  Vertices are
1-based ids ``1..n``.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class DegreeBuckets:
    """Per-degree vertex lists on one shared position array.

    ``_lists[d]`` holds the degree-d vertices in packed order and ``pos[v]``
    is v's slot there; ``move`` fills the leaving slot with the list's tail
    and appends to the new list, so ``sample`` draws by index in O(1).

    Degrees only grow, so ``min_nonempty`` and ``max_nonempty`` advance
    monotonically and, while the minimum degree m holds, its class only
    shrinks.  Cursor invariant: no vertex of degree m lies below ``_lo``.
    ``lowest(m)`` scans vertex ids upward from ``_lo`` and ``_lo`` restarts
    at 1 when m advances, which costs O(n) per degree level.
    """

    __slots__ = ("n", "degree", "pos", "_lists", "_lo", "min_nonempty", "max_nonempty")

    def __init__(self, degree: list[int], n: int):
        self.n = n
        self.degree = degree  # shared with the owning GraphState
        top = max(degree[1:]) if n else 0
        self._lists: list[list[int]] = [[] for _ in range(top + 1)]
        self.pos = [0] * (n + 1)
        for v in range(1, n + 1):
            lst = self._lists[degree[v]]
            self.pos[v] = len(lst)
            lst.append(v)
        self.min_nonempty = 0
        self.max_nonempty = top
        while not self._lists[self.min_nonempty]:
            self.min_nonempty += 1
        self._lo = 1

    def move(self, v: int, old: int, new: int) -> None:
        lists = self._lists
        pos = self.pos
        left = lists[old]
        last = left.pop()
        if last != v:
            i = pos[v]
            left[i] = last
            pos[last] = i
        try:
            lst = lists[new]
        except IndexError:
            lists.extend([] for _ in range(new + 1 - len(lists)))
            lst = lists[new]
        pos[v] = len(lst)
        lst.append(v)
        if new > self.max_nonempty:
            self.max_nonempty = new
        if not left and old == self.min_nonempty:
            m = old + 1
            while not lists[m]:
                m += 1
            self.min_nonempty = m
            self._lo = 1

    def count(self, d: int) -> int:
        return len(self._lists[d]) if 0 <= d < len(self._lists) else 0

    def lowest(self, d: int, exclude: int | None = None) -> int:
        """Lowest-index vertex of degree d, preferring one != exclude.

        Falls back to ``exclude`` itself when it is the only such vertex.
        The minimum class is read through the cursor; any other class (only
        the maximum-degree baseline asks, and its class is tiny) by a scan.
        """
        if d != self.min_nonempty:
            lst = self._lists[d]
            if exclude is None or len(lst) == 1:
                return min(lst)
            return min(v for v in lst if v != exclude)
        deg = self.degree
        lo = self._lo
        while deg[lo] != d:
            lo += 1
        self._lo = lo
        if lo != exclude or len(self._lists[d]) == 1:
            return lo
        lo += 1
        while deg[lo] != d:
            lo += 1
        return lo

    def sample(self, d: int, rng) -> int:
        lst = self._lists[d]
        return lst[rng.integers(len(lst))]

    def validate(self) -> None:
        """Full O(n) rescan; raises AssertionError on any inconsistency."""
        seen = 0
        for d, lst in enumerate(self._lists):
            for i, v in enumerate(lst):
                assert self.degree[v] == d, f"vertex {v} in bucket {d}, degree {self.degree[v]}"
                assert self.pos[v] == i, f"vertex {v} at slot {i}, pos {self.pos[v]}"
            seen += len(lst)
        assert seen == self.n, f"buckets cover {seen} vertices, expected {self.n}"
        nonempty = [d for d, lst in enumerate(self._lists) if lst]
        assert self.min_nonempty == min(nonempty)
        assert self.max_nonempty >= max(nonempty)
        m = self.min_nonempty
        assert m not in self.degree[1 : self._lo], "minimum-degree vertex below the cursor"


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
