"""Evolving multigraph state of the k-choice process.

The state tracks only per-vertex degrees (loops and parallel edges are
legal) plus per-degree vertex counts giving O(1) minimum-degree queries and
a cursor to the lowest-index vertex of minimum degree (no minimum-degree
vertex lies below it).  Per-degree vertex lists are kept only under the
uniform circle tie-break, the one rule that draws from them.  Vertices are
1-based ids ``1..n``.  This module builds, counts and validates the state;
edges are added only by the degree target's round kernel
(``strategies.mindeg``, whose ``add_edge`` is one round of it).

It is also the one home of the packed-list rule behind every target's
uniform draws (``packed_list``, ``take``, ``put``, ``check_packed``): a
leaving vertex's slot takes the list's tail, which fixes every later draw.
And it owns their storage: packed lists, and the per-vertex fields of the
builders, are 4-byte ``array('i')``s of vertex ids (``packed_list``,
``vertex_array``), so n is at most 2**31 - 1.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

MAX_N = 2**31 - 1  # the largest vertex id a 4-byte array holds

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
        if self.n > MAX_N:
            raise ValueError(f"vertex count must be <= {MAX_N} (4-byte vertex ids), got {self.n}")
        if self.k < 1:
            raise ValueError(f"squares per round must be >= 1, got {self.k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.tie_break not in CIRCLE_POLICIES:
            raise ValueError(f"unknown circle tie-break {self.tie_break!r}")
        if self.square_tie_break not in SQUARE_POLICIES:
            raise ValueError(f"unknown square tie-break {self.square_tie_break!r}")
        if self.loop_degree not in LOOP_POLICIES:
            raise ValueError(f"unknown loop policy {self.loop_degree!r}")
        return self


def vertex_array(size: int) -> array:
    """A zero-filled array of ``size`` 4-byte vertex ids: ``size`` n + 1 gives a
    per-vertex field, 0 an empty packed list."""
    return array("i", [0]) * size


def packed_list(n: int) -> tuple[array, array]:
    """(items, pos) of the packed list of 1..n in id order, built from ``range``:
    ``pos[v] = v - 1`` and ``pos[0] = 0``."""
    pos = array("i", range(-1, n))
    pos[0] = 0
    return array("i", range(1, n + 1)), pos


def take(items: array, pos: array, w: int) -> None:
    """Take w out of ``items``: the list's tail fills w's slot.  ``pos[w]`` goes stale."""
    last = items.pop()
    if last != w:
        p = pos[w]
        items[p] = last
        pos[last] = p


def put(items: array, pos: array, w: int) -> None:
    """Append w to ``items``."""
    pos[w] = len(items)
    items.append(w)


def check_packed(items: array, pos: array, label: bytearray | list[int], want: int) -> None:
    """Assert that slot i of a packed list holds a vertex w with ``pos[w] == i``
    and ``label[w] == want``, so no vertex is listed twice."""
    for i, w in enumerate(items):
        assert 0 < w < len(pos) and pos[w] == i and label[w] == want, f"slot {i} holds {w}"


class DegreeBuckets:
    """Per-degree vertex counts, with per-degree vertex lists only where a rule draws from them.

    ``cnt[d]`` is the number of degree-d vertices.  With ``packed`` (the
    uniform circle rule, which draws a minimum-degree vertex by index),
    ``_lists[d]`` also holds the degree-d vertices in packed order and
    ``pos[v]`` is v's slot there: the degree kernel moves a vertex by ``take``
    from its old list and ``put`` on its new one.
    Without it both are None.

    Degrees only grow, so ``min_nonempty`` and ``max_nonempty`` advance
    monotonically and, while the minimum degree m holds, its class only
    shrinks.  Cursor invariant: no vertex of degree m lies below ``_lo``.
    The lowest one is found by scanning vertex ids upward from ``_lo``, and
    ``_lo`` restarts at 1 when m advances, which costs O(n) per degree level.
    """

    __slots__ = ("n", "degree", "cnt", "pos", "_lists", "_lo", "min_nonempty", "max_nonempty")

    def __init__(self, degree: list[int], n: int, packed: bool = False):
        self.n = n
        self.degree = degree  # shared with the owning GraphState
        top = max(degree[1:]) if n else 0
        self._lists: list[array] | None = None
        self.pos: array | None = None
        if top == 0:  # a fresh state: what the loops below build, in one step
            self.cnt = [n]
            if packed:
                items, self.pos = packed_list(n)
                self._lists = [items]
        else:
            self.cnt = [0] * (top + 1)
            for d in degree[1:]:
                self.cnt[d] += 1
            if packed:
                self._lists = [vertex_array(0) for _ in range(top + 1)]
                self.pos = vertex_array(n + 1)
                for v in range(1, n + 1):
                    put(self._lists[degree[v]], self.pos, v)
        self.min_nonempty = 0
        self.max_nonempty = top
        while not self.cnt[self.min_nonempty]:
            self.min_nonempty += 1
        self._lo = 1

    def count(self, d: int) -> int:
        return self.cnt[d] if 0 <= d < len(self.cnt) else 0

    def validate(self) -> None:
        """O(n) rescan; raises AssertionError on any inconsistency.

        The counts are recounted from the degrees.  With packed lists, each
        degree's list passes ``check_packed``, and the lists hold n entries in
        all, so every vertex is listed.
        """
        lists, degree, pos, cnt = self._lists, self.degree, self.pos, self.cnt
        top = max(degree[1:])
        assert self.max_nonempty == top, "stale maximum degree"
        seen = [0] * (top + 1)
        for d in degree[1:]:
            seen[d] += 1
        assert cnt == seen, "stale degree counts"
        if lists is not None:
            total = sum(map(len, lists))
            assert total == self.n, f"lists cover {total} vertices, expected {self.n}"
            for d, lst in enumerate(lists):
                check_packed(lst, pos, degree, d)
        assert self.min_nonempty == min(degree[1:]), "stale minimum degree"
        assert self.min_nonempty not in degree[1 : self._lo], "minimum vertex below the cursor"


class GraphState:
    """Degree state of an evolving multigraph, one edge added per round."""

    __slots__ = ("config", "t", "degree", "buckets")

    def __init__(self, config: ProcessConfig, degree: list[int] | None = None):
        config.validate()
        self.config = config
        self.t = 0
        n = config.n
        self.degree = degree if degree is not None else [0] * (n + 1)
        self.buckets = DegreeBuckets(self.degree, n, packed=config.tie_break == TIE_UNIFORM)

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
