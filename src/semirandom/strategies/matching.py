"""Adaptive matching builder for the k-choice process.

Vertices are unsaturated or matched; a matched vertex may carry a colour.
A green vertex holds a pending edge to an unsaturated vertex and its mate
is red; a square on a red vertex triggers an augmentation along the pending
edge.  Squares are consumed greedily in the priority order: unsaturated,
red, uncoloured, green (pass).

The unsaturated vertices sit in a packed list, ``pos[v]`` giving v's slot,
and partners are drawn by index into it.  Labels take one byte a vertex
(a ``bytearray``), and mates, pending edges, slots and the packed list four
(``process.vertex_array``, ``packed_list``): about 18 bytes a vertex.
Every round, ``pm_step``'s included, is played by one kernel,
``_play_block``, straight off a ``SquareSource`` block with the labels,
mates, pending edges and the packed list in locals.  It runs until the
stop count, the end of the block or the caller's round budget (the next
sample or check); ``play_blocks`` refills a used-up block only when a round
is about to be played, where ``next_round`` would.  A leaving vertex's slot
takes the list's tail, and the draws (the pass case's unused circle draw
included) are fixed, so the packed order, and with it every later sample,
is the one round-by-round play leaves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

from ..process import ProcessConfig, check_packed, packed_list, take, vertex_array
from ..rng import SquareSource
from .common import StepOutcome, classify, play_blocks, trial_source
# the benchmark's tracer rebinds ``add_edge`` in this module; nothing here calls it
from .mindeg import add_edge  # noqa: F401

UNSAT = 0
M_UNCOL = 1
M_RED = 2
M_GREEN = 3

# priority rank by label: unsat beats red beats uncoloured beats green
_RANK = (0, 2, 1, 3)
_CASE_OF_RANK = ("a", "b", "c", "d")


class PMState:
    """Label state of the matching builder.

    ``green_partner[g]`` is the unsaturated endpoint of g's pending edge;
    ``green_at[v]`` lists the green vertices whose pending edge targets the
    unsaturated vertex v (several pending edges may share a target).
    ``unsat`` packs the unsaturated vertices and ``pos[v]`` is v's slot there
    (stale once v is matched).  Debug states count every played edge
    (square, circle), smaller end first, in ``played``: the certificate
    ``verify_perfect_matching`` checks.
    """

    __slots__ = ("n", "label", "mate", "green_partner", "green_at", "unsat", "pos", "R",
                 "debug", "played")

    def __init__(self, n: int, debug: bool = False):
        if n < 1:
            raise ValueError("vertex count must be >= 1")
        self.n = n
        self.label = bytearray(n + 1)  # all UNSAT
        self.mate = vertex_array(n + 1)
        self.green_partner = vertex_array(n + 1)
        self.green_at: dict[int, list[int]] = {}
        self.unsat, self.pos = packed_list(n)
        self.R = 0
        self.debug = debug
        self.played = Counter() if debug else None

    @property
    def U(self) -> int:
        return len(self.unsat)

    @property
    def X(self) -> int:
        return self.n - len(self.unsat)

    def check_quick(self) -> None:
        """O(1) identities kept after every step in debug mode."""
        assert self.X % 2 == 0, "saturated vertices come in matched pairs"
        assert 0 <= self.R <= self.X // 2

    def validate(self) -> None:
        """Full label/bookkeeping sweep."""
        n = self.n
        lab = self.label
        n_green = n_red = 0
        check_packed(self.unsat, self.pos, lab, UNSAT)
        assert len(self.unsat) == lab[1:].count(UNSAT), "an unsaturated vertex is not listed"
        for v in range(1, n + 1):
            L = lab[v]
            if L == UNSAT:
                assert self.mate[v] == 0
            else:
                m = self.mate[v]
                assert 1 <= m <= n and self.mate[m] == v and m != v
                if L == M_GREEN:
                    n_green += 1
                    assert lab[m] == M_RED, "a green vertex's mate must be red"
                    y = self.green_partner[v]
                    assert lab[y] == UNSAT, "pending edges target unsaturated vertices"
                    assert v in self.green_at.get(y, [])
                elif L == M_RED:
                    n_red += 1
                    assert lab[m] == M_GREEN
                    assert self.green_partner[v] == 0
                else:
                    assert lab[m] == M_UNCOL
                    assert self.green_partner[v] == 0
        assert n_green == n_red == self.R
        listed = sum(len(g) for g in self.green_at.values())
        assert listed == n_green
        for y, gs in self.green_at.items():
            assert lab[y] == UNSAT
            for g in gs:
                assert lab[g] == M_GREEN and self.green_partner[g] == y


classify_pm = partial(classify, _RANK)


def _play_block(pm: PMState, buf: list[int], i: int, end: int, k: int, rng,
                cut: float) -> tuple[int, int, int, int]:
    """The round kernel: play rounds off ``buf[i:end]`` (k offers a round) while more
    than ``cut`` vertices are unsaturated; return (position, last round's rank,
    its square's offset, its circle).

    Self-hits in the match/augment cases consume the round without progress.
    """
    n, debug, played = pm.n, pm.debug, pm.played
    lab, mate, partner, green_at = pm.label, pm.mate, pm.green_partner, pm.green_at
    items, pos = pm.unsat, pm.pos
    rank_of = _RANK
    R = pm.R
    rank = j = v = 0
    while i < end and len(items) > cut:
        # square: the first offer of the best rank
        j = i
        rank = rank_of[lab[buf[i]]]
        if rank and k > 1:
            for jj in range(i + 1, i + k):
                r = rank_of[lab[buf[jj]]]
                if r < rank:
                    rank, j = r, jj
                    if not r:
                        break
        u = buf[j]
        i += k
        if rank == 3:  # pass
            v = int(rng.integers(1, n + 1))
        else:
            v = items[rng.integers(len(items))]
            if rank == 2:  # colour a pending edge from u; u's mate turns red
                lab[u] = M_GREEN
                partner[u] = v
                green_at.setdefault(v, []).append(u)
                lab[mate[u]] = M_RED
                R += 1
            else:
                # match: saturate u and v; augment: u's mate x takes the endpoint y
                # of its pending edge, u takes v
                if rank:
                    x = mate[u]
                    y = partner[x]
                else:
                    y = u
                if v != y:
                    if rank:
                        gs = green_at[y]
                        gs.remove(x)
                        if not gs:
                            del green_at[y]
                        partner[x] = 0
                        lab[x] = M_UNCOL
                        lab[y] = M_UNCOL
                        mate[x] = y
                        mate[y] = x
                        R -= 1
                    lab[u] = M_UNCOL
                    lab[v] = M_UNCOL
                    mate[u] = v
                    mate[v] = u
                    take(items, pos, y)  # y and v leave the unsaturated list
                    take(items, pos, v)
                    for w in (y, v):  # drop the pending edges targeting w
                        gs = green_at.pop(w, None)
                        if gs:
                            for g in gs:
                                lab[g] = M_UNCOL
                                lab[mate[g]] = M_UNCOL
                                partner[g] = 0
                                R -= 1
        if debug:
            played[(u, v) if u < v else (v, u)] += 1
            pm.R = R
            pm.check_quick()
    pm.R = R
    return i, rank, j, v


def pm_step(pm: PMState, squares: list[int], rng) -> StepOutcome:
    """Play one round through the kernel; mutates ``pm`` and reports the chosen edge."""
    unsat = pm.unsat
    if not unsat:
        raise ValueError("matching already perfect; the run is over")
    before = len(unsat)
    _, rank, j, v = _play_block(pm, squares, 0, len(squares), len(squares), rng, -1)
    changed = rank == 2 or len(unsat) < before
    return StepOutcome(_CASE_OF_RANK[rank], j + 1, squares[j], v, changed)


def pm_case_probabilities(X, R, n, k: int):
    """(P_match, P_augment, P_colour, P_pass) for the current counts.

    Accepts fractions of n via ``n=1``.  The four probabilities sum to 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if R < 0 or X < 0 or X > n:
        raise ValueError("counts out of range")
    if 2 * R > X:
        raise ValueError("red vertices cannot outnumber half the saturated ones")
    fx = X / n
    fr = R / n
    pa = 1.0 - fx**k
    pb = fx**k - (fx - fr) ** k
    pc = (fx - fr) ** k - fr**k
    pd = fr**k
    return pa, pb, pc, pd


def pm_expected_changes(x: float, r: float, k: int) -> tuple[float, float]:
    """Expected one-round change of (saturated, red) fractions.

    Composed from the case probabilities: match and augment saturate two
    vertices; each newly saturated vertex kills pending edges at rate
    2r/(1-x); augment consumes one colour pair and colouring creates one.
    """
    if x >= 1.0:
        raise ValueError("saturated fraction must stay below 1")
    pa, pb, pc, _pd = pm_case_probabilities(x, r, 1.0, k)
    dx = 2.0 * (pa + pb)
    dr = -(pa + pb) * 2.0 * r / (1.0 - x) - pb + pc
    return dx, dr


@dataclass
class PMTrace:
    """Round counts of one matching run; threshold and completion split."""

    n: int
    k: int
    eps_stop: float
    threshold_round: int
    completion_rounds: int
    total_rounds: int
    samples: list[tuple[int, int, int]]  # (t, saturated, red)


def pm_completion(pm: PMState, src: SquareSource, rng, t: int = 0, **hooks) -> int:
    """Keep playing until no unsaturated vertex remains; return extra rounds.

    Progress is guaranteed: the unsaturated count is even and each round
    matches a pair with probability at least 1 - (1 - U/n)^k.  ``t`` is the
    round count so far and ``hooks`` are ``play_blocks``' observe/check
    arguments, so a run's samples and validation continue through completion.
    """
    if pm.n % 2:
        raise ValueError("perfect matching needs an even vertex count")
    extra = play_blocks(_play_block, pm, src, rng, 0, lambda: not pm.unsat, t=t, **hooks) - t
    verify_perfect_matching(pm)
    return extra


def verify_perfect_matching(pm: PMState) -> None:
    """Check that ``mate`` is a perfect matching, and in debug states that each
    of its pairs is an edge the process played."""
    mate = pm.mate
    for v in range(1, pm.n + 1):
        m = mate[v]
        if not (1 <= m <= pm.n) or m == v or mate[m] != v:
            raise AssertionError(f"vertex {v} is not properly matched")
        if pm.played is not None and v < m and (v, m) not in pm.played:
            raise AssertionError(f"matched pair {v}-{m} was never played")


def pm_run(
    config: ProcessConfig,
    eps_stop: float = 1e-3,
    trial_index: int = 0,
    sample_stride: int | None = None,
    complete: bool = True,
    validate_every: int = 0,
    streams=None,
) -> PMTrace:
    """Run the matching builder from scratch on an even number of vertices.

    The main phase ends when at most ``eps_stop * n`` vertices are
    unsaturated; completion rounds (down to zero unsaturated) are measured
    separately and never folded into the threshold count.  ``streams``
    overrides the (seed, trial_index)-derived generator pair.
    """
    config.validate()
    n = config.n
    if n % 2:
        raise ValueError("perfect matching needs an even vertex count")
    if not 0.0 < eps_stop < 1.0:
        raise ValueError("eps_stop must lie in (0, 1)")
    pm = PMState(n, debug=config.debug)
    src, rng_ch = trial_source(config, trial_index, streams)
    stride = sample_stride if sample_stride is not None else max(1, n // 100)
    cut = eps_stop * n
    samples = [(0, 0, 0)] if stride else []
    hooks = dict(
        observe=lambda t: samples.append((t, pm.X, pm.R)),
        every=stride,
        check=pm.validate,
        check_every=validate_every,
    )
    threshold_round = play_blocks(_play_block, pm, src, rng_ch, cut, lambda: pm.U <= cut, **hooks)
    completion = pm_completion(pm, src, rng_ch, threshold_round, **hooks) if complete else 0
    if validate_every:
        pm.validate()
    total = threshold_round + completion
    return PMTrace(n, config.k, eps_stop, threshold_round, completion, total, samples)
