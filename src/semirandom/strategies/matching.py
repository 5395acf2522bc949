"""Adaptive matching builder for the k-choice process.

Vertices are unsaturated or matched; a matched vertex may carry a colour.
A green vertex holds a pending edge to an unsaturated vertex and its mate
is red; a square on a red vertex triggers an augmentation along the pending
edge.  Squares are consumed greedily in the priority order: unsaturated,
red, uncoloured, green (pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..indexed import IndexedSet
# the benchmark's tracer rebinds ``add_edge`` in this module; nothing here calls it
from ..process import ProcessConfig, add_edge  # noqa: F401
from ..rng import SquareSource
from .common import StepOutcome, classify, play, trial_source

UNSAT = 0
M_UNCOL = 1
M_RED = 2
M_GREEN = 3

# priority rank per label: unsat beats red beats uncoloured beats green
_RANK = {UNSAT: 0, M_RED: 1, M_UNCOL: 2, M_GREEN: 3}
_CASE_OF_RANK = ("a", "b", "c", "d")


class PMState:
    """Label state of the matching builder.

    ``green_partner[g]`` is the unsaturated endpoint of g's pending edge;
    ``green_at[v]`` lists the green vertices whose pending edge targets the
    unsaturated vertex v (several pending edges may share a target).
    """

    __slots__ = ("n", "label", "mate", "green_partner", "green_at", "unsat", "R", "debug")

    def __init__(self, n: int, debug: bool = False):
        if n < 1:
            raise ValueError("vertex count must be >= 1")
        self.n = n
        self.label = [UNSAT] * (n + 1)
        self.mate = [0] * (n + 1)
        self.green_partner = [0] * (n + 1)
        self.green_at: dict[int, list[int]] = {}
        self.unsat = IndexedSet(range(1, n + 1))
        self.R = 0
        self.debug = debug

    @property
    def U(self) -> int:
        return len(self.unsat)

    @property
    def X(self) -> int:
        return self.n - len(self.unsat)

    def check_quick(self) -> None:
        """O(1) identities kept after every step in debug mode."""
        assert self.X + self.U == self.n
        assert self.X % 2 == 0, "saturated vertices come in matched pairs"
        assert 0 <= self.R <= self.X // 2

    def validate(self) -> None:
        """Full label/bookkeeping sweep."""
        n = self.n
        lab = self.label
        n_green = n_red = 0
        for v in range(1, n + 1):
            L = lab[v]
            if L == UNSAT:
                assert v in self.unsat
                assert self.mate[v] == 0
            else:
                assert v not in self.unsat
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


def _uncolour_all_at(pm: PMState, w: int) -> None:
    """Drop every pending edge targeting w (w just became saturated)."""
    gs = pm.green_at.pop(w, None)
    if not gs:
        return
    lab = pm.label
    for g in gs:
        lab[g] = M_UNCOL
        lab[pm.mate[g]] = M_UNCOL
        pm.green_partner[g] = 0
        pm.R -= 1


def _saturate_pair(pm: PMState, u: int, v: int) -> None:
    lab = pm.label
    lab[u] = M_UNCOL
    lab[v] = M_UNCOL
    pm.mate[u] = v
    pm.mate[v] = u
    pm.unsat.discard(u)
    pm.unsat.discard(v)
    _uncolour_all_at(pm, u)
    _uncolour_all_at(pm, v)


def pm_step(pm: PMState, squares: list[int], rng) -> StepOutcome:
    """Play one round; mutates ``pm`` and reports the chosen edge.

    Self-hits in the match/augment cases consume the round without progress.
    """
    if not pm.unsat:
        raise ValueError("matching already perfect; the run is over")
    rank, i = classify(_RANK, pm.label, squares)
    u = squares[i]
    changed = False
    if rank == 0:  # match u with a random unsaturated partner
        v = pm.unsat.sample(rng)
        if v != u:
            _saturate_pair(pm, u, v)
            changed = True
    elif rank == 1:  # augment along the pending edge through u's mate
        x = pm.mate[u]
        y = pm.green_partner[x]
        v = pm.unsat.sample(rng)
        if v != y:
            pm.green_at[y].remove(x)
            if not pm.green_at[y]:
                del pm.green_at[y]
            pm.green_partner[x] = 0
            pm.label[x] = M_UNCOL
            pm.label[u] = M_UNCOL
            pm.R -= 1
            pm.label[y] = M_UNCOL
            pm.label[v] = M_UNCOL
            pm.mate[x] = y
            pm.mate[y] = x
            pm.mate[u] = v
            pm.mate[v] = u
            pm.unsat.discard(y)
            pm.unsat.discard(v)
            _uncolour_all_at(pm, y)
            _uncolour_all_at(pm, v)
            changed = True
    elif rank == 2:  # colour a pending edge from u; u's mate turns red
        v = pm.unsat.sample(rng)
        pm.label[u] = M_GREEN
        pm.green_partner[u] = v
        pm.green_at.setdefault(v, []).append(u)
        pm.label[pm.mate[u]] = M_RED
        pm.R += 1
        changed = True
    else:  # pass
        v = int(rng.integers(1, pm.n + 1))
    if pm.debug:
        pm.check_quick()
    return StepOutcome(_CASE_OF_RANK[rank], i + 1, u, v, changed)


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
    round count so far and ``hooks`` are ``play``'s observe/check arguments,
    so a run's samples and validation continue through completion.
    """
    if pm.n % 2:
        raise ValueError("perfect matching needs an even vertex count")
    extra = play(pm_step, pm, src, rng, lambda: not pm.unsat, t=t, **hooks) - t
    verify_perfect_matching(pm)
    return extra


def verify_perfect_matching(pm: PMState) -> None:
    mate = pm.mate
    for v in range(1, pm.n + 1):
        m = mate[v]
        if not (1 <= m <= pm.n) or m == v or mate[m] != v:
            raise AssertionError(f"vertex {v} is not properly matched")


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
    threshold_round = play(pm_step, pm, src, rng_ch, lambda: pm.U <= cut, **hooks)
    completion = pm_completion(pm, src, rng_ch, threshold_round, **hooks) if complete else 0
    if validate_every:
        pm.validate()
    total = threshold_round + completion
    return PMTrace(n, config.k, eps_stop, threshold_round, completion, total, samples)
