"""Greedy minimum-degree strategy and its variants.

The greedy round selects an offered square of minimum degree and places the
circle on a minimum-degree vertex.  Baseline circle rules (uniform over all
vertices, or the maximum-degree vertex) are provided for dominance
experiments, and a two-phase sequential-circles algorithm plus the
single-purpose greedy routines cover the large-parameter regimes.

Every min-degree round, the one-round steps' included, is played by one
kernel, ``_play_block``, with the degree state in locals, until the minimum
degree rises or the caller's budget (next sample or check, or block end)
runs out.  It makes round-by-round play's ``rng.integers`` calls in order,
refills blocks only where ``next_round`` would, and dispatches on the
strategy name, not on the ``MIN_DEGREE_STRATEGIES`` entry a profiler wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..process import (
    GraphState,
    ProcessConfig,
    TIE_AVOID,
    TIE_LOWEST,
    TIE_UNIFORM,
    LOOP_COUNTS_ONE,
    LOOP_COUNTS_TWO,
    add_edge,  # noqa: F401 - nothing here calls it; the benchmark's tracer rebinds it
    init_state,
    state_from_degrees,
)
from ..indexed import IndexedSet
from ..rng import SQUARE_BLOCK_CAP, SquareSource, trial_streams
from .common import StepOutcome, trial_source


def select_square_index(degree: list[int], squares: list[int], policy: str, rng) -> int:
    """0-based index of a minimum-degree offer under the given tie policy."""
    best = 0
    best_d = degree[squares[0]]
    if policy == TIE_UNIFORM:
        ties = [0]
        for i in range(1, len(squares)):
            d = degree[squares[i]]
            if d < best_d:
                best_d = d
                ties = [i]
            elif d == best_d:
                ties.append(i)
        return ties[rng.integers(len(ties))]
    for i in range(1, len(squares)):
        d = degree[squares[i]]
        if d < best_d:
            best_d = d
            best = i
    return best


def _play_block(state: GraphState, strategy: str, buf: list[int], i: int, end: int, k: int,
                rng) -> tuple[int, int, int]:
    """The round kernel: play ``strategy`` off ``buf[i:end]`` (k offers a round) until
    the minimum degree rises; return (position, last square's offset, last circle).
    """
    cfg = state.config
    n, debug = cfg.n, cfg.debug
    loop_inc = 2 if cfg.loop_degree == LOOP_COUNTS_TWO else 1
    uniform_square = cfg.square_tie_break == TIE_UNIFORM
    circle = cfg.tie_break if strategy == "s0" else strategy
    deg, b = state.degree, state.buckets
    lists, pos, m, mx, lo = b._lists, b.pos, b.min_nonempty, b.max_nonempty, b._lo
    mins = lists[m]  # only shrinks until the minimum degree rises
    start = i
    j = v = 0
    while i < end:
        # square: the first minimum-degree offer, or a uniform one among them
        j = i
        if uniform_square:
            j += select_square_index(deg, buf[i : i + k], TIE_UNIFORM, rng)
        elif k > 1:
            du = deg[buf[i]]
            for jj in range(i + 1, i + k):
                d = deg[buf[jj]]
                if d < du:
                    du, j = d, jj
        u = buf[j]
        i += k
        # circle: the lowest minimum-degree vertex (off the square under TIE_AVOID while
        # another exists), a uniform one, a uniform vertex, or the lowest maximum-degree one
        if circle in (TIE_AVOID, TIE_LOWEST) or mx == m and circle == "max_degree_circle":
            while deg[lo] != m:
                lo += 1
            v = lo
            if v == u and circle == TIE_AVOID and len(mins) > 1:
                v += 1
                while deg[v] != m:
                    v += 1
        elif circle == TIE_UNIFORM:
            v = mins[rng.integers(len(mins))]
        elif circle == "uniform_circle":
            v = int(rng.integers(1, n + 1))
        else:
            v = min(lists[mx])
        assert not debug or 1 <= u <= n and 1 <= v <= n
        # edge uv: u, then v, moves up to the tail of its next degree list
        inc = loop_inc if u == v else 1
        x = u
        while True:
            d = deg[x]
            new = deg[x] = d + inc
            left = lists[d]
            last = left.pop()
            if last != x:
                left[pos[x]] = last
                pos[last] = pos[x]
            if new > mx:
                mx = new
                while len(lists) <= new:
                    lists.append([])
            dest = lists[new]
            pos[x] = len(dest)
            dest.append(x)
            if x == v:
                break
            x = v
        if not mins:
            m += 1
            while not lists[m]:
                m += 1
            b.min_nonempty = m
            lo = 1
            break
    b._lo, b.max_nonempty = lo, mx
    state.t += (i - start) // k
    return i, j, v


def play_rounds(state: GraphState, strategy: str, src: SquareSource, rng, rounds: int) -> None:
    """Play at most ``rounds`` rounds off ``src``, refilling a used-up block first."""
    buf, i, k = src._buf, src._i, src.k
    if i >= len(buf):
        buf = src._refill()
        i = 0
    src._i = _play_block(state, strategy, buf, i, min(len(buf), i + rounds * k), k, rng)[0]


def _one_round(state: GraphState, squares: list[int], rng, strategy: str, case: str):
    _, j, v = _play_block(state, strategy, squares, 0, len(squares), len(squares), rng)
    return StepOutcome(case, j + 1, squares[j], v, True)


def mindeg_step(state: GraphState, squares: list[int], rng) -> StepOutcome:
    """One greedy round: minimum-degree square, circle on a minimum-degree vertex."""
    return _one_round(state, squares, rng, "s0", "greedy")


def uniform_circle_step(state: GraphState, squares: list[int], rng) -> StepOutcome:
    """Baseline: same square rule, circle uniform over all vertices."""
    return _one_round(state, squares, rng, "uniform_circle", "uniform")


def max_degree_circle_step(state: GraphState, squares: list[int], rng) -> StepOutcome:
    """Baseline: same square rule, circle on a maximum-degree vertex."""
    return _one_round(state, squares, rng, "max_degree_circle", "max_degree")


MIN_DEGREE_STRATEGIES = {
    "s0": mindeg_step,
    "uniform_circle": uniform_circle_step,
    "max_degree_circle": max_degree_circle_step,
}


def case_probabilities_mindeg(counts, n, k: int, q: int = 0) -> list[float]:
    """P(selected square has degree j), j = q .. q+len(counts)-1.

    ``counts[j-q]`` is the number of degree-j vertices; entries above the
    tracked window are implicit.  Accepts fractions of n by passing ``n=1``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    for c in counts:
        if c < 0:
            raise ValueError("degree counts must be nonnegative")
        total += c
    if total > n * (1 + 1e-12):
        raise ValueError("degree counts exceed the vertex count")
    probs = []
    cum = 0.0
    prev = 1.0
    for c in counts:
        cum += c / n
        base = 1.0 - cum
        if base < 0.0:
            base = 0.0
        cur = base**k
        probs.append(prev - cur)
        prev = cur
    return probs


def mindeg_expected_changes(y, k: int, q: int) -> list[float]:
    """Expected one-round change of each tracked degree count (as fractions).

    ``y[i]`` is the fraction of vertices at degree ``q+i``.  Composed from
    the square-class probabilities: the circle always promotes one
    minimum-degree vertex, the selected square promotes a vertex of its own
    degree class.
    """
    probs = case_probabilities_mindeg(y, 1.0, k, q)
    out = []
    for m in range(len(y)):
        d = 0.0
        if m == 0:
            d -= 1.0
        if m == 1:
            d += 1.0
        d -= probs[m]
        if m >= 1:
            d += probs[m - 1]
        out.append(d)
    return out


@dataclass
class MinDegreeTrace:
    """Hitting-time record of one minimum-degree run."""

    n: int
    k: int
    l: int
    rounds: int
    phase_ends: list[int]
    samples: list[tuple[int, ...]]  # (round, count at degree 0, ..., l-1)


def run_min_degree(
    config: ProcessConfig,
    l: int,
    trial_index: int = 0,
    strategy: str = "s0",
    sample_stride: int = 0,
    validate_every: int = 0,
    streams=None,
) -> MinDegreeTrace:
    """Play until the minimum degree reaches ``l``; record phase breakpoints.

    ``sample_stride`` > 0 additionally records the per-degree counts every
    that many rounds.  ``validate_every`` > 0 runs a full state validation
    periodically and at termination (debug runs).  ``streams`` overrides the
    default (seed, trial_index)-derived generator pair, letting mass
    experiments amortize generator construction.
    The round kernel plays the rounds between phase ends, samples and checks,
    so each is recorded at the round where round-by-round play records it.
    """
    if l < 1:
        raise ValueError("target minimum degree must be >= 1")
    if strategy not in MIN_DEGREE_STRATEGIES:
        raise ValueError(f"unknown min-degree strategy {strategy!r}")
    state = init_state(config)
    src, rng_ch = trial_source(config, trial_index, streams)
    phase_ends = [0] * l
    samples: list[tuple[int, ...]] = []
    buckets = state.buckets
    reached = 0

    def observe(t: int) -> None:
        samples.append((t, *(buckets.count(d) for d in range(l))))

    if sample_stride:
        observe(0)
    while True:
        md = buckets.min_nonempty
        if md > reached:
            phase_ends[reached : min(md, l)] = [state.t] * (min(md, l) - reached)
            reached = md
            if md >= l:
                break
        t = state.t
        budget = sample_stride - t % sample_stride if sample_stride else SQUARE_BLOCK_CAP
        if validate_every:
            budget = min(budget, validate_every - t % validate_every)
        play_rounds(state, strategy, src, rng_ch, budget)
        t = state.t
        if sample_stride and t % sample_stride == 0:
            observe(t)
        if validate_every and t % validate_every == 0:
            state.validate()
    if validate_every:
        state.validate()
    return MinDegreeTrace(config.n, config.k, l, state.t, phase_ends, samples)


@dataclass
class TwoPhaseTrace:
    total_rounds: int
    phase1_rounds: int
    phase2_rounds: int


def two_phase_mindeg(config: ProcessConfig, l: int, trial_index: int = 0) -> TwoPhaseTrace:
    """Sequential circles for l*n/2 rounds, then repair remaining deficits.

    Phase 1 ignores the offered squares (the first offer lands) and puts the
    round-i circle on vertex ((i-1) mod n) + 1.  Phase 2 plays the greedy
    step until the minimum degree reaches l.  Phase 1 is evaluated in bulk:
    the resulting degree vector is the bincount of the landed squares plus
    the deterministic circle counts.
    """
    if l < 1:
        raise ValueError("target minimum degree must be >= 1")
    config.validate()
    n = config.n
    m = (l * n) // 2
    rng_sq, rng_ch = trial_streams(config.seed, trial_index)
    landed = rng_sq.integers(1, n + 1, size=m)
    deg = np.bincount(landed, minlength=n + 1)
    full, rem = divmod(m, n)
    deg[1:] += full
    if rem:
        deg[1 : rem + 1] += 1
    if config.loop_degree == LOOP_COUNTS_ONE:
        # a loop (square == circle) contributes 1, not 2
        rounds = np.arange(1, m + 1)
        circles = (rounds - 1) % n + 1
        loop_vertices = circles[landed == circles]
        if loop_vertices.size:
            deg -= np.bincount(loop_vertices, minlength=n + 1)
    state = state_from_degrees(config, deg.tolist(), t=m)
    src = SquareSource(n, config.k, rng_sq)
    while state.buckets.min_nonempty < l:
        play_rounds(state, "s0", src, rng_ch, SQUARE_BLOCK_CAP)
    return TwoPhaseTrace(state.t, m, state.t - m)


def greedy_pm_large_k(config: ProcessConfig, trial_index: int = 0) -> int:
    """Match an unsaturated square with a random unsaturated partner,
    whenever one is offered, for exactly n/2 rounds.

    The partner is uniform over all unsaturated vertices, so a self-hit
    wastes the round; rounds with no unsaturated square pass.  Returns the
    number of unsaturated vertices left after n/2 rounds.
    """
    config.validate()
    n = config.n
    if n % 2:
        raise ValueError("perfect matching needs an even vertex count")
    unsat = IndexedSet(range(1, n + 1))
    src, rng_ch = trial_source(config, trial_index)
    contains = unsat.__contains__
    for _ in range(n // 2):
        squares = src.next_round()
        if not unsat:
            continue
        u = 0
        for s in squares:
            if contains(s):
                u = s
                break
        if not u:
            continue
        v = unsat.sample(rng_ch)
        if v != u:
            unsat.discard(u)
            unsat.discard(v)
    return len(unsat)


def greedy_ham_path(config: ProcessConfig, trial_index: int = 0) -> int:
    """Extend a path whenever a square lands off it, for n rounds.

    Returns the number of off-path vertices after n rounds.  The first
    extension joins two off-path vertices; later ones append the square to
    an endpoint.
    """
    config.validate()
    n = config.n
    off = IndexedSet(range(1, n + 1))
    tail = 0
    src, rng_ch = trial_source(config, trial_index)
    contains = off.__contains__
    for _ in range(n):
        squares = src.next_round()
        if not off:
            continue
        u = 0
        for s in squares:
            if contains(s):
                u = s
                break
        if not u:
            continue
        if tail == 0:
            if len(off) == 1:
                continue  # a path needs two vertices
            v = off.sample(rng_ch)
            while v == u:
                v = off.sample(rng_ch)
            off.discard(u)
            off.discard(v)
            tail = u
        else:
            off.discard(u)
            tail = u
    return len(off)
