"""Greedy minimum-degree strategy and its variants.

The greedy round selects an offered square of minimum degree and places the
circle on a minimum-degree vertex.  Baseline circle rules (uniform over all
vertices, or the maximum-degree vertex) are provided for dominance
experiments, and a two-phase sequential-circles algorithm plus the
single-purpose greedy routines cover the large-parameter regimes.

Every min-degree round, the one-round steps' and ``add_edge``'s included, is
played by one kernel, ``_play_block``, with the degree state in locals,
until the minimum degree rises or the round budget (next sample or check,
or block end) runs out.  It moves each endpoint between per-degree counts,
and between packed per-degree lists only under the uniform circle tie-break,
which draws from them.  It makes round-by-round play's ``rng.integers`` calls
in order and dispatches on the strategy name, its last argument, not on the
``MIN_DEGREE_STRATEGIES`` entry a profiler wraps.  Runs play it under
``play_blocks``, the driver of the builders' kernels too, which sets the
budgets and refills blocks only where ``next_round`` would.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..process import (
    GraphState,
    ProcessConfig,
    TIE_AVOID,
    TIE_LOWEST,
    TIE_UNIFORM,
    LOOP_COUNTS_ONE,
    LOOP_COUNTS_TWO,
    init_state,
    packed_list,
    put,
    state_from_degrees,
    take,
    vertex_array,
)
from ..rng import SquareSource, trial_streams
from .common import StepOutcome, play_blocks, trial_source


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


def _play_block(state: GraphState, buf: list[int], i: int, end: int, k: int, rng,
                strategy: str | int) -> tuple[int, int, int]:
    """The round kernel: play ``strategy`` off ``buf[i:end]`` (k offers a round) until
    the minimum degree rises; return (position, last square's offset, last circle).

    A vertex id in place of a strategy name puts every circle on that vertex.
    """
    cfg = state.config
    n, debug = cfg.n, cfg.debug
    loop_inc = 2 if cfg.loop_degree == LOOP_COUNTS_TWO else 1
    uniform_square = k > 1 and cfg.square_tie_break == TIE_UNIFORM  # a lone offer is its pick
    circle = cfg.tie_break if strategy == "s0" else strategy
    deg, b = state.degree, state.buckets
    cnt, lists, pos, m, mx, lo = b.cnt, b._lists, b.pos, b.min_nonempty, b.max_nonempty, b._lo
    start = i
    j = v = 0
    while i < end:
        # square: the first minimum-degree offer, or a uniform one among them
        if uniform_square:
            j = i + select_square_index(deg, buf[i : i + k], TIE_UNIFORM, rng)
            u = buf[j]
        else:
            u = buf[i]
            du = deg[u]
            for x in buf[i + 1 : i + k]:
                d = deg[x]
                if d < du:
                    u, du = x, d
        i += k
        # circle: the lowest minimum-degree vertex (off the square under TIE_AVOID while
        # another exists), a uniform one, a uniform vertex, the lowest maximum-degree one,
        # or the vertex given in the strategy slot
        if circle in (TIE_AVOID, TIE_LOWEST) or mx == m and circle == "max_degree_circle":
            while deg[lo] != m:
                lo += 1
            v = lo
            if v == u and circle == TIE_AVOID and cnt[m] > 1:
                v += 1
                while deg[v] != m:
                    v += 1
        elif circle == TIE_UNIFORM:
            mins = lists[m]
            v = mins[rng.integers(len(mins))]
        elif circle == "uniform_circle":
            v = int(rng.integers(1, n + 1))
        elif circle == "max_degree_circle":
            v = deg.index(mx, 1)
        else:
            v = circle
        assert not debug or 1 <= u <= n and 1 <= v <= n
        # edge uv: u, then v, moves up a degree class (to the tail of its next list, if packed)
        inc = loop_inc if u == v else 1
        x = u
        while True:
            d = deg[x]
            new = deg[x] = d + inc
            cnt[d] -= 1
            if new > mx:
                mx = new
                while len(cnt) <= new:
                    cnt.append(0)
                    if lists is not None:
                        lists.append(vertex_array(0))
            cnt[new] += 1
            if lists is not None:
                take(lists[d], pos, x)
                put(lists[new], pos, x)
            if x == v:
                break
            x = v
        if not cnt[m]:
            m += 1
            while not cnt[m]:
                m += 1
            b.min_nonempty = m
            lo = 1
            break
    if i > start and not uniform_square:
        j = buf.index(u, i - k)  # the first offer of u is the first minimum-degree offer
    b._lo, b.max_nonempty = lo, mx
    state.t += (i - start) // k
    return i, j, v


def add_edge(state: GraphState, u: int, v: int) -> GraphState:
    """Add edge uv (loops and parallel edges allowed): one kernel round, u the only offer."""
    _play_block(state, [u], 0, 1, 1, None, v)
    return state


def _one_round(state: GraphState, squares: list[int], rng, strategy: str, case: str):
    _, j, v = _play_block(state, squares, 0, len(squares), len(squares), rng, strategy)
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
    ``play_blocks`` ends a kernel call at every phase end, sample and check,
    so each is recorded at the round where round-by-round play records it.
    """
    if l < 1:
        raise ValueError("target minimum degree must be >= 1")
    if strategy not in MIN_DEGREE_STRATEGIES:
        raise ValueError(f"unknown min-degree strategy {strategy!r}")
    state = init_state(config)
    src, rng_ch = trial_source(config, trial_index, streams)
    phase_ends: list[int] = []
    samples: list[tuple[int, ...]] = []
    buckets = state.buckets

    def observe(t: int) -> None:
        samples.append((t, *(buckets.count(d) for d in range(l))))

    def done() -> bool:
        md = min(buckets.min_nonempty, l)
        phase_ends.extend([state.t] * (md - len(phase_ends)))
        return md == l

    if sample_stride:
        observe(0)
    play_blocks(_play_block, state, src, rng_ch, strategy, done, observe=observe,
                every=sample_stride, check=state.validate, check_every=validate_every)
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
    import numpy as np

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
    play_blocks(_play_block, state, SquareSource(n, config.k, rng_sq), rng_ch, "s0",
                lambda: state.buckets.min_nonempty >= l, t=m)
    return TwoPhaseTrace(state.t, m, state.t - m)


def greedy_pm_large_k(config: ProcessConfig, trial_index: int = 0) -> int:
    """Match an unsaturated square with a random unsaturated partner,
    whenever one is offered, for exactly n/2 rounds.

    The partner is drawn uniformly, by index into a packed list of all
    unsaturated vertices (``pos[v]`` is v's slot), so a self-hit wastes the
    round; rounds with no unsaturated square pass.  Returns the number of
    unsaturated vertices left after n/2 rounds.
    """
    config.validate()
    n = config.n
    if n % 2:
        raise ValueError("perfect matching needs an even vertex count")
    unsat, pos = packed_list(n)
    src, rng_ch = trial_source(config, trial_index)
    for _ in range(n // 2):
        squares = src.next_round()
        if not unsat:
            continue
        u = 0
        for s in squares:
            if pos[s] < len(unsat) and unsat[pos[s]] == s:
                u = s
                break
        if not u:
            continue
        v = unsat[rng_ch.integers(len(unsat))]
        if v != u:
            take(unsat, pos, u)
            take(unsat, pos, v)
    return len(unsat)


def greedy_ham_path(config: ProcessConfig, trial_index: int = 0) -> int:
    """Extend a path whenever a square lands off it, for n rounds.

    Returns the number of off-path vertices after n rounds.  The first
    extension joins two off-path vertices, drawn from a packed list as in
    ``greedy_pm_large_k``; later ones append the square to an endpoint.
    """
    config.validate()
    n = config.n
    off, pos = packed_list(n)
    tail = 0
    src, rng_ch = trial_source(config, trial_index)
    for _ in range(n):
        squares = src.next_round()
        if not off:
            continue
        u = 0
        for s in squares:
            if pos[s] < len(off) and off[pos[s]] == s:
                u = s
                break
        if not u:
            continue
        if tail == 0:
            if len(off) == 1:
                continue  # a path needs two vertices
            v = off[rng_ch.integers(len(off))]
            while v == u:
                v = off[rng_ch.integers(len(off))]
            joined: tuple[int, ...] = (u, v)
        else:
            joined = (u,)
        for w in joined:
            take(off, pos, w)
        tail = u
    return len(off)
