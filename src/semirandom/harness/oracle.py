"""Exact hitting-time oracle for small instances, on lumped chains.

Ground truth for the simulator's step functions, in exact rationals.  The
law of each next state depends on the vertex-level state only through a few
counts, so those counts form a Markov chain with the same hitting-time law
(Kemeny & Snell, *Finite Markov Chains*, 1960, on lumpability).

Minimum degree: the state is the count vector (c_0, ..., c_l) of capped
degrees.  With A_j vertices of class >= j, the square is of class j with
probability (A_j^k - A_{j+1}^k) / n^k, uniform within its class under either
square tie policy, since a class's vertices are exchangeable (a square of
class l, picked by uncapped degree, stays in class l either way).  The circle
goes to the minimum class m, so it hits the square only if the square is of
class m: under ``TIE_AVOID`` exactly when c_m = 1, otherwise with
probability 1 / c_m.  The capped degree sum rises every round, so the law
ends by round n * l.  Bounds: n <= 40, n^k <= 100 000 (the square weights),
C(n + l, l) <= 50 000 count states and n * l <= 400 rounds (which set the
size of the masses: each round multiplies their common denominator).

Perfect matching (n <= 8): the state is (unsaturated count, sorted
pending-edge counts per unsaturated vertex), exchangeable under the uniform
circle.  The chain is acyclic apart from self-loops, so the expectation is
a back-substitution; the law's support is unbounded, so it is cut once the
live mass falls below 1e-12.

Each chain's ``step`` gives a state's transition law as one integer row,
its masses over a denominator L set by the counts: n^k under ``TIE_AVOID``
and n^k c_m otherwise in the degree chain, n^k u^2 max(r, 1) in the
matching chain (u unsaturated vertices, r pending edges).  Both laws are
walked forward round by round in integer masses over one common
denominator per round, with one gcd per law entry (see ``_forward_law``).
The laws, expectations and tails are the same ``Fraction`` values as a walk
in ``Fraction`` masses would give.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from ..process import LOOP_COUNTS_TWO, TIE_AVOID, TIE_LOWEST, ProcessConfig


@dataclass
class OracleResult:
    """Exact expectation plus the hitting-time law.

    For the matching target the law is truncated at 40 n k rounds or once
    the live mass falls below 1e-12 (pass rounds make the support
    unbounded), and the leftover mass is reported in ``tail``; the
    expectation itself is exact in both cases.
    """

    target: str
    n: int
    k: int
    expectation: Fraction
    distribution: dict[int, Fraction]
    tail: Fraction


def exact_small_oracle(
    n: int,
    k: int,
    target: str,
    l: int = 1,
    tie_break: str = TIE_AVOID,
    square_tie_break: str = TIE_LOWEST,
    loop_degree: str = LOOP_COUNTS_TWO,
) -> OracleResult:
    """Exact E[rounds] and hitting-time law for a small instance.

    ``target`` is "min_degree" (with ``l``) or "perfect_matching".  The
    degree target runs on the capped count vector (c_0, ..., c_l): the
    vertices of a class are exchangeable and the circle hits the square with
    a probability set by the counts alone, so the counts carry greedy's law
    exactly under every policy (see the module docstring).  It takes
    n <= 40, n^k <= 100 000, C(n + l, l) <= 50 000 and n * l <= 400; the
    matching target takes n <= 8.  Larger sizes are rejected before any work.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if target == "min_degree":
        return _min_degree_oracle(n, k, l, tie_break, square_tie_break, loop_degree)
    if target == "perfect_matching":
        return _pm_oracle(n, k)
    raise ValueError(
        f"unsupported oracle target {target!r}; the path-builder state space "
        "is not tractable for exact enumeration"
    )


def _forward_law(start, step, cap, tiny=0):
    """Law of the absorption round, walked forward in integer masses.

    ``step(state)`` is one integer row ``(L, hit, moves)``: the absorbed mass
    and each live successor's mass, all times L; callers cache it, so a row
    is built once however many rounds reach its state.  Stops after ``cap``
    rounds or once the live mass is below ``tiny``; returns the law and the
    live mass left, as ``Fraction``s.  The masses of a round are ints over
    one common denominator ``scale``; each round multiplies ``scale`` by d,
    the lcm of the frontier's L, and a state's mass by d // L before its row
    spreads it.  So a round costs integer products and adds, and no gcd
    until the round's law entry ``Fraction(hit, scale)``, which is canonical
    whatever the rows' L.  Every row sums to exactly L, so the live mass is
    1 less the absorbed mass: its numerator over ``scale`` is kept exact
    without summing the frontier, and it is cut against ``tiny`` by
    cross-multiplying.
    """
    frontier = {start: 1}
    law: dict[int, Fraction] = {}
    scale = live = 1
    t = 0
    while frontier and t < cap:
        t += 1
        work = [(mass, step(state)) for state, mass in frontier.items()]
        d = math.lcm(*[row[0] for _, row in work])
        nxt: dict = {}
        hit = 0
        for mass, (den, hit_num, moves) in work:
            mass *= d // den
            hit += mass * hit_num
            for succ, num in moves.items():
                nxt[succ] = nxt.get(succ, 0) + mass * num
        scale *= d
        live = live * d - hit
        if hit:
            law[t] = Fraction(hit, scale)
        frontier = nxt
        if live * tiny.denominator < tiny.numerator * scale:
            break
    return law, Fraction(live, scale)


# ---------------------------------------------------------------- min degree


def _min_degree_oracle(n, k, l, tie_break, square_tie_break, loop_degree):
    if l < 1:
        raise ValueError("target minimum degree must be >= 1")
    # 2^17 > 100 000, so a huge k is refused before n^k is formed
    too_big = n > 40 or (n > 1 and (k >= 17 or n**k > 100_000)) or n * l > 400
    if too_big or math.comb(n + l, l) > 50_000:
        raise ValueError(
            f"degree oracle needs n <= 40, n^k <= 100000, C(n + l, l) <= 50000 "
            f"and n * l <= 400; got n={n}, k={k}, l={l}"
        )
    ProcessConfig(
        n, k, tie_break=tie_break, square_tie_break=square_tie_break, loop_degree=loop_degree
    ).validate()
    loop_inc = 2 if loop_degree == LOOP_COUNTS_TWO else 1
    avoid = tie_break == TIE_AVOID
    done = (0,) * l + (n,)

    @functools.cache
    def step(counts: tuple[int, ...]):
        # over L = n^k * split: the circle hits a square of the minimum
        # class m with probability own / split
        m = next(j for j, c in enumerate(counts) if c)
        split = 1 if avoid else counts[m]
        own = int(counts[m] == 1) if avoid else 1
        moves: dict[tuple[int, ...], int] = {}

        def put(w, *changes):
            if w:
                nc = list(counts)
                for j, inc in changes:
                    nc[j] -= 1
                    nc[min(l, j + inc)] += 1
                nc = tuple(nc)
                moves[nc] = moves.get(nc, 0) + w

        at_least = n  # A_j
        for j in range(m, l + 1):
            c = counts[j]
            if not c:
                continue
            square = at_least**k - (at_least - c) ** k
            at_least -= c
            if j > m:
                put(square * split, (j, 1), (m, 1))
            else:
                put(square * own, (m, loop_inc))
                put(square * (split - own), (m, 1), (m, 1))
        return n**k * split, moves.pop(done, 0), moves

    law, tail = _forward_law((n,) + (0,) * l, step, n * l)
    if tail:
        raise AssertionError("minimum-degree oracle failed to absorb in time")
    expectation = sum((Fraction(t) * p for t, p in law.items()), Fraction(0))
    return OracleResult("min_degree", n, k, expectation, law, Fraction(0))


# ----------------------------------------------------------- perfect matching


def _pm_row(n: int, k: int, state):
    """The matching chain's integer row at ``state``, over L = n^k u^2 max(r, 1)."""
    u, counts = state
    x = n - u
    r = sum(counts)
    per = max(r, 1)
    # the square's cases, times n^k; each successor's weight below is its
    # probability times L
    pa = n**k - x**k
    pb = x**k - (x - r) ** k
    pc = (x - r) ** k - r**k
    pd = r**k
    moves: dict[tuple, int] = {}

    def put(st, w):
        if w:
            moves[st] = moves.get(st, 0) + w

    mult: dict[int, int] = {}
    for c in counts:
        mult[c] = mult.get(c, 0) + 1

    def removed_two(ci, cj):
        lst = list(counts)
        lst.remove(ci)
        lst.remove(cj)
        return (u - 2, tuple(lst))

    put(state, pa * u * per)  # circle hits the selected square
    for cu, mu in mult.items():
        for cv, mv in mult.items():
            m = mv - 1 if cv == cu else mv
            if m > 0:
                put(removed_two(cu, cv), pa * per * mu * m)
    put(state, pb * u * per)  # circle hits the pending endpoint
    for cy, my in mult.items():
        if cy == 0:
            continue
        # the selected pending edge picks y with probability cy * my / r
        for cv, mv in mult.items():
            m = mv - 1 if cv == cy else mv
            if m > 0:
                put(removed_two(cy, cv), pb * cy * my * m * u)
    for cv, mv in mult.items():
        lst = list(counts)
        lst.remove(cv)
        lst.append(cv + 1)
        lst.sort()
        put((u, tuple(lst)), pc * mv * u * per)
    put(state, pd * u * u * per)
    return n**k * u * u * per, moves.pop((0, ()), 0), moves


def _pm_oracle(n, k):
    if n > 8:
        raise ValueError("matching oracle supports n <= 8 only")
    if n % 2:
        raise ValueError("perfect matching needs an even vertex count")
    row = functools.cache(lambda st: _pm_row(n, k, st))

    @functools.cache
    def expected(st) -> Fraction:
        # E(s) = (L + sum_{s' != s} w(s') E(s')) / (L - w(s)) on the row of
        # s; every other live successor has fewer unsaturated vertices or
        # more pending edges, so the recursion ends
        den, _, moves = row(st)
        acc = Fraction(den) + sum(w * expected(ns) for ns, w in moves.items() if ns != st)
        return acc / (den - moves.get(st, 0))

    start = (n, (0,) * n)
    law, tail = _forward_law(start, row, 40 * n * k, Fraction(1, 10**12))
    return OracleResult("perfect_matching", n, k, expected(start), law, tail)
