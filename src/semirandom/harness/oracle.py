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

Both laws are walked forward round by round in integer masses over one
common denominator per round: each state's transition law becomes a row of
ints once, and a round costs integer products and adds, with one gcd per law
entry instead of one per transition (see ``_forward_law``).  The laws,
expectations and tails are the same ``Fraction`` values as a walk in
``Fraction`` masses would give.
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

    For the matching target the law is truncated at ``horizon`` (pass
    rounds make the support unbounded) and the leftover mass is reported in
    ``tail``; the expectation itself is exact in both cases.
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
    horizon: int | None = None,
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
        return _pm_oracle(n, k, horizon)
    raise ValueError(
        f"unsupported oracle target {target!r}; the path-builder state space "
        "is not tractable for exact enumeration"
    )


def _forward_law(start, step, absorbed, cap, tiny=0):
    """Law of the absorption round, walked forward in integer masses.

    Stops after ``cap`` rounds or once the live mass is below ``tiny``;
    returns the law and the live mass left, as ``Fraction``s.  The first time
    a state is reached its ``step`` law becomes one integer row, kept for
    later rounds: the lcm L of its denominators, the absorbed mass times L,
    and each live successor's probability times L.  The masses of a round
    are ints over one common denominator ``scale``; each round multiplies
    ``scale`` by d, the lcm of the frontier's L, and a state's mass by d // L
    before its row spreads it.  So a round costs integer products and adds,
    and no gcd until the round's law entry ``Fraction(hit, scale)``, which is
    canonical like the rest.  Every ``step`` law sums to exactly 1, so the
    live mass is 1 less the absorbed mass: its numerator over ``scale`` is
    kept exact without summing the frontier, and it is cut against ``tiny``
    by cross-multiplying.
    """
    rows: dict = {}
    frontier = {start: 1}
    law: dict[int, Fraction] = {}
    scale = live = 1
    t = 0
    while frontier and t < cap:
        t += 1
        work = []
        for state, mass in frontier.items():
            row = rows.get(state)
            if row is None:
                row = rows[state] = _integer_row(step(state), absorbed)
            work.append((mass, row))
        d = math.lcm(*[row[0] for _, row in work])
        nxt: dict = {}
        hit = 0
        for mass, (den, hit_num, moves) in work:
            mass *= d // den
            hit += mass * hit_num
            for succ, num in moves:
                nxt[succ] = nxt.get(succ, 0) + mass * num
        scale *= d
        live = live * d - hit
        if hit:
            law[t] = Fraction(hit, scale)
        frontier = nxt
        if live * tiny.denominator < tiny.numerator * scale:
            break
    return law, Fraction(live, scale)


def _integer_row(law, absorbed):
    """(L, absorbed mass * L, [(live successor, p * L)]) of one ``step`` law,
    L the lcm of its denominators."""
    den = math.lcm(*[p.denominator for p in law.values()])
    hit_num = 0
    moves = []
    for succ, p in law.items():
        num = p.numerator * (den // p.denominator)
        if absorbed(succ):
            hit_num += num
        else:
            moves.append((succ, num))
    return den, hit_num, moves


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

    def step(counts: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        law: dict[tuple[int, ...], Fraction] = {}

        def put(p, *moves):
            if p:
                nc = list(counts)
                for j, inc in moves:
                    nc[j] -= 1
                    nc[min(l, j + inc)] += 1
                nc = tuple(nc)
                law[nc] = law.get(nc, 0) + p

        m = next(j for j, c in enumerate(counts) if c)
        at_least = n  # A_j
        for j in range(m, l + 1):
            c = counts[j]
            if not c:
                continue
            square = Fraction(at_least**k - (at_least - c) ** k, n**k)
            at_least -= c
            if j > m:
                put(square, (j, 1), (m, 1))
            else:
                hit = Fraction(c == 1) if avoid else Fraction(1, c)
                put(square * hit, (m, loop_inc))
                put(square * (1 - hit), (m, 1), (m, 1))
        return law

    law, tail = _forward_law((n,) + (0,) * l, step, lambda c: c[l] == n, n * l)
    if tail:
        raise AssertionError("minimum-degree oracle failed to absorb in time")
    expectation = sum((Fraction(t) * p for t, p in law.items()), Fraction(0))
    return OracleResult("min_degree", n, k, expectation, law, Fraction(0))


# ----------------------------------------------------------- perfect matching


def _pm_transitions(n: int, k: int, state):
    """Map successor state -> probability, exact in Fractions."""
    u, counts = state
    x = n - u
    r = sum(counts)
    fx = Fraction(x, n)
    fxr = Fraction(x - r, n)
    fr = Fraction(r, n)
    pa = 1 - fx**k
    pb = fx**k - fxr**k
    pc = fxr**k - fr**k
    pd = fr**k
    out: dict[tuple, Fraction] = {}

    def put(st, p):
        if p:
            out[st] = out.get(st, Fraction(0)) + p

    mult: dict[int, int] = {}
    for c in counts:
        mult[c] = mult.get(c, 0) + 1

    def removed_two(ci, cj):
        lst = list(counts)
        lst.remove(ci)
        lst.remove(cj)
        return (u - 2, tuple(lst))

    if pa:
        put(state, pa * Fraction(1, u))  # circle hits the selected square
        for cu, mu in mult.items():
            p_u = Fraction(mu, u)
            for cv, mv in mult.items():
                m = mv - 1 if cv == cu else mv
                if m <= 0:
                    continue
                put(removed_two(cu, cv), pa * p_u * Fraction(m, u))
    if pb and r:
        put(state, pb * Fraction(1, u))  # circle hits the pending endpoint
        for cy, my in mult.items():
            if cy == 0:
                continue
            p_y = Fraction(cy * my, r)  # the selected pending edge picks y
            for cv, mv in mult.items():
                m = mv - 1 if cv == cy else mv
                if m <= 0:
                    continue
                put(removed_two(cy, cv), pb * p_y * Fraction(m, u))
    if pc:
        for cv, mv in mult.items():
            lst = list(counts)
            lst.remove(cv)
            lst.append(cv + 1)
            lst.sort()
            put((u, tuple(lst)), pc * Fraction(mv, u))
    if pd:
        put(state, pd)
    return out


def _pm_oracle(n, k, horizon):
    if n > 8:
        raise ValueError("matching oracle supports n <= 8 only")
    if n % 2:
        raise ValueError("perfect matching needs an even vertex count")
    trans = functools.cache(lambda st: _pm_transitions(n, k, st))

    @functools.cache
    def expected(st) -> Fraction:
        # E(s) = (1 + sum_{s' != s} P(s -> s') E(s')) / (1 - P(s -> s));
        # every other successor has fewer unsaturated vertices or more
        # pending edges, so the recursion ends
        if st[0] == 0:
            return Fraction(0)
        stay = Fraction(0)
        acc = Fraction(1)
        for ns, p in trans(st).items():
            if ns == st:
                stay = p
            else:
                acc += p * expected(ns)
        return acc / (1 - stay)

    start = (n, (0,) * n)
    cap = horizon if horizon is not None else 40 * n * max(1, k)
    law, tail = _forward_law(start, trans, lambda st: st[0] == 0, cap, Fraction(1, 10**12))
    return OracleResult("perfect_matching", n, k, expected(start), law, tail)
