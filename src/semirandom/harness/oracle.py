"""Exact hitting-time oracle for tiny instances.

Ground truth for the simulator's step functions, computed with exact
rational arithmetic.  The minimum-degree oracle walks the full capped
degree-vector space forward.  Each state's successor law is built once,
by enumerating every ordered square tuple and mirroring the simulator's
tie-break policies, as integer weights over one per-round denominator
D = n^k * lcm(1..k) * lcm(1..n); the frontier masses after t rounds are
integers over D^t, and only the absorbed mass of each round becomes a
``Fraction``.  The matching oracle reduces the state to (unsaturated
count, multiset of pending-edge counts per unsaturated vertex), which the
uniform circle placement makes exchangeable, and solves the linear
hitting-time system exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ..process import (
    LOOP_COUNTS_TWO,
    TIE_AVOID,
    TIE_LOWEST,
    TIE_UNIFORM,
)

MAX_TUPLE_ENUMERATION = 100_000
MAX_STATE_TUPLES = 2_000_000


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
    """Exact E[rounds] and hitting-time law for a tiny instance.

    ``target`` is "min_degree" (with ``l``) or "perfect_matching".  Sizes
    that would blow up the enumeration are rejected.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if n > 8:
        raise ValueError("oracle supports n <= 8 only")
    if target == "min_degree":
        return _min_degree_oracle(n, k, l, tie_break, square_tie_break, loop_degree)
    if target == "perfect_matching":
        return _pm_oracle(n, k, horizon)
    raise ValueError(
        f"unsupported oracle target {target!r}; the path-builder state space "
        "is not tractable for exact enumeration"
    )


# ---------------------------------------------------------------- min degree


def _min_degree_oracle(n, k, l, tie_break, square_tie_break, loop_degree):
    if l < 1:
        raise ValueError("target minimum degree must be >= 1")
    if n**k > MAX_TUPLE_ENUMERATION:
        raise ValueError(f"square enumeration n^k = {n**k} is intractable")
    if n**k * (l + 1) ** n > MAX_STATE_TUPLES:
        raise ValueError("state space is intractable for exact enumeration")
    if tie_break not in (TIE_LOWEST, TIE_AVOID, TIE_UNIFORM):
        raise ValueError(f"unknown circle tie-break {tie_break!r}")
    if square_tie_break not in (TIE_LOWEST, TIE_UNIFORM):
        raise ValueError(f"unknown square tie-break {square_tie_break!r}")
    tuples = list(itertools.product(range(n), repeat=k))
    # a uniform square tie-break splits a tuple among at most k offers and a
    # uniform circle splits among at most n vertices, so every transition
    # probability is an integer over one denominator
    square_unit = math.lcm(*range(1, k + 1))
    circle_unit = math.lcm(*range(1, n + 1))
    denom = n**k * square_unit * circle_unit
    loop_inc = 2 if loop_degree == LOOP_COUNTS_TWO else 1

    def successors(degs: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Successor law of one state, summed over all n^k square tuples."""
        square_weight = [0] * n
        for tup in tuples:
            smin = min(degs[s] for s in tup)
            offers = [s for s in tup if degs[s] == smin]
            if square_tie_break == TIE_LOWEST:
                square_weight[offers[0]] += square_unit
            else:
                share = square_unit // len(offers)
                for u in offers:
                    square_weight[u] += share
        dmin = min(degs)
        bucket = [v for v in range(n) if degs[v] == dmin]
        law: dict[tuple[int, ...], int] = {}
        for u, wu in enumerate(square_weight):
            if not wu:
                continue
            if tie_break == TIE_LOWEST:
                circles = [(circle_unit, bucket[0])]
            elif tie_break == TIE_AVOID:
                others = [v for v in bucket if v != u]
                circles = [(circle_unit, others[0] if others else u)]
            else:
                share = circle_unit // len(bucket)
                circles = [(share, v) for v in bucket]
            for wv, v in circles:
                nd = list(degs)
                if u == v:
                    nd[u] = min(l, nd[u] + loop_inc)
                else:
                    nd[u] = min(l, nd[u] + 1)
                    nd[v] = min(l, nd[v] + 1)
                ns = tuple(nd)
                law[ns] = law.get(ns, 0) + wu * wv
        return law

    # frontier masses after t rounds are integers over denom**t
    frontier: dict[tuple[int, ...], int] = {(0,) * n: 1}
    distribution: dict[int, Fraction] = {}
    scale = 1
    t = 0
    max_rounds = n * l + 1  # the circle raises the capped degree sum every round
    while frontier:
        t += 1
        if t > max_rounds:
            raise AssertionError("minimum-degree oracle failed to absorb in time")
        scale *= denom
        nxt: dict[tuple[int, ...], int] = {}
        absorbed = 0
        # the capped degree sum rises every round, so no state recurs and
        # each successor law is computed once
        for degs, mass in frontier.items():
            for ns, w in successors(degs).items():
                if min(ns) >= l:
                    absorbed += mass * w
                else:
                    nxt[ns] = nxt.get(ns, 0) + mass * w
        if absorbed:
            distribution[t] = Fraction(absorbed, scale)
        frontier = nxt
    expectation = sum((Fraction(t) * p for t, p in distribution.items()), Fraction(0))
    return OracleResult("min_degree", n, k, expectation, distribution, Fraction(0))


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
    if n % 2:
        raise ValueError("perfect matching needs an even vertex count")
    start = (n, (0,) * n)
    # discover the reachable chain
    reach = [start]
    seen = {start}
    trans: dict[tuple, dict[tuple, Fraction]] = {}
    i = 0
    while i < len(reach):
        st = reach[i]
        i += 1
        if st[0] == 0:
            continue
        tr = _pm_transitions(n, k, st)
        trans[st] = tr
        for ns in tr:
            if ns not in seen:
                seen.add(ns)
                reach.append(ns)
    live = [st for st in reach if st[0] > 0]
    index = {st: j for j, st in enumerate(live)}
    m = len(live)
    # E[st] = 1 + sum_ns P(st->ns) E[ns]; absorbing states have E = 0
    aug = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for st, j in index.items():
        aug[j][j] = Fraction(1)
        aug[j][m] = Fraction(1)
        for ns, p in trans[st].items():
            if ns[0] > 0:
                aug[j][index[ns]] -= p
    _solve_inplace(aug)
    expectation = aug[index[start]][m]

    # forward law, truncated once the leftover mass is negligible
    cap = horizon if horizon is not None else 40 * n * max(1, k)
    frontier = {start: Fraction(1)}
    distribution: dict[int, Fraction] = {}
    t = 0
    tiny = Fraction(1, 10**12)
    while frontier and t < cap:
        t += 1
        nxt: dict[tuple, Fraction] = {}
        for st, p in frontier.items():
            for ns, q in trans[st].items():
                mass = p * q
                if ns[0] == 0:
                    distribution[t] = distribution.get(t, Fraction(0)) + mass
                else:
                    nxt[ns] = nxt.get(ns, Fraction(0)) + mass
        frontier = nxt
        if sum(frontier.values(), Fraction(0)) < tiny:
            break
    tail = sum(frontier.values(), Fraction(0))
    return OracleResult("perfect_matching", n, k, expectation, distribution, tail)


def _solve_inplace(aug: list[list[Fraction]]) -> None:
    """Gaussian elimination with exact rationals; aug is m x (m+1)."""
    m = len(aug)
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            raise AssertionError("singular hitting-time system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
