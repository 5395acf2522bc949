"""Drift systems for the three tracked processes and their solvers.

Each solver turns a drift system into the scaled-time constant of the
corresponding strategy: the minimum-degree system is chained phase by
phase (phase q ends when the count of degree-q vertices hits zero), the
matching system stops when the unsaturated fraction reaches a small
threshold, and the path system stops when the path fraction reaches its
target.  Solutions keep dense samples for trajectory comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .integrator import DomainGuard, IntegratorConfig, OdeFailure, integrate

PM_EPS_DEFAULT = 1e-14
PM_EPS_MIN = 1e-15  # smaller eps is below the double resolution of 1 - x
HAM_X_STOP_DEFAULT = 1.0 - 1e-9
HAM_S_BUDGET = 3.0
PM_S_BUDGET = 2.0
PM_UPPER_MARGIN = 1e-5


def rhs_min_degree(q: int, k: int, l: int):
    """Drift of the degree counts (y_q..y_{l-1}) during phase q.

    The circle demotes one minimum-degree vertex per round; the selected
    square promotes a vertex of its own degree class, with class
    probabilities given by differences of k-th powers of tail fractions.
    Partial sums are clipped to [0, 1] before exponentiation.  The drift of
    y_{q+i} reads only y_q..y_{q+i}, so the system is triangular.
    """
    if not 0 <= q < l:
        raise ValueError("phase index out of range")

    def drift(_s: float, y: list[float]) -> list[float]:
        # p_prev, p and p_next: k-th powers of the fractions of vertices of
        # degree at least q+i-1, q+i and q+i+1 (every vertex has degree >= q)
        out = []
        c = 0.0
        p_prev = p = 1.0
        for i, v in enumerate(y):
            c += v
            u = 1.0 - c
            p_next = (0.0 if u < 0.0 else 1.0 if u > 1.0 else u) ** k
            if i == 0:
                out.append(p_next - p - 1.0)
            elif i == 1:
                out.append(p_next - p + 1.0 + (p_prev - p))
            else:
                out.append(p_next - p + (p_prev - p))
            p_prev, p = p, p_next
        return out

    return drift


def rhs_pm(k: int, guard_eps: float = 1e-15):
    """Drift of (saturated, red) fractions for the matching builder."""

    def drift(_s: float, y: list[float]) -> list[float]:
        x, r = y
        if x >= 1.0 - guard_eps:
            raise DomainGuard(f"saturated fraction {x!r} at the singular boundary")
        # each base is clipped to [0, 1] before exponentiation
        xr = x - r
        xr = (0.0 if xr < 0.0 else 1.0 if xr > 1.0 else xr) ** k
        xk = (0.0 if x < 0.0 else 1.0 if x > 1.0 else x) ** k
        rk = (0.0 if r < 0.0 else 1.0 if r > 1.0 else r) ** k
        dx = 2.0 * (1.0 - xr)
        dr = -2.0 * (1.0 - xr) * r / (1.0 - x) - xk + 2.0 * xr - rk
        return [dx, dr]

    return drift


def rhs_ham(k: int, guard_eps: float = 1e-15):
    """Drift of (path, matched, red) fractions for the path builder."""

    def drift(_s: float, y: list[float]) -> list[float]:
        x, yy, r = y
        if x >= 1.0 - guard_eps:
            raise DomainGuard(f"path fraction {x!r} at the singular boundary")
        w = 1.0 - x
        # each base is clipped to [0, 1] before exponentiation
        xy = x + yy
        xy = (0.0 if xy < 0.0 else 1.0 if xy > 1.0 else xy) ** k
        xk = (0.0 if x < 0.0 else 1.0 if x > 1.0 else x) ** k
        x2r = x - 2.0 * r
        x2r = (0.0 if x2r < 0.0 else 1.0 if x2r > 1.0 else x2r) ** k
        r3 = 3.0 * r
        r3 = (0.0 if r3 < 0.0 else 1.0 if r3 > 1.0 else r3) ** k
        pb = xy - xk
        pc = xk - x2r
        dx = 2.0 * pb + (1.0 + yy / w) * pc
        dy = 2.0 * (1.0 - xy) - 2.0 * pb - 2.0 * pc * yy / w
        dr = -2.0 * r / w * pb - ((w + yy) * r / (w * w) + 1.0) * pc + (x2r - r3)
        return [dx, dy, dr]

    return drift


@dataclass
class PhaseSolution:
    """Solved trajectory with its breakpoints and terminal constant.

    ``grid_y`` holds one row per tracked coordinate on the uniform grid
    ``grid_s``; retired minimum-degree coordinates are zero-filled.
    ``n_steps``, ``n_rejected`` and ``n_rhs`` count accepted steps,
    rejected trial steps and drift evaluations (every one, the event's
    location included), each summed over the phases.
    """

    property: str
    k: int
    l: int | None
    breakpoints: list[float]
    constant: float
    labels: tuple[str, ...]
    grid_s: list[float] = field(repr=False, default_factory=list)
    grid_y: list[list[float]] = field(repr=False, default_factory=list)
    n_steps: int = 0
    n_rhs: int = 0
    n_rejected: int = 0

    def coordinate(self, label: str) -> list[float]:
        return self.grid_y[self.labels.index(label)]


def solve_min_degree(k: int, l: int, cfg: IntegratorConfig | None = None) -> PhaseSolution:
    """Scaled rounds until minimum degree l, by chaining the l phases.

    Phase q tracks (y_q..y_{l-1}) from the previous phase's terminal values
    and ends at the localized zero of its leading coordinate; the constant
    is the last breakpoint.  Breakpoint q is the constant of target q + 1,
    since the drift is triangular (see ``rhs_min_degree``).
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    cfg = cfg or IntegratorConfig()
    y = [1.0] + [0.0] * (l - 1)
    s = 0.0
    breakpoints: list[float] = []
    grid_s: list[float] = []
    grid_y: list[list[float]] = [[] for _ in range(l)]
    total_steps = 0
    total_rhs = 0
    total_rejected = 0
    for q in range(l):
        res = integrate(
            rhs_min_degree(q, k, l), cfg, y, s_budget=s + 5.0, s0=s, stop=lambda _s, yy: -yy[0]
        )
        total_steps += res.n_steps
        total_rhs += res.n_rhs
        total_rejected += res.n_rejected
        if res.status != "event":
            raise OdeFailure(
                f"phase {q} of the degree system (k={k}, l={l}) ended without "
                f"its zero crossing: {res.status} {res.message}"
            )
        if cfg.dense_step:
            for j, sv in enumerate(res.dense_s):
                grid_s.append(sv)
                for c in range(q):
                    grid_y[c].append(0.0)
                for c in range(l - q):
                    grid_y[q + c].append(res.dense_y[j][c])
        s = res.s_end
        breakpoints.append(s)
        y = [max(0.0, v) for v in res.y_end[1:]]
    sol = PhaseSolution(
        property="min_degree",
        k=k,
        l=l,
        breakpoints=breakpoints,
        constant=s,
        labels=tuple(f"y{i}" for i in range(l)),
        grid_s=grid_s,
        grid_y=grid_y,
        n_steps=total_steps,
        n_rhs=total_rhs,
        n_rejected=total_rejected,
    )
    # breakpoint q is the constant of target q + 1, and a round adds two
    # degrees, so each lies at or above (q + 1) / 2
    for target, tau in enumerate(breakpoints, 1):
        if tau < target / 2:
            raise OdeFailure(
                f"degree constant {tau} for l={target} below the trivial bound {target / 2}"
            )
    return sol


def _solve_stop(
    property_name: str, k: int, drift, stop, labels: tuple[str, ...],
    s_budget: float, bound: float, cfg: IntegratorConfig | None,
) -> PhaseSolution:
    """Scaled rounds from the origin until ``stop(s, y)`` crosses upward to >= 0.

    Raises ``OdeFailure`` when it does not cross by ``s_budget`` or the
    constant lies below the trivial lower ``bound``.
    """
    dim = len(labels)
    res = integrate(drift, cfg or IntegratorConfig(), [0.0] * dim, s_budget=s_budget, stop=stop)
    if res.status != "event":
        raise OdeFailure(
            f"{property_name} system (k={k}) did not reach its threshold by s={s_budget}: "
            f"{res.status} {res.message}"
        )
    if res.s_end < bound:
        raise OdeFailure(
            f"{property_name} constant {res.s_end} below the trivial bound {bound}"
        )
    return PhaseSolution(
        property=property_name,
        k=k,
        l=None,
        breakpoints=[res.s_end],
        constant=res.s_end,
        labels=labels,
        grid_s=res.dense_s,
        grid_y=[[row[i] for row in res.dense_y] for i in range(dim)],
        n_steps=res.n_steps,
        n_rhs=res.n_rhs,
        n_rejected=res.n_rejected,
    )


def solve_pm(
    k: int, eps: float = PM_EPS_DEFAULT, cfg: IntegratorConfig | None = None
) -> PhaseSolution:
    """Scaled rounds until at most an eps fraction stays unsaturated.

    The event localizes 1 - x(s) = eps; the endgame slows as x approaches 1
    (the slope decays like sqrt(1 - x)).  A round saturates at most two
    vertices, so a constant below (1 - eps) / 2 is an error.  Raises
    ``OdeFailure`` when the threshold is not reached by s = PM_S_BUDGET.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not PM_EPS_MIN <= eps < 1.0:
        raise ValueError(f"eps must lie in [{PM_EPS_MIN}, 1), got {eps}")
    return _solve_stop(
        "perfect_matching", k, rhs_pm(k, guard_eps=eps / 2),
        lambda _s, y: -((1.0 - y[0]) - eps),
        ("x", "r"), PM_S_BUDGET, (1.0 - eps) / 2, cfg,
    )


def solve_ham(
    k: int, x_stop: float = HAM_X_STOP_DEFAULT, cfg: IntegratorConfig | None = None
) -> PhaseSolution:
    """Scaled rounds until the path fraction reaches x_stop.

    A round plays one edge, so a constant below x_stop is an error.  Raises
    ``OdeFailure`` when x_stop is not reached by s = HAM_S_BUDGET.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < x_stop < 1.0:
        raise ValueError("x_stop must lie in (0, 1)")
    return _solve_stop(
        "hamilton_cycle", k, rhs_ham(k, guard_eps=(1.0 - x_stop) / 2),
        lambda _s, y: y[0] - x_stop,
        ("x", "y", "r"), HAM_S_BUDGET, x_stop, cfg,
    )


@dataclass(frozen=True)
class TableRecord:
    property: str
    k: int
    l: int | None
    constant: float
    kind: str  # "tau" | "lower" | "upper"


def emit_tables(
    property_name: str,
    k_range,
    l_range=None,
    eps: float = PM_EPS_DEFAULT,
    x_stop: float = HAM_X_STOP_DEFAULT,
    cfg: IntegratorConfig | None = None,
) -> list[TableRecord]:
    """Constant grids: degree targets, or matching/path bounds per k.

    The matching and path tables carry lower bounds from the degree system
    (targets 1 and 2 respectively) and take no ``l_range``; the matching
    upper bound includes the fixed completion margin.  A matching or path
    solve that misses its threshold raises ``OdeFailure``, so no table
    carries an unfinished bound.
    The degree grid is one ladder per k: the drift is triangular, so the
    l-system is the first l coordinates of the system for the largest l,
    and target l is breakpoint l - 1 of that one solve.  Its step control
    sees every coordinate, so a rung differs from its own l-solve in the
    last bits only.
    The tables read only the constants, so every solve runs without a
    dense grid; sampling never changes the step sequence, so the constants
    are the ones a sampled solve gives.
    """
    # both stop levels are checked before any solve, used by this table or not
    if not PM_EPS_MIN <= eps < 1.0:
        raise ValueError(f"eps must lie in [{PM_EPS_MIN}, 1), got {eps}")
    if not 0.0 < x_stop < 1.0:
        raise ValueError("x_stop must lie in (0, 1)")
    cfg = replace(cfg or IntegratorConfig(), dense_step=None)
    records: list[TableRecord] = []
    if property_name == "min_degree":
        ls = list(range(1, 6) if l_range is None else l_range)
        if not ls:
            raise ValueError("the l range is empty")
        if min(ls) < 1:
            raise ValueError("k and l must be >= 1")
        ladders = {k: solve_min_degree(k, max(ls), cfg).breakpoints for k in k_range}
        for l in ls:
            for k in k_range:
                records.append(TableRecord("min_degree", k, l, ladders[k][l - 1], "tau"))
    elif property_name in ("perfect_matching", "hamilton_cycle"):
        if l_range is not None:
            raise ValueError("the matching and cycle tables take no l range")
        pm = property_name == "perfect_matching"
        for k in k_range:
            lower = solve_min_degree(k, 1 if pm else 2, cfg).constant
            if pm:
                upper = solve_pm(k, eps, cfg).constant + PM_UPPER_MARGIN
            else:
                upper = solve_ham(k, x_stop, cfg).constant
            records.append(TableRecord(property_name, k, None, lower, "lower"))
            records.append(TableRecord(property_name, k, None, upper, "upper"))
    else:
        raise ValueError(f"unknown property {property_name!r}")
    return records


def closed_form_degree1_constant(k: int) -> float:
    """Independent check for the single-phase degree constant.

    With one tracked coordinate the phase reduces to a separable equation;
    the constant is the integral of 1/(2 - z^k) over [0, 1], which is the
    sum of 2^-(j+1) / (jk + 1) over j >= 0.  The terms past j = 59 sum to
    less than 2^-60.
    """
    return math.fsum(2.0 ** -(j + 1) / (j * k + 1) for j in range(60))
