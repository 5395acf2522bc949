"""Drift systems, solved constants, and their cross-checks."""

import dataclasses
import hashlib
import math
import random

import pytest

from semirandom.ode import (
    PM_UPPER_MARGIN,
    IntegratorConfig,
    OdeFailure,
    closed_form_degree1_constant,
    emit_tables,
    rhs_ham,
    rhs_min_degree,
    rhs_pm,
    solve_ham,
    solve_min_degree,
    solve_pm,
)
from semirandom.strategies import (
    ham_expected_changes,
    mindeg_expected_changes,
    pm_expected_changes,
)

LN2 = math.log(2.0)


def test_degree_drift_fresh_state():
    for k in (1, 2, 5):
        assert rhs_min_degree(0, k, 1)(0.0, [1.0]) == [-2.0]


def test_degree_drift_linear_case_closed_form():
    # single coordinate, one offer: y' = -1 - y, so y(x) = 2 exp(-x) - 1
    drift = rhs_min_degree(0, 1, 1)
    for y in (1.0, 0.5, 0.25):
        assert abs(drift(0.0, [y])[0] - (-1.0 - y)) < 1e-15
    sol = solve_min_degree(1, 1)
    assert abs(sol.constant - LN2) < 1e-8


def test_degree_drift_two_coordinates():
    drift = rhs_min_degree(0, 1, 2)
    d = drift(0.0, [1.0, 0.0])
    assert d[0] == -2.0
    assert d[1] == 2.0  # circle promotion plus the selected square's promotion


def test_pm_drift_values():
    assert rhs_pm(1)(0.0, [0.0, 0.0]) == [2.0, 0.0]
    dx, dr = rhs_pm(1)(0.0, [0.5, 0.0])
    assert abs(dx - 1.0) < 1e-15
    assert abs(dr - 0.5) < 1e-15


def test_ham_drift_values():
    assert rhs_ham(1)(0.0, [0.0, 0.0, 0.0]) == [0.0, 2.0, 0.0]
    dx, dy, dr = rhs_ham(1)(0.0, [0.5, 0.25, 0.05])
    assert abs(dx - 0.65) < 1e-15


def _clip01(v):
    if v < 0.0:
        return 0.0
    if v > 1.0:
        return 1.0
    return v


def _reference_rhs_min_degree(q, k, l):
    # the list-of-powers form the written-out drift replaced
    m = l - q

    def drift(_s, y):
        powers = [1.0]
        c = 0.0
        for v in y:
            c += v
            powers.append(_clip01(1.0 - c) ** k)
        out = []
        for i in range(m):
            d = powers[i + 1] - powers[i]
            if i == 0:
                d -= 1.0
            if i == 1:
                d += 1.0
            if i >= 1:
                d += powers[i - 1] - powers[i]
            out.append(d)
        return out

    return drift


def _reference_rhs_pm(k):
    def drift(_s, y):
        x, r = y
        xr = _clip01(x - r) ** k
        xk = _clip01(x) ** k
        rk = _clip01(r) ** k
        dx = 2.0 * (1.0 - xr)
        dr = -2.0 * (1.0 - xr) * r / (1.0 - x) - xk + 2.0 * xr - rk
        return [dx, dr]

    return drift


def _reference_rhs_ham(k):
    def drift(_s, y):
        x, yy, r = y
        w = 1.0 - x
        xy = _clip01(x + yy) ** k
        xk = _clip01(x) ** k
        x2r = _clip01(x - 2.0 * r) ** k
        r3 = _clip01(3.0 * r) ** k
        pb = xy - xk
        pc = xk - x2r
        dx = 2.0 * pb + (1.0 + yy / w) * pc
        dy = 2.0 * (1.0 - xy) - 2.0 * pb - 2.0 * pc * yy / w
        dr = -2.0 * r / w * pb - ((w + yy) * r / (w * w) + 1.0) * pc + (x2r - r3)
        return [dx, dy, dr]

    return drift


def test_written_out_drifts_match_the_clipped_reference_bit_for_bit():
    # the inputs overshoot [0, 1] both ways, so every clip branch is taken
    rng = random.Random(7)

    def bits(values):
        return [v.hex() for v in values]

    for _ in range(20_000):
        l = rng.randint(1, 6)
        q = rng.randint(0, l - 1)
        k = rng.randint(1, 8)
        y = [rng.uniform(-0.4, 0.9) for _ in range(l - q)]
        assert bits(rhs_min_degree(q, k, l)(0.0, y)) == bits(
            _reference_rhs_min_degree(q, k, l)(0.0, y)
        ), (q, k, l, y)
    for _ in range(10_000):
        k = rng.randint(1, 10)
        y = [rng.uniform(-0.5, 0.99), rng.uniform(-0.5, 1.5)]
        assert bits(rhs_pm(k)(0.0, y)) == bits(_reference_rhs_pm(k)(0.0, y)), (k, y)
        y = [rng.uniform(-0.5, 0.99), rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 0.5)]
        assert bits(rhs_ham(k)(0.0, y)) == bits(_reference_rhs_ham(k)(0.0, y)), (k, y)


def test_drift_identities_against_case_probability_compositions():
    rng = random.Random(42)
    for _ in range(100):
        l = rng.randint(1, 5)
        q = rng.randint(0, l - 1)
        k = rng.randint(1, 8)
        raw = [rng.random() for _ in range(l - q)]
        scale = rng.random() / max(sum(raw), 1e-9)
        y = [v * scale for v in raw]
        a = rhs_min_degree(q, k, l)(0.0, y)
        b = mindeg_expected_changes(y, k, q)
        assert max(abs(u - v) for u, v in zip(a, b)) < 1e-12
    for _ in range(100):
        k = rng.randint(1, 10)
        x = rng.uniform(0.0, 0.95)
        r = rng.uniform(0.0, x / 2)
        a = rhs_pm(k)(0.0, [x, r])
        b = pm_expected_changes(x, r, k)
        assert max(abs(u - v) for u, v in zip(a, b)) < 1e-12
    for _ in range(100):
        k = rng.randint(1, 10)
        x = rng.uniform(0.0, 0.9)
        r = rng.uniform(0.0, x / 5)
        yv = rng.uniform(0.0, 1.0 - x)
        a = rhs_ham(k)(0.0, [x, yv, r])
        b = ham_expected_changes(x, yv, r, k)
        assert max(abs(u - v) for u, v in zip(a, b)) < 1e-12


def test_single_target_constants_match_quadrature():
    # independent oracle: the one-phase system is separable, and its
    # integral an exact series
    for k in [*range(1, 11), 64]:
        sol = solve_min_degree(k, 1)
        assert abs(sol.constant - closed_form_degree1_constant(k)) < 1e-9, k


def test_breakpoints_increase_and_phase_chaining():
    sol = solve_min_degree(2, 3)
    assert sol.breakpoints == sorted(sol.breakpoints)
    assert len(sol.breakpoints) == 3
    assert sol.constant == sol.breakpoints[-1]
    assert len(sol.grid_s) == len(sol.grid_y[0])
    # retired coordinates are zero-filled beyond their phase
    i = next(j for j, s in enumerate(sol.grid_s) if s > sol.breakpoints[0] + 1e-6)
    assert sol.grid_y[0][i] == 0.0


def test_monotonicity_in_l_and_k():
    by_l = [solve_min_degree(2, l).constant for l in (1, 2, 3)]
    assert by_l == sorted(by_l)
    by_k = [solve_min_degree(k, 2).constant for k in (1, 2, 3)]
    assert by_k == sorted(by_k, reverse=True)


def test_pm_constant_and_trajectory():
    sol = solve_pm(1)
    assert abs(sol.constant - 1.27695) < 5e-4
    xs = sol.coordinate("x")
    assert xs[0] == 0.0 and xs[-1] > 0.99
    rs = sol.coordinate("r")
    assert min(rs) > -1e-12


def test_pm_eps_sensitivity_is_small():
    a = solve_pm(2, eps=1e-9)
    b = solve_pm(2, eps=1e-14)
    assert 0.0 < b.constant - a.constant < 1e-4


def test_ham_constants():
    sol = solve_ham(1)
    assert abs(sol.constant - 1.87230) < 5e-4
    sol = solve_ham(2)
    assert abs(sol.constant - 1.39618) < 5e-4


def test_coarse_thresholds_respect_their_own_trivial_bounds():
    # a round saturates at most two vertices and plays one edge, so the
    # bounds are (1 - eps) / 2 and x_stop, not their limits 0.5 and 1.0
    for solver, args, bound in (
        (solve_pm, (1, 0.5), 0.25),
        (solve_ham, (10, 0.8), 0.8),
        (solve_ham, (1, 0.5), 0.5),
    ):
        sol = solver(*args)
        assert bound <= sol.constant < 1.0, (solver.__name__, args)


def test_tolerance_robustness():
    cfg = IntegratorConfig()
    half = dataclasses.replace(cfg, rtol=cfg.rtol / 2)
    for solver, args in (
        (solve_min_degree, (1, 1)),
        (solve_min_degree, (2, 2)),
        (solve_pm, (2,)),
        (solve_ham, (2,)),
    ):
        a = solver(*args, cfg=cfg)
        b = solver(*args, cfg=half)
        assert abs(a.constant - b.constant) < 1e-7


def test_solver_failures_are_reported():
    with pytest.raises(OdeFailure):
        solve_min_degree(1, 1, cfg=IntegratorConfig(max_steps=3))
    with pytest.raises(ValueError):
        solve_pm(0)
    with pytest.raises(ValueError):
        solve_ham(1, x_stop=1.5)


def test_emit_tables_links_lower_bounds_to_degree_targets():
    recs = emit_tables("perfect_matching", range(2, 3))
    lower = next(r for r in recs if r.kind == "lower")
    assert abs(lower.constant - solve_min_degree(2, 1).constant) < 1e-12
    recs = emit_tables("hamilton_cycle", range(4, 5))
    lower = next(r for r in recs if r.kind == "lower")
    assert abs(lower.constant - solve_min_degree(4, 2).constant) < 1e-12
    assert abs(lower.constant - 1.07184) < 5e-5
    recs = emit_tables("min_degree", range(1, 3), range(1, 3))
    assert len(recs) == 4
    with pytest.raises(ValueError):
        emit_tables("clique", range(1, 2))
    for l_range in ([0, 2], []):
        with pytest.raises(ValueError):
            emit_tables("min_degree", range(1, 2), l_range)


@pytest.mark.parametrize("prop", ["perfect_matching", "hamilton_cycle"])
def test_matching_and_cycle_tables_reject_an_l_range(prop):
    with pytest.raises(ValueError, match="no l range"):
        emit_tables(prop, range(1, 3), range(1, 4))


@pytest.mark.parametrize("l_range", [range(1, 6), [2, 5], [3, 1]], ids=str)
def test_degree_table_reads_every_target_off_one_ladder_per_k(l_range):
    # the drift is triangular, so target l is breakpoint l - 1 of the solve
    # for the largest l; only the step control, which sees every coordinate,
    # tells a rung from its own l-solve
    ks = range(1, 4)
    recs = emit_tables("min_degree", ks, l_range)
    assert [(r.l, r.k) for r in recs] == [(l, k) for l in l_range for k in ks]
    ladders = {k: solve_min_degree(k, max(l_range)).breakpoints for k in ks}
    for r in recs:
        assert r.constant == ladders[r.k][r.l - 1], (r.k, r.l)
        assert abs(r.constant - solve_min_degree(r.k, r.l).constant) <= 1e-9, (r.k, r.l)
        assert r.constant >= r.l / 2


@pytest.fixture
def rhs_counts(monkeypatch):
    """RHS evaluations of each ``integrate`` call the solvers make."""
    import semirandom.ode.systems as systems

    counts = []
    original = systems.integrate

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        counts.append(res.n_rhs)
        return res

    monkeypatch.setattr(systems, "integrate", counting)
    return counts


def test_old_step_cap_gives_the_same_constants(rhs_counts):
    # the step cap of 1e-3, which set the step count before rtol did: every
    # constant agrees to 1e-9, and every integration costs fewer RHS evaluations
    old_cap = IntegratorConfig(max_step=1e-3)
    for args in (("min_degree", range(1, 4), range(1, 4)),
                 ("perfect_matching", range(1, 4)),
                 ("hamilton_cycle", range(1, 4))):
        rhs_counts.clear()
        old = emit_tables(*args, cfg=old_cap)
        old_rhs = list(rhs_counts)
        rhs_counts.clear()
        new = emit_tables(*args)
        assert [dataclasses.replace(r, constant=0.0) for r in new] == [
            dataclasses.replace(r, constant=0.0) for r in old
        ]
        assert max(abs(a.constant - b.constant) for a, b in zip(old, new)) <= 1e-9, args
        assert len(rhs_counts) == len(old_rhs)
        assert all(n < o for n, o in zip(rhs_counts, old_rhs)), (args, rhs_counts, old_rhs)


# solver, arguments, then the pins: constant repr, accepted steps, RHS
# evaluations, sha256 prefix of repr(grid_y)
SOLVE_PINS = [
    (solve_min_degree, (3, 2), "1.0908089812862272", 72, 656, "315ae3e820da08b8"),
    (solve_pm, (1,), "1.276943814211652", 543, 3421, "da0bf6b54305276f"),
    (solve_pm, (2, 1e-3), "0.9066317099384734", 218, 1339, "7a69bb8aba46667f"),
    (solve_ham, (2,), "1.396151569594456", 463, 2791, "7dc294e6c1351906"),
    # the degree ladder to l = 5 runs its 4- and 5-coordinate phases
    (solve_min_degree, (2, 5), "2.6250831569089286", 191, 1643, "f30735eb46856fe7"),
]
# the same solves under the old step cap of 1e-3: constant repr, accepted
# steps, RHS evaluations
OLD_CAP_PINS = [
    ("1.090808981217813", 1096, 6668),
    ("1.2769438135038105", 1556, 9475),
    ("0.9066317099394485", 920, 5521),
    ("1.39615156959592", 1595, 9571),
    ("2.625083156846336", 2637, 16067),
]


@pytest.mark.pinned
def test_solves_are_bit_pinned(rhs_counts):
    # a change to the stepper's arithmetic must not move a single bit
    for (solver, args, *pins), (old_constant, old_steps, old_rhs) in zip(
        SOLVE_PINS, OLD_CAP_PINS
    ):
        rhs_counts.clear()
        sol = solver(*args)
        grid_hash = hashlib.sha256(repr(sol.grid_y).encode()).hexdigest()[:16]
        got = [repr(sol.constant), sol.n_steps, sum(rhs_counts), grid_hash]
        assert got == pins, (solver.__name__, args)
        assert abs(sol.constant - float(old_constant)) <= 1e-9, (solver.__name__, args)
        assert sol.n_steps < old_steps and sum(rhs_counts) < old_rhs, (solver.__name__, args)
    for args in (("min_degree", range(1, 3), range(1, 3)),
                 ("perfect_matching", range(1, 3)),
                 ("hamilton_cycle", range(1, 3))):
        assert emit_tables(*args) == emit_tables(*args, cfg=IntegratorConfig())
    # the tables solve without a dense grid and still give the sampled solves' bits
    assert [r.constant for r in emit_tables("min_degree", range(2, 4), range(2, 3))] == [
        solve_min_degree(2, 2).constant, solve_min_degree(3, 2).constant
    ]
    upper = [r.constant for r in emit_tables("perfect_matching", range(1, 2)) if r.kind == "upper"]
    assert upper == [solve_pm(1).constant + PM_UPPER_MARGIN]
    upper = [r.constant for r in emit_tables("hamilton_cycle", range(2, 3)) if r.kind == "upper"]
    assert upper == [solve_ham(2).constant]


# emit_tables arguments, then the sha256 prefix of repr of the whole record list
TABLE_PINS = [
    (("perfect_matching", range(1, 4)), "8c8d3e143400dfe6"),
    (("hamilton_cycle", range(1, 4)), "e6d71f0b25b305ad"),
    (("min_degree", range(1, 4), range(1, 4)), "955956c10cf17d7d"),
]


@pytest.mark.pinned
@pytest.mark.parametrize("args, pin", TABLE_PINS, ids=[args[0] for args, _ in TABLE_PINS])
def test_tables_are_bit_pinned(args, pin):
    # every record, in order: property, k, l, kind and the constant's bits
    recs = emit_tables(*args)
    assert hashlib.sha256(repr(recs).encode()).hexdigest()[:16] == pin


def test_phase_solutions_count_rhs_evaluations(rhs_counts):
    for solver, args in ((solve_min_degree, (2, 3)), (solve_pm, (1,)), (solve_ham, (1,))):
        rhs_counts.clear()
        sol = solver(*args)
        assert sol.n_rhs == sum(rhs_counts)
        # six fresh stages per accepted step, plus the first evaluation of each phase
        assert sol.n_rhs >= 6 * sol.n_steps + len(sol.breakpoints)


def test_every_drift_call_is_counted(monkeypatch):
    # the event is located on the step's interpolant, so n_rhs is every call
    import semirandom.ode.systems as systems

    calls = 0
    original = systems.integrate

    def counting(drift, *args, **kwargs):
        def counted(s, y):
            nonlocal calls
            calls += 1
            return drift(s, y)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(systems, "integrate", counting)
    for solver, args in ((solve_min_degree, (3, 2)), (solve_pm, (2,)), (solve_ham, (2,))):
        calls = 0
        sol = solver(*args)
        assert calls == sol.n_rhs, (solver.__name__, args)
