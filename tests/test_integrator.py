"""Embedded-pair stepping, event localization, dense output."""

import math

import pytest

from semirandom.ode import (
    DomainGuard,
    Event,
    IntegratorConfig,
    OdeSystem,
    integrate,
    solve_min_degree,
)


def test_exponential_decay_event_at_half():
    system = OdeSystem(
        dim=1,
        drift=lambda s, y: [-y[0]],
        event=Event(lambda s, y: y[0] - 0.5, direction=-1),
    )
    res = integrate(system, IntegratorConfig(), [1.0], s_budget=2.0)
    assert res.status == "event"
    assert abs(res.s_end - math.log(2.0)) < 1e-10
    assert abs(res.y_end[0] - 0.5) < 1e-10


def test_linear_growth_event_at_two():
    system = OdeSystem(
        dim=1,
        drift=lambda s, y: [1.0],
        event=Event(lambda s, y: y[0] - 2.0, direction=1),
    )
    res = integrate(system, IntegratorConfig(), [0.0], s_budget=5.0)
    assert res.status == "event"
    assert abs(res.s_end - 2.0) < 1e-11


def test_budget_exhaustion_reports_final_state():
    system = OdeSystem(dim=1, drift=lambda s, y: [-y[0]])
    res = integrate(system, IntegratorConfig(), [1.0], s_budget=1.0)
    assert res.status == "budget"
    assert abs(res.s_end - 1.0) < 1e-12
    assert abs(res.y_end[0] - math.exp(-1.0)) < 1e-9


def test_dense_grid_matches_closed_form():
    system = OdeSystem(dim=1, drift=lambda s, y: [-y[0]])
    res = integrate(system, IntegratorConfig(), [1.0], s_budget=1.0)
    assert res.dense_s[0] == 0.0
    for s, y in zip(res.dense_s, res.dense_y):
        assert abs(y[0] - math.exp(-s)) < 1e-9


@pytest.mark.parametrize("budget", [1.0, 2.0, 5.0])
def test_uncapped_steps_locate_the_event_on_the_interpolant(budget):
    # y' = -y crosses 1/2 at ln 2; uncapped, about 20 steps span the run, and
    # the event and every grid sample are read off the step's interpolant
    system = OdeSystem(
        dim=1,
        drift=lambda s, y: [-y[0]],
        event=Event(lambda s, y: y[0] - 0.5, direction=-1),
    )
    res = integrate(system, IntegratorConfig(), [1.0], s_budget=budget)
    assert res.status == "event" and res.n_steps <= 25
    assert abs(res.y_end[0] - 0.5) < 1e-12
    # the trajectory's own error at rtol 1e-10 moves the crossing by up to
    # 1.5e-11; a tighter rtol moves it less
    assert abs(res.s_end - math.log(2.0)) < 2e-11
    for s, y in zip(res.dense_s, res.dense_y):
        assert abs(y[0] - math.exp(-s)) < 1e-10
    fine = integrate(system, IntegratorConfig(rtol=1e-12), [1.0], s_budget=budget)
    assert abs(fine.s_end - math.log(2.0)) < 1e-12


def test_dense_grid_optional():
    cfg = IntegratorConfig(dense_step=None)
    system = OdeSystem(dim=1, drift=lambda s, y: [1.0])
    res = integrate(system, cfg, [0.0], s_budget=1.0)
    assert res.dense_s == []


def test_guard_violations_shrink_steps_then_fail():
    def drift(s, y):
        if s > 0.5:
            raise DomainGuard("no admissible extension")
        return [1.0]

    system = OdeSystem(dim=1, drift=drift)
    res = integrate(system, IntegratorConfig(), [0.0], s_budget=1.0)
    assert res.status == "failed"
    assert "underflow" in res.message
    assert res.s_end <= 0.5


def test_step_limit_reported():
    # capped, five steps cannot reach s = 1 (uncapped they can)
    cfg = IntegratorConfig(max_step=1e-2, max_steps=5)
    system = OdeSystem(dim=1, drift=lambda s, y: [1.0])
    res = integrate(system, cfg, [0.0], s_budget=1.0)
    assert res.status == "failed"
    assert "step limit" in res.message


def test_step_limit_does_not_rely_on_the_step_cap():
    # uncapped, rtol alone needs far more than five steps to go half round
    # the unit circle
    cfg = IntegratorConfig(max_step=math.inf, max_steps=5)
    system = OdeSystem(dim=2, drift=lambda s, y: [-y[1], y[0]])
    res = integrate(system, cfg, [1.0, 0.0], s_budget=math.pi)
    assert res.status == "failed"
    assert "step limit" in res.message
    assert res.n_steps + res.n_rejected == 5


def _guarded_after_start(s, y):
    if s > 0.0:
        raise DomainGuard("no admissible extension")
    return [1.0]


@pytest.mark.parametrize(
    "drift",
    # a jump right after the start fails every error test; a guard right
    # after the start halves every trial step
    [lambda s, y: [0.0 if s == 0.0 else 1e6], _guarded_after_start],
    ids=["error", "guard"],
)
def test_rejected_steps_count_toward_the_step_limit(drift):
    # every trial step is rejected, and the step size would take more than
    # five rejections to underflow
    cfg = IntegratorConfig(max_steps=5)
    system = OdeSystem(dim=1, drift=drift)
    res = integrate(system, cfg, [0.0], s_budget=1.0)
    assert res.status == "failed"
    assert "step limit" in res.message
    assert (res.n_steps, res.n_rejected) == (0, 5)
    assert res.n_rhs <= 6 * cfg.max_steps + 1 == 31
    assert "underflow" in integrate(system, IntegratorConfig(), [0.0], s_budget=1.0).message


def test_rejects_bad_config_and_dimension():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0).validated()
    system = OdeSystem(dim=2, drift=lambda s, y: [1.0, 1.0])
    with pytest.raises(ValueError):
        integrate(system, IntegratorConfig(), [0.0], s_budget=1.0)


@pytest.mark.parametrize(
    "bad", [{"dense_step": -1e-3}, {"dense_step": math.inf}, {"dense_step": math.nan},
            {"max_steps": 0}, {"rtol": math.nan}],
)
def test_bad_config_fails_fast(bad):
    # a negative grid step used to send the dense-output loop backwards forever
    with pytest.raises(ValueError):
        solve_min_degree(1, 1, IntegratorConfig(**bad))


def test_no_grid_settings_are_accepted():
    for grid in (None, 0, 0.0):
        assert IntegratorConfig(dense_step=grid).validated().dense_step == grid


def test_two_dimensional_oscillator_accuracy():
    # unit circle: y = (cos s, sin s)
    system = OdeSystem(dim=2, drift=lambda s, y: [-y[1], y[0]])
    res = integrate(system, IntegratorConfig(), [1.0, 0.0], s_budget=math.pi)
    assert abs(res.y_end[0] + 1.0) < 1e-8
    assert abs(res.y_end[1]) < 1e-8
