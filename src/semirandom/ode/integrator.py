"""Adaptive explicit Runge-Kutta integration with terminal-event location.

The stepper is the classic embedded 4/5 pair of Dormand and Prince (six
active stages, first same as last).  A system has at most one terminal
event, a scalar function checked at accepted steps; its crossing is
localized by bisection on the pair's own continuous extension.  All state
is plain Python floats: the systems here have at most five coordinates,
where array round-trips would dominate the cost.

The step size follows the standard error-per-step control of the pair
(Hairer, Norsett & Wanner, *Solving ODEs I*, section II.4), so ``rtol``
sets the step count.  Inside an accepted step, the event bisection and the
dense grid both read the 4th-order interpolant of the same reference
(section II.6, ``contd5`` of their ``dopri5`` code), built from the stages
k1 and k3..k7 with no further drift call.  It is accurate over a whole
step (uncapped, the samples of y' = -y err by about 2e-11, and the
published constants agree with a step cap of 1e-3 to 1e-9), so no step cap
is needed: ``max_step`` defaults to infinity and stays a field only for
callers that want a coarser bound.  The work is bounded
by ``max_steps`` trial steps, accepted and rejected alike, so ``n_rhs``,
which counts every drift call, is at most ``6 * max_steps + 1``.

The step is unrolled: the stages are the named lists ``k1``..``k7``, the
pair's weights are the module-level names ``C2``..``E7``, and every
weighted stage sum is written out as ``0.0 + w1*k1 + w2*k2 + ...`` in
stage order with the zero weights kept.  That is exactly what CPython
3.11's float ``sum()`` over a generator computes (plain left-to-right
addition starting from 0, which also maps a leading -0.0 to 0.0), so the
step gives the same bits as the loop-over-``sum()`` form it replaced.  On
CPython 3.12 and later ``sum()`` of floats is compensated, so there the
written-out form is the stable one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


class OdeFailure(RuntimeError):
    """Integration could not meet its contract (reported, never clamped)."""


class DomainGuard(Exception):
    """Raised by a drift function evaluated outside its guarded domain."""


ATOL = 1e-12
EVENT_TOL = 1e-12  # width of the final bisection bracket
MIN_STEP = 1e-13
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerance and bounds of one integration.

    ``rtol`` sets the step count.  ``max_step`` is uncapped by default: the
    event and the dense samples read the pair's interpolant, which holds
    over a whole step (see the module docstring).  ``max_steps`` bounds the
    trial steps, accepted plus rejected.
    """

    rtol: float = 1e-10
    max_step: float = math.inf
    dense_step: float | None = 1e-3
    max_steps: int = 2_000_000

    def validated(self) -> "IntegratorConfig":
        if not (self.rtol > 0 and self.max_step > 0):
            raise ValueError("tolerances and step bounds must be positive")
        if self.dense_step and not 0 < self.dense_step < math.inf or self.max_steps < 1:
            raise ValueError("need a finite dense_step >= 0 (0 or None: no grid), max_steps >= 1")
        return self


@dataclass(frozen=True)
class Event:
    """Terminal event g(s, y); fires on a sign crossing in ``direction``.

    direction -1: from positive to <= 0; +1: from negative to >= 0.
    """

    fn: Callable[[float, Sequence[float]], float]
    direction: int


@dataclass
class OdeSystem:
    dim: int
    drift: Callable[[float, Sequence[float]], list[float]]
    event: Event | None = None


@dataclass
class IntegrationResult:
    status: str  # "event" | "budget" | "failed"
    s_end: float
    y_end: list[float]
    dense_s: list[float]
    dense_y: list[list[float]]
    n_steps: int
    n_rhs: int
    n_rejected: int  # error rejections and DomainGuard halvings
    message: str = ""


# weights of the embedded 4/5 pair, read by the unrolled step in ``integrate``
C2, C3, C4, C5, C6 = 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B2, B3, B4, B5, B6 = 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# difference between the 5th- and 4th-order weights (stage 7 = FSAL)
E1, E2, E3, E4, E5, E6, E7 = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
)
# the continuous extension's stage weights (stage 2 has none)
D1, D3, D4 = -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072
D5, D6, D7 = 701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423


def integrate(
    system: OdeSystem,
    cfg: IntegratorConfig,
    initial: Sequence[float],
    s_budget: float,
    s0: float = 0.0,
) -> IntegrationResult:
    """Advance the system until its event fires or the budget is exhausted.

    Dense samples are collected on the uniform grid ``cfg.dense_step`` (when
    set) from each step's continuous extension.  Deterministic for fixed
    inputs.
    """
    cfg.validated()
    f = system.drift
    dim = system.dim
    y = [float(v) for v in initial]
    if len(y) != dim:
        raise ValueError("initial state has the wrong dimension")
    s = s0
    n_rhs = 0

    def call(ss: float, yy: list[float]) -> list[float]:
        nonlocal n_rhs
        n_rhs += 1
        return f(ss, yy)

    # the event value times its direction fires on a step from < 0 to >= 0;
    # without an event it is 0 and never fires
    event = system.event
    sign, g_fn = (event.direction, event.fn) if event else (0, lambda _s, _y: 0.0)

    try:
        k1 = call(s, y)
    except DomainGuard as exc:
        raise OdeFailure(f"initial state outside guarded domain: {exc}") from exc
    g_prev = sign * g_fn(s, y)

    dense_s: list[float] = []
    dense_y: list[list[float]] = []
    grid = cfg.dense_step
    next_grid = s0
    if grid:
        dense_s.append(s)
        dense_y.append(list(y))
        next_grid = s0 + grid

    h = min(cfg.max_step, max(MIN_STEP, (s_budget - s0) / 100.0))
    n_steps = 0
    n_rejected = 0
    rtol = cfg.rtol

    while s < s_budget - 1e-15:
        if n_steps + n_rejected >= cfg.max_steps:
            return IntegrationResult(
                "failed", s, y, dense_s, dense_y, n_steps, n_rhs, n_rejected,
                f"step limit {cfg.max_steps} reached at s={s!r}",
            )
        h = min(h, cfg.max_step, s_budget - s)
        if h < MIN_STEP:
            return IntegrationResult(
                "failed", s, y, dense_s, dense_y, n_steps, n_rhs, n_rejected,
                f"step size underflow at s={s!r}",
            )
        # one embedded trial step; each weighted sum is 0.0 + w1*k1 + w2*k2 + ...
        # in stage order, zero weights included (see the module docstring)
        try:
            k2 = call(s + C2 * h, [yi + h * (0.0 + A21 * a) for yi, a in zip(y, k1)])
            k3 = call(s + C3 * h, [
                yi + h * (0.0 + A31 * a + A32 * b) for yi, a, b in zip(y, k1, k2)
            ])
            k4 = call(s + C4 * h, [
                yi + h * (0.0 + A41 * a + A42 * b + A43 * c)
                for yi, a, b, c in zip(y, k1, k2, k3)
            ])
            k5 = call(s + C5 * h, [
                yi + h * (0.0 + A51 * a + A52 * b + A53 * c + A54 * d)
                for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
            ])
            k6 = call(s + C6 * h, [
                yi + h * (0.0 + A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
                for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
            ])
            y_new = [
                yi + h * (0.0 + B1 * a + B2 * b + B3 * c + B4 * d + B5 * e + B6 * g)
                for yi, a, b, c, d, e, g in zip(y, k1, k2, k3, k4, k5, k6)
            ]
            k7 = call(s + h, y_new)
        except DomainGuard:
            n_rejected += 1
            h *= 0.5
            continue
        err = 0.0
        for yi, yn, a, b, c, d, e, g, z in zip(y, y_new, k1, k2, k3, k4, k5, k6, k7):
            q = h * (0.0 + E1 * a + E2 * b + E3 * c + E4 * d + E5 * e + E6 * g + E7 * z)
            q /= ATOL + rtol * max(abs(yi), abs(yn))
            err += q * q
        err = math.sqrt(err / dim)
        if err > 1.0:
            n_rejected += 1
            h *= max(MIN_FACTOR, SAFETY * err ** -0.2)
            continue

        n_steps += 1
        s_new = s + h

        # the terminal event, localized by bisection on the step's interpolant
        g_new = sign * g_fn(s_new, y_new)
        fired = g_prev < 0.0 <= g_new
        hi, y_hi = s_new, y_new
        if fired or (grid and next_grid <= s_new + 1e-15):
            cont = _continuous_extension(h, y, y_new, k1, k3, k4, k5, k6, k7)
        if fired:
            lo = s
            while hi - lo > EVENT_TOL:
                mid = 0.5 * (lo + hi)
                y_mid = _dense(cont, (mid - s) / h)
                if g_prev < 0.0 <= sign * g_fn(mid, y_mid):
                    hi, y_hi = mid, y_mid
                else:
                    lo = mid
        if grid:
            while next_grid <= hi + 1e-15:
                dense_s.append(next_grid)
                dense_y.append(_dense(cont, (next_grid - s) / h))
                next_grid += grid
        if fired:
            if grid:
                dense_s.append(hi)
                dense_y.append(list(y_hi))
            return IntegrationResult(
                "event", hi, y_hi, dense_s, dense_y, n_steps, n_rhs, n_rejected
            )

        s, y, k1, g_prev = s_new, y_new, k7, g_new
        if err == 0.0:
            h *= MAX_FACTOR
        else:
            h *= min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * err ** -0.2))

    return IntegrationResult("budget", s, y, dense_s, dense_y, n_steps, n_rhs, n_rejected)


def _continuous_extension(h, y0, y1, k1, k3, k4, k5, k6, k7) -> list[tuple]:
    """Per-coordinate coefficients (y0, r2, r3, r4, r5) of the step's interpolant.

    At the step fraction t, y = y0 + t (r2 + (1 - t) (r3 + t (r4 + (1 - t) r5))):
    4th order, equal to y0 and y1 at the ends, with the pair's slopes k1 and
    k7 there.
    """
    cont = []
    for a, b, s1, s3, s4, s5, s6, s7 in zip(y0, y1, k1, k3, k4, k5, k6, k7):
        r2 = b - a
        r3 = h * s1 - r2
        r5 = h * (D1 * s1 + D3 * s3 + D4 * s4 + D5 * s5 + D6 * s6 + D7 * s7)
        cont.append((a, r2, r3, r2 - h * s7 - r3, r5))
    return cont


def _dense(cont: list[tuple], theta: float) -> list[float]:
    """The interpolant at the step fraction ``theta``."""
    eta = 1.0 - theta
    return [a + theta * (r2 + eta * (r3 + theta * (r4 + eta * r5))) for a, r2, r3, r4, r5 in cont]
