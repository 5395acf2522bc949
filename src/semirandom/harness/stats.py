"""Small statistics kit: chi-square and normal tails, means and CIs.

Implemented directly, so experiments carry no heavyweight dependency; the
chi-square tail, taken only at integer degrees of freedom, is a finite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_Z95 = 1.959963984540054


def chi2_sf(x: float, df: int) -> float:
    """Survival function of the chi-square distribution.

    A finite sum at integer ``df`` (Abramowitz & Stegun, *Handbook of
    Mathematical Functions*, section 26.4): with y = x / 2, the terms
    y^a e^-y / Gamma(a + 1) for a = 0, 1, ..., df/2 - 1 when df is even, and
    erfc(sqrt(y)) plus the terms for a = 1/2, 3/2, ..., (df - 2)/2 when df
    is odd.  Each term is formed in logs, since e^-y alone turns subnormal
    at x past about 1416 while the terms it scales do not.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    if x == 0.0:
        return 1.0
    y = x / 2.0
    log_y = math.log(y)  # a negative x fails here
    a0 = df % 2 / 2
    total = math.erfc(math.sqrt(y)) if a0 else 0.0
    for a in range(df // 2):
        a += a0
        total += math.exp(a * log_y - y - math.lgamma(a + 1))
    return total


def normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class ChiSquareReport:
    statistic: float
    df: int
    p_value: float
    observed: tuple[int, ...]
    expected: tuple[float, ...]


def chi_square_test(observed, probabilities, min_expected: float = 5.0) -> ChiSquareReport:
    """Goodness of fit of observed counts against class probabilities.

    Classes with expected count below ``min_expected`` are merged into the
    smallest-probability neighbour before computing the statistic.
    """
    total = sum(observed)
    if total <= 0:
        raise ValueError("need at least one observation")
    if abs(sum(probabilities) - 1.0) > 1e-9:
        raise ValueError("class probabilities must sum to 1")
    obs = [int(o) for o in observed]
    exp = [p * total for p in probabilities]
    # merge tiny-expectation classes to keep the chi-square approximation honest
    while len(obs) > 2:
        m = min(range(len(exp)), key=lambda i: exp[i])
        if exp[m] >= min_expected:
            break
        if m == 0:
            j = 1
        elif m == len(exp) - 1:
            j = m - 1
        else:
            j = m - 1 if exp[m - 1] <= exp[m + 1] else m + 1
        lo, hi = (j, m) if j < m else (m, j)
        obs[lo] += obs.pop(hi)
        exp[lo] += exp.pop(hi)
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    df = len(obs) - 1
    return ChiSquareReport(stat, df, chi2_sf(stat, df), tuple(obs), tuple(exp))


@dataclass(frozen=True)
class MeanReport:
    mean: float
    std: float
    ci_half_width: float
    count: int

    @property
    def ci(self) -> tuple[float, float]:
        return (self.mean - self.ci_half_width, self.mean + self.ci_half_width)


def mean_ci(values) -> MeanReport:
    """Sample mean with a 95% normal-approximation interval."""
    vals = list(values)
    m = len(vals)
    if m < 1:
        raise ValueError("need at least one value")
    mean = sum(vals) / m
    if m == 1:
        return MeanReport(mean, 0.0, 0.0, 1)
    var = sum((v - mean) ** 2 for v in vals) / (m - 1)
    std = math.sqrt(var)
    return MeanReport(mean, std, _Z95 * std / math.sqrt(m), m)


def paired_one_sided_p(diffs) -> float:
    """P-value for 'the mean paired difference is positive' (z-test).

    Degenerate zero-variance samples give 0, 0.5 or 1 by the sign of the
    mean.
    """
    d = list(diffs)
    m = len(d)
    if m < 2:
        raise ValueError("need at least two paired differences")
    mean = sum(d) / m
    var = sum((v - mean) ** 2 for v in d) / (m - 1)
    if var == 0.0:
        return 0.5 if mean == 0.0 else (0.0 if mean > 0 else 1.0)
    z = mean / math.sqrt(var / m)
    return normal_sf(z)
