"""Monte Carlo experiment runner and trajectory/dominance comparisons.

Trials are embarrassingly parallel: each derives its streams from
(seed, trial index), so summaries are identical whatever the worker count.
Threshold rounds (the premature stop used for constant comparisons) and
completion rounds are always reported separately and never summed.  The
process pool is imported by the first pooled ``run_trials``, and numpy by
the first ``trajectory_check``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from ..process import LOOP_COUNTS_TWO, ProcessConfig, TIE_AVOID, TIE_LOWEST
from ..strategies import (
    MIN_DEGREE_STRATEGIES,
    ham_run,
    pm_run,
    run_min_degree,
)
from ..ode import PhaseSolution
from .stats import MeanReport, mean_ci, paired_one_sided_p

PROP_MIN_DEGREE = "min_degree"
PROP_PM = "perfect_matching"
PROP_HAM = "hamilton_cycle"
PROPERTIES = (PROP_MIN_DEGREE, PROP_PM, PROP_HAM)

_DEFAULT_THRESHOLD = {PROP_PM: 1e-3, PROP_HAM: 0.99}


@dataclass(frozen=True)
class TrialSpec:
    """One experiment: a property target, a strategy, and trial parameters.

    ``threshold`` is the premature-stop level (unsaturated fraction for the
    matching target, path fraction for the cycle target); ``None`` picks
    the per-property default.  ``complete`` additionally runs the finishing
    phase so the property actually holds at the end of each trial.
    """

    property: str
    n: int
    k: int
    l: int = 1
    strategy: str = "s0"
    trials: int = 20
    seed: int = 0
    threshold: float | None = None
    sample_stride: int | None = None
    record_trajectory: bool = False
    complete: bool = True
    tie_break: str = TIE_AVOID
    square_tie_break: str = TIE_LOWEST
    loop_degree: str = LOOP_COUNTS_TWO
    debug: bool = False

    def validate(self) -> "TrialSpec":
        if self.property not in PROPERTIES:
            raise ValueError(f"unknown property {self.property!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.property == PROP_MIN_DEGREE:
            if self.l < 1:
                raise ValueError("minimum-degree target must be >= 1")
            if self.strategy not in MIN_DEGREE_STRATEGIES:
                raise ValueError(f"unknown strategy {self.strategy!r}")
            if self.threshold is not None:
                raise ValueError("the minimum-degree target takes no threshold")
        elif self.strategy != "s0":
            raise ValueError("matching/cycle targets have a single built-in strategy")
        if self.threshold is not None and not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        self.config().validate()
        if self.property == PROP_PM and self.n % 2:
            raise ValueError("perfect matching needs an even vertex count")
        if self.property == PROP_HAM and self.n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return self

    def config(self) -> ProcessConfig:
        return ProcessConfig(
            n=self.n,
            k=self.k,
            seed=self.seed,
            tie_break=self.tie_break,
            square_tie_break=self.square_tie_break,
            loop_degree=self.loop_degree,
            debug=self.debug,
        )

    def effective_threshold(self) -> float | None:
        if self.property == PROP_MIN_DEGREE:
            return None
        return self.threshold if self.threshold is not None else _DEFAULT_THRESHOLD[self.property]


@dataclass
class TrialResult:
    trial: int
    threshold_round: int
    completion_rounds: int
    hitting_round: int | None  # rounds to the actual property; None if not completed
    phase_ends: list[int] = field(default_factory=list)
    samples: list[tuple] = field(default_factory=list)


@dataclass
class TrialSummary:
    """Aggregated trials; the comparison metric is the threshold round.

    For the minimum-degree target the threshold round equals the true
    hitting round.  ``phase_means`` are the mean scaled phase breakpoints.
    """

    spec: TrialSpec
    results: list[TrialResult]
    main: MeanReport  # threshold rounds / n
    completion: MeanReport  # completion rounds / n
    phase_means: list[float]


def _run_one(spec: TrialSpec, index: int) -> TrialResult:
    cfg = spec.config()
    stride = spec.sample_stride if spec.record_trajectory else 0
    if stride is None:
        stride = max(1, spec.n // 100)
    validate_every = 512 if spec.debug else 0
    if spec.property == PROP_MIN_DEGREE:
        trace = run_min_degree(
            cfg,
            spec.l,
            trial_index=index,
            strategy=spec.strategy,
            sample_stride=stride,
            validate_every=validate_every,
        )
        return TrialResult(
            index, trace.rounds, 0, trace.rounds, trace.phase_ends, trace.samples
        )
    if spec.property == PROP_PM:
        trace = pm_run(
            cfg,
            eps_stop=spec.effective_threshold(),
            trial_index=index,
            sample_stride=stride,
            complete=spec.complete,
            validate_every=validate_every,
        )
    else:
        trace = ham_run(
            cfg,
            x_stop=spec.effective_threshold(),
            trial_index=index,
            sample_stride=stride,
            complete=spec.complete,
            validate_every=validate_every,
        )
    hitting = trace.total_rounds if spec.complete else None
    return TrialResult(
        index, trace.threshold_round, trace.completion_rounds, hitting, [], trace.samples
    )


def run_trials(spec: TrialSpec, workers: int = 1) -> TrialSummary:
    """Run all trials of a spec; deterministic for fixed spec and seed."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    spec.validate()
    indices = range(spec.trials)
    if workers > 1 and spec.trials > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, spec.trials)) as pool:
            results = list(pool.map(_run_one, itertools.repeat(spec), indices))
    else:
        results = [_run_one(spec, i) for i in indices]
    results.sort(key=lambda r: r.trial)
    n = spec.n
    main = mean_ci([r.threshold_round / n for r in results])
    completion = mean_ci([r.completion_rounds / n for r in results])
    phase_means: list[float] = []
    if spec.property == PROP_MIN_DEGREE:
        for q in range(spec.l):
            phase_means.append(sum(r.phase_ends[q] for r in results) / (len(results) * n))
    return TrialSummary(spec, results, main, completion, phase_means)


@dataclass
class TrajectoryReport:
    """Sup-distance between sampled scaled counts and the solved trajectory."""

    sup_distance: float
    per_coordinate: dict[str, float]
    samples_checked: int


def trajectory_check(summary: TrialSummary, solution: PhaseSolution) -> TrajectoryReport:
    """Compare every recorded trajectory against the dense solved one.

    Sampled rounds past the solved horizon are clamped to its terminal
    values; coordinates are matched by position (degree counts, or the
    saturated/matched/red fractions).
    """
    import numpy as np

    spec = summary.spec
    if not any(r.samples for r in summary.results):
        raise ValueError("summary carries no trajectories; set record_trajectory")
    grid_s = np.asarray(solution.grid_s)
    coords = [np.asarray(c) for c in solution.grid_y]
    labels = solution.labels
    n = spec.n
    worst = {lab: 0.0 for lab in labels}
    checked = 0
    for res in summary.results:
        if not res.samples:
            continue
        ts = np.asarray([row[0] for row in res.samples], dtype=float) / n
        checked += len(res.samples)
        for j, lab in enumerate(labels):
            emp = np.asarray([row[1 + j] for row in res.samples], dtype=float) / n
            ode = np.interp(ts, grid_s, coords[j])
            gap = float(np.max(np.abs(emp - ode)))
            if gap > worst[lab]:
                worst[lab] = gap
    return TrajectoryReport(max(worst.values()), worst, checked)


@dataclass
class DominanceReport:
    """Paired one-sided comparison of mean hitting times."""

    strategy: str
    baseline: str
    mean_strategy: float
    mean_baseline: float
    p_value: float
    trials: int


def dominance_experiment(spec: TrialSpec, baseline: str, workers: int = 1) -> DominanceReport:
    """Does ``spec.strategy`` beat ``baseline`` on mean hitting time?

    Both strategies replay identical square arrivals (paired seeds and a
    separate square stream), and the p-value tests the one-sided hypothesis
    that the baseline needs more rounds on average.  Both specs are
    validated before the first trial runs.
    """
    if spec.property != PROP_MIN_DEGREE:
        raise ValueError("dominance experiments target the minimum-degree property")
    base = replace(spec.validate(), strategy=baseline).validate()
    a = run_trials(spec, workers=workers)
    b = run_trials(base, workers=workers)
    diffs = [
        rb.threshold_round - ra.threshold_round
        for ra, rb in zip(a.results, b.results)
    ]
    return DominanceReport(
        spec.strategy,
        baseline,
        a.main.mean,
        b.main.mean,
        paired_one_sided_p(diffs),
        spec.trials,
    )
