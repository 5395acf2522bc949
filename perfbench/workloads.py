"""The four benchmark workloads, their correctness checks and output digests.

Every call into the package goes through a module attribute looked up at
call time (``trials.run_trials``, ``systems.solve_pm``, ...), so the traced
run can rebind those names without touching the package.

Workload seeds: the ``--seed`` of a run is mixed with a fixed per-call offset,
so the same seed always produces the same inputs and outputs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from semirandom.harness import export, oracle, trials
from semirandom.ode import systems
from semirandom.process import TIE_AVOID, TIE_LOWEST, TIE_UNIFORM

# Published five-decimal constants (the reproduction contract of this
# package), copied here so the benchmark does not depend on the test suite.
EXPECTED_MIN_DEGREE = {
    (1, 1): 0.69315, (2, 1): 0.62323, (3, 1): 0.59072, (4, 1): 0.57183, (5, 1): 0.55947,
    (1, 2): 1.21974, (2, 2): 1.12498, (3, 2): 1.09081, (4, 2): 1.07184, (5, 2): 1.05947,
    (1, 3): 1.73164, (2, 3): 1.62508, (3, 3): 1.59081, (4, 3): 1.57184, (5, 3): 1.55947,
    (1, 4): 2.23812, (2, 4): 2.12508, (3, 4): 2.09081, (4, 4): 2.07184, (5, 4): 2.05947,
    (1, 5): 2.74200, (2, 5): 2.62508, (3, 5): 2.59081, (4, 5): 2.57184, (5, 5): 2.55947,
}
EXPECTED_PM_UPPER = [
    1.27696, 0.92990, 0.80505, 0.73708, 0.69402,
    0.66425, 0.64243, 0.62573, 0.61255, 0.60187,
]
EXPECTED_PM_LOWER = [
    0.69315, 0.62323, 0.59072, 0.57183, 0.55947,
    0.55075, 0.54426, 0.53924, 0.53525, 0.53199,
]
EXPECTED_HAM_UPPER = [
    1.87230, 1.39618, 1.26077, 1.19615, 1.15827,
    1.13325, 1.11534, 1.10180, 1.09115, 1.08254,
]
EXPECTED_HAM_LOWER = [
    1.21974, 1.12498, 1.09081, 1.07184, 1.05947,
    1.05075, 1.04426, 1.03924, 1.03525, 1.03199,
]
# Tolerances of the published checks: simulation means (n = 100 000),
# degree grid and lower bounds, matching and cycle upper bounds.
SIM_TOL = 0.01
GRID_TOL = 5e-5
UPPER_TOL = 5e-4
# Exact oracle expectations that are known in closed form.
KNOWN_ORACLE = {
    ("min_degree", 4, 1, 1, TIE_AVOID): (5, 2),
    ("min_degree", 4, 2, 1, TIE_AVOID): (9, 4),
}

CIRCLE_POLICIES = (TIE_AVOID, TIE_LOWEST, TIE_UNIFORM)
FULL_N = 100_000
SMOKE_N = 1_000


@dataclass
class PassResult:
    """Outputs of one pass of a workload, before any timing is attached."""

    rounds: int = 0
    run_trials_s: float = 0.0
    checks: list[tuple[str, bool]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    digest_parts: list[bytes] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.digest_parts:
            h.update(part)
        return h.hexdigest()

    def add_summary(self, summary, trajectories: bool = False) -> None:
        self.rounds += sum(r.threshold_round + r.completion_rounds for r in summary.results)
        self.digest_parts.append(
            export.summary_to_json(summary, include_trajectories=trajectories).encode()
        )


def _timed_run_trials(res: PassResult, spec, workers: int):
    t0 = time.perf_counter()
    summary = trials.run_trials(spec, workers=workers)
    res.run_trials_s += time.perf_counter() - t0
    return summary


def _guarded(res: PassResult, label: str, fn, *args):
    """Call ``fn``; an exception counts as a failed check, not a crash."""
    try:
        return fn(*args)
    except Exception as exc:  # one failed call must not end the benchmark
        res.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        res.check(f"{label} raised", False)
        return None


class Workload:
    """One named workload: specs built in ``__init__``, work in ``run_pass``.

    ``__init__`` is the set-up a user pays before the first call (it is what
    ``setup_s`` times); ``prepare`` computes reference values for the checks
    outside any timed region.
    """

    name = ""
    workers = 1

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.n = SMOKE_N if smoke else FULL_N

    def spec_seed(self, offset: int) -> int:
        return self.seed * 64 + offset

    def prepare(self) -> None:
        pass

    def run_pass(self, workers: int) -> PassResult:
        raise NotImplementedError


class MinDegreeGrid(Workload):
    """Greedy minimum-degree runs at the three acceptance configurations."""

    name = "mindeg_grid"
    CONFIGS = ((1, 1), (3, 2), (5, 5))

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.specs = [
            trials.TrialSpec(
                property=trials.PROP_MIN_DEGREE, n=self.n, k=k, l=l, trials=1,
                seed=self.spec_seed(i),
            ).validate()
            for i, (k, l) in enumerate(self.CONFIGS)
        ]

    def run_pass(self, workers: int) -> PassResult:
        res = PassResult()
        for spec in self.specs:
            label = f"min_degree k={spec.k} l={spec.l}"
            summary = _guarded(res, label, _timed_run_trials, res, spec, workers)
            if summary is None:
                continue
            res.add_summary(summary)
            gap = abs(summary.main.mean - EXPECTED_MIN_DEGREE[(spec.k, spec.l)])
            res.check(f"{label} mean within {SIM_TOL}", gap <= SIM_TOL)
        return res


class Builders(Workload):
    """Matching and path builders at k = 1, 2, run to completion."""

    name = "builders"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.specs = [
            trials.TrialSpec(
                property=prop, n=self.n, k=k, trials=1, seed=self.spec_seed(2 * j + k),
            ).validate()
            for j, prop in enumerate((trials.PROP_PM, trials.PROP_HAM))
            for k in (1, 2)
        ]
        self.reference: dict[tuple[str, int], float] = {}

    def prepare(self) -> None:
        for spec in self.specs:
            stop = spec.effective_threshold()
            solve = systems.solve_pm if spec.property == trials.PROP_PM else systems.solve_ham
            self.reference[(spec.property, spec.k)] = solve(spec.k, stop).constant

    def run_pass(self, workers: int) -> PassResult:
        res = PassResult()
        for spec in self.specs:
            label = f"{spec.property} k={spec.k}"
            # the run verifies its own matching or cycle and raises if it is wrong
            summary = _guarded(res, label, _timed_run_trials, res, spec, workers)
            if summary is None:
                continue
            res.add_summary(summary)
            res.check(
                f"{label} completed",
                all(r.hitting_round is not None for r in summary.results),
            )
            gap = abs(summary.main.mean - self.reference[(spec.property, spec.k)])
            res.check(f"{label} threshold within {SIM_TOL} of the solve", gap <= SIM_TOL)
        return res


class CompareParallel(Workload):
    """The ``compare`` pipeline with sampling on, completion off, 2 workers."""

    name = "compare_parallel"
    workers = 2
    TRIALS = 4

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        common = dict(n=self.n, trials=self.TRIALS, record_trajectory=True, complete=False)
        self.specs = [
            trials.TrialSpec(
                property=trials.PROP_MIN_DEGREE, k=2, l=2, seed=self.spec_seed(0), **common
            ).validate(),
            trials.TrialSpec(
                property=trials.PROP_PM, k=2, seed=self.spec_seed(1), **common
            ).validate(),
        ]

    def run_pass(self, workers: int) -> PassResult:
        res = PassResult()
        for spec in self.specs:
            label = f"compare {spec.property} k={spec.k}"
            summary = _guarded(res, label, _timed_run_trials, res, spec, workers)
            if summary is None:
                continue
            if spec.property == trials.PROP_MIN_DEGREE:
                solution = _guarded(res, label, systems.solve_min_degree, spec.k, spec.l)
            else:
                solution = _guarded(
                    res, label, systems.solve_pm, spec.k, spec.effective_threshold()
                )
            if solution is None:
                continue
            report = _guarded(res, label, trials.trajectory_check, summary, solution)
            if report is None:
                continue
            res.add_summary(summary, trajectories=True)
            res.digest_parts.append(f"{solution.constant!r} {report.sup_distance!r}".encode())
            res.check(f"{label} sup distance < {SIM_TOL}", report.sup_distance < SIM_TOL)
        return res


class Referees(Workload):
    """Constant tables from the drift systems, and the exact oracle."""

    name = "referees"

    def __init__(self, seed: int, smoke: bool = False):
        # no randomness: the seed only names the run
        super().__init__(seed, smoke)
        top = 2 if smoke else 5
        self.grid_range = range(1, top + 1)
        self.bound_range = range(1, (2 if smoke else 10) + 1)
        self.oracle_cases = [
            ("min_degree", n, k, l, policy)
            for policy in CIRCLE_POLICIES
            for n in range(2, (4 if smoke else 6) + 1)
            for k in (1, 2)
            for l in (1, 2)
        ] + [
            ("perfect_matching", n, k, 1, TIE_AVOID)
            for n in ((4,) if smoke else (4, 6, 8))
            for k in (1, 2)
        ]

    def run_pass(self, workers: int) -> PassResult:
        res = PassResult()
        self._tables(res)
        self._oracle(res)
        return res

    def _tables(self, res: PassResult) -> None:
        grid = _guarded(
            res, "degree table", systems.emit_tables,
            "min_degree", self.grid_range, self.grid_range,
        )
        pm = _guarded(res, "matching table", systems.emit_tables, "perfect_matching", self.bound_range)
        ham = _guarded(res, "cycle table", systems.emit_tables, "hamilton_cycle", self.bound_range)
        if grid is not None:
            res.digest_parts.append(export.tables_to_json(grid).encode())
            worst = max(abs(r.constant - EXPECTED_MIN_DEGREE[(r.k, r.l)]) for r in grid)
            res.check(f"degree grid within {GRID_TOL}", worst <= GRID_TOL)
        for records, upper, lower, name in (
            (pm, EXPECTED_PM_UPPER, EXPECTED_PM_LOWER, "matching"),
            (ham, EXPECTED_HAM_UPPER, EXPECTED_HAM_LOWER, "cycle"),
        ):
            if records is None:
                continue
            res.digest_parts.append(export.tables_to_json(records).encode())
            worst_u = max(abs(r.constant - upper[r.k - 1]) for r in records if r.kind == "upper")
            worst_l = max(abs(r.constant - lower[r.k - 1]) for r in records if r.kind == "lower")
            res.check(f"{name} upper bounds within {UPPER_TOL}", worst_u <= UPPER_TOL)
            res.check(f"{name} lower bounds within {GRID_TOL}", worst_l <= GRID_TOL)

    def _oracle(self, res: PassResult) -> None:
        for case in self.oracle_cases:
            target, n, k, l, policy = case
            label = f"oracle {target} n={n} k={k} l={l} {policy}"
            out = _guarded(
                res, label, oracle.exact_small_oracle, n, k, target, l, policy
            )
            if out is None:
                continue
            e = out.expectation
            res.digest_parts.append(f"{label} {e.numerator}/{e.denominator}\n".encode())
            if case in KNOWN_ORACLE:
                res.check(f"{label} equals {KNOWN_ORACLE[case]}", (e.numerator, e.denominator) == KNOWN_ORACLE[case])
            if target == "min_degree":
                # the law is complete, and each round lowers the total degree
                # deficit by at least 1 and at most 2
                law_mean = sum(t * p for t, p in out.distribution.items())
                res.check(f"{label} law sums to 1", sum(out.distribution.values()) == 1)
                res.check(f"{label} law mean is the expectation", law_mean == e)
                res.check(f"{label} within [nl/2, nl]", n * l / 2 <= e <= n * l)
            else:
                # each round saturates at most two vertices
                res.check(f"{label} at least n/2", e >= n / 2)


WORKLOADS = {w.name: w for w in (MinDegreeGrid, Builders, CompareParallel, Referees)}
