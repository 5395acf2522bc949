"""Trial runner, statistics kit, comparisons, export."""

import json
import math

import numpy as np
import pytest

from semirandom import trial_rng
from semirandom.harness import (
    TrialSpec,
    chi2_sf,
    chi_square_test,
    dominance_experiment,
    mean_ci,
    normal_sf,
    paired_one_sided_p,
    run_trials,
    summary_to_json,
    tables_to_csv,
    tables_to_json,
    trajectory_check,
)
from semirandom.harness import trials
from semirandom.ode import emit_tables, solve_min_degree, solve_pm


def test_chi2_sf_reference_points():
    assert abs(chi2_sf(3.841458820694124, 1) - 0.05) < 1e-10
    assert abs(chi2_sf(9.487729036781154, 4) - 0.05) < 1e-10
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(1000.0, 2) < 1e-200


# chi2_sf(x, df) at x in (1e-9, df/2, df, 2 df, 5 df + 20, 1000), recorded
# from the series and continued-fraction solver it replaced
CHI2_REFERENCE = {
    1: (0.999974768674784, 0.4795001221869536, 0.3173105078629145,
        0.15729920705028555, 5.733031437583874e-07, 1.795832784800736e-219),
    2: (0.9999999995, 0.6065306597126334, 0.36787944117144333,
        0.1353352832366127, 3.0590232050182594e-07, 7.124576406741474e-218),
    3: (0.9999999999999916, 0.6822703303362125, 0.39162517627109006,
        0.11161022509471474, 1.2182496976163338e-07, 1.7994208765314063e-216),
    4: (1.0, 0.7357588823428848, 0.4060058497098389,
        0.0915781944436709, 4.328422607120966e-08, 3.569412779777368e-215),
    7: (1.0, 0.8352254826103422, 0.4288798575530548,
        0.05118135341306576, 1.4909069484204916e-09, 1.204426773519007e-211),
    10: (1.0, 0.8911780189141513, 0.4404932850652129,
         0.029252688076961145, 4.433781749923207e-11, 1.8702907209159774e-208),
    30: (1.0, 0.9897395720876574, 0.4656537089440167,
         0.0009206823961486632, 1.7116706777077664e-21, 5.1314353215725616e-191),
    59: (1.0, 0.9995356245518807, 0.4755119972953279,
         8.076425555912607e-06, 1.2405331496845632e-36, 3.849187801041878e-171),
}


@pytest.mark.parametrize("df", sorted(CHI2_REFERENCE))
def test_chi2_sf_matches_reference_grid(df):
    xs = (1e-9, df / 2, df, 2 * df, 5 * df + 20, 1000.0)
    for x, want in zip(xs, CHI2_REFERENCE[df], strict=True):
        assert abs(chi2_sf(x, df) - want) <= 1e-12 * want, (x, df)
        if df <= 2:  # the tails in closed form
            closed = math.erfc(math.sqrt(x / 2)) if df == 1 else math.exp(-x / 2)
            assert abs(chi2_sf(x, df) - closed) <= 1e-13 * closed, (x, df)


def test_normal_sf_reference_points():
    assert abs(normal_sf(1.959963984540054) - 0.025) < 1e-12
    assert abs(normal_sf(0.0) - 0.5) < 1e-15


def test_chi_square_test_accepts_true_distribution():
    rng = trial_rng(3)
    probs = [0.5, 0.3, 0.15, 0.05]
    draws = rng.choice(4, size=100_000, p=probs)
    counts = np.bincount(draws, minlength=4).tolist()
    rep = chi_square_test(counts, probs)
    assert rep.p_value > 1e-3
    assert rep.df == 3


def test_chi_square_test_rejects_wrong_distribution():
    rep = chi_square_test([900, 100], [0.5, 0.5])
    assert rep.p_value < 1e-10


def test_chi_square_merges_tiny_classes():
    rep = chi_square_test([999, 1, 0], [0.998, 0.001, 0.001])
    assert rep.df == 1  # the two tiny classes collapsed into one


def test_mean_ci_contains_mean():
    rep = mean_ci([1.0, 2.0, 3.0, 4.0])
    assert rep.ci[0] < rep.mean < rep.ci[1]
    assert rep.count == 4


def test_paired_p_degenerate_cases():
    assert paired_one_sided_p([0.0, 0.0, 0.0]) == 0.5
    assert paired_one_sided_p([1.0, 1.0]) == 0.0
    assert paired_one_sided_p([-1.0, -1.0]) == 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        TrialSpec(property="clique", n=4, k=1).validate()
    with pytest.raises(ValueError):
        TrialSpec(property="min_degree", n=4, k=1, strategy="pet").validate()
    with pytest.raises(ValueError):
        TrialSpec(property="min_degree", n=4, k=1, trials=0).validate()
    with pytest.raises(ValueError):
        TrialSpec(property="perfect_matching", n=4, k=1, threshold=1.5).validate()


def test_degree_target_rejects_a_threshold():
    with pytest.raises(ValueError, match="no threshold"):
        TrialSpec(property="min_degree", n=4, k=1, threshold=0.3).validate()


def test_run_trials_caps_the_pool_at_the_trial_count(spy_pool):
    spec = TrialSpec(property="min_degree", n=60, k=1, trials=2, seed=4)
    pooled = run_trials(spec, workers=6)
    assert spy_pool == [2]
    assert pooled.results == run_trials(spec).results


@pytest.mark.parametrize("prop,n,message", [
    ("perfect_matching", 101, "even vertex count"),
    ("hamilton_cycle", 2, "at least 3 vertices"),
])
def test_vertex_count_is_checked_before_a_pool_is_built(spy_pool, prop, n, message):
    with pytest.raises(ValueError, match=message):
        TrialSpec(property=prop, n=n, k=1, trials=2).validate()
    with pytest.raises(ValueError, match=message):
        run_trials(TrialSpec(property=prop, n=n, k=1, trials=2), workers=2)
    assert spy_pool == []


def test_run_trials_deterministic_across_workers():
    spec = TrialSpec(property="min_degree", n=400, k=2, l=2, trials=6, seed=17)
    serial = run_trials(spec, workers=1)
    parallel = run_trials(spec, workers=3)
    assert [r.threshold_round for r in serial.results] == [
        r.threshold_round for r in parallel.results
    ]
    assert serial.main.mean == parallel.main.mean


def test_run_trials_reports_phases_and_completion_split():
    spec = TrialSpec(property="perfect_matching", n=300, k=1, trials=4, seed=2,
                     threshold=0.05)
    summary = run_trials(spec)
    for r in summary.results:
        assert r.hitting_round == r.threshold_round + r.completion_rounds
    spec = TrialSpec(property="min_degree", n=300, k=1, l=2, trials=4, seed=2)
    summary = run_trials(spec)
    assert len(summary.phase_means) == 2
    assert 0 < summary.phase_means[0] < summary.phase_means[1]


@pytest.mark.pinned
def test_seeded_rounds_are_pinned():
    # (threshold_round, completion_rounds) per trial; any change to the
    # random streams or to the order in which a run consumes them shows here
    # (the min_degree rows cover every circle, square and loop policy: the
    # uniform picks read the packed order of the degree buckets)
    uniform_circle = {"tie_break": "uniform_random"}
    lowest_circle = {"tie_break": "lowest_index"}
    uniform_square = {"square_tie_break": "uniform_random"}
    loops_one = {"loop_degree": "counts_one", **uniform_circle, **uniform_square}
    pinned = [
        (("min_degree", 2, "s0", False, {}), [(2258, 0), (2252, 0)]),
        (("min_degree", 2, "s0", False, uniform_circle), [(2251, 0), (2260, 0)]),
        (("min_degree", 2, "s0", True, lowest_circle), [(2259, 0), (2253, 0)]),
        (("min_degree", 2, "s0", False, uniform_square), [(2253, 0), (2253, 0)]),
        (("min_degree", 2, "s0", False, loops_one), [(2269, 0), (2243, 0)]),
        (("min_degree", 2, "uniform_circle", False, {}), [(7166, 0), (8478, 0)]),
        (("min_degree", 2, "max_degree_circle", True, {}), [(11818, 0), (12251, 0)]),
        (("perfect_matching", 1, "s0", True, {}), [(2406, 24), (2449, 20)]),
        (("perfect_matching", 2, "s0", True, {}), [(1812, 23), (1790, 44)]),
        (("hamilton_cycle", 1, "s0", True, {}), [(3573, 214), (3471, 2337)]),
        (("hamilton_cycle", 2, "s0", True, {}), [(2659, 361), (2651, 345)]),
    ]
    for (prop, k, strategy, debug, policies), expected in pinned:
        spec = TrialSpec(property=prop, n=2000, k=k, l=2, strategy=strategy, trials=2,
                         seed=2024, debug=debug, **policies)
        got = [(r.threshold_round, r.completion_rounds) for r in run_trials(spec).results]
        assert got == expected, (prop, k, strategy, policies)


def test_trajectory_check_small_run():
    spec = TrialSpec(
        property="min_degree", n=3000, k=1, l=2, trials=2, seed=5,
        record_trajectory=True,
    )
    summary = run_trials(spec)
    report = trajectory_check(summary, solve_min_degree(1, 2))
    assert report.sup_distance < 0.05
    assert set(report.per_coordinate) == {"y0", "y1"}
    spec = TrialSpec(
        property="perfect_matching", n=3000, k=2, trials=1, seed=6,
        record_trajectory=True, complete=False, threshold=0.01,
    )
    summary = run_trials(spec)
    report = trajectory_check(summary, solve_pm(2, eps=0.01))
    assert report.sup_distance < 0.05


def test_trajectory_check_requires_samples():
    spec = TrialSpec(property="min_degree", n=100, k=1, trials=1, seed=1)
    summary = run_trials(spec)
    with pytest.raises(ValueError):
        trajectory_check(summary, solve_min_degree(1, 1))


def test_dominance_self_comparison_is_indistinguishable():
    spec = TrialSpec(property="min_degree", n=500, k=1, l=1, trials=30, seed=3)
    rep = dominance_experiment(spec, "s0")
    assert rep.p_value == 0.5
    assert rep.mean_strategy == rep.mean_baseline


def test_dominance_rejects_other_properties():
    spec = TrialSpec(property="perfect_matching", n=100, k=1, trials=2, seed=1)
    with pytest.raises(ValueError):
        dominance_experiment(spec, "uniform_circle")


def test_dominance_rejects_a_bad_baseline_before_any_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the baseline was validated")

    monkeypatch.setattr(trials, "run_trials", no_trials)
    spec = TrialSpec(property="min_degree", n=20_000, k=2, trials=10, seed=1)
    with pytest.raises(ValueError, match="unknown strategy 'nope'"):
        dominance_experiment(spec, "nope")


def test_dominance_beats_max_degree_baseline():
    spec = TrialSpec(property="min_degree", n=2000, k=1, l=2, trials=100, seed=21)
    rep = dominance_experiment(spec, "max_degree_circle")
    assert rep.mean_strategy < rep.mean_baseline
    assert rep.p_value < 1e-3


def test_degree_trajectory_concentrates_at_scale():
    spec = TrialSpec(
        property="min_degree", n=100_000, k=1, l=2, trials=1, seed=8,
        record_trajectory=True,
    )
    summary = run_trials(spec)
    report = trajectory_check(summary, solve_min_degree(1, 2))
    assert report.sup_distance < 0.01


def test_exports_are_byte_stable_and_round_trip():
    records = emit_tables("min_degree", range(1, 3), range(1, 2))
    a = tables_to_csv(records)
    b = tables_to_csv(records)
    assert a == b
    assert a.splitlines()[0] == "property,k,l,constant,kind"
    assert len(a.splitlines()) == 3
    parsed = json.loads(tables_to_json(records))
    assert parsed[0]["property"] == "min_degree"
    assert abs(parsed[0]["constant"] - math.log(2.0)) < 1e-8
    # the record format is lossless: constants survive the text round trip
    import csv as _csv
    import io as _io

    for row, rec in zip(list(_csv.DictReader(_io.StringIO(a))), records):
        assert float(row["constant"]) == rec.constant

    spec = TrialSpec(property="min_degree", n=200, k=1, l=1, trials=3, seed=9)
    summary = run_trials(spec)
    first = summary_to_json(summary).encode()
    assert first == summary_to_json(run_trials(spec)).encode()
    payload = json.loads(first)
    assert payload["spec"]["n"] == 200
    assert payload["main_rounds_per_n"]["trials"] == 3
    assert [r["trial"] for r in payload["results"]] == [0, 1, 2]


@pytest.mark.slow
def test_concentration_improves_with_n():
    sups = []
    for n in (10_000, 100_000):
        gaps = []
        for seed in range(10):
            spec = TrialSpec(
                property="min_degree", n=n, k=1, l=2, trials=1, seed=seed,
                record_trajectory=True,
            )
            summary = run_trials(spec)
            gaps.append(trajectory_check(summary, solve_min_degree(1, 2)).sup_distance)
        sups.append(sum(gaps) / len(gaps))
    assert sups[1] < sups[0]
