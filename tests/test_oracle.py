"""Exact tiny-instance oracle and simulator agreement."""

import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest

from semirandom import ProcessConfig
from semirandom.harness import chi_square_test, exact_small_oracle
from semirandom.harness.oracle import _forward_law
from semirandom.process import (
    CIRCLE_POLICIES,
    LOOP_COUNTS_ONE,
    LOOP_COUNTS_TWO,
    LOOP_POLICIES,
    SQUARE_POLICIES,
    TIE_LOWEST,
    TIE_UNIFORM,
)
from semirandom.strategies import pm_run, run_min_degree


def test_degree_target_n4_k1():
    res = exact_small_oracle(4, 1, "min_degree", l=1)
    assert res.expectation == Fraction(5, 2)
    assert res.distribution == {2: Fraction(1, 2), 3: Fraction(1, 2)}
    assert res.tail == 0


def test_degree_target_n4_k2():
    res = exact_small_oracle(4, 2, "min_degree", l=1)
    assert res.expectation == Fraction(9, 4)
    assert sum(res.distribution.values()) == 1


def test_degree_target_single_round():
    # two vertices, one round: square plus avoided circle covers both
    res = exact_small_oracle(2, 1, "min_degree", l=1)
    assert res.expectation == 1


def test_policies_change_the_expectation():
    avoid = exact_small_oracle(4, 1, "min_degree", l=1)
    lowest = exact_small_oracle(4, 1, "min_degree", l=1, tie_break=TIE_LOWEST)
    uniform = exact_small_oracle(4, 1, "min_degree", l=1, tie_break=TIE_UNIFORM)
    assert avoid.expectation < lowest.expectation
    assert avoid.expectation < uniform.expectation


def test_counts_one_greedy_means_at_n3_k2_l2():
    # Under counts_one a loop adds 1, so greedy's loop when the square is the
    # unique minimum vertex gains less than an edge to another vertex below l
    # would: a backward recursion over the count-state MDP puts the optimum
    # at 28/9, below greedy's 292/81.
    one = exact_small_oracle(3, 2, "min_degree", l=2, loop_degree=LOOP_COUNTS_ONE)
    two = exact_small_oracle(3, 2, "min_degree", l=2, loop_degree=LOOP_COUNTS_TWO)
    assert one.expectation == Fraction(292, 81)
    assert two.expectation == Fraction(28, 9)


def test_matching_n2_is_geometric():
    for k in (1, 2):
        res = exact_small_oracle(2, k, "perfect_matching")
        assert res.expectation == 2
        # geometric law with success probability 1/2
        assert res.distribution[1] == Fraction(1, 2)
        assert res.distribution[3] == Fraction(1, 8)
        assert res.tail < Fraction(1, 10**9)


def test_matching_law_sums_to_one():
    res = exact_small_oracle(4, 2, "perfect_matching")
    total = sum(res.distribution.values()) + res.tail
    assert abs(float(total) - 1.0) < 1e-9
    assert float(res.expectation) > 2.0


def test_every_visited_law_sums_to_one(monkeypatch):
    # the forward walk keeps the live mass as 1 minus the absorbed mass,
    # which is exact only when every integer row sums to exactly its L
    import semirandom.harness.oracle as oracle_module

    original = oracle_module._forward_law
    visited = 0

    def checked_walk(start, step, *args, **kwargs):
        def checked_step(state):
            nonlocal visited
            den, hit, moves = row = step(state)
            assert hit + sum(moves.values()) == den, state
            visited += 1
            return row

        return original(start, checked_step, *args, **kwargs)

    monkeypatch.setattr(oracle_module, "_forward_law", checked_walk)
    policies = list(itertools.product(CIRCLE_POLICIES, SQUARE_POLICIES, LOOP_POLICIES))
    for n, k, l in itertools.product(range(1, 6), (1, 2, 3), (1, 2, 3)):
        for circle, square, loop in policies:
            res = exact_small_oracle(n, k, "min_degree", l, circle, square, loop)
            assert res.tail == 0 and sum(res.distribution.values()) == 1
    for n, k in itertools.product((2, 4, 6), (1, 2, 3)):
        res = exact_small_oracle(n, k, "perfect_matching")
        assert sum(res.distribution.values()) + res.tail == 1
    assert visited > 0


def fraction_walk(start, step, absorbed, cap, tiny=0):
    """The forward walk written plainly in Fraction masses."""
    frontier, law, live = {start: Fraction(1)}, {}, Fraction(1)
    for t in range(1, cap + 1):
        if not frontier:
            break
        nxt, hit = {}, Fraction(0)
        for state, mass in frontier.items():
            for succ, p in step(state).items():
                if absorbed(succ):
                    hit += mass * p
                else:
                    nxt[succ] = nxt.get(succ, 0) + mass * p
        if hit:
            law[t] = hit
            live -= hit
        frontier = nxt
        if live < tiny:
            break
    return law, live


# rows over denominators 2, 3 and 6; "a" and "b" share the frontier from
# round 2 on, so a round's common denominator is lcm(2, 3) = 6, not max 3
MIXED = {
    "a": {"a": Fraction(1, 2), "b": Fraction(1, 2)},
    "b": {"b": Fraction(1, 3), "c": Fraction(1, 3), "X": Fraction(1, 3)},
    "c": {"a": Fraction(1, 6), "c": Fraction(1, 2), "X": Fraction(1, 3)},
}
# the same laws as integer rows (L, absorbed mass * L, {live successor: mass * L})
MIXED_ROWS = {
    "a": (2, 0, {"a": 1, "b": 1}),
    "b": (3, 1, {"b": 1, "c": 1}),
    "c": (6, 2, {"a": 1, "c": 3}),
}


@pytest.mark.parametrize("cap", [1, 2, 5, 40])
def test_forward_law_scales_mixed_denominators_exactly(cap):
    law, tail = _forward_law("a", MIXED_ROWS.__getitem__, cap)
    want_law, want_tail = fraction_walk("a", MIXED.__getitem__, "X".__eq__, cap)
    assert repr((law, tail)) == repr((want_law, want_tail))
    assert tail == 1 - sum(law.values()) > 0


def test_forward_law_cuts_below_tiny_only():
    halving = {0: {0: Fraction(1, 2), 1: Fraction(1, 2)}}.__getitem__
    halving_row = {0: (2, 1, {0: 1})}.__getitem__
    done = (1).__eq__
    # the live mass is exactly 1/8 after round 3, which is not below 1/8
    law, tail = _forward_law(0, halving_row, 100, Fraction(1, 8))
    assert law == {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 8), 4: Fraction(1, 16)}
    assert tail == Fraction(1, 16)
    assert (law, tail) == fraction_walk(0, halving, done, 100, Fraction(1, 8))
    law, tail = _forward_law(0, halving_row, 2, Fraction(1, 8))
    assert law == {1: Fraction(1, 2), 2: Fraction(1, 4)}
    assert tail == Fraction(1, 4)


def test_rejects_intractable_or_unknown_targets():
    for n, k, target, l in [
        (41, 1, "min_degree", 1),  # past n <= 40
        (20, 4, "min_degree", 1),  # n^k = 160 000
        (2, 10**6, "min_degree", 1),  # n^k refused before it is formed
        (30, 1, "min_degree", 5),  # C(35, 5) = 324 632 count states
        (2, 1, "min_degree", 201),  # a law over 402 rounds
        (3, 1, "min_degree", 10**9),
        (4, 1, "min_degree", 0),
        (10, 1, "perfect_matching", 1),  # past n <= 8
        (3, 1, "perfect_matching", 1),
        (4, 1, "hamilton_cycle", 1),
    ]:
        start = time.perf_counter()
        with pytest.raises(ValueError):
            exact_small_oracle(n, k, target, l)
        assert time.perf_counter() - start < 1.0, (n, k, target, l)
    with pytest.raises(ValueError):
        exact_small_oracle(4, 1, "min_degree", 1, loop_degree="counts_three")


def test_count_chain_reaches_past_the_vertex_bound():
    start = time.perf_counter()
    res = exact_small_oracle(20, 2, "min_degree", 2)
    assert time.perf_counter() - start < 1.0
    assert sum(res.distribution.values()) == 1
    # each round raises the capped degree sum by at least 1 and at most 2
    assert min(res.distribution) >= 20 and max(res.distribution) <= 40


@pytest.mark.parametrize(
    "n,k,target,l",
    [
        (4, 1, "min_degree", 1),
        (6, 2, "min_degree", 1),
        (4, 2, "min_degree", 2),
        (4, 1, "perfect_matching", 0),
        (6, 2, "perfect_matching", 0),
    ],
)
def test_simulator_agrees_with_oracle(n, k, target, l):
    trials = 30_000
    if target == "min_degree":
        res = exact_small_oracle(n, k, target, l=l)
        cfg = ProcessConfig(n=n, k=k, seed=1000 + n + k)
        values = [run_min_degree(cfg, l, trial_index=i).rounds for i in range(trials)]
    else:
        res = exact_small_oracle(n, k, target)
        cfg = ProcessConfig(n=n, k=k, seed=2000 + n + k)
        values = [pm_run(cfg, trial_index=i).total_rounds for i in range(trials)]
    mean = sum(values) / trials
    var = sum((v - mean) ** 2 for v in values) / (trials - 1)
    sigma = math.sqrt(var / trials)
    assert abs(mean - float(res.expectation)) < 4 * sigma + 1e-9


@pytest.mark.slow
def test_simulator_agrees_with_oracle_full_sweep():
    # heavier grid at a million trials per configuration
    trials = 1_000_000
    for n in (4, 6):
        for k in (1, 2, 3):
            res = exact_small_oracle(n, k, "min_degree", l=1)
            cfg = ProcessConfig(n=n, k=k, seed=31_000 + 10 * n + k)
            total = 0
            totsq = 0
            for i in range(trials):
                r = run_min_degree(cfg, 1, trial_index=i).rounds
                total += r
                totsq += r * r
            mean = total / trials
            sigma = math.sqrt((totsq / trials - mean**2) / trials)
            assert abs(mean - float(res.expectation)) < 4 * sigma + 1e-9


# sha256 prefix of repr((sorted(distribution.items()), expectation)) per
# (n, k, l), over circle x square x loop policies in their declared order
LAW_PINS = {
    (3, 1, 1): (
        "54e78ebdea900383", "54e78ebdea900383", "54e78ebdea900383",
        "54e78ebdea900383", "2ae081fba94c629c", "2ae081fba94c629c",
        "2ae081fba94c629c", "2ae081fba94c629c", "54e78ebdea900383",
        "54e78ebdea900383", "54e78ebdea900383", "54e78ebdea900383",
    ),
    (3, 1, 2): (
        "293442e316111220", "16272e968034a077", "293442e316111220",
        "16272e968034a077", "5ca48065b22e991c", "a9073e13de70795c",
        "5ca48065b22e991c", "a9073e13de70795c", "293442e316111220",
        "16272e968034a077", "293442e316111220", "16272e968034a077",
    ),
    (3, 2, 1): (
        "bd82645fe7363c53", "bd82645fe7363c53", "bd82645fe7363c53",
        "bd82645fe7363c53", "2ae081fba94c629c", "2ae081fba94c629c",
        "2ae081fba94c629c", "2ae081fba94c629c", "bd82645fe7363c53",
        "bd82645fe7363c53", "bd82645fe7363c53", "bd82645fe7363c53",
    ),
    (3, 2, 2): (
        "9c90ab34df15d922", "92187a4fd49a348f", "9c90ab34df15d922",
        "92187a4fd49a348f", "35f2b435df36484b", "703fccb5df2e8731",
        "35f2b435df36484b", "703fccb5df2e8731", "9c90ab34df15d922",
        "92187a4fd49a348f", "9c90ab34df15d922", "92187a4fd49a348f",
    ),
    (4, 1, 1): (
        "6006b73a7346a390", "6006b73a7346a390", "6006b73a7346a390",
        "6006b73a7346a390", "1058ab192b374bd5", "1058ab192b374bd5",
        "1058ab192b374bd5", "1058ab192b374bd5", "6006b73a7346a390",
        "6006b73a7346a390", "6006b73a7346a390", "6006b73a7346a390",
    ),
    (4, 1, 2): (
        "4ab3ac59c6003deb", "8a238e98260c41be", "4ab3ac59c6003deb",
        "8a238e98260c41be", "53a2978c2faa93c5", "0de3cc0113d8d941",
        "53a2978c2faa93c5", "0de3cc0113d8d941", "4ab3ac59c6003deb",
        "8a238e98260c41be", "4ab3ac59c6003deb", "8a238e98260c41be",
    ),
    (4, 2, 1): (
        "10e23b2041cf03c7", "10e23b2041cf03c7", "10e23b2041cf03c7",
        "10e23b2041cf03c7", "67165a8a93ccc7df", "67165a8a93ccc7df",
        "67165a8a93ccc7df", "67165a8a93ccc7df", "10e23b2041cf03c7",
        "10e23b2041cf03c7", "10e23b2041cf03c7", "10e23b2041cf03c7",
    ),
    (4, 2, 2): (
        "fd90140d045b20a3", "96e979ef7f09588d", "fd90140d045b20a3",
        "96e979ef7f09588d", "c133b919430d93b5", "beeff5f3a5182289",
        "c133b919430d93b5", "beeff5f3a5182289", "fd90140d045b20a3",
        "96e979ef7f09588d", "fd90140d045b20a3", "96e979ef7f09588d",
    ),
    (5, 1, 1): (
        "3831267c129a0be8", "3831267c129a0be8", "3831267c129a0be8",
        "3831267c129a0be8", "f96c2feae413cd43", "f96c2feae413cd43",
        "f96c2feae413cd43", "f96c2feae413cd43", "3831267c129a0be8",
        "3831267c129a0be8", "3831267c129a0be8", "3831267c129a0be8",
    ),
    (5, 1, 2): (
        "cbb5d40636362d15", "c8a687c8edb165bc", "cbb5d40636362d15",
        "c8a687c8edb165bc", "5f8903a2a9301e51", "89b2303f631a955f",
        "5f8903a2a9301e51", "89b2303f631a955f", "cbb5d40636362d15",
        "c8a687c8edb165bc", "cbb5d40636362d15", "c8a687c8edb165bc",
    ),
    (5, 2, 1): (
        "110881e81ae8457e", "110881e81ae8457e", "110881e81ae8457e",
        "110881e81ae8457e", "d9d5bdde48f61ddc", "d9d5bdde48f61ddc",
        "d9d5bdde48f61ddc", "d9d5bdde48f61ddc", "110881e81ae8457e",
        "110881e81ae8457e", "110881e81ae8457e", "110881e81ae8457e",
    ),
    (5, 2, 2): (
        "9f3288b7249a30fc", "6dd448acad2b42dd", "9f3288b7249a30fc",
        "6dd448acad2b42dd", "c043279318ee9c96", "936e665868436ba0",
        "c043279318ee9c96", "936e665868436ba0", "9f3288b7249a30fc",
        "6dd448acad2b42dd", "9f3288b7249a30fc", "6dd448acad2b42dd",
    ),
    (4, 3, 2): (
        "18ced384c955dc3f", "1bc86b3bb25cf276", "18ced384c955dc3f",
        "1bc86b3bb25cf276", "890cbb6dde8c905f", "36a9e9a368c11757",
        "890cbb6dde8c905f", "36a9e9a368c11757", "18ced384c955dc3f",
        "1bc86b3bb25cf276", "18ced384c955dc3f", "1bc86b3bb25cf276",
    ),
    (5, 3, 1): (
        "64fb8c623d549da5", "64fb8c623d549da5", "64fb8c623d549da5",
        "64fb8c623d549da5", "ba83d2650700aa02", "ba83d2650700aa02",
        "ba83d2650700aa02", "ba83d2650700aa02", "64fb8c623d549da5",
        "64fb8c623d549da5", "64fb8c623d549da5", "64fb8c623d549da5",
    ),
    (4, 2, 3): (
        "aebd098311be5760", "fffbc66dd9f0c1c0", "aebd098311be5760",
        "fffbc66dd9f0c1c0", "e8783397296e20d8", "dd564deb03a3db73",
        "e8783397296e20d8", "dd564deb03a3db73", "aebd098311be5760",
        "fffbc66dd9f0c1c0", "aebd098311be5760", "fffbc66dd9f0c1c0",
    ),
    (6, 1, 3): (
        "adee21e06cadbafb", "f71aec2296b39fda", "adee21e06cadbafb",
        "f71aec2296b39fda", "63dee83353b89461", "fb8b1113951e8c6a",
        "63dee83353b89461", "fb8b1113951e8c6a", "adee21e06cadbafb",
        "f71aec2296b39fda", "adee21e06cadbafb", "f71aec2296b39fda",
    ),
}


@pytest.mark.pinned
def test_min_degree_laws_are_pinned():
    policies = list(itertools.product(CIRCLE_POLICIES, SQUARE_POLICIES, LOOP_POLICIES))
    assert len(LAW_PINS) == 16
    for (n, k, l), pins in LAW_PINS.items():
        for (circle, square, loop), pin in zip(policies, pins, strict=True):
            res = exact_small_oracle(n, k, "min_degree", l, circle, square, loop)
            law = repr((sorted(res.distribution.items()), res.expectation))
            got = hashlib.sha256(law.encode()).hexdigest()[:16]
            assert got == pin, (n, k, l, circle, square, loop)


# sha256 prefix of repr((sorted(distribution.items()), expectation, tail)) of
# the matching target per (n, k)
PM_PINS = {
    (4, 1): "bab6500c5ce939ee",
    (4, 2): "b687b1838e789e54",
    (4, 3): "14e5556abf25cba6",
    (6, 1): "edd4c9e80652c8fe",
    (6, 2): "eb4b5a6571492389",
    (6, 3): "2282e0c035d63ff3",
    (8, 1): "8312e31c75b79913",
    (8, 2): "3dd7a4789fb1a449",
    (8, 3): "4df87447181847d9",
}


@pytest.mark.pinned
def test_matching_laws_are_pinned():
    for (n, k), pin in PM_PINS.items():
        res = exact_small_oracle(n, k, "perfect_matching")
        law = repr((sorted(res.distribution.items()), res.expectation, res.tail))
        assert hashlib.sha256(law.encode()).hexdigest()[:16] == pin, (n, k)


# the same hash for larger laws under the default policies, where each
# round's common denominator grows furthest
LARGE_LAW_PINS = {
    (40, 1, 3): "be0e77c14f96f9fe",
    (30, 1, 4): "465fd2e7486d4ce4",
    (20, 2, 2): "7ce33db7c0d3ec0c",
    (12, 3, 3): "a6e4df930dc90ac5",
}


@pytest.mark.pinned
def test_large_degree_laws_are_pinned():
    for (n, k, l), pin in LARGE_LAW_PINS.items():
        res = exact_small_oracle(n, k, "min_degree", l)
        law = repr((sorted(res.distribution.items()), res.expectation))
        assert hashlib.sha256(law.encode()).hexdigest()[:16] == pin, (n, k, l)


LAW_TRIALS = 5000


@pytest.mark.parametrize(
    "n,k,l",
    [
        pytest.param(4, 1, 1, id="1-1"),
        pytest.param(4, 1, 2, id="1-2"),
        pytest.param(4, 2, 1, id="2-1"),
        pytest.param(4, 2, 2, id="2-2"),
        pytest.param(12, 2, 2, id="n12-2-2"),
        pytest.param(20, 2, 2, id="n20-2-2"),
    ],
)
def test_simulated_law_matches_oracle(n, k, l):
    # the whole hitting-time law, not only its mean, for every circle and
    # square policy; the oracle's support bounds every simulated value
    for i, (circle, square) in enumerate(itertools.product(CIRCLE_POLICIES, SQUARE_POLICIES)):
        res = exact_small_oracle(n, k, "min_degree", l, circle, square)
        support = sorted(res.distribution)
        seed = 5000 + 10_000 * (n - 4) + 100 * k + 10 * l + i
        cfg = ProcessConfig(n=n, k=k, seed=seed, tie_break=circle, square_tie_break=square)
        counts = dict.fromkeys(support, 0)
        for trial in range(LAW_TRIALS):
            rounds = run_min_degree(cfg, l, trial_index=trial).rounds
            assert rounds in counts, (circle, square, rounds)
            counts[rounds] += 1
        report = chi_square_test(
            [counts[t] for t in support], [float(res.distribution[t]) for t in support]
        )
        assert report.p_value > 1e-3, (circle, square, report)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("k", [1, 2])
def test_simulated_matching_law_matches_oracle(n, k):
    # the oracle's law is truncated where its tail drops below 1e-12, so a
    # simulated value past its support would be a 1e-12 event
    res = exact_small_oracle(n, k, "perfect_matching")
    support = sorted(res.distribution)
    cfg = ProcessConfig(n=n, k=k, seed=9000 + 10 * n + k)
    counts = dict.fromkeys(support, 0)
    for trial in range(LAW_TRIALS):
        rounds = pm_run(cfg, trial_index=trial).total_rounds
        assert rounds in counts, rounds
        counts[rounds] += 1
    probabilities = [float(res.distribution[t]) for t in support]
    probabilities[-1] += float(res.tail)
    report = chi_square_test([counts[t] for t in support], probabilities)
    assert report.p_value > 1e-3, report
