"""Path builder: cases, class bookkeeping, runs, completion."""

import hashlib
import math

import pytest
from hypothesis import example, given, strategies as st

from semirandom import ProcessConfig, trial_rng
from semirandom.rng import SquareSource, trial_streams
from semirandom.strategies import (
    GREEN,
    HamState,
    OFF_MATCHED,
    PERMISSIBLE,
    RED,
    USELESS,
    classify_ham,
    ham_case_probabilities,
    ham_completion,
    ham_expected_changes,
    ham_run,
    ham_step,
    verify_hamiltonian_cycle,
)
from semirandom.strategies import hamilton
from semirandom.strategies.common import play_blocks

from conftest import move


def build_path(n, path, matched=(), reds=()):
    """HamState with an explicit path, matched pairs, and red targets.  The
    path edges, pairs and pending edges count as played, as in a run that
    reached this state."""
    h = HamState(n, debug=True)
    for a, b in (*zip(path, path[1:]), *matched, *reds):
        h.played[min(a, b), max(a, b)] += 1
    for v in path:
        move(h, v, h.unsat, h.permissible)
        h.label[v] = PERMISSIBLE
    for a, b in zip(path, path[1:]):
        h.nxt[a] = b
        h.prv[b] = a
    if path:
        h.head = path[0]
        h.tail = path[-1]
    for a, b in matched:
        move(h, a, h.unsat, h.matched)
        move(h, b, h.unsat, h.matched)
        h.label[a] = OFF_MATCHED
        h.label[b] = OFF_MATCHED
        h.mate[a] = b
        h.mate[b] = a
    h.X = len(path)
    for x, z in reds:
        move(h, x, h.permissible)
        h.label[x] = RED
        h.R += 1
        h.red_target[x] = z
        h.red_at.setdefault(z, []).append(x)
    # rebuild the derived classes the same way the step function does
    hamilton._settle(h, (), tuple(path))
    h.validate()
    return h


def test_fresh_state_always_matches():
    h = HamState(6)
    assert classify_ham(h.label, [3, 5]) == (0, 0)


def test_match_case(scripted_rng):
    h = HamState(6, debug=True)
    out = ham_step(h, [2], scripted_rng([0]))
    assert out.case == "a"
    if out.changed:
        assert h.Y == 2
    h2 = HamState(6, debug=True)
    idx = list(h2.unsat).index(2)
    out = ham_step(h2, [2], scripted_rng([idx]))
    assert out.case == "a" and not out.changed  # self hit


def test_append_case_from_empty_path(scripted_rng):
    h = build_path(6, [], matched=[(1, 2)])
    out = ham_step(h, [1], scripted_rng([0]))
    assert out.case == "b" and out.changed
    assert out.circle == 2  # bootstrap uses the mate as the far endpoint
    assert h.X == 2 and h.Y == 0
    assert h.head == 1 and h.tail == 2
    h.validate()


def test_append_case_extends_at_tail(scripted_rng):
    h = build_path(8, [1, 2, 3], matched=[(4, 5)])
    out = ham_step(h, [4], scripted_rng([0]))
    assert out.case == "b"
    assert out.circle == 3  # the old endpoint receives the new edge
    assert h.path_order() == [1, 2, 3, 4, 5]
    assert h.X == 5 and h.Y == 0
    h.validate()


def test_append_with_zero_reds_changes_counts_only():
    h = build_path(8, [1, 2, 3], matched=[(4, 5), (6, 7)])
    x0, y0 = h.X, h.Y
    out = ham_step(h, [6], trial_rng(3))
    assert out.case == "b"
    assert h.X == x0 + 2 and h.Y == y0 - 2
    h.validate()


def test_absorb_unsaturated_through_pending_edge(scripted_rng):
    # path 1-2-3-4-5 with red 3 targeting off-path unsaturated 6
    h = build_path(7, [1, 2, 3, 4, 5], reds=[(3, 6)])
    assert h.label[2] == GREEN and h.label[4] == GREEN
    assert h.label[1] == USELESS and h.label[5] == USELESS
    out = ham_step(h, [2], scripted_rng([]))
    assert out.case == "c'"
    assert out.circle == 6
    assert h.path_order() == [1, 6, 2, 3, 4, 5] or h.path_order() == [1, 2, 6, 3, 4, 5]
    assert h.R == 0 and h.X == 6
    h.validate()


def test_absorb_matched_pair_through_pending_edge(scripted_rng):
    h = build_path(9, [1, 2, 3, 4, 5], matched=[(6, 7)], reds=[(3, 6)])
    out = ham_step(h, [4], scripted_rng([]))
    assert out.case == "c''"
    assert out.circle == 7  # the mate of the pending endpoint
    order = h.path_order()
    assert order == [1, 2, 3, 6, 7, 4, 5]
    assert h.R == 0 and h.X == 7 and h.Y == 0
    h.validate()


def test_absorption_kills_other_pending_edges(scripted_rng):
    # two reds target the same off-path vertex; absorbing it uncolours both
    h = build_path(9, [1, 2, 3, 4, 5, 6, 7], reds=[(2, 8), (6, 8)])
    assert h.R == 2
    out = ham_step(h, [3], scripted_rng([]))  # green square next to red 2
    assert out.case == "c'"
    assert h.R == 0  # the other pending edge died with the absorbed target
    h.validate()


def test_colour_case_creates_red_and_greens(scripted_rng):
    h = build_path(8, [1, 2, 3, 4, 5], matched=[(6, 7)])
    out = ham_step(h, [3], scripted_rng([0]))
    assert out.case == "d"
    assert h.label[3] == RED
    assert h.label[2] == GREEN and h.label[4] == GREEN
    assert h.label[1] == USELESS and h.label[5] == USELESS
    assert out.circle in (6, 7)  # uniform over matched + unsaturated
    h.validate()


def test_pass_case(scripted_rng):
    h = build_path(7, [1, 2, 3, 4, 5], reds=[(3, 6)])
    out = ham_step(h, [1, 3], scripted_rng([0]))  # useless and red squares only
    assert out.case == "e" and not out.changed
    h.validate()


def test_step_rejects_a_path_that_spans_every_vertex():
    n = 6
    h = HamState(n)
    rng_sq, rng_ch = trial_streams(3)
    src = SquareSource(n, 1, rng_sq)
    while h.X < n:
        ham_step(h, src.next_round(), rng_ch)
    for v in range(1, n + 1):
        with pytest.raises(ValueError, match="the run is over"):
            ham_step(h, [v], rng_ch)
    h.validate()


def _swap_first(a, b):
    a[0], b[0] = b[0], a[0]


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda h: h.permissible.__setitem__(0, 3), id="wrong-vertex-in-slot"),
        pytest.param(lambda h: h.pos.__setitem__(5, 0), id="stale-pos"),
        pytest.param(lambda h: _swap_first(h.unsat, h.matched), id="vertices-in-wrong-lists"),
        pytest.param(lambda h: h.padding.append(5), id="vertex-in-two-lists"),
        pytest.param(lambda h: h.unsat.append(9), id="vertex-listed-twice"),
        pytest.param(lambda h: h.matched.pop(), id="matched-vertex-missing"),
        pytest.param(lambda h: h.padding.pop(), id="padded-vertex-missing"),
    ],
)
def test_validate_catches_each_corruption(corrupt):
    # red 1, green 2, structural useless 3; lists: unsaturated [9], matched
    # [7, 8], permissible [6, 5], padding [4]
    h = build_path(9, [1, 2, 3, 4, 5, 6], matched=[(7, 8)], reds=[(1, 9)])
    corrupt(h)
    with pytest.raises(AssertionError):
        h.validate()


def test_case_probabilities_examples():
    probs = ham_case_probabilities(0, 0, 0, 10, 3)
    assert probs == (1.0, 0.0, 0.0, 0.0, 0.0)
    probs = ham_case_probabilities(10, 0, 0, 10, 2)
    assert probs[:3] == (0.0, 0.0, 0.0) and abs(probs[3] - 1.0) < 1e-15 and probs[4] == 0.0
    probs = ham_case_probabilities(10, 5, 1, 20, 1)
    expect = (0.25, 0.25, 0.1, 0.25, 0.15)
    for p, e in zip(probs, expect):
        assert abs(p - e) < 1e-12
    assert abs(sum(probs) - 1.0) < 1e-12


def test_case_probabilities_reject_inconsistent_counts():
    with pytest.raises(ValueError):
        ham_case_probabilities(10, 0, 3, 20, 1)  # 5R > X
    with pytest.raises(ValueError):
        ham_case_probabilities(15, 10, 0, 20, 1)  # X + Y > n


def test_case_frequencies_match_exact_class_counts():
    h = build_path(
        20,
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        matched=[(13, 14), (15, 16)],
        reds=[(3, 13), (9, 17)],
    )
    probs = ham_case_probabilities(
        h.X, h.Y, h.R, 20, 2, n_green=h.green_count, n_useless=h.useless_count
    )
    rng = trial_rng(40)
    counts = [0] * 5
    rounds = 200_000
    for _ in range(rounds):
        squares = rng.integers(1, 21, size=2).tolist()
        rank, _ = classify_ham(h.label, squares)
        counts[rank] += 1
    for c, p in zip(counts, probs):
        assert abs(c / rounds - p) < 5e-3


def test_expected_changes_match_direct_formulas():
    dx, dy, dr = ham_expected_changes(0.0, 0.0, 0.0, 3)
    assert (dx, dy, dr) == (0.0, 2.0, 0.0)
    dx, dy, dr = ham_expected_changes(0.5, 0.25, 0.05, 1)
    assert abs(dx - 0.65) < 1e-12


def _rerandomize_red_targets(h, rng):
    """Redraw every pending edge's endpoint uniformly over off-path vertices.

    Conditioned on the tracked counts this is the process's own law for the
    unexposed endpoints, which is what the drift formulas average over.
    """
    off = list(h.matched) + list(h.unsat)
    h.red_at.clear()
    for x in (v for v in range(1, h.n + 1) if h.label[v] == RED):
        z = off[rng.integers(len(off))]
        h.red_target[x] = z
        h.red_at.setdefault(z, []).append(x)


def test_one_step_drift_matches_case_probability_formula(copy_state):
    n, k = 200, 2
    cfg = ProcessConfig(n=n, k=k, seed=9)
    h = HamState(n)
    rng_sq, rng_ch = trial_streams(cfg.seed, 0)
    src = SquareSource(n, k, rng_sq)
    while h.X < 120:
        ham_step(h, src.next_round(), rng_ch)
    X, Y, R = h.X, h.Y, h.R
    U = n - X - Y
    W = n - X
    pa, pb, pc, pd, _pe = ham_case_probabilities(
        X, Y, R, n, k, n_green=h.green_count, n_useless=h.useless_count
    )
    # predictions at exact class counts, with self-hit corrections
    dx_p = 2 * pb + (1 + Y / W) * pc
    dy_p = 2 * pa * (1 - 1 / U) - 2 * pb - 2 * pc * Y / W
    dr_p = -2 * R / W * pb - (1 + (1 + Y / W) * (R - 1) / W) * pc + pd
    # asymptotic composition agrees with the exact one up to O(1/n)
    asym = ham_expected_changes(X / n, Y / n, R / n, k)
    for a, b in zip(asym, (dx_p, dy_p, dr_p)):
        assert abs(a - b) < 12 / n
    samples = 100_000
    rng = trial_rng(123)
    sums = [0.0, 0.0, 0.0]
    sqs = [0.0, 0.0, 0.0]
    for _ in range(samples):
        probe = copy_state(h)
        _rerandomize_red_targets(probe, rng)
        ham_step(probe, rng.integers(1, n + 1, size=k).tolist(), rng)
        for j, d in enumerate((probe.X - X, probe.Y - Y, probe.R - R)):
            sums[j] += d
            sqs[j] += d * d
    for j, pred in enumerate((dx_p, dy_p, dr_p)):
        mean = sums[j] / samples
        sd = math.sqrt(max(sqs[j] / samples - mean**2, 1e-12))
        assert abs(mean - pred) < 3 * sd / math.sqrt(samples) + 2 / n


@given(n=st.integers(3, 60), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_random_rounds_keep_the_class_counters(n, k, seed):
    # validate() rebuilds every class from the labels and the path, and
    # checks X, R, green_count and useless_count against that rescan
    h = HamState(n, debug=True)
    rng_sq, rng_ch = trial_streams(seed, 0)
    src = SquareSource(n, k, rng_sq)
    while h.X < n:
        ham_step(h, src.next_round(), rng_ch)
        h.validate()


def test_full_runs_keep_invariants():
    for seed in range(3):
        cfg = ProcessConfig(n=240, k=2, seed=seed, debug=True)
        tr = ham_run(cfg, validate_every=1)
        verify_hamiltonian_cycle(tr.cycle, 240)


def test_trace_monotone_path_growth():
    cfg = ProcessConfig(n=4000, k=1, seed=2)
    tr = ham_run(cfg, complete=False)
    xs = [s[1] for s in tr.samples]
    assert xs == sorted(xs)


def test_run_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ham_run(ProcessConfig(n=2, k=1))
    with pytest.raises(ValueError):
        ham_run(ProcessConfig(n=10, k=1), x_stop=0.0)


def test_completion_from_full_path_waits_for_endpoint():
    # expected extra rounds are the inverse endpoint-hit probability
    n, k = 60, 2
    hit_p = 1.0 - (1.0 - 2.0 / n) ** k
    trials = 3000
    total = 0
    for i in range(trials):
        h = build_path(n, list(range(1, n + 1)))
        rng_sq, rng_ch = trial_streams(77, i)
        extra, cycle = ham_completion(h, SquareSource(n, k, rng_sq), rng_ch)
        verify_hamiltonian_cycle(cycle, n)
        total += extra
    mean = total / trials
    expect = 1.0 / hit_p
    sigma = math.sqrt((1 - hit_p) / hit_p**2 / trials)
    assert abs(mean - expect) < 5 * sigma


def test_smallest_cycle():
    cfg = ProcessConfig(n=3, k=3, seed=6)
    tr = ham_run(cfg, x_stop=0.99)
    verify_hamiltonian_cycle(tr.cycle, 3)


def test_threshold_round_tracks_solved_constant():
    from semirandom.ode import solve_ham

    cfg = ProcessConfig(n=30_000, k=2, seed=44)
    tr = ham_run(cfg, x_stop=0.99, complete=False, sample_stride=0)
    sol = solve_ham(2, x_stop=0.99)
    assert abs(tr.threshold_round / 30_000 - sol.constant) < 0.02


# sha256 prefix of repr((threshold, completion, total, samples, cycle)) of one
# seeded run per k; any change to a drawn value or a decision shows here
PINNED_HAM_TRACES = {
    1: "53aa0aa05a83ad10",
    2: "faf89a81ce6ad061",
    3: "d991a51f1cb7b0d0",
}


@pytest.mark.pinned
@pytest.mark.parametrize("debug", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_seeded_traces_are_pinned(k, debug):
    tr = ham_run(ProcessConfig(n=2000, k=k, seed=2027, debug=debug), trial_index=3)
    payload = repr((tr.threshold_round, tr.completion_rounds, tr.total_rounds, tr.samples, tr.cycle))
    assert hashlib.sha256(payload.encode()).hexdigest()[:16] == PINNED_HAM_TRACES[k]


def _ham_digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _recording_ham_states(monkeypatch):
    """Make ``ham_run`` hand out the states it builds; returns the list they land in."""
    made = []

    class Recording(hamilton.HamState):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(hamilton, "HamState", Recording)
    return made


# sha256 prefix of repr((threshold, completion, samples, cycle, final label,
# links, mate, red_target, red_at, packed unsat/matched/permissible/padding
# orders, counters)) at sample_stride 7 and validate_every 211; the
# complete=False rows stop at the threshold
PINNED_HAM_STATES = {
    (10, 1, False, True): "ce2472a5bc313985",
    (10, 1, True, True): "ce2472a5bc313985",
    (10, 2, False, True): "d4a5bb6127ef8b65",
    (10, 2, True, True): "d4a5bb6127ef8b65",
    (10, 3, False, True): "b45c9c7feb5a33e2",
    (10, 3, True, True): "b45c9c7feb5a33e2",
    (300, 1, False, True): "702f32f260974289",
    (300, 1, True, True): "702f32f260974289",
    (300, 2, False, True): "844dc62ef87cd642",
    (300, 2, True, True): "844dc62ef87cd642",
    (300, 3, False, True): "5b7fd4eacda2cb88",
    (300, 3, True, True): "5b7fd4eacda2cb88",
    (5000, 1, False, True): "201ae7ba5192f14f",
    (5000, 1, True, True): "201ae7ba5192f14f",
    (5000, 2, False, True): "a24e8abb159a0ce1",
    (5000, 2, True, True): "a24e8abb159a0ce1",
    (5000, 3, False, True): "52e36effb99ffb54",
    (5000, 3, True, True): "52e36effb99ffb54",
    (300, 1, False, False): "5ce9ecf626b5e0d9",
    (300, 2, False, False): "ca65b6ed5ee90be7",
    (300, 3, False, False): "cceacc8789b56e2d",
    (5000, 1, False, False): "35a4120d900d8598",
    (5000, 2, False, False): "3df20acc045fe3f7",
    (5000, 3, False, False): "e35c6ba4311cbdb3",
}


@pytest.mark.pinned
@pytest.mark.parametrize("n,k,debug,complete", list(PINNED_HAM_STATES))
def test_seeded_runs_and_final_states_are_pinned(monkeypatch, n, k, debug, complete):
    made = _recording_ham_states(monkeypatch)
    cfg = ProcessConfig(n=n, k=k, seed=4051 + n, debug=debug)
    tr = ham_run(cfg, trial_index=k, sample_stride=7, complete=complete, validate_every=211)
    (h,) = made
    payload = (
        tr.threshold_round, tr.completion_rounds, tr.samples, tr.cycle,
        list(h.label), list(h.nxt), list(h.prv), h.head, h.tail, list(h.mate),
        list(h.red_target), h.red_at,
        list(h.unsat), list(h.matched), list(h.permissible), list(h.padding),
        h.X, h.R, h.green_count, h.useless_count,
    )
    assert _ham_digest(*payload) == PINNED_HAM_STATES[(n, k, debug, complete)]


@pytest.mark.pinned
def test_consecutive_runs_on_shared_streams_are_pinned():
    # the second run starts where the first left both generators
    streams = trial_streams(2031, 5)
    cfg = ProcessConfig(n=300, k=2, seed=0)
    first = ham_run(cfg, sample_stride=5, streams=streams)
    second = ham_run(cfg, sample_stride=5, streams=streams)
    states = [s.bit_generator.state for s in streams]
    assert _ham_digest(first, second, states) == "aec7aac61d8688a5"


def _ham_snapshot(h, src, rng_sq, rng_ch):
    return (h.label, h.nxt, h.prv, h.head, h.tail, h.mate, h.red_target, h.red_at,
            list(h.unsat), list(h.matched), list(h.permissible), list(h.padding),
            h.X, h.R, h.green_count, h.useless_count, h.played,
            src._i, src._buf, src._rounds, rng_sq.bit_generator.state, rng_ch.bit_generator.state)


# the first two runs complete the path exactly at a block end (after round
# 24), where a driver that refilled eagerly would move the square stream on
@example(n=10, k=1, seed=66, every=5, check_every=0)
@example(n=14, k=2, seed=28, every=0, check_every=7)
@given(n=st.integers(3, 60), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       every=st.integers(0, 12), check_every=st.integers(0, 12))
def test_block_driver_matches_one_round_steps(n, k, seed, every, check_every):
    runs = []
    for blockwise in (True, False):
        h = HamState(n, debug=True)
        rng_sq, rng_ch = trial_streams(seed)
        src = SquareSource(n, k, rng_sq)
        seen = []

        def observe(t, h=h):
            seen.append((t, h.X, h.Y, h.R))

        def check(h=h):
            h.validate()
            seen.append(("check", h.X, h.Y, h.R))

        if blockwise:
            t = play_blocks(hamilton._play_block, h, src, rng_ch, n, lambda: h.X >= n,
                            observe=observe, every=every, check=check, check_every=check_every)
        else:
            t = 0
            while h.X < n:
                ham_step(h, src.next_round(), rng_ch)
                t += 1
                if every and t % every == 0:
                    observe(t)
                if check_every and t % check_every == 0:
                    check()
        runs.append((t, seen, _ham_snapshot(h, src, rng_sq, rng_ch)))
    assert runs[0] == runs[1]


def test_certificate_rejects_a_cycle_edge_never_played():
    n = 6
    h = build_path(n, list(range(1, n + 1)))
    rng_sq, rng_ch = trial_streams(3)
    _, cycle = ham_completion(h, SquareSource(n, 2, rng_sq), rng_ch)
    verify_hamiltonian_cycle(cycle, n, h.played)
    closing = (min(cycle[0], cycle[-1]), max(cycle[0], cycle[-1]))
    del h.played[closing]
    with pytest.raises(AssertionError, match="never played"):
        verify_hamiltonian_cycle(cycle, n, h.played)


@pytest.mark.parametrize(
    "cycle",
    [
        # a mark at 0, or at -1 (which wraps to 5), would complete a count of
        # five marks, so those two cycles pass unless range-checked first
        pytest.param([1, 2, 3, 4, 4], id="duplicate"),
        pytest.param([1, 2, 4, 5], id="missing"),
        pytest.param([0, 1, 2, 3, 4], id="zero"),
        pytest.param([1, 2, 3, 4, 6], id="n-plus-1"),
        pytest.param([-1, 1, 2, 3, 4], id="minus-1"),
        pytest.param([1, 2, 3, 4], id="one-too-few"),
        pytest.param([1, 2, 3, 4, 5, 1], id="one-too-many"),
    ],
)
def test_certificate_rejects_a_cycle_that_is_not_a_permutation(cycle):
    with pytest.raises(AssertionError, match="every vertex exactly once"):
        verify_hamiltonian_cycle(cycle, 5)


def test_certificate_accepts_a_rotation_and_the_reversal():
    n = 7
    h = build_path(n, [3, 1, 4, 7, 5, 2, 6])
    rng_sq, rng_ch = trial_streams(11)
    _, cycle = ham_completion(h, SquareSource(n, 2, rng_sq), rng_ch)
    for shifted in (cycle, cycle[3:] + cycle[:3], cycle[::-1]):
        verify_hamiltonian_cycle(shifted, n, h.played)
    with pytest.raises(AssertionError, match="never played"):
        verify_hamiltonian_cycle([1, 2, 3, 4, 5, 6, 7], n, h.played)


def test_certificate_allocates_less_than_two_bytes_per_vertex():
    import tracemalloc

    n = 100_000
    cycle = list(range(1, n + 1))
    tracemalloc.start()
    try:
        verify_hamiltonian_cycle(cycle, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n
