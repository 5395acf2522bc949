"""Greedy minimum-degree strategy, two-phase variant, and greedy regimes."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semirandom import ProcessConfig, trial_rng
from semirandom.process import (
    CIRCLE_POLICIES,
    LOOP_POLICIES,
    SQUARE_POLICIES,
    TIE_AVOID,
    TIE_LOWEST,
    TIE_UNIFORM,
    init_state,
    state_from_degrees,
)
from semirandom.rng import ChoiceSource, SquareSource, trial_streams
from semirandom.strategies import (
    MIN_DEGREE_STRATEGIES,
    case_probabilities_mindeg,
    greedy_ham_path,
    greedy_pm_large_k,
    max_degree_circle_step,
    mindeg_expected_changes,
    mindeg_step,
    run_min_degree,
    two_phase_mindeg,
    uniform_circle_step,
)
from semirandom.strategies import mindeg
from semirandom.strategies.common import play_blocks, trial_source

E_INV = math.exp(-1.0)


def test_step_picks_minimum_degree_square_and_circle():
    cfg = ProcessConfig(n=3, k=2, loop_degree="counts_one")
    state = state_from_degrees(cfg, [0, 0, 0, 1], t=1)  # degrees (0, 0, 1)
    out = mindeg_step(state, [3, 1], trial_rng(0))
    assert out.square_index == 2  # the offer on vertex 1 has degree 0
    assert out.square == 1
    assert out.circle == 2  # minimum-degree vertex avoiding the square
    assert state.degree[1] == 1 and state.degree[2] == 1


def test_step_tie_breaks():
    cfg = ProcessConfig(n=4, k=2, tie_break=TIE_LOWEST)
    state = state_from_degrees(cfg, [0, 0, 0, 0, 0], t=0)
    out = mindeg_step(state, [3, 2], trial_rng(0))
    assert out.square_index == 1  # first offer among equal degrees
    assert out.circle == 1  # lowest index, no square avoidance
    cfg = ProcessConfig(n=4, k=1, square_tie_break=TIE_UNIFORM, tie_break=TIE_UNIFORM)
    state = state_from_degrees(cfg, [0] * 5, t=0)
    out = mindeg_step(state, [2], trial_rng(1))
    assert 1 <= out.circle <= 4


@pytest.mark.parametrize("circle", [TIE_AVOID, TIE_LOWEST, TIE_UNIFORM])
def test_square_index_under_repeated_offers(circle, scripted_rng):
    # vertex 3 offered twice: the index is the position the square rule picked
    def state(square_tie_break):
        cfg = ProcessConfig(n=4, k=2, tie_break=circle, square_tie_break=square_tie_break)
        return state_from_degrees(cfg, [0, 1, 1, 0, 1], t=0)

    out = mindeg_step(state(TIE_LOWEST), [3, 3], scripted_rng([0]))
    assert (out.square_index, out.square) == (1, 3)
    out = mindeg_step(state(TIE_UNIFORM), [3, 3], scripted_rng([1, 0]))
    assert (out.square_index, out.square) == (2, 3)


def test_circle_rules_pick_lowest_vertices():
    def state(tie_break, degrees):
        return state_from_degrees(ProcessConfig(n=5, k=1, tie_break=tie_break), [0, *degrees], t=0)

    # degrees (1, 1, 0, 0, 0): the minimum class is {3, 4, 5}
    assert mindeg_step(state(TIE_LOWEST, [1, 1, 0, 0, 0]), [3], None).circle == 3
    assert mindeg_step(state(TIE_AVOID, [1, 1, 0, 0, 0]), [3], None).circle == 4
    assert mindeg_step(state(TIE_AVOID, [1, 1, 0, 0, 0]), [5], None).circle == 3
    # degrees (1, 1, 1, 1, 2): the maximum class is {5} alone
    assert mindeg_step(state(TIE_LOWEST, [1, 1, 1, 1, 2]), [5], None).circle == 1
    assert max_degree_circle_step(state(TIE_AVOID, [1, 1, 1, 1, 2]), [5], None).circle == 5
    assert max_degree_circle_step(state(TIE_AVOID, [2, 1, 3, 3, 1]), [1], None).circle == 3
    # all degrees equal: the maximum class is the minimum class, read by the cursor
    assert max_degree_circle_step(state(TIE_AVOID, [2, 2, 2, 2, 2]), [1], None).circle == 1


def test_avoid_square_falls_back_to_loop():
    cfg = ProcessConfig(n=2, k=1)
    state = state_from_degrees(cfg, [0, 0, 5], t=0)
    out = mindeg_step(state, [1], trial_rng(0))
    assert out.circle == 1  # vertex 1 is the only minimum-degree vertex
    assert state.degree[1] == 2  # loop counts two


def test_hitting_time_n4_k1_matches_exact_expectation():
    # exact expectation 2.5: round 2 succeeds with probability 1/2
    trials = 40_000
    cfg = ProcessConfig(n=4, k=1, seed=21)
    total = sum(run_min_degree(cfg, 1, trial_index=i).rounds for i in range(trials))
    mean = total / trials
    sigma = 0.5 / math.sqrt(trials)  # H takes values 2 or 3 with equal probability
    assert abs(mean - 2.5) < 5 * sigma


def test_hitting_time_n4_k2_matches_exact_expectation():
    # exact expectation 2.25: round 2 succeeds with probability 3/4
    trials = 40_000
    cfg = ProcessConfig(n=4, k=2, seed=22)
    total = sum(run_min_degree(cfg, 1, trial_index=i).rounds for i in range(trials))
    mean = total / trials
    sigma = math.sqrt(0.1875 / trials)
    assert abs(mean - 2.25) < 5 * sigma


def test_case_probabilities_degenerate():
    assert case_probabilities_mindeg([10], 10, 3) == [1.0]
    probs = case_probabilities_mindeg([0, 10], 10, 2)
    assert probs[0] == 0.0 and probs[1] == 1.0


def test_case_probabilities_arithmetic_and_monte_carlo():
    probs = case_probabilities_mindeg([5, 3], 10, 2)
    assert abs(probs[0] - 0.75) < 1e-12
    assert abs(probs[1] - 0.21) < 1e-12
    # cross-check: minimum degree among 2 uniform squares on degrees
    # [0]*5 + [1]*3 + [2]*2
    degree = np.array([0] * 5 + [1] * 3 + [2] * 2)
    rng = trial_rng(33)
    draws = rng.integers(0, 10, size=(1_000_000, 2))
    mins = degree[draws].min(axis=1)
    freq0 = float((mins == 0).mean())
    freq1 = float((mins == 1).mean())
    assert abs(freq0 - probs[0]) < 3e-3
    assert abs(freq1 - probs[1]) < 3e-3


def test_case_probabilities_rejects_bad_counts():
    with pytest.raises(ValueError):
        case_probabilities_mindeg([-1, 3], 10, 2)
    with pytest.raises(ValueError):
        case_probabilities_mindeg([8, 8], 10, 2)


def test_expected_changes_compose_case_probabilities():
    dy = mindeg_expected_changes([1.0], k=4, q=0)
    assert dy == [-2.0]  # fresh state: both endpoints leave degree zero
    dy = mindeg_expected_changes([0.5, 0.2], k=1, q=0)
    p = case_probabilities_mindeg([0.5, 0.2], 1.0, 1)
    assert abs(dy[0] - (-1 - p[0])) < 1e-15
    assert abs(dy[1] - (1 - p[1] + p[0])) < 1e-15


def test_phase_breakpoints_are_recorded():
    cfg = ProcessConfig(n=3000, k=1, seed=3)
    tr = run_min_degree(cfg, 2)
    assert 0 < tr.phase_ends[0] < tr.phase_ends[1] == tr.rounds
    assert abs(tr.phase_ends[0] / 3000 - math.log(2)) < 0.06


def test_two_phase_bulk_phase_matches_loop_replay():
    # replay phase 1 by hand from the same stream: circles go round-robin,
    # exactly l/2 per vertex for even l, plus the landed squares
    from semirandom.rng import trial_streams

    cfg = ProcessConfig(n=40, k=1, seed=9)
    trace = two_phase_mindeg(cfg, 2)
    assert trace.phase1_rounds == 40  # l*n/2
    rng_sq, rng_ch = trial_streams(cfg.seed, 0)
    landed = rng_sq.integers(1, 41, size=40)
    deg = [0] * 41
    for i, u in enumerate(landed, start=1):
        deg[int(u)] += 1
        deg[(i - 1) % 40 + 1] += 1
    # finish phase 2 manually on the replayed state with the same streams
    from semirandom.rng import SquareSource

    state = state_from_degrees(cfg, deg, t=40)
    src = SquareSource(40, 1, rng_sq)
    while state.buckets.min_nonempty < 2:
        mindeg_step(state, src.next_round(), rng_ch)
    assert state.t == trace.total_rounds
    assert trace.total_rounds == two_phase_mindeg(cfg, 2).total_rounds  # deterministic


def test_two_phase_minimum_degree_reached():
    cfg = ProcessConfig(n=200, k=2, seed=4)
    trace = two_phase_mindeg(cfg, 3)
    assert trace.phase1_rounds == 300
    assert trace.phase2_rounds >= 0


def test_two_phase_large_target_stays_near_half_l():
    # the repair phase contributes only a lower-order share of the rounds
    l, n = 100, 100_000
    trace = two_phase_mindeg(ProcessConfig(n=n, k=1, seed=16), l)
    bound = (l / 2) * (1 + 5 * math.sqrt(math.log(l) / l))
    assert trace.total_rounds / n <= bound


def test_greedy_pm_small_instance_matches_half():
    # n=2, k=1: the single round matches with probability exactly 1/2
    trials = 30_000
    matched = 0
    for i in range(trials):
        left = greedy_pm_large_k(ProcessConfig(n=2, k=1, seed=77), trial_index=i)
        matched += left == 0
    assert abs(matched / trials - 0.5) < 0.01


def test_greedy_pm_reduced_drift_constant():
    # one-case drift for k=1 integrates to an explicit exponential
    left = greedy_pm_large_k(ProcessConfig(n=40_000, k=1, seed=13))
    assert abs(left / 40_000 - E_INV) < 0.015


def test_greedy_ham_first_round_always_extends():
    for i in range(5):
        off = greedy_ham_path(ProcessConfig(n=6, k=1, seed=i), trial_index=i)
        assert off <= 4  # at least two vertices joined the path in round 1


def test_greedy_ham_reduced_drift_constant():
    off = greedy_ham_path(ProcessConfig(n=40_000, k=1, seed=14))
    assert abs(off / 40_000 - E_INV) < 0.015


def test_greedy_ham_covers_small_instance_with_many_choices():
    off = greedy_ham_path(ProcessConfig(n=10, k=50, seed=3))
    assert off == 0


def test_uniform_circle_step_places_anywhere():
    cfg = ProcessConfig(n=30, k=1)
    state = state_from_degrees(cfg, [0] * 31, t=0)
    out = uniform_circle_step(state, [4], trial_rng(2))
    assert 1 <= out.circle <= 30


def _trace_digest(traces) -> str:
    payload = repr([(tr.rounds, tr.phase_ends, tr.samples) for tr in traces])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# sha256 prefixes of repr([(rounds, phase_ends, samples), ...]): per strategy
# and k, one debug run per circle x square x loop policy (in that nesting
# order, validated periodically); two consecutive runs on one explicit stream
# pair, which also pins how far each run advances the square generator;
# (total, phase 1, phase 2) rounds of two-phase runs; and the vertices the
# greedy matching and greedy path leave uncovered, two runs per k
PINNED_MINDEG_TRACES = {
    ("s0", 1): "e61c52c61a4db51d",
    ("s0", 3): "f09b376d6c52b667",
    ("uniform_circle", 1): "20e48978ee82c878",
    ("uniform_circle", 3): "b1d76207c9f5d98d",
    ("max_degree_circle", 1): "f686934b466a231c",
    ("max_degree_circle", 3): "560ea839129640e4",
    "shared_streams": "73bd6088047ba539",
    ("two_phase", 1): ((2211, 1500, 711), (2282, 1500, 782)),
    ("two_phase", 2): ((3834, 3000, 834), (3925, 3000, 925)),
    ("two_phase", 4): ((7193, 6000, 1193), (7330, 6000, 1330)),
    ("greedy_pm", 1): (716, 722),
    ("greedy_pm", 3): (352, 370),
    ("greedy_pm", 8): (176, 148),
    ("greedy_path", 1): (741, 721),
    ("greedy_path", 3): (355, 361),
    ("greedy_path", 8): (160, 157),
}


def _seeded_traces() -> dict:
    got = {}
    for strategy in MIN_DEGREE_STRATEGIES:
        for k in (1, 3):
            traces = []
            seed = 500 + 10 * k
            # a validation rescans every degree class up to the maximum, which
            # the maximum-degree baseline drives into the tens of thousands
            every = 5000 if strategy == "max_degree_circle" else 100
            for circle in CIRCLE_POLICIES:
                for square in SQUARE_POLICIES:
                    for loop in LOOP_POLICIES:
                        seed += 1
                        cfg = ProcessConfig(n=3000, k=k, seed=seed, tie_break=circle,
                                            square_tie_break=square, loop_degree=loop, debug=True)
                        traces.append(run_min_degree(cfg, 3, strategy=strategy, sample_stride=17,
                                                     validate_every=every))
            got[strategy, k] = _trace_digest(traces)
    cfg = ProcessConfig(n=300, k=2, seed=77, tie_break=TIE_UNIFORM, square_tie_break=TIE_UNIFORM)
    streams = trial_streams(77, 0)
    got["shared_streams"] = _trace_digest(
        [run_min_degree(cfg, 2, sample_stride=9, streams=streams) for _ in range(2)]
    )
    for l in (1, 2, 4):
        uniform = ProcessConfig(n=3000, k=2, seed=80 + l, tie_break=TIE_UNIFORM,
                                square_tie_break=TIE_UNIFORM, loop_degree="counts_one")
        default = ProcessConfig(n=3000, k=1, seed=90 + l)
        got["two_phase", l] = tuple(
            (tr.total_rounds, tr.phase1_rounds, tr.phase2_rounds)
            for tr in (two_phase_mindeg(uniform, l, trial_index=3), two_phase_mindeg(default, l))
        )
    for k in (1, 3, 8):
        runs = ((ProcessConfig(n=2000, k=k, seed=60 + k), 0),
                (ProcessConfig(n=2000, k=k, seed=70 + k), 2))
        got["greedy_pm", k] = tuple(greedy_pm_large_k(cfg, trial_index=i) for cfg, i in runs)
        got["greedy_path", k] = tuple(greedy_ham_path(cfg, trial_index=i) for cfg, i in runs)
    return got


@pytest.mark.pinned
def test_seeded_traces_are_pinned():
    assert _seeded_traces() == PINNED_MINDEG_TRACES


class ReferenceModel:
    """The square, circle and edge rules one round at a time, written plainly.

    Degree lists hold vertices in packed order (a leaving vertex's slot takes
    the list's tail), ``lo`` is the cursor below which no minimum-degree
    vertex lies, reset to 1 whenever the minimum degree rises.
    """

    def __init__(self, config: ProcessConfig, degree: list[int], t: int):
        self.config = config
        self.degree = list(degree)
        self.t = t
        self.lists = [[] for _ in range(max(degree[1:]) + 1)]
        self.pos = [0] * len(degree)
        for v in range(1, len(degree)):
            self.pos[v] = len(self.lists[degree[v]])
            self.lists[degree[v]].append(v)
        self.min = min(d for d, lst in enumerate(self.lists) if lst)
        self.max = len(self.lists) - 1
        self.lo = 1

    def move(self, v: int, old: int, new: int) -> None:
        left = self.lists[old]
        last = left.pop()
        if last != v:
            self.pos[last] = self.pos[v]
            left[self.pos[v]] = last
        while len(self.lists) <= new:
            self.lists.append([])
        self.pos[v] = len(self.lists[new])
        self.lists[new].append(v)
        self.max = max(self.max, new)
        if not left and old == self.min:
            while not self.lists[self.min]:
                self.min += 1
            self.lo = 1

    def lowest_minimum(self) -> int:
        while self.degree[self.lo] != self.min:
            self.lo += 1
        return self.lo

    def round(self, squares: list[int], rng, strategy: str) -> None:
        cfg = self.config
        degs = [self.degree[s] for s in squares]
        ties = [i for i, d in enumerate(degs) if d == min(degs)]
        if cfg.square_tie_break == TIE_UNIFORM:
            u = squares[ties[rng.integers(len(ties))]]
        else:
            u = squares[ties[0]]
        mins = self.lists[self.min]
        if strategy == "uniform_circle":
            v = int(rng.integers(1, cfg.n + 1))
        elif strategy == "max_degree_circle":
            v = min(self.lists[self.max]) if self.max != self.min else self.lowest_minimum()
        elif cfg.tie_break == TIE_UNIFORM:
            v = mins[rng.integers(len(mins))]
        else:
            v = self.lowest_minimum()
            if cfg.tie_break != TIE_LOWEST and v == u and len(mins) > 1:
                v = min(w for w in mins if w != u)
        self.t += 1
        if u == v:
            inc = 2 if cfg.loop_degree == "counts_two" else 1
            self.degree[u] += inc
            self.move(u, self.degree[u] - inc, self.degree[u])
        else:
            for x in (u, v):
                self.degree[x] += 1
                self.move(x, self.degree[x] - 1, self.degree[x])


def _source_position(src: SquareSource, rng) -> tuple:
    return src._i, src._buf, src._rounds, rng.bit_generator.state


@settings(max_examples=200)
@given(data=st.data())
def test_round_kernel_matches_reference_model(data):
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    degree = [0] + data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="degrees")
    if sum(degree) % 2:
        degree[n] += 1  # keep the degree sum at twice the round count
    cfg = ProcessConfig(
        n=n, k=k,
        tie_break=data.draw(st.sampled_from(CIRCLE_POLICIES), label="circle"),
        square_tie_break=data.draw(st.sampled_from(SQUARE_POLICIES), label="square"),
        loop_degree=data.draw(st.sampled_from(LOOP_POLICIES), label="loops"),
        debug=data.draw(st.booleans(), label="debug"),
    )
    strategy = data.draw(st.sampled_from(list(MIN_DEGREE_STRATEGIES)), label="strategy")
    # block ends of a fresh source fall after rounds 8, 24, 56
    rounds = data.draw(st.sampled_from([8, 24, 56]) | st.integers(0, 70), label="rounds")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

    t0 = sum(degree) // 2
    state = state_from_degrees(cfg, list(degree), t=t0)
    rng_sq, rng_ch = trial_streams(seed)
    src = SquareSource(n, k, rng_sq)
    ends = []  # the round budget ends after `rounds` rounds (0 plays none)
    t = play_blocks(mindeg._play_block, state, src, rng_ch, strategy,
                    lambda: state.t == t0 + rounds, observe=ends.append, every=rounds)
    assert t == rounds and ends == ([rounds] if rounds else [])

    model = ReferenceModel(cfg, degree, t0)
    model_sq, model_ch = trial_streams(seed)
    model_src = SquareSource(n, k, model_sq)
    for _ in range(rounds):
        model.round(model_src.next_round(), model_ch, strategy)

    b = state.buckets
    assert state.degree == model.degree
    assert b.cnt == [len(lst) for lst in model.lists]
    if cfg.tie_break == TIE_UNIFORM:  # the only rule that draws from the packed lists
        assert (list(map(list, b._lists)), list(b.pos)) == (model.lists, model.pos)
    else:
        assert b._lists is b.pos is None
    assert (b._lo, b.min_nonempty, b.max_nonempty) == (model.lo, model.min, model.max)
    assert state.t == model.t
    assert _source_position(src, rng_sq) == _source_position(model_src, model_sq)
    assert rng_ch.bit_generator.state == model_ch.bit_generator.state
    state.validate()


def _generator_state(rng) -> tuple:
    if isinstance(rng, ChoiceSource):
        return rng._bits.state, rng._i, rng._buf
    return (rng.bit_generator.state,)


def _degree_snapshot(state, src: SquareSource, rng) -> tuple:
    b = state.buckets
    return (state.degree, b.cnt, b._lists, b.pos, b._lo, b.min_nonempty, b.max_nonempty, state.t,
            src._i, src._buf, src._rounds, _generator_state(src._rng), _generator_state(rng))


def _run_with_internals(cfg, l, strategy, stride, every, streams):
    """``run_min_degree`` plus the state, square source and choice stream it played on."""
    seen = {}

    def capture_state(config):
        seen["state"] = init_state(config)
        return seen["state"]

    def capture_source(config, trial_index=0, streams=None):
        seen["src"], seen["rng"] = trial_source(config, trial_index, streams)
        return seen["src"], seen["rng"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mindeg, "init_state", capture_state)
        mp.setattr(mindeg, "trial_source", capture_source)
        trace = run_min_degree(cfg, l, strategy=strategy, sample_stride=stride,
                               validate_every=every, streams=streams)
    return trace, _degree_snapshot(seen["state"], seen["src"], seen["rng"])


def _run_round_by_round(cfg, l, strategy, stride, every, streams):
    """The same run as a loop of one-round steps over ``next_round``."""
    state = init_state(cfg)
    src, rng = trial_source(cfg, 0, streams)
    step = MIN_DEGREE_STRATEGIES[strategy]
    phase_ends, samples = [], []

    def observe(t):
        samples.append((t, *(state.degree[1:].count(d) for d in range(l))))

    if stride:
        observe(0)
    while len(phase_ends) < l:
        step(state, src.next_round(), rng)
        t = state.t
        if stride and t % stride == 0:
            observe(t)
        if every and t % every == 0:
            state.validate()
        phase_ends += [t] * (min(min(state.degree[1:]), l) - len(phase_ends))
    if every:
        state.validate()
    return (state.t, phase_ends, samples), _degree_snapshot(state, src, rng)


# the first runs end exactly at a block end (after round 8, 24 or 56), where a
# driver that refilled eagerly would move the square stream past round-by-round play
@example(n=5, k=1, l=2, circle=TIE_AVOID, square=TIE_LOWEST, loops="counts_two",
         strategy="uniform_circle", stride=4, every=0, seed=1, explicit=False)
@example(n=9, k=3, l=2, circle=TIE_UNIFORM, square=TIE_UNIFORM, loops="counts_one",
         strategy="max_degree_circle", stride=0, every=12, seed=4, explicit=True)
@example(n=16, k=3, l=3, circle=TIE_AVOID, square=TIE_LOWEST, loops="counts_two",
         strategy="s0", stride=8, every=3, seed=5, explicit=False)
@example(n=20, k=2, l=2, circle=TIE_UNIFORM, square=TIE_UNIFORM, loops="counts_one",
         strategy="uniform_circle", stride=7, every=0, seed=44, explicit=True)
@settings(max_examples=200)
@given(n=st.integers(1, 40), k=st.integers(1, 4), l=st.integers(1, 3),
       circle=st.sampled_from(CIRCLE_POLICIES), square=st.sampled_from(SQUARE_POLICIES),
       loops=st.sampled_from(LOOP_POLICIES), strategy=st.sampled_from(list(MIN_DEGREE_STRATEGIES)),
       stride=st.integers(0, 12), every=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
       explicit=st.booleans())
def test_block_driver_matches_one_round_steps(n, k, l, circle, square, loops, strategy, stride,
                                              every, seed, explicit):
    cfg = ProcessConfig(n=n, k=k, seed=seed, tie_break=circle, square_tie_break=square,
                        loop_degree=loops, debug=True)
    runs = []
    for blockwise in (True, False):
        streams = trial_streams(seed, 0) if explicit else None
        if blockwise:
            trace, snapshot = _run_with_internals(cfg, l, strategy, stride, every, streams)
            runs.append(((trace.rounds, trace.phase_ends, trace.samples), snapshot))
        else:
            runs.append(_run_round_by_round(cfg, l, strategy, stride, every, streams))
    assert runs[0] == runs[1]
