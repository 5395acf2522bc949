"""Random streams: the choice wrapper against numpy, the closing-wait scan."""

import numpy as np
import pytest

from semirandom import ProcessConfig, trial_rng, trial_streams
from semirandom.rng import ChoiceSource, SquareSource
from semirandom.strategies import ham_run, pm_run, run_min_degree

BOUNDS = (1, 2, 3, 7, 100_000, 2**31 + 1, 2**32 - 1, 2**32)


class CountingGenerator:
    """Generator stand-in that counts the bulk word reads of the wrapper."""

    def __init__(self, rng):
        self._bits = rng.bit_generator
        self.bit_generator = self
        self.reads = 0

    def random_raw(self, size):
        self.reads += 1
        return self._bits.random_raw(size)


@pytest.mark.parametrize("bound", BOUNDS)
def test_single_bound_draws_equal_numpy(bound):
    ref = trial_rng(71, bound % 1000)
    wrapped = ChoiceSource(trial_rng(71, bound % 1000))
    for _ in range(300):
        assert wrapped.integers(bound) == ref.integers(bound)
    for _ in range(300):
        assert wrapped.integers(-5, bound - 5) == ref.integers(-5, bound - 5)
        assert wrapped.integers(9, 9 + bound) == ref.integers(9, 9 + bound)


def test_interleaved_draws_equal_numpy_across_refills():
    picker = trial_rng(5)
    ref = trial_rng(72)
    counting = CountingGenerator(trial_rng(72))
    wrapped = ChoiceSource(counting)
    for _ in range(6000):
        bound = BOUNDS[int(picker.integers(len(BOUNDS)))]
        if picker.integers(2):
            lo = int(picker.integers(-50, 50))
            assert wrapped.integers(lo, lo + bound) == ref.integers(lo, lo + bound)
        else:
            assert wrapped.integers(bound) == ref.integers(bound)
    assert counting.reads >= 4  # the first block and at least three refills


def test_unit_range_reads_no_word():
    counting = CountingGenerator(trial_rng(73))
    wrapped = ChoiceSource(counting)
    assert wrapped.integers(1) == 0
    assert wrapped.integers(41, 42) == 41
    assert counting.reads == 0


@pytest.mark.parametrize("args", [(0,), (-3,), (5, 5), (5, 2), (2**32 + 1,), (-1, 2**32)])
def test_empty_or_too_wide_ranges_raise(args):
    with pytest.raises(ValueError):
        ChoiceSource(trial_rng(74)).integers(*args)


def test_explicit_streams_equal_the_default_run():
    # the default run wraps its choice stream; explicit streams are numpy's own
    for i in range(2):
        cfg = ProcessConfig(n=600, k=2, seed=75)
        assert pm_run(cfg, trial_index=i) == pm_run(cfg, trial_index=i, streams=trial_streams(75, i))
        assert ham_run(cfg, trial_index=i) == ham_run(cfg, trial_index=i, streams=trial_streams(75, i))
        cfg = ProcessConfig(n=600, k=3, seed=75, tie_break="uniform_random",
                            square_tie_break="uniform_random")
        for strategy in ("s0", "uniform_circle"):
            default = run_min_degree(cfg, 2, trial_index=i, strategy=strategy, sample_stride=7)
            explicit = run_min_degree(cfg, 2, trial_index=i, strategy=strategy, sample_stride=7,
                                      streams=trial_streams(75, i))
            assert default == explicit


def test_rounds_until_hit_equals_the_round_loop():
    picker = trial_rng(76)
    for case in range(60):
        n = int(3 * 10 ** picker.uniform(0, 3))  # long waits cross several refills
        k = (1, 2, 3, 5)[case % 4]
        targets = [int(t) for t in picker.choice(np.arange(1, n + 1), int(picker.integers(1, 3)),
                                                 replace=False)]
        skip = int(picker.integers(0, 51))
        a = SquareSource(n, k, trial_rng(77, case))
        b = SquareSource(n, k, trial_rng(77, case))
        for _ in range(skip):
            assert a.next_round() == b.next_round()
        loop = 0
        while True:
            loop += 1
            if any(s in targets for s in a.next_round()):
                break
        assert b.rounds_until_hit(targets) == loop
        assert [a.next_round() for _ in range(5)] == [b.next_round() for _ in range(5)]
