"""Shared pieces of all player strategies: step outcome, run driver, streams."""

from __future__ import annotations

from typing import NamedTuple

from ..process import ProcessConfig
from ..rng import ChoiceSource, SquareSource, trial_streams


class StepOutcome(NamedTuple):
    """One round's decision: selected square, placed circle, case label.

    ``square_index`` is the 1-based position of the selected square among
    the k offered this round.  ``changed`` flags real progress (an edge that
    the strategy actually uses, as opposed to a pass or a self-hit no-op).
    """

    case: str
    square_index: int
    square: int
    circle: int
    changed: bool


def trial_source(config: ProcessConfig, trial_index: int = 0, streams=None):
    """(square source, choice stream) of one trial.

    The (seed, trial_index)-derived choice generator is wrapped in a
    ``ChoiceSource``, which draws the same values faster but reads ahead of
    them.  ``streams`` overrides the generator pair and passes through
    unwrapped, so a caller reusing them across runs sees numpy's own stream.
    """
    if streams is None:
        rng_sq, rng_ch = trial_streams(config.seed, trial_index)
        rng_ch = ChoiceSource(rng_ch)
    else:
        rng_sq, rng_ch = streams
    return SquareSource(config.n, config.k, rng_sq), rng_ch


def play(step, state, src: SquareSource, rng, done, t=0, observe=None, every=0,
         check=None, check_every=0) -> int:
    """Play rounds ``step(state, squares, rng)`` until ``done()``; return the round count.

    Counting starts at ``t``.  ``observe(t)`` runs after every ``every``-th
    round and ``check()`` after every ``check_every``-th (0 turns either off).
    """
    while not done():
        step(state, src.next_round(), rng)
        t += 1
        if every and t % every == 0:
            observe(t)
        if check_every and t % check_every == 0:
            check()
    return t


def classify(rank: dict[int, int], label: list[int], squares: list[int]) -> tuple[int, int]:
    """(best priority rank, index of the first square achieving it); rank 0 is best."""
    best = len(rank)  # above every rank in the table
    best_i = 0
    for i, s in enumerate(squares):
        r = rank[label[s]]
        if r < best:
            if r == 0:
                return 0, i
            best = r
            best_i = i
    return best, best_i
