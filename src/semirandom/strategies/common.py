"""Shared strategy pieces: outcome, square ranking, run driver, streams."""

from __future__ import annotations

from typing import NamedTuple

from ..process import ProcessConfig
from ..rng import SQUARE_BLOCK_CAP, ChoiceSource, SquareSource, trial_streams


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


def classify(rank, label: list[int], squares) -> tuple[int, int]:
    """(best ``rank[label[s]]``, index of the first square achieving it); rank 0 is best."""
    ranks = [rank[label[s]] for s in squares]
    best = min(ranks)
    return best, ranks.index(best)


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


def play_blocks(kernel, state, src: SquareSource, rng, arg, done, t=0, observe=None, every=0,
                check=None, check_every=0) -> int:
    """Play ``kernel`` rounds off ``src``'s blocks until ``done()``; return the round count.

    ``kernel(state, buf, i, end, k, rng, arg)`` plays the rounds of ``buf[i:end]``
    until its stop rule holds and returns its position first; ``arg`` is the
    kernel's stop argument, the builders' stop level or the degree target's
    strategy name (that kernel stops whenever the minimum degree rises).
    Counting starts at ``t``.  ``observe(t)`` runs after every ``every``-th
    round and ``check()`` after every ``check_every``-th (0 turns either off),
    so each call's budget ends at the next of them.  A used-up block is
    refilled only when a round is about to be played, where ``next_round``
    would refill it.
    """
    k = src.k
    while not done():
        budget = every - t % every if every else SQUARE_BLOCK_CAP
        if check_every:
            budget = min(budget, check_every - t % check_every)
        buf, i = src._buf, src._i
        if i >= len(buf):
            buf, i = src._refill(), 0
        src._i = j = kernel(state, buf, i, min(len(buf), i + budget * k), k, rng, arg)[0]
        t += (j - i) // k
        if every and t % every == 0:
            observe(t)
        if check_every and t % check_every == 0:
            check()
    return t
