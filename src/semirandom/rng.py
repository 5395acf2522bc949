"""Seedable, splittable random streams for reproducible trials.

Every trial derives its generators from ``(seed, trial_index)`` through a
seed sequence, so results do not depend on how trials are scheduled across
workers.  Each trial gets two independent streams: one feeding the square
arrivals and one feeding the player's own randomized choices.  Paired
experiments that share the square stream therefore see identical arrivals
under different strategies.
"""

from __future__ import annotations

import numpy as np


def trial_rng(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Single generator for ad-hoc use (tests, one-off draws)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


def trial_streams(seed: int, trial_index: int = 0):
    """(square stream, choice stream) for one trial.

    The two streams live on distinct spawn-key lanes of the trial's seed
    sequence, so they are mutually independent and reproducible.
    """
    sq = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index, 0))
    ch = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index, 1))
    return (
        np.random.Generator(np.random.PCG64(sq)),
        np.random.Generator(np.random.PCG64(ch)),
    )


class SquareSource:
    """Per-round batches of k independent uniform picks from [1, n].

    Draws are buffered in geometrically growing blocks (capped at
    ``batch_rounds``) so short runs stay cheap and long runs amortize the
    generator overhead; the value stream is a pure function of the
    generator state.
    """

    __slots__ = ("n", "k", "_rng", "_buf", "_i", "_rounds", "_cap")

    def __init__(self, n: int, k: int, rng: np.random.Generator, batch_rounds: int = 4096):
        self.n = n
        self.k = k
        self._rng = rng
        self._cap = max(1, batch_rounds)
        self._rounds = min(8, self._cap)
        self._buf: list[int] = []
        self._i = 0

    def next_round(self) -> list[int]:
        i = self._i
        if i >= len(self._buf):
            self._buf = self._rng.integers(
                1, self.n + 1, size=self._rounds * self.k
            ).tolist()
            self._rounds = min(self._rounds * 2, self._cap)
            i = 0
        self._i = i + self.k
        return self._buf[i : i + self.k]
