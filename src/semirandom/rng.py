"""Seedable, splittable random streams for reproducible trials.

Every trial derives its generators from ``(seed, trial_index)`` through a
seed sequence, so results do not depend on how trials are scheduled across
workers.  Each trial gets two independent streams: one feeding the square
arrivals and one feeding the player's own randomized choices.  Paired
experiments that share the square stream therefore see identical arrivals
under different strategies.

``ChoiceSource`` serves the choice stream's scalar draws without numpy's
per-call overhead and returns exactly what ``Generator.integers`` would.
Mirrored from numpy 2.x (checked on 2.4): a scalar ``integers(lo, hi)``
with ``r = hi - lo`` returns ``lo`` and reads nothing when ``r == 1``;
for ``2 <= r <= 2**32`` it runs Lemire's multiply-shift draw (D. Lemire,
ACM TOMACS 2019) on ``next_uint32``, rejecting while the low 32 bits of
``x * r`` fall below ``2**32 % r``.  PCG64's ``next_uint32`` hands out the
low half of a 64-bit word, keeps the high half pending and returns it on
the next call, so on a generator with no pending half (a fresh one) the
32-bit stream is low, high, low, high, ... of ``random_raw``'s words.  The
wrapper reads those words in geometrically growing blocks, which leaves the
generator ahead of what was drawn; that is invisible only while nothing
else reads the generator.  So ``trial_source`` wraps the choice stream only
of the generators it builds itself, and explicit ``streams=`` (a caller
reusing one generator across runs) pass through as numpy's own.

numpy is imported by the functions that build or read a generator, not
with this module, so the layers that never draw (the drift systems, the
exact oracle, the CLI's parser) start without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def trial_rng(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Single generator for ad-hoc use (tests, one-off draws)."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


def trial_streams(seed: int, trial_index: int = 0):
    """(square stream, choice stream) for one trial.

    The two streams live on distinct spawn-key lanes of the trial's seed
    sequence, so they are mutually independent and reproducible.
    """
    import numpy as np

    sq = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index, 0))
    ch = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index, 1))
    return (
        np.random.Generator(np.random.PCG64(sq)),
        np.random.Generator(np.random.PCG64(ch)),
    )


class ChoiceSource:
    """Scalar ``integers`` of a fresh numpy generator, from bulk-read words.

    Equal draw for draw to ``Generator.integers(lo, hi)`` for ranges of at
    most ``2**32`` values (see the module docstring); reads no word until
    the first draw that needs one.
    """

    __slots__ = ("_bits", "_buf", "_i", "_words")

    def __init__(self, rng: np.random.Generator):
        self._bits = rng.bit_generator
        self._buf: list[int] = []
        self._i = 0
        self._words = 8

    def _refill(self) -> list[int]:
        import numpy as np

        raw = self._bits.random_raw(self._words)
        self._words = min(self._words * 2, 4096)
        halves = np.empty(2 * raw.size, dtype=np.uint64)
        halves[0::2] = raw & 0xFFFFFFFF
        halves[1::2] = raw >> 32
        self._buf = buf = halves.tolist()
        return buf

    def integers(self, lo: int, hi: int | None = None) -> int:
        """Uniform int in [lo, hi), or in [0, lo) when ``hi`` is omitted."""
        if hi is None:
            lo, hi = 0, lo
        r = hi - lo
        if r < 2 or r > 4294967296:
            if r == 1:
                return lo
            raise ValueError(f"need 1 <= hi - lo <= 2**32, got [{lo}, {hi})")
        buf = self._buf
        i = self._i
        while True:
            if i == len(buf):
                buf = self._refill()
                i = 0
            m = buf[i] * r
            i += 1
            low = m & 0xFFFFFFFF
            # numpy's rejection: redraw while low < 2**32 % r (which is < r)
            if low >= r or low >= 4294967296 % r:
                break
        self._i = i
        return lo + (m >> 32)


SQUARE_BLOCK_CAP = 4096  # rounds in SquareSource's largest block


class SquareSource:
    """Per-round batches of k independent uniform picks from [1, n].

    Draws are buffered in geometrically growing blocks of 8, 16, ... up to
    ``SQUARE_BLOCK_CAP`` rounds, so short runs stay cheap and long runs
    amortize the generator overhead; the value stream is a pure function of
    the generator state.
    """

    __slots__ = ("n", "k", "_rng", "_buf", "_i", "_rounds")

    def __init__(self, n: int, k: int, rng: np.random.Generator):
        self.n = n
        self.k = k
        self._rng = rng
        self._rounds = 8
        self._buf: list[int] = []
        self._i = 0

    def _refill(self) -> list[int]:
        self._buf = buf = self._rng.integers(1, self.n + 1, size=self._rounds * self.k).tolist()
        self._rounds = min(self._rounds * 2, SQUARE_BLOCK_CAP)
        self._i = 0
        return buf

    def next_round(self) -> list[int]:
        i = self._i
        if i >= len(self._buf):
            self._refill()
            i = 0
        self._i = i + self.k
        return self._buf[i : i + self.k]

    def rounds_until_hit(self, targets) -> int:
        """Consume rounds up to the first that offers a vertex of ``targets``.

        Returns how many rounds that took, counting the hitting round, and
        leaves the source where ``next_round`` calls would have left it:
        blocks are refilled the same way and rounds start at multiples of k.
        """
        k = self.k
        buf = self._buf
        i = self._i
        rounds = 0
        while True:
            hit = end = len(buf)
            for x in targets:
                try:
                    hit = buf.index(x, i, hit)
                except ValueError:
                    pass
            if hit < end:
                stop = hit - hit % k + k
                self._i = stop
                return rounds + (stop - i) // k
            rounds += (end - i) // k
            buf = self._refill()
            i = 0
