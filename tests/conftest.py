from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from semirandom.indexed import IndexedSet

settings.register_profile(
    "default",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


class ScriptedRng:
    """Stand-in generator returning scripted ``integers`` draws.

    Each scripted value is interpreted modulo the requested range, so a
    test can force a specific sample index.
    """

    def __init__(self, values):
        self._values = list(values)

    def integers(self, low, high=None, size=None):
        if size is not None:
            raise NotImplementedError("scripted draws are scalar")
        v = self._values.pop(0)
        if high is None:
            return np.int64(v % low)
        return np.int64(low + (v % (high - low)))


@pytest.fixture
def scripted_rng():
    return ScriptedRng


def _copy_state(state):
    """Independent copy of a builder state (``PMState`` or ``HamState``).

    Lists, dicts of lists, the played-edge ``Counter`` and ``IndexedSet``s
    are copied, the sets in packed order, so the copy makes the same draws
    as the original would.
    """
    other = object.__new__(type(state))
    for name in type(state).__slots__:
        value = getattr(state, name)
        if isinstance(value, (list, IndexedSet, Counter)):
            value = type(value)(value)
        elif isinstance(value, dict):
            value = {key: list(items) for key, items in value.items()}
        setattr(other, name, value)
    return other


@pytest.fixture
def copy_state():
    return _copy_state
