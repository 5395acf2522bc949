import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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


@pytest.fixture
def copy_state():
    """Independent copy of a builder state; it makes the same draws as the original.

    A pickle round trip copies every slot, as ``copy.deepcopy`` would, at
    about an eighth of its cost on these lists of ints (the drift tests copy
    1e5 states).
    """
    return lambda state: pickle.loads(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))


@pytest.fixture
def spy_pool(monkeypatch):
    """Swap the process pool for one that maps in this process; returns the
    list of worker counts of the pools built, so a test sees whether one was."""
    import concurrent.futures

    sizes = []

    class SpyPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return sizes


def move(state, v, out=None, into=None):
    """Take v out of the builder state's packed list ``out``, its slot taking
    the tail, then append it to ``into`` (either list may be None), keeping
    the state's ``pos`` array as the round kernels do."""
    pos = state.pos
    if out is not None:
        p = pos[v]
        last = out.pop()
        if last != v:
            out[p] = last
            pos[last] = p
    if into is not None:
        pos[v] = len(into)
        into.append(v)
