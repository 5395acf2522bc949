"""Model-based check of the packed-array set."""

from hypothesis import given, strategies as st

from semirandom.indexed import IndexedSet
from semirandom import trial_rng


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "discard"]), st.integers(0, 20)),
        max_size=200,
    )
)
def test_matches_reference_set(ops):
    s = IndexedSet()
    model = set()
    for op, v in ops:
        if op == "add":
            s.add(v)
            model.add(v)
        else:
            s.discard(v)
            model.discard(v)
        assert len(s) == len(model)
        assert set(s) == model
        for x in model:
            assert x in s


def test_sampling_is_roughly_uniform():
    s = IndexedSet(range(10))
    rng = trial_rng(5)
    counts = [0] * 10
    rounds = 20_000
    for _ in range(rounds):
        counts[s.sample(rng)] += 1
    for c in counts:
        assert abs(c / rounds - 0.1) < 0.02


def test_packed_order_is_deterministic():
    s = IndexedSet([3, 1, 4, 1, 5])
    assert list(s) == [3, 1, 4, 5]
    s.discard(5)  # the last packed slot just goes
    s.discard(3)  # the tail, 4, moves into slot 0
    assert list(s) == [4, 1]
