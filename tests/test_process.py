"""Degree state, buckets, and square draws."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semirandom import (
    ProcessConfig,
    add_edge,
    SquareSource,
    init_state,
    trial_rng,
    trial_streams,
)
from semirandom.indexed import IndexedSet
from semirandom.process import LOOP_COUNTS_ONE, LOOP_POLICIES, state_from_degrees


def test_init_state_empty_graph():
    state = init_state(ProcessConfig(n=5, k=2))
    assert state.t == 0
    assert state.degree[1:] == [0] * 5
    assert state.buckets.min_nonempty == 0
    assert state.buckets.count(0) == 5


def test_init_state_single_vertex():
    state = init_state(ProcessConfig(n=1, k=1))
    assert state.degree[1] == 0


@pytest.mark.parametrize("n,k", [(0, 1), (1, 0), (0, 0), (-3, 2)])
def test_init_state_rejects_degenerate_sizes(n, k):
    with pytest.raises(ValueError):
        init_state(ProcessConfig(n=n, k=k))


def test_config_rejects_unknown_policies():
    with pytest.raises(ValueError):
        ProcessConfig(n=2, k=1, tie_break="nope").validate()
    with pytest.raises(ValueError):
        ProcessConfig(n=2, k=1, square_tie_break="avoid_square_then_lowest").validate()
    with pytest.raises(ValueError):
        ProcessConfig(n=2, k=1, loop_degree="three").validate()


def test_draw_squares_single_vertex():
    assert SquareSource(1, 3, trial_rng(0)).next_round() == [1, 1, 1]


def test_draw_squares_uniformity_chi_square():
    # chi-square statistic over per-vertex counts, n draws on n vertices
    n = 100_000
    src = SquareSource(n, 1, trial_rng(123))
    draws = np.fromiter(
        (src.next_round()[0] for _ in range(n)), dtype=np.int64, count=n
    )
    counts = np.bincount(draws, minlength=n + 1)[1:]
    chi2 = float(((counts - 1.0) ** 2).sum())  # expected count is 1 per vertex
    df = n - 1
    z = (chi2 - df) / np.sqrt(2.0 * df)
    assert abs(z) < 5.0


def test_two_squares_collide_half_the_time():
    src = SquareSource(2, 2, trial_rng(7))
    rounds = 10_000
    equal = sum(1 for _ in range(rounds) if len(set(src.next_round())) == 1)
    assert abs(equal / rounds - 0.5) < 0.02


def test_draws_reproducible_across_generators():
    a, b = (SquareSource(50, 3, trial_rng(9, 4)) for _ in range(2))
    assert [a.next_round() for _ in range(5)] == [b.next_round() for _ in range(5)]
    sq1, _ = trial_streams(9, 4)
    sq2, _ = trial_streams(9, 4)
    assert sq1.integers(1, 51, size=15).tolist() == sq2.integers(1, 51, size=15).tolist()


def test_add_edge_basics():
    state = init_state(ProcessConfig(n=4, k=1))
    add_edge(state, 1, 2)
    assert state.degree[1] == state.degree[2] == 1
    assert state.t == 1
    add_edge(state, 3, 4)
    add_edge(state, 1, 3)
    assert sum(state.degree) == 6  # three edges, handshake identity


def test_loop_conventions():
    state = init_state(ProcessConfig(n=2, k=1))
    add_edge(state, 1, 1)
    assert state.degree[1] == 2
    state = init_state(ProcessConfig(n=2, k=1, loop_degree=LOOP_COUNTS_ONE))
    add_edge(state, 1, 1)
    assert state.degree[1] == 1


def test_min_degree_after_one_edge():
    state = init_state(ProcessConfig(n=2, k=1))
    add_edge(state, 1, 2)
    assert state.buckets.min_nonempty == 1


def test_counts_match_full_rescan():
    state = init_state(ProcessConfig(n=50, k=1))
    rng = trial_rng(11)
    for _ in range(100):
        u = int(rng.integers(1, 51))
        v = int(rng.integers(1, 51))
        add_edge(state, u, v)
    state.validate()
    for d in range(max(state.degree) + 1):
        assert state.buckets.count(d) == sum(1 for v in range(1, 51) if state.degree[v] == d)


@given(
    n=st.integers(2, 12),
    edges=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=60),
)
def test_handshake_and_buckets_after_every_operation(n, edges):
    state = init_state(ProcessConfig(n=n, k=1, debug=True))
    for a, b in edges:
        add_edge(state, a % n + 1, b % n + 1)
        state.validate()  # full rescan agrees after every operation
    assert sum(state.degree) == 2 * state.t


def _moves(state, u, v):
    """(vertex, old degree, new degree) of each bucket move add_edge makes for uv."""
    if u == v:
        inc = 1 if state.config.loop_degree == LOOP_COUNTS_ONE else 2
        return [(u, state.degree[u], state.degree[u] + inc)]
    return [(u, state.degree[u], state.degree[u] + 1), (v, state.degree[v], state.degree[v] + 1)]


@given(
    degrees=st.lists(st.integers(0, 4), min_size=1, max_size=12),
    fresh=st.booleans(),
    loop_degree=st.sampled_from(LOOP_POLICIES),
    edges=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=40),
)
def test_buckets_match_reference_model(degrees, fresh, loop_degree, edges):
    n = len(degrees)
    cfg = ProcessConfig(n=n, k=1, loop_degree=loop_degree)
    state = init_state(cfg) if fresh else state_from_degrees(cfg, [0, *degrees], t=0)
    b = state.buckets
    # one IndexedSet per degree, fed the same discards and adds as the buckets
    ref = {}
    for v in range(1, n + 1):
        ref.setdefault(state.degree[v], IndexedSet()).add(v)
    for a, c in edges:
        u, v = a % n + 1, c % n + 1
        for w, old, new in _moves(state, u, v):
            ref[old].discard(w)
            ref.setdefault(new, IndexedSet()).add(w)
        add_edge(state, u, v)
        for d in range(max(state.degree) + 3):
            members = [w for w in range(1, n + 1) if state.degree[w] == d]
            assert b.count(d) == len(members)
            assert b._lists[d] == list(ref[d]) if d in ref else not members
        b.validate()  # includes the cursor invariant


def test_state_from_degrees_matches_incremental():
    cfg = ProcessConfig(n=6, k=1)
    inc = init_state(cfg)
    for u, v in [(1, 2), (2, 3), (4, 4)]:
        add_edge(inc, u, v)
    bulk = state_from_degrees(cfg, list(inc.degree), t=inc.t)
    bulk.validate()
    assert bulk.buckets.min_nonempty == inc.buckets.min_nonempty
    for d in range(5):
        assert bulk.buckets.count(d) == inc.buckets.count(d)
