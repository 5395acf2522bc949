"""Degree state, buckets, packed-list storage, and square draws."""

import tracemalloc

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
from semirandom.process import (
    CIRCLE_POLICIES,
    LOOP_COUNTS_ONE,
    LOOP_POLICIES,
    MAX_N,
    TIE_UNIFORM,
    check_packed,
    packed_list,
    put,
    state_from_degrees,
    take,
    vertex_array,
)
from semirandom.strategies import HamState, PMState


def test_init_state_empty_graph():
    state = init_state(ProcessConfig(n=5, k=2))
    assert state.t == 0
    assert state.degree[1:] == [0] * 5
    assert state.buckets.min_nonempty == 0
    assert state.buckets.count(0) == 5


def test_init_state_single_vertex():
    state = init_state(ProcessConfig(n=1, k=1))
    assert state.degree[1] == 0


def test_take_and_put_follow_the_tail_fill_on_lists_sharing_one_pos():
    # three lists on one position array, driven by random moves; the reference
    # writes the rule out: a leaving vertex's slot takes the tail, an arrival appends
    n = 40
    rng = np.random.default_rng(23)
    items, pos = packed_list(n)
    lists, ref = [items, vertex_array(0), vertex_array(0)], [list(items), [], []]
    label = [0] * (n + 1)  # the list a vertex is in, or -1 for none
    for _ in range(2000):
        w = int(rng.integers(1, n + 1))
        old = label[w]
        if old >= 0:
            take(lists[old], pos, w)
            i = ref[old].index(w)
            last = ref[old].pop()
            if last != w:
                ref[old][i] = last
        new = int(rng.integers(-1, 3))
        if new >= 0:
            put(lists[new], pos, w)
            ref[new].append(w)
        label[w] = new
        assert list(map(list, lists)) == ref
        for L, lst in enumerate(lists):
            check_packed(lst, pos, label, L)


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_packed_list_and_vertex_arrays_hold_4_byte_ids(n):
    items, pos = packed_list(n)
    zeros = vertex_array(n + 1)
    assert (list(items), list(pos), list(zeros)) == (
        list(range(1, n + 1)), [0, *range(n)], [0] * (n + 1))
    for a in (items, pos, zeros, vertex_array(0)):
        assert (a.typecode, a.itemsize) == ("i", 4)


@pytest.mark.parametrize("state", [PMState, HamState])
def test_builder_state_costs_at_most_32_bytes_per_vertex(state):
    # one byte of label plus 4-byte fields and packed lists; Python lists of
    # ints cost 80 (matching) and 96 (path) traced bytes a vertex here
    n = 50_000
    tracemalloc.start()
    try:
        built = state(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built.n == n
    assert peak / n <= 32


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_fresh_buckets_equal_the_per_vertex_build(n):
    # what the per-vertex loop builds: every vertex in the degree-0 list, in id order
    lists, pos = [[]], [0] * (n + 1)
    for v in range(1, n + 1):
        pos[v] = len(lists[0])
        lists[0].append(v)
    for tie_break in CIRCLE_POLICIES:
        b = init_state(ProcessConfig(n=n, k=1, tie_break=tie_break)).buckets
        assert (b.cnt, b.min_nonempty, b.max_nonempty, b._lo) == ([len(lists[0])], 0, 0, 1)
        if tie_break == TIE_UNIFORM:  # the only rule that draws from the lists
            assert (list(map(list, b._lists)), list(b.pos)) == (lists, pos)
        b.validate()


@pytest.mark.parametrize("tie_break", CIRCLE_POLICIES)
def test_packed_lists_only_under_the_uniform_circle_rule(tie_break):
    cfg = ProcessConfig(n=6, k=1, tie_break=tie_break)
    for state in (init_state(cfg), state_from_degrees(cfg, [0, 1, 2, 1, 3, 2, 1], t=5)):
        for u, v in [(1, 2), (4, 4), (3, 6), (5, 1)]:
            add_edge(state, u, v)
        b = state.buckets
        packed = tie_break == TIE_UNIFORM
        assert (b._lists is not None, b.pos is not None) == (packed, packed)
        state.validate()


@pytest.mark.parametrize("n,k", [(0, 1), (1, 0), (0, 0), (-3, 2), (2**31, 1)])
def test_init_state_rejects_degenerate_sizes(n, k):
    cfg = ProcessConfig(n=n, k=k)
    with pytest.raises(ValueError):
        cfg.validate()  # allocates nothing; init_state calls it before allocating
    if n <= MAX_N:
        with pytest.raises(ValueError):
            init_state(cfg)


def test_config_takes_the_largest_4_byte_vertex_id():
    ProcessConfig(n=2**31 - 1, k=1).validate()  # allocates nothing


def test_config_rejects_unknown_policies():
    with pytest.raises(ValueError):
        ProcessConfig(n=2, k=1, tie_break="nope").validate()
    with pytest.raises(ValueError):
        ProcessConfig(n=2, k=1, square_tie_break="avoid_square_then_lowest").validate()
    with pytest.raises(ValueError):
        ProcessConfig(n=2, k=1, loop_degree="three").validate()


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ProcessConfig(n=2, k=1, seed=-1).validate()
    ProcessConfig(n=2, k=1, seed=0).validate()


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


@pytest.mark.parametrize("u,v", [(0, 1), (1, 5)], ids=["square-0", "circle-n+1"])
def test_debug_add_edge_checks_the_range_before_any_change(u, v):
    state = init_state(ProcessConfig(n=4, k=1, debug=True))
    add_edge(state, 2, 3)
    before = list(state.degree), state.t
    with pytest.raises(AssertionError):
        add_edge(state, u, v)
    assert (state.degree, state.t) == before
    state.validate()


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
    tie_break=st.sampled_from(CIRCLE_POLICIES),
    edges=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=40),
)
def test_buckets_match_reference_model(degrees, fresh, loop_degree, tie_break, edges):
    n = len(degrees)
    cfg = ProcessConfig(n=n, k=1, tie_break=tie_break, loop_degree=loop_degree)
    state = init_state(cfg) if fresh else state_from_degrees(cfg, [0, *degrees], t=0)
    b = state.buckets
    # one list per degree, fed the same moves as the buckets: a leaving
    # vertex's slot takes the list's tail, an arriving vertex is appended;
    # the buckets keep these lists under the uniform circle rule, and their
    # lengths as counts under every rule
    ref = {}
    for v in range(1, n + 1):
        ref.setdefault(state.degree[v], []).append(v)
    for a, c in edges:
        u, v = a % n + 1, c % n + 1
        for w, old, new in _moves(state, u, v):
            left = ref[old]
            i = left.index(w)
            last = left.pop()
            if last != w:
                left[i] = last
            ref.setdefault(new, []).append(w)
        add_edge(state, u, v)
        for d in range(max(state.degree) + 3):
            members = [w for w in range(1, n + 1) if state.degree[w] == d]
            assert b.count(d) == len(members) == len(ref.get(d, []))
            if tie_break == TIE_UNIFORM:
                assert list(b._lists[d]) == ref[d] if d in ref else not members
        assert b.cnt == [len(ref.get(d, [])) for d in range(max(state.degree) + 1)]
        b.validate()  # includes the cursor invariant


def _swap_first_of(b, d, e):
    b._lists[d][0], b._lists[e][0] = b._lists[e][0], b._lists[d][0]


def _shift_count(b, d, e):
    b.cnt[d] -= 1
    b.cnt[e] += 1


PACKED = (TIE_UNIFORM,)  # the corruption touches the packed lists, kept only there


@pytest.mark.parametrize(
    "corrupt,tie_breaks",
    [
        pytest.param(lambda b: b.pos.__setitem__(1, 1), PACKED, id="wrong-pos"),
        pytest.param(lambda b: b.pos.__setitem__(1, 7), PACKED, id="pos-past-list"),
        pytest.param(lambda b: b.pos.__setitem__(1, -3), PACKED, id="negative-pos"),
        pytest.param(lambda b: _swap_first_of(b, 1, 2), PACKED, id="vertex-in-wrong-list"),
        pytest.param(lambda b: b._lists[3].append(4), PACKED, id="extra-entry"),
        pytest.param(lambda b: _shift_count(b, 1, 2), CIRCLE_POLICIES, id="stale-count"),
        pytest.param(lambda b: setattr(b, "min_nonempty", 2), CIRCLE_POLICIES, id="stale-min"),
        pytest.param(lambda b: setattr(b, "max_nonempty", 2), CIRCLE_POLICIES, id="stale-max"),
        pytest.param(lambda b: setattr(b, "_lo", 2), CIRCLE_POLICIES, id="cursor-past-minimum"),
    ],
)
def test_validate_catches_each_corruption(corrupt, tie_breaks):
    for tie_break in tie_breaks:
        # counts (0, 3, 2, 1); packed: degree-1 list [1, 3, 6], degree-2 [2, 5], degree-3 [4]
        cfg = ProcessConfig(n=6, k=1, tie_break=tie_break)
        b = state_from_degrees(cfg, [0, 1, 2, 1, 3, 2, 1], t=5).buckets
        b.validate()
        corrupt(b)
        with pytest.raises(AssertionError):
            b.validate()


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
