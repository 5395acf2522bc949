"""Adaptive path builder for the k-choice process.

The builder grows one path toward a Hamiltonian cycle.  Off-path vertices
are unsaturated or matched in pairs; on-path vertices are red, green,
useless or permissible.  A red vertex holds exactly one pending off-path
edge; its path neighbours are green and a square on a green vertex absorbs
the pending edge's endpoint (plus its mate when matched).  Useless vertices
keep red vertices at path distance at least 3 apart, and the useless class
is padded with arbitrary uncoloured path vertices up to twice the red
count.  Squares are consumed greedily in the priority order: unsaturated,
matched, green, permissible, (useless/red = pass).

Each class lives in the label array; only the classes that are sampled or
popped from also sit in an ``IndexedSet``, and the sizes the drift system
reads are counters.  Cases b, c and d end in ``_settle``, which files the
absorbed vertices (if any), uncolours the reds whose pending edge pointed
at one of them, and refiles the vertices within path distance 2 of a change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..indexed import IndexedSet
# the benchmark's tracer rebinds ``add_edge`` in this module; nothing here calls it
from ..process import ProcessConfig, add_edge  # noqa: F401
from ..rng import SquareSource
from .common import StepOutcome, classify, play, trial_source

OFF_UNSAT = 0
OFF_MATCHED = 1
RED = 2
GREEN = 3
USELESS = 4
PERMISSIBLE = 5

_RANK = {OFF_UNSAT: 0, OFF_MATCHED: 1, GREEN: 2, PERMISSIBLE: 3, USELESS: 4, RED: 4}


class HamState:
    """Path, matching and colour bookkeeping of the path builder.

    ``label[v]`` is v's class.  The classes drawn from (``unsat``,
    ``matched``) or popped from (``permissible``, ``padding``) are also kept
    as ``IndexedSet``s; ``padding`` holds the useless vertices that fill the
    class up to twice the red count, and a useless vertex outside it is
    structural (at path distance 2 from a red).  Four counters give the sizes
    the strategy reads: ``X`` on-path vertices, ``R`` red, ``green_count``
    green and ``useless_count`` useless, structural plus padded.
    """

    __slots__ = (
        "n",
        "label",
        "nxt",
        "prv",
        "head",
        "tail",
        "mate",
        "red_target",
        "red_at",
        "unsat",
        "matched",
        "permissible",
        "padding",
        "X",
        "R",
        "green_count",
        "useless_count",
        "debug",
    )

    def __init__(self, n: int, debug: bool = False):
        if n < 1:
            raise ValueError("vertex count must be >= 1")
        self.n = n
        self.label = [OFF_UNSAT] * (n + 1)
        self.nxt = [0] * (n + 1)
        self.prv = [0] * (n + 1)
        self.head = 0
        self.tail = 0
        self.mate = [0] * (n + 1)
        self.red_target = [0] * (n + 1)
        self.red_at: dict[int, list[int]] = {}
        self.unsat = IndexedSet(range(1, n + 1))
        self.matched = IndexedSet()
        self.permissible = IndexedSet()
        self.padding = IndexedSet()
        self.X = 0
        self.R = 0
        self.green_count = 0
        self.useless_count = 0
        self.debug = debug

    @property
    def Y(self) -> int:
        return len(self.matched)

    def path_order(self) -> list[int]:
        order = []
        v = self.head
        while v:
            order.append(v)
            v = self.nxt[v]
        return order

    def check_quick(self) -> None:
        """O(1) identities kept after every step in debug mode."""
        assert self.X + len(self.unsat) + len(self.matched) == self.n
        on_path = self.R + self.green_count + self.useless_count + len(self.permissible)
        assert on_path == self.X, "the four path classes must partition the path"
        assert len(self.matched) % 2 == 0, "matched vertices come in pairs"
        r = self.R
        assert self.green_count <= 2 * r
        assert self.useless_count <= 2 * r
        assert self.useless_count == 2 * r or not self.permissible

    def validate(self) -> None:
        """Full structural sweep; rebuilds the classification from scratch."""
        n = self.n
        lab = self.label
        order = self.path_order()
        pos = {v: i for i, v in enumerate(order)}
        assert len(pos) == len(order), "path revisits a vertex"
        assert len(order) == self.X
        assert lab[0] == OFF_UNSAT and self.nxt[0] == self.prv[0] == 0, "slot 0 is a sentinel"
        for a, b in zip(order, order[1:]):
            assert self.prv[b] == a, "prv links mirror nxt links"
        if order:
            assert self.prv[order[0]] == 0 and self.nxt[order[-1]] == 0
            assert self.head == order[0] and self.tail == order[-1]
        else:
            assert self.head == 0 and self.tail == 0
        # off-path vertices
        for v in range(1, n + 1):
            if lab[v] == OFF_UNSAT:
                assert v in self.unsat and v not in pos
                assert self.mate[v] == 0
            elif lab[v] == OFF_MATCHED:
                assert v in self.matched and v not in pos
                m = self.mate[v]
                assert m and self.mate[m] == v and m != v and lab[m] == OFF_MATCHED
            else:
                assert v in pos
        assert len(self.matched) % 2 == 0
        assert len(self.unsat) + len(self.matched) + self.X == n
        # red edges
        reds = []
        for v in range(1, n + 1):
            if lab[v] == RED:
                reds.append(v)
                z = self.red_target[v]
                assert lab[z] in (OFF_UNSAT, OFF_MATCHED), "pending edges end off the path"
                assert v in self.red_at.get(z, [])
            else:
                assert self.red_target[v] == 0
        assert len(reds) == self.R
        listed = sum(len(r) for r in self.red_at.values())
        assert listed == len(reds)
        for z, rs in self.red_at.items():
            for x in rs:
                assert lab[x] == RED and self.red_target[x] == z
        # red separation and rebuilt colour classes
        red_pos = sorted(pos[v] for v in reds)
        for a, b in zip(red_pos, red_pos[1:]):
            assert b - a >= 3, "red vertices must sit at path distance >= 3"
        expect_green = set()
        expect_useless = set()
        for v in reds:
            i = pos[v]
            for j in (i - 1, i + 1):
                if 0 <= j < len(order):
                    expect_green.add(order[j])
            for j in (i - 2, i + 2):
                if 0 <= j < len(order):
                    expect_useless.add(order[j])
        expect_useless -= expect_green
        for v in self.padding:
            assert v in pos and v not in expect_green and v not in expect_useless
            assert lab[v] != RED
        permissible = 0
        for v in order:
            if lab[v] == RED:
                continue
            elif v in expect_green:
                assert lab[v] == GREEN
            elif v in expect_useless or v in self.padding:
                assert lab[v] == USELESS
            else:
                assert lab[v] == PERMISSIBLE and v in self.permissible
                permissible += 1
        assert permissible == len(self.permissible)
        assert self.green_count == len(expect_green)
        assert self.useless_count == len(expect_useless) + len(self.padding)
        r = self.R
        assert self.green_count >= max(0, 2 * r - 4), "at most two red path endpoints"
        assert self.useless_count <= 2 * r
        assert self.useless_count == 2 * r or not self.permissible


classify_ham = partial(classify, _RANK)


def _near(h: HamState, v: int, out: set[int]) -> None:
    """Collect v and its on-path neighbours up to distance 2, in walk order."""
    if not v or h.label[v] <= OFF_MATCHED:  # 0 or off the path
        return
    prv = h.prv
    nxt = h.nxt
    add = out.add
    add(v)
    w = prv[v]
    if w:
        add(w)
        z = prv[w]
        if z:
            add(z)
        z = nxt[w]
        if z:
            add(z)
    w = nxt[v]
    if w:
        add(w)
        z = prv[w]
        if z:
            add(z)
        z = nxt[w]
        if z:
            add(z)


def _uncolour_red(h: HamState, x: int) -> None:
    """Remove x's pending edge and return x to the uncoloured pool."""
    z = h.red_target[x]
    rs = h.red_at[z]
    rs.remove(x)
    if not rs:
        del h.red_at[z]
    h.red_target[x] = 0
    h.R -= 1
    h.label[x] = PERMISSIBLE
    h.permissible.add(x)


def _splice(h: HamState, a: int, b: int, chain: tuple[int, ...]) -> None:
    """Replace the path edge a-b by the path segment a-chain-b."""
    if h.nxt[a] == b:
        seq = (a, *chain, b)
    else:
        seq = (b, *reversed(chain), a)
    for i in range(len(seq) - 1):
        h.nxt[seq[i]] = seq[i + 1]
        h.prv[seq[i + 1]] = seq[i]


def _reclassify(h: HamState, vertices: set[int]) -> None:
    """Refile the on-path, non-red vertices by their distance to a red one.

    GREEN next to a red, USELESS at path distance exactly 2, else
    PERMISSIBLE; a padded useless vertex stays useless by choice.  Slot 0 is
    a sentinel (label OFF_UNSAT, no links), so missing neighbours read as
    not red, and the links are consistent, so the distance-2 vertices are
    ``prv[prv[v]]`` and ``nxt[nxt[v]]``.

    The iteration order of ``vertices`` is load-bearing.  It fixes the order
    of the add and discard calls on ``permissible`` and ``padding``, and that
    order decides which vertex ``pop_arbitrary`` returns from then on.
    Callers pass the set that ``_near`` filled, in the order it filled it; a
    list, a deduplicated copy or any other traversal changes the runs.
    """
    lab = h.label
    prv = h.prv
    nxt = h.nxt
    permissible = h.permissible
    padding = h.padding
    n_green = h.green_count
    n_useless = h.useless_count
    for v in vertices:
        L = lab[v]
        if L <= RED:  # off the path, or red
            continue
        p = prv[v]
        q = nxt[v]
        if lab[p] == RED or lab[q] == RED:
            if L == GREEN:
                continue
            if L == PERMISSIBLE:
                permissible.discard(v)
            else:
                padding.discard(v)  # a no-op on a structural useless vertex
                n_useless -= 1
            n_green += 1
            lab[v] = GREEN
        elif lab[prv[p]] == RED or lab[nxt[q]] == RED:
            if L == USELESS:
                padding.discard(v)  # a padded vertex turns structural
                continue
            if L == GREEN:
                n_green -= 1
            else:
                permissible.discard(v)
            n_useless += 1
            lab[v] = USELESS
        else:
            if L == PERMISSIBLE or v in padding:
                continue  # padding stays useless by choice
            if L == GREEN:
                n_green -= 1
            else:
                n_useless -= 1
            permissible.add(v)
            lab[v] = PERMISSIBLE
    h.green_count = n_green
    h.useless_count = n_useless


def _rebalance_padding(h: HamState) -> None:
    """Keep struct + padded useless at twice the red count when possible."""
    target = 2 * h.R
    cur = h.useless_count
    if cur == target:
        return
    lab = h.label
    padding = h.padding
    permissible = h.permissible
    while cur > target and padding:
        v = padding.pop_arbitrary()
        lab[v] = PERMISSIBLE
        permissible.add(v)
        cur -= 1
    while cur < target and permissible:
        v = permissible.pop_arbitrary()
        lab[v] = USELESS
        padding.add(v)
        cur += 1
    h.useless_count = cur


def _settle(h: HamState, absorbed: tuple[int, ...], seeds: tuple[int, ...]) -> None:
    """Refile the path after a step that changed it.

    The ``absorbed`` vertices, already linked into the path, are filed as
    permissible in that order; the reds whose pending edge points at one of
    them are uncoloured in ``red_at`` order.  Then the neighbourhoods of
    ``seeds`` and of those reds, in that order, are reclassified and the
    padding is rebalanced.
    """
    lab = h.label
    dead: list[int] = []
    for w in absorbed:
        lab[w] = PERMISSIBLE
        h.permissible.add(w)
        dead += h.red_at.get(w, ())
    h.X += len(absorbed)
    for x in dead:
        _uncolour_red(h, x)
    affected: set[int] = set()
    for w in (*seeds, *dead):
        _near(h, w, affected)
    _reclassify(h, affected)
    _rebalance_padding(h)
    if h.debug:
        h.check_quick()


def ham_step(h: HamState, squares: list[int], rng) -> StepOutcome:
    """Play one round; mutates ``h`` and reports the chosen edge."""
    rank, i = classify(_RANK, h.label, squares)
    u = squares[i]
    lab = h.label
    if rank == 0:  # match two unsaturated vertices
        v = h.unsat.sample(rng)
        if v == u:
            return StepOutcome("a", i + 1, u, v, False)
        lab[u] = OFF_MATCHED
        lab[v] = OFF_MATCHED
        h.mate[u] = v
        h.mate[v] = u
        h.unsat.discard(u)
        h.unsat.discard(v)
        h.matched.add(u)
        h.matched.add(v)
        if h.debug:
            h.check_quick()
        return StepOutcome("a", i + 1, u, v, True)

    if rank == 1:  # append u and its mate at an endpoint
        m = h.mate[u]
        h.matched.discard(u)
        h.matched.discard(m)
        h.mate[u] = 0
        h.mate[m] = 0
        old_tail = h.tail
        if old_tail == 0:
            v = m  # no endpoint yet: the pair itself starts the path
            h.head = u
        else:
            v = old_tail
            h.nxt[old_tail] = u
            h.prv[u] = old_tail
        h.nxt[u] = m
        h.prv[m] = u
        h.tail = m
        _settle(h, (u, m), (old_tail, u, m))
        return StepOutcome("b", i + 1, u, v, True)

    if rank == 2:  # absorb through the pending edge of u's red neighbour
        p, q_ = h.prv[u], h.nxt[u]
        y = p if (p and lab[p] == RED) else q_
        assert y and lab[y] == RED, "a green vertex must have a red neighbour"
        z = h.red_target[y]
        _uncolour_red(h, y)
        if lab[z] == OFF_UNSAT:
            case = "c'"
            v = z
            h.unsat.discard(z)
            absorbed: tuple[int, ...] = (z,)
            _splice(h, u, y, (z,))
        else:
            case = "c''"
            q = h.mate[z]
            v = q
            h.matched.discard(z)
            h.matched.discard(q)
            h.mate[z] = 0
            h.mate[q] = 0
            absorbed = (z, q)
            _splice(h, u, y, (q, z))
        _settle(h, absorbed, (u, y, *absorbed))
        return StepOutcome(case, i + 1, u, v, True)

    if rank == 3:  # colour a new pending edge from a permissible vertex
        nm = len(h.matched)
        nu = len(h.unsat)
        assert nm + nu > 0, "an incomplete path leaves off-path vertices"
        j = int(rng.integers(nm + nu))
        v = h.matched.at(j) if j < nm else h.unsat.at(j - nm)
        h.permissible.discard(u)
        lab[u] = RED
        h.R += 1
        h.red_target[u] = v
        h.red_at.setdefault(v, []).append(u)
        _settle(h, (), (u,))
        return StepOutcome("d", i + 1, u, v, True)

    v = int(rng.integers(1, h.n + 1))  # pass
    return StepOutcome("e", i + 1, u, v, False)


def ham_case_probabilities(X, Y, R, n, k: int, n_green=None, n_useless=None):
    """(P_a..P_e) for the five square classes at the given counts.

    By default the green and useless classes are taken at their nominal
    sizes (twice the red count each); pass exact sizes to match a concrete
    state.  Accepts fractions of n via ``n=1``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_green is None:
        n_green = 2 * R
    if n_useless is None:
        n_useless = 2 * R
    if min(X, Y, R, n_green, n_useless) < 0:
        raise ValueError("counts must be nonnegative")
    if X + Y > n * (1 + 1e-12):
        raise ValueError("on-path plus matched vertices exceed the vertex count")
    if R + n_green + n_useless > X * (1 + 1e-12):
        raise ValueError("coloured classes exceed the path length")
    f = 1.0 / n
    xy = ((X + Y) * f) ** k
    x = (X * f) ** k
    xg = ((X - n_green) * f) ** k
    ru = ((R + n_useless) * f) ** k
    return 1.0 - xy, xy - x, x - xg, xg - ru, ru


def ham_expected_changes(x: float, y: float, r: float, k: int) -> tuple[float, float, float]:
    """Expected one-round change of (path, matched, red) fractions.

    Composed from the case probabilities: appending absorbs 2, a pending
    edge absorbs 1 plus the mate share y/(1-x); each absorbed vertex kills
    pending edges at rate r/(1-x).
    """
    if x >= 1.0:
        raise ValueError("path fraction must stay below 1")
    pa, pb, pc, pd, _pe = ham_case_probabilities(x, y, r, 1.0, k)
    w = 1.0 - x
    dx = 2.0 * pb + (1.0 + y / w) * pc
    dy = 2.0 * pa - 2.0 * pb - 2.0 * pc * y / w
    dr = -2.0 * r / w * pb - ((w + y) * r / (w * w) + 1.0) * pc + pd
    return dx, dy, dr


@dataclass
class HamTrace:
    """Round counts of one path-builder run; threshold and completion split."""

    n: int
    k: int
    x_stop: float
    threshold_round: int
    completion_rounds: int
    total_rounds: int
    samples: list[tuple[int, int, int, int]]  # (t, on-path, matched, red)
    cycle: list[int] | None


def ham_completion(h: HamState, src: SquareSource, rng) -> tuple[int, list[int]]:
    """Finish the path, then close the cycle; returns (extra rounds, cycle).

    While vertices remain off the path the regular step keeps absorbing
    them.  Once the path spans all vertices, rounds pass until a square
    lands on an endpoint, which is then joined to the opposite endpoint.
    """
    n = h.n
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    extra = play(ham_step, h, src, rng, lambda: h.X >= n)
    extra += src.rounds_until_hit((h.head, h.tail))
    cycle = h.path_order()
    verify_hamiltonian_cycle(cycle, n)
    return extra, cycle


def verify_hamiltonian_cycle(cycle: list[int], n: int) -> None:
    if n < 3:
        raise AssertionError("a cycle needs at least 3 vertices")
    if len(cycle) != n or set(cycle) != set(range(1, n + 1)):
        raise AssertionError("cycle must visit every vertex exactly once")


def ham_run(
    config: ProcessConfig,
    x_stop: float = 0.99,
    trial_index: int = 0,
    sample_stride: int | None = None,
    complete: bool = True,
    validate_every: int = 0,
    streams=None,
) -> HamTrace:
    """Run the path builder from scratch.

    The main phase ends when the path covers ``x_stop * n`` vertices;
    completion (finishing the path and closing the cycle) is measured
    separately and never folded into the threshold count.  ``streams``
    overrides the (seed, trial_index)-derived generator pair.
    """
    config.validate()
    n = config.n
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if not 0.0 < x_stop <= 1.0:
        raise ValueError("x_stop must lie in (0, 1]")
    h = HamState(n, debug=config.debug)
    src, rng_ch = trial_source(config, trial_index, streams)
    stride = sample_stride if sample_stride is not None else max(1, n // 100)
    cut = x_stop * n
    samples = [(0, 0, 0, 0)] if stride else []
    threshold_round = play(
        ham_step, h, src, rng_ch, lambda: h.X >= cut,
        observe=lambda t: samples.append((t, h.X, h.Y, h.R)),
        every=stride,
        check=h.validate,
        check_every=validate_every,
    )
    completion = 0
    cycle = None
    if complete:
        completion, cycle = ham_completion(h, src, rng_ch)
    if validate_every:
        h.validate()
    total = threshold_round + completion
    return HamTrace(n, config.k, x_stop, threshold_round, completion, total, samples, cycle)
