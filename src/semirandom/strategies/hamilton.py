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

Each class lives in the label array; the classes that are sampled or
popped from also sit in packed lists on one position array, and the sizes
the drift system reads are counters.  Labels take one byte a vertex (a
``bytearray``), and links, mates, pending edges, slots and packed lists
four (``process.vertex_array``, ``packed_list``): about 26 bytes a vertex.
Every round, ``ham_step``'s included, is played by one kernel,
``_play_block``, straight off a ``SquareSource`` block with the labels,
links and packed lists in locals.  It runs until the path reaches the
stop length, the block ends or the caller's round budget (the next sample
or check) runs out; ``play_blocks`` refills a used-up block only when a
round is about to be played, where ``next_round`` would.  Cases b, c and d end in one call of ``_settle``,
which files the absorbed vertices (if any), uncolours the reds whose
pending edge pointed at one of them, and refiles the vertices within path
distance 2 of a change.  Every list operation (``process.take`` fills a
leaving vertex's slot with the tail, a pop takes the last slot) and every
draw keeps a fixed order, because the packed orders decide every later
sample and every vertex the padding moves pop: the runs are the ones
round-by-round play gives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

from ..process import ProcessConfig, check_packed, packed_list, put, take, vertex_array
from ..rng import SquareSource
from .common import StepOutcome, classify, play_blocks, trial_source
# the benchmark's tracer rebinds ``add_edge`` in this module; nothing here calls it
from .mindeg import add_edge  # noqa: F401

OFF_UNSAT = 0
OFF_MATCHED = 1
RED = 2
GREEN = 3
USELESS = 4
PERMISSIBLE = 5

# priority rank by label: unsaturated, matched, green, permissible, then useless and red
_RANK = (0, 1, 4, 2, 4, 3)
_CASE_OF_RANK = ("a", "b", "c''", "d", "e")


class HamState:
    """Path, matching and colour bookkeeping of the path builder.

    ``label[v]`` is v's class.  The classes drawn from (``unsat``,
    ``matched``) or popped from (``permissible``, ``padding``) are also kept
    as packed lists.  A vertex is in at most one of them, the one its label
    names, so one array gives its slot: ``pos[v]``, stale while v is in
    none.  ``padding`` holds the useless vertices that fill the class up to
    twice the red count, and a useless vertex outside it is structural (at
    path distance 2 from a red).  Four counters give the sizes the strategy
    reads: ``X`` on-path vertices, ``R`` red, ``green_count`` green and
    ``useless_count`` useless, structural plus padded.  Debug states count
    every played edge (square, circle), smaller end first, in ``played``:
    the certificate ``verify_hamiltonian_cycle`` checks.
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
        "pos",
        "X",
        "R",
        "green_count",
        "useless_count",
        "debug",
        "played",
    )

    def __init__(self, n: int, debug: bool = False):
        if n < 1:
            raise ValueError("vertex count must be >= 1")
        self.n = n
        self.label = bytearray(n + 1)  # all OFF_UNSAT
        self.nxt = vertex_array(n + 1)
        self.prv = vertex_array(n + 1)
        self.head = 0
        self.tail = 0
        self.mate = vertex_array(n + 1)
        self.red_target = vertex_array(n + 1)
        self.red_at: dict[int, list[int]] = {}
        self.unsat, self.pos = packed_list(n)
        self.matched = vertex_array(0)
        self.permissible = vertex_array(0)
        self.padding = vertex_array(0)
        self.X = 0
        self.R = 0
        self.green_count = 0
        self.useless_count = 0
        self.debug = debug
        self.played = Counter() if debug else None

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
        at = {v: i for i, v in enumerate(order)}
        assert len(at) == len(order), "path revisits a vertex"
        assert len(order) == self.X
        assert lab[0] == OFF_UNSAT and self.nxt[0] == self.prv[0] == 0, "slot 0 is a sentinel"
        for a, b in zip(order, order[1:]):
            assert self.prv[b] == a, "prv links mirror nxt links"
        if order:
            assert self.prv[order[0]] == 0 and self.nxt[order[-1]] == 0
            assert self.head == order[0] and self.tail == order[-1]
        else:
            assert self.head == 0 and self.tail == 0
        # packed lists: each slot's vertex has that slot and the list's label
        for items, L in ((self.unsat, OFF_UNSAT), (self.matched, OFF_MATCHED),
                         (self.permissible, PERMISSIBLE), (self.padding, USELESS)):
            check_packed(items, self.pos, lab, L)
        # off-path vertices
        for v in range(1, n + 1):
            if lab[v] == OFF_UNSAT:
                assert v not in at
                assert self.mate[v] == 0
            elif lab[v] == OFF_MATCHED:
                assert v not in at
                m = self.mate[v]
                assert m and self.mate[m] == v and m != v and lab[m] == OFF_MATCHED
            else:
                assert v in at
        assert len(self.matched) % 2 == 0
        # the lists hold only their own labels, so this lists every off-path vertex
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
        red_pos = sorted(at[v] for v in reds)
        for a, b in zip(red_pos, red_pos[1:]):
            assert b - a >= 3, "red vertices must sit at path distance >= 3"
        expect_green = set()
        expect_useless = set()
        for v in reds:
            i = at[v]
            for j in (i - 1, i + 1):
                if 0 <= j < len(order):
                    expect_green.add(order[j])
            for j in (i - 2, i + 2):
                if 0 <= j < len(order):
                    expect_useless.add(order[j])
        expect_useless -= expect_green
        padded = set(self.padding)
        for v in padded:
            assert v in at and v not in expect_green and v not in expect_useless
        permissible = 0
        for v in order:
            if lab[v] == RED:
                continue
            elif v in expect_green:
                assert lab[v] == GREEN
            elif v in expect_useless or v in padded:
                assert lab[v] == USELESS
            else:
                assert lab[v] == PERMISSIBLE
                permissible += 1
        assert permissible == len(self.permissible)
        assert self.green_count == len(expect_green)
        assert self.useless_count == len(expect_useless) + len(self.padding)
        r = self.R
        assert self.green_count >= max(0, 2 * r - 4), "at most two red path endpoints"
        assert self.useless_count <= 2 * r
        assert self.useless_count == 2 * r or not self.permissible


classify_ham = partial(classify, _RANK)


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
    put(h.permissible, h.pos, x)


def _splice(h: HamState, a: int, b: int, chain: tuple[int, ...]) -> None:
    """Replace the path edge a-b by the path segment a-chain-b."""
    if h.nxt[a] == b:
        seq = (a, *chain, b)
    else:
        seq = (b, *reversed(chain), a)
    for i in range(len(seq) - 1):
        h.nxt[seq[i]] = seq[i + 1]
        h.prv[seq[i + 1]] = seq[i]


def _settle(h: HamState, absorbed: tuple[int, ...], seeds: tuple[int, ...]) -> None:
    """Refile the path after a step that changed it.

    The ``absorbed`` vertices, already linked into the path, are filed as
    permissible in that order; the reds whose pending edge points at one of
    them are uncoloured in ``red_at`` order.  Then the on-path, non-red
    vertices within path distance 2 of ``seeds`` and of those reds are refiled
    by their distance to a red one: GREEN next to a red, USELESS at distance
    exactly 2, else PERMISSIBLE, where a padded useless vertex stays useless
    by choice.  Last, the padding is rebalanced so that structural plus padded
    useless vertices number twice the reds, as far as the classes allow.
    Slot 0 is a sentinel (label OFF_UNSAT, no links), so missing neighbours
    read as not red, and the links are consistent, so the distance-2
    vertices are ``prv[prv[v]]`` and ``nxt[nxt[v]]``.

    The order of the packed-list operations is load-bearing: it decides
    which vertex the padding moves pop from then on.  So ``affected`` is a
    set filled in walk order (each seed, its predecessors, its successors)
    and iterated as a set; a list, a sorted or deduplicated copy or any
    other traversal changes the runs.
    """
    lab, prv, nxt, pos = h.label, h.prv, h.nxt, h.pos
    perm, pad = h.permissible, h.padding
    dead: list[int] = []
    for w in absorbed:
        lab[w] = PERMISSIBLE
        put(perm, pos, w)
        dead += h.red_at.get(w, ())
    h.X += len(absorbed)
    for x in dead:
        _uncolour_red(h, x)
    affected: set[int] = set()
    add = affected.add
    for v in (*seeds, *dead):
        if v and lab[v] > OFF_MATCHED:  # on the path
            add(v)
            w = prv[v]
            if w:
                add(w)
                if prv[w]:
                    add(prv[w])
            w = nxt[v]
            if w:
                add(w)
                if nxt[w]:
                    add(nxt[w])
    n_green, n_useless = h.green_count, h.useless_count
    for v in affected:
        L = lab[v]
        if L <= RED:  # off the path, or red
            continue
        p, q = prv[v], nxt[v]
        if lab[p] == RED or lab[q] == RED:
            if L == GREEN:
                continue
            new = GREEN
        elif lab[prv[p]] == RED or lab[nxt[q]] == RED:
            new = USELESS
        elif L == PERMISSIBLE or (pos[v] < len(pad) and pad[pos[v]] == v):
            continue  # padding stays useless by choice
        else:
            new = PERMISSIBLE
        if L == PERMISSIBLE:  # take v out of the permissible list
            take(perm, pos, v)
        elif L == USELESS:  # a padded vertex turns structural: take it out of the padding
            if pos[v] < len(pad) and pad[pos[v]] == v:
                take(pad, pos, v)
            if new == USELESS:
                continue
            n_useless -= 1
        else:
            n_green -= 1
        if new == GREEN:
            n_green += 1
        elif new == USELESS:
            n_useless += 1
        else:
            put(perm, pos, v)
        lab[v] = new
    target = 2 * h.R
    while n_useless > target and pad:  # the last padded vertex turns permissible
        v = pad.pop()
        lab[v] = PERMISSIBLE
        put(perm, pos, v)
        n_useless -= 1
    while n_useless < target and perm:  # the last permissible vertex joins the padding
        v = perm.pop()
        lab[v] = USELESS
        put(pad, pos, v)
        n_useless += 1
    h.green_count, h.useless_count = n_green, n_useless


def _play_block(h: HamState, buf: list[int], i: int, end: int, k: int, rng,
                cut: float) -> tuple[int, int, int, int]:
    """The round kernel: play rounds off ``buf[i:end]`` (k offers a round) while the
    path has fewer than ``cut`` vertices; return (position, last round's rank,
    its square's offset, its circle).
    """
    n, debug, played = h.n, h.debug, h.played
    lab, nxt, prv, mate = h.label, h.nxt, h.prv, h.mate
    red_target, red_at, pos = h.red_target, h.red_at, h.pos
    uitems, mitems, perm = h.unsat, h.matched, h.permissible
    rank_of = _RANK
    rank = j = v = 0
    while i < end and h.X < cut:
        # square: the first offer of the best rank
        j = i
        rank = rank_of[lab[buf[i]]]
        if rank and k > 1:
            for jj in range(i + 1, i + k):
                r = rank_of[lab[buf[jj]]]
                if r < rank:
                    rank, j = r, jj
                    if not r:
                        break
        u = buf[j]
        i += k
        if rank == 0:  # match two unsaturated vertices
            v = uitems[rng.integers(len(uitems))]
            if v != u:
                lab[u] = OFF_MATCHED
                lab[v] = OFF_MATCHED
                mate[u] = v
                mate[v] = u
                take(uitems, pos, u)  # u and v move to the matched list
                take(uitems, pos, v)
                put(mitems, pos, u)
                put(mitems, pos, v)
        elif rank == 1:  # append u and its mate at the tail
            m = mate[u]
            take(mitems, pos, u)
            take(mitems, pos, m)
            mate[u] = 0
            mate[m] = 0
            tail = h.tail
            if tail:
                v = tail
                nxt[tail] = u
                prv[u] = tail
            else:
                v = m  # no endpoint yet: the pair itself starts the path
                h.head = u
            nxt[u] = m
            prv[m] = u
            h.tail = m
            _settle(h, (u, m), (tail, u, m))
        elif rank == 2:  # absorb through the pending edge of u's red neighbour
            p = prv[u]
            y = p if p and lab[p] == RED else nxt[u]
            assert y and lab[y] == RED, "a green vertex must have a red neighbour"
            z = red_target[y]
            _uncolour_red(h, y)
            if lab[z] == OFF_UNSAT:
                v = z
                absorbed: tuple[int, ...] = (z,)
                chain = absorbed
                items = uitems
            else:
                v = mate[z]
                mate[z] = 0
                mate[v] = 0
                absorbed = (z, v)
                chain = (v, z)
                items = mitems
            for w in absorbed:  # take z, or z then its mate, out of its list
                take(items, pos, w)
            _splice(h, u, y, chain)
            _settle(h, absorbed, (u, y, *absorbed))
        elif rank == 3:  # colour a new pending edge from a permissible vertex
            nm = len(mitems)
            nu = len(uitems)
            assert nm + nu > 0, "an incomplete path leaves off-path vertices"
            x = int(rng.integers(nm + nu))
            v = mitems[x] if x < nm else uitems[x - nm]
            take(perm, pos, u)
            lab[u] = RED
            h.R += 1
            red_target[u] = v
            red_at.setdefault(v, []).append(u)
            _settle(h, (), (u,))
        else:  # pass
            v = int(rng.integers(1, n + 1))
        if debug:
            played[(u, v) if u < v else (v, u)] += 1
            h.check_quick()
    return i, rank, j, v


def ham_step(h: HamState, squares: list[int], rng) -> StepOutcome:
    """Play one round through the kernel; mutates ``h`` and reports the chosen edge."""
    if h.X == h.n:
        raise ValueError("the path already spans every vertex; the run is over")
    X, Y = h.X, h.Y
    _, rank, j, v = _play_block(h, squares, 0, len(squares), len(squares), rng, h.n + 1)
    case = "c'" if rank == 2 and h.X == X + 1 else _CASE_OF_RANK[rank]
    changed = 0 < rank < 4 or h.Y > Y
    return StepOutcome(case, j + 1, squares[j], v, changed)


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


def ham_completion(h: HamState, src: SquareSource, rng, t: int = 0,
                   **hooks) -> tuple[int, list[int]]:
    """Finish the path, then close the cycle; returns (extra rounds, cycle).

    While vertices remain off the path the regular rounds keep absorbing
    them.  Once the path spans all vertices, rounds pass until a square
    lands on an endpoint, which is then joined to the opposite endpoint.
    The cycle's certificate, ``verify_hamiltonian_cycle``, costs one byte per vertex.
    ``t`` is the round count so far and ``hooks`` are ``play_blocks``'
    observe/check arguments, as in ``pm_completion``.
    """
    n = h.n
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    extra = play_blocks(_play_block, h, src, rng, n, lambda: h.X >= n, t=t, **hooks) - t
    head, tail = h.head, h.tail
    extra += src.rounds_until_hit((head, tail))
    if h.played is not None:  # the closing round plays the endpoint-to-endpoint edge
        h.played[(head, tail) if head < tail else (tail, head)] += 1
    cycle = h.path_order()
    verify_hamiltonian_cycle(cycle, n, h.played)
    return extra, cycle


def verify_hamiltonian_cycle(cycle: list[int], n: int, played=None) -> None:
    """Check that ``cycle`` visits every vertex once, and, given the multiset of
    played edges (smaller end first), that each of its edges was played.  It
    allocates one byte per vertex: n entries in 1..n (range-checked first, as a
    ``bytearray`` takes index 0 and wraps -1) that mark n bytes are a permutation."""
    if n < 3:
        raise AssertionError("a cycle needs at least 3 vertices")
    marks = bytearray(n + 1)
    if len(cycle) == n and 1 <= min(cycle) and max(cycle) <= n:
        for v in cycle:
            marks[v] = 1
    if marks.count(1) != n:
        raise AssertionError("cycle must visit every vertex exactly once")
    if played is not None:
        for a, b in ((cycle[i], cycle[i + 1 - n]) for i in range(n)):  # closing pair last
            if ((a, b) if a < b else (b, a)) not in played:
                raise AssertionError(f"cycle edge {a}-{b} was never played")


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
    threshold_round = play_blocks(
        _play_block, h, src, rng_ch, cut, lambda: h.X >= cut,
        observe=lambda t: samples.append((t, h.X, h.Y, h.R)),
        every=stride,
        check=h.validate,
        check_every=validate_every,
    )
    completion = 0
    cycle = None
    if complete:
        # samples stay main-phase-only; validation runs on through completion
        completion, cycle = ham_completion(h, src, rng_ch, threshold_round,
                                           check=h.validate, check_every=validate_every)
    if validate_every:
        h.validate()
    total = threshold_round + completion
    return HamTrace(n, config.k, x_stop, threshold_round, completion, total, samples, cycle)
