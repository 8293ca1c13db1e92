"""Forbidden sets and maximum solution sizes for partial matrices.

For a partial matrix A the forbidden set holds every vector that some
row maps to 1 no matter how the stars are filled: x is forbidden iff
for some row i, x vanishes on the stars of row i and <a_i, x> = 1.
A set L of vectors is a solution iff the difference of any two members
is never forbidden, which makes solutions exactly the independent sets
of the Cayley graph on GF(2)^n generated by the forbidden set.

Sets of vectors over GF(2)^n appear here in two shapes: as Python sets
of ints, and as occupancy bitmaps with bit x marking vector x.  Bitmaps
make the Cayley-graph work cheap: translating a set by x is a fixed
permutation of bitmap blocks, and neighbourhood queries are single ANDs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from typing import Iterable

from .errors import InternalError, LimitError, OperatorConflict
from .gf2 import (
    GF2Matrix,
    Subspace,
    _SUBSPACE_N,
    _bits,
    _half_mask,
    _pack,
    _parity_bitmap,
    _spread,
    _star_classes,
    _vanishes_bitmap,
    dot,
    kernel,
    min_weight_nonzero,
    orthogonal_complement,
    xor_translate,
)
from .partial import (
    PartialMatrix,
    _FIRST_SLICE,
    _Deadline,
    _KernelSide,
    _RankSide,
    _completed,
    _distinct_rows,
    _forbidden_bitmap,
    _max_independent_rows,
    canonical_completion,
    enumerate_completions,
    min_rank,
)

__all__ = [
    "ForbiddenSet",
    "SolutionSet",
    "ConsistentOperator",
    "EpsilonRecord",
    "HullVerdict",
    "forbidden_set",
    "is_solution",
    "opt_exact",
    "brute_force_opt_tiny",
    "lin_exact",
    "separating_min_rank",
    "reconstruct_operator",
    "codistance",
    "linear_hull_check",
    "conjecture_epsilon",
    "epsilon_of",
]


# ---------------------------------------------------------------------------
# forbidden sets


@dataclass(frozen=True)
class ForbiddenSet:
    """The union over rows of {x : x vanishes on S_i and <a_i, x> = 1}.

    bitmap is an occupancy bitmap over all 2^n vectors, materialized on
    construction when n is small enough; contains() falls back to the
    row predicate otherwise.
    """

    n: int
    rows: tuple[tuple[int, int], ...]
    bitmap: int | None

    def contains(self, x: int) -> bool:
        if self.bitmap is not None:
            return bool((self.bitmap >> x) & 1)
        return any(x & s == 0 and dot(a, x) == 1 for a, s in self.rows)

    @property
    def size(self) -> int:
        if self.bitmap is None:
            raise LimitError("forbidden set too wide to count explicitly")
        return self.bitmap.bit_count()

    def vectors(self) -> Iterable[int]:
        if self.bitmap is None:
            raise LimitError("forbidden set too wide to enumerate")
        return _bits(self.bitmap)


# columns for a forbidden-set bitmap (2^n bits), and for codes.ball
_BITMAP_N = 24

# columns for opt_exact, and ToolConfig.opt_n's default
_OPT_N = 16


def forbidden_set(A: PartialMatrix) -> ForbiddenSet:
    """Build the forbidden set of A, with a bitmap when n <= _BITMAP_N."""
    rows = tuple(zip(A.ones, A.stars))
    if A.n > _BITMAP_N:
        return ForbiddenSet(A.n, rows, None)
    return ForbiddenSet(A.n, rows, _forbidden_bitmap(rows, A.n))


def _bitmap_cap(n: int):
    """LimitError past the columns that forbidden_set materializes."""
    if n > _BITMAP_N:
        raise LimitError(f"forbidden-set bitmap over GF(2)^{n} exceeds n <= {_BITMAP_N}")


def _required_bitmap(A: PartialMatrix) -> int:
    """The forbidden-set bitmap that the exact searches run on."""
    _bitmap_cap(A.n)
    return forbidden_set(A).bitmap


# ---------------------------------------------------------------------------
# solution sets


@dataclass(frozen=True)
class SolutionSet:
    """A set of vectors proposed as a solution for some partial matrix."""

    n: int
    members: frozenset[int]

    @classmethod
    def of(cls, vectors: Iterable[int], n: int) -> "SolutionSet":
        return cls(n, frozenset(vectors))

    @property
    def size(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


def _avoids(lbm: int, K: int, n: int) -> bool:
    """Whether L ∩ (L ^ k) is empty for every k in K, as bitmaps.

    Translates whichever of L and K is smaller: L ^ k misses L for all
    k in K exactly when K ^ x misses L for all x in L.
    """
    if lbm.bit_count() <= K.bit_count():
        return all(xor_translate(K, x, n) & lbm == 0 for x in _bits(lbm))
    return all(xor_translate(lbm, k, n) & lbm == 0 for k in _bits(K))


def _members(L: SolutionSet | Iterable[int], n: int) -> frozenset[int]:
    """The members of L, or ValueError if one lies outside GF(2)^n."""
    members = L.members if isinstance(L, SolutionSet) else frozenset(L)
    for x in members:
        if not 0 <= x < 1 << n:
            raise ValueError(f"member {x} lies outside GF(2)^{n}")
    return members


def is_solution(A: PartialMatrix, L: SolutionSet | Iterable[int]) -> bool:
    """Whether no two members of L differ by a forbidden vector; raises
    ValueError when a member lies outside GF(2)^n."""
    members = _members(L, A.n)
    F = forbidden_set(A)
    if F.bitmap is not None:
        lbm = 0
        for x in members:
            lbm |= 1 << x
        return _avoids(lbm, F.bitmap, A.n)
    ms = sorted(members)
    return not any(
        F.contains(x ^ y) for i, x in enumerate(ms) for y in ms[i + 1 :]
    )


# ---------------------------------------------------------------------------
# exact maximum solution size


class _Engine:
    """What both exact opt engines share: the width n, the forbidden set
    K as a bitmap, a search clock (partial._Deadline) that counts their
    ticks and holds the deadline, and the incumbent.

    The incumbent is the largest solution found or adopted so far, kept
    as its size `best` and its occupancy bitmap `best_mask`.  seed()
    sets it to a known solution's bitmap before the search starts:
    opt_exact seeds every engine with the kernel of a min-rank
    completion.

    Each engine searches on an explicit stack and pauses as a
    partial._Decider does: resume(stop) runs it until it ends (True) or
    just before the tick that would pass `stop` (False).  It stops once
    its incumbent reaches `ceiling`, an upper bound on the optimum: 2^n
    unless opt_exact sets the smaller root bound it certified.  opt_exact
    runs either engine in slices (_sliced_search)."""

    def __init__(self, n: int, K: int, deadline: float | None):
        self.n = n
        self.full = (1 << (1 << n)) - 1
        self.clock = _Deadline(deadline, n)
        self.K = K
        self.best = 0
        self.best_mask = 0
        self.ceiling = 1 << n
        self._stack: list | None = None

    def seed(self, mask: int):
        self.best = mask.bit_count()
        self.best_mask = mask


class _OptSearch(_Engine):
    """Branch and bound for maximum independent sets in the Cayley graph.

    Vertex 0 is fixed into the solution (solutions translate, so some
    optimum contains 0).  Candidates are kept as an occupancy bitmap;
    choosing x deletes the translate x ^ K from the candidates, and a
    node is cut when |chosen| + |candidates| cannot beat the best.

    All tie-breaking is by ascending vector index, so the search and its
    witness are deterministic.
    """

    def __init__(self, n: int, K: int, deadline: float | None):
        super().__init__(n, K, deadline)
        self.chosen: list[int] = [0]

    # -- search -----------------------------------------------------------

    def resume(self, stop: int | None) -> bool:
        # A frame is one node: (cand, count, added, low).  `added` counts
        # the conflict-free vertices it took, and `low` is -1 until the
        # node is entered, which takes its tick, then the bit of the
        # vertex that its open branch took.
        stack = self._stack
        if stack is None:
            stack = self._stack = [(self.full & ~self.K & ~1, 1, 0, -1)]
        chosen = self.chosen
        while stack and self.best < self.ceiling:
            cand, count, added, low = stack[-1]
            if low < 0:
                if stop is not None and self.clock.ticks >= stop:
                    return False
                self.clock.check()
            else:
                # back from the branch that took low: go on without it
                chosen.pop()
                cand ^= low
            child = None
            while cand:
                if count + cand.bit_count() <= self.best:
                    break
                low = cand & -cand
                x = low.bit_length() - 1
                nbrs = xor_translate(self.K, x, self.n) & cand
                chosen.append(x)
                if nbrs == 0:
                    # no conflicts left: taking x is never worse
                    added += 1
                    cand ^= low
                    count += 1
                    continue
                child = (cand & ~nbrs & ~low, count + 1, 0, -1)
                break
            else:
                if count > self.best:
                    self.best = count
                    self.best_mask = sum(1 << v for v in chosen)
            if child is not None:
                stack[-1] = (cand, count, added, low)
                stack.append(child)
                continue
            if added:
                del chosen[-added:]
            stack.pop()
        return True


def _max_halves(planes: list[int], mask: int, shift: int) -> list[int]:
    """Lane-wise max of a bit-sliced counter's lanes under `mask` and the
    lanes `shift` bits above them, on the lanes under `mask`."""
    if len(planes) == 1:
        p = planes[0]
        return [(p | p >> shift) & mask]
    low, high = [], []
    more, tie = 0, -1
    for p in reversed(planes):
        x = p & mask
        y = p >> shift & mask
        low.append(x)
        high.append(y)
        more |= tie & x & ~y
        tie &= ~(x ^ y)
    return [y ^ ((x ^ y) & more) for x, y in zip(reversed(low), reversed(high))]


def _fold(planes: list[int], folds) -> list[int]:
    """Add each lane of a bit-sliced counter to its partner across each
    coordinate of `folds`, (shift, mask of the lanes where that
    coordinate is 0) pairs: the sums land on the lanes where every
    folded coordinate is 0."""
    for s, zero in folds:
        out = []
        carry = 0
        for p in planes:
            x = p & zero
            y = p >> s & zero
            t = x ^ y
            out.append(t ^ carry)
            carry = (x & y) | (t & carry)
        if carry:
            out.append(carry)
        planes = out
    return planes


def _total(planes: list[int], mask: int = -1) -> int:
    """The sum of the lanes under `mask` of a bit-sliced counter."""
    total = 0
    for k, p in enumerate(planes):
        total += (p & mask).bit_count() << k
    return total


def _lane(planes: list[int], at: int) -> int:
    """The count of the lane at bit `at` of a bit-sliced counter."""
    count = 0
    for k, p in enumerate(planes):
        count |= (p >> at & 1) << k
    return count


# the byte of each binary digit, as format(x, "b") spells them
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _lane_bytes(planes: list[int], width: int) -> bytes:
    """The counts of the `width` lanes of a bit-sliced counter of at most
    8 planes, one byte each."""
    total = 0
    for k, p in enumerate(planes):
        digits = format(p, f"0{width}b").encode().translate(_DIGIT_BYTES)
        total += int.from_bytes(digits, "big") << k
    return total.to_bytes(width, "little")


def _roof_bound(
    variables: int,
    top: int,
    terms: list[tuple[int, int, int]],
    best: int,
    tick,
) -> int:
    """The roof dual of a two-row finish's joint count
    (_ParityChoiceSearch._finish_closed), rounded down: an upper bound on
    its maximum over all side choices (Hammer, Hansen & Simeone 1984),
    equal to it when the count is supermodular up to flipping some
    classes.

    As a function of x (the side of each a-class) and y (of each
    b-class) the count is K + sum alpha_i x_i + sum beta_j y_j + sum
    q_ij x_i y_j, one product per cell, with q = c00 + c11 - c01 - c10.
    Its negation, written as a posiform (nonnegative terms over x, y and
    their complements), gives the implication network: a term a u w
    adds arcs u -> not w and w -> not u of capacity a / 2, and a linear
    term a u is a u x0, where the literal x0 = 1 is the source and its
    complement the sink.  The count is at most minus the posiform's
    constant, lowered by the max flow; capacities are doubled here to
    stay integral.  The finish gives the posiform over `variables`
    classes, `top` minus its constant and its terms.  The flow is
    Dinic's, its augmenting paths found by an iterative depth-first
    search; one phase is one tick, and the flow stops as soon as the
    bound is at most `best`.  Both searches follow the arcs in the order
    of their terms and never compare node numbers, so numbering the
    classes differently changes neither the bound nor the ticks.
    """
    # node 0 is the source and 1 the sink; a variable's literal is
    # 2 + 2v and its complement 3 + 2v, so complements differ in bit 0.
    # Each term (u, w, a) adds the arcs u -> w ^ 1 and w -> u ^ 1, each
    # followed by its residual twin, so arc e ^ 1 reverses arc e.
    nodes = 2 * variables + 2
    adj: list[list[int]] = [[] for _ in range(nodes)]
    head: list[int] = []
    cap: list[int] = []
    for u, w, a in terms:
        e = len(head)
        adj[u].append(e)
        adj[w ^ 1].append(e + 1)
        adj[w].append(e + 2)
        adj[u ^ 1].append(e + 3)
        head += (w ^ 1, u, u ^ 1, w)
        cap += (a, 0, a, 0)
    # with doubled capacities the bound is top - flow / 2, rounded down
    goal = 2 * (top - best) - 1
    flow = 0
    while flow < goal:
        tick()
        level = [-1] * nodes
        level[0] = 0
        queue = [0]
        for u in queue:
            nxt = level[u] + 1
            for e in adj[u]:
                if cap[e]:
                    v = head[e]
                    if level[v] < 0:
                        level[v] = nxt
                        queue.append(v)
            if level[1] >= 0:
                # every node before the sink's level has its level, and
                # one at that level or past it is on no shortest path to
                # the sink, so the search need not label more
                break
        if level[1] < 0:
            break
        # the blocking flow: each search follows, from every node, the
        # first arc not yet found saturated or dead, one level down; a
        # node with none left is dead, and the search backs up past it
        at = [0] * nodes
        path: list[int] = []
        u = 0
        while flow < goal:
            if u == 1:
                d = goal - flow
                for e in path:
                    if cap[e] < d:
                        d = cap[e]
                for e in path:
                    cap[e] -= d
                    cap[e ^ 1] += d
                flow += d
                path.clear()
                u = 0
                continue
            arcs = adj[u]
            end = len(arcs)
            i = at[u]
            nxt = level[u] + 1
            while i < end:
                e = arcs[i]
                if cap[e] and level[head[e]] == nxt:
                    break
                i += 1
            at[u] = i
            if i < end:
                path.append(e)
                u = head[e]
            elif path:
                u = head[path.pop() ^ 1]
                at[u] += 1
            else:
                break
    return top - (flow + 1) // 2


class _ParityChoiceSearch(_Engine):
    """Exact solution maximum by branching on per-row parity choices.

    Two members whose difference vanishes on a row's stars must agree on
    that row's parity, so a set is a solution iff, for every row, the
    members of each star-pattern class share one parity.  The search
    assigns a kept parity side per class, row by row, pruning with the
    per-row sums of the larger sides.  Killing a side of class k never
    changes later classes of the same row, so within one row the bound
    updates in constant time from a precomputed suffix.  Every node of
    the last row but one is also bounded by the last two rows together
    (_finish_closed, which counts their joint pattern cells in
    bit-sliced planes over whole bitmaps), so the engine needs at least
    two distinct rows; a node that bound does not close is walked as any
    other.  Once only the last row is left, each of its
    classes keeps its larger side, which is exact.  All the branching is
    the walk's own, so a slice ends within a node of its stop.

    It shines when rows have few stars (few, large classes), which is
    where vertex branching drowns in near-ties; it degrades when some
    row has many stars, which is where vertex branching is easy.
    opt_exact builds it in place of _OptSearch when _parity_choice_ready
    and no root certificate settles A.
    """

    def __init__(self, rows, n: int, K: int, deadline: float | None):
        super().__init__(n, K, deadline)
        self.rows = []
        for a, s in rows:
            # (odd, even) sides of each star-pattern class against the row
            classes = _star_classes(s, n, (a,))
            half = len(classes) // 2
            self.rows.append((a, s, list(zip(classes[half:], classes[:half]))))
        # The two-row finish counts the alive vectors of each pattern q on
        # the last two rows' joint stars by their parities (x, y) against
        # those rows: a bit-sliced counter with one lane per pattern, at
        # bit q of block x + 2y of four blocks of 2^n bits (_cells).  A
        # vector reaches its pattern's lane as its free coordinates, which
        # neither row stars, fold away.  A free coordinate whose parities
        # are independent of the earlier pivots' moves each vector to
        # another cell, so a cell never meets two vectors across it, and
        # an OR folds it (_pivots); the rest add (_adds).  Sums over the
        # coordinates that only row b stars give a-class lanes (_to_a),
        # and those only row a stars give b-class lanes (_to_b).
        (aa, sa, _), (ab, sb, _) = self.rows[-2:]
        size = 1 << n
        pa, pb = _parity_bitmap(aa, n), _parity_bitmap(ab, n)
        self._cells = (
            self.full & ~pa & ~pb
            | (pa & ~pb) << size
            | (pb & ~pa) << 2 * size
            | (pa & pb) << 3 * size
        )
        span = {0}
        self._pivots, self._adds = [], []
        for j in _bits(((1 << n) - 1) & ~(sa | sb)):
            side = (aa >> j & 1) | (ab >> j & 1) << 1
            fold = (1 << j, _half_mask(n + 2, j))
            if side in span:
                self._adds.append(fold)
            else:
                self._pivots.append(fold)
                span |= {u ^ side for u in span}
        self._to_a = [(1 << j, _half_mask(n + 2, j)) for j in _bits(sb & ~sa)]
        self._to_b = [(1 << j, _half_mask(n + 2, j)) for j in _bits(sa & ~sb)]
        self._free = sorted(self._pivots + self._adds)
        # the lanes of block 0, of blocks 0 and 1, and of blocks 0 and 2
        one = (1 << size) - 1
        self._masks = one, (1 << 2 * size) - 1, one | one << 2 * size
        # the roof network's literal of each a-class (keyed by its pattern
        # on sa) and b-class (its pattern on sb, plus bit n), and both
        # literals of each joint pattern
        self._node = {}
        for stars, mark in ((sa, 0), (sb, size)):
            at = list(_bits(stars))
            for w in range(1 << len(at)):
                self._node[_spread(w, at) | mark] = 2 + 2 * len(self._node)
        at = list(_bits(sa | sb))
        self._pair = {}
        for w in range(1 << len(at)):
            q = _spread(w, at)
            self._pair[q] = self._node[q & sa], self._node[q & sb | size]
        # the vectors of a- (b-) class 0, shifted by i to give class i's
        self._of_a = _vanishes_bitmap(sa, n)
        self._of_b = _vanishes_bitmap(sb, n)

    def _row_sum(self, alive: int, classes, cap: int) -> int:
        total = 0
        for om, em in classes:
            odd = (alive & om).bit_count()
            even = (alive & em).bit_count()
            total += odd if odd > even else even
            if total >= cap:
                return total
        return total

    def _finish_closed(self, alive: int) -> bool:
        """True when a bound shows that no side choice of the last two
        rows beats the best.

        Choosing a side per class keeps one parity per class, so pattern
        q keeps its count c_xy of cell (x, y) for the side x of its
        a-class and y of its b-class.  Two relaxations bound the joint
        count: each a-class takes one side while every pattern takes the
        better side y, and the transpose.  The finish is closed when the
        smaller of the two is at most the best, or else when the roof
        bound (_roof_bound), never looser, is.  The counts are bit-sliced
        counters over whole bitmaps, and the relaxations are lane-wise
        maxima, folds to class lanes and popcounts, with no loop per cell
        or class.  The roof network's terms come in the order that a
        count one vector at a time meets them: its products, one per
        pattern with q = c00 + c11 - c01 - c10 nonzero, in order of the
        pattern's lowest alive vector, then its linear terms, one per
        class with a nonzero alpha (beta), a-classes first, each in order
        of the class's lowest alive vector.  Where at least half the alive
        patterns have q nonzero, one pass over them builds it
        (_every_pattern); elsewhere only the few lanes are read
        (_nonzero_lanes).  It costs one tick, besides the flow's.
        """
        self.clock.check()
        best = self.best
        size = 1 << self.n
        one, two, even = self._masks
        w = alive | alive << size
        w = (w | w << 2 * size) & self._cells
        for s, zero in self._pivots:
            w = (w | w >> s) & zero
        c = _fold([w], self._adds)
        # each relaxation is at least the count of either side for all
        # its classes, so it is folded to class lanes only when both are
        # at most best
        m = _max_halves(c, two, 2 * size)
        low = _total(m, one)
        if low <= best and _total(m) - low <= best:
            if _total(_max_halves(_fold(m, self._to_a), one, size)) <= best:
                return True
        m = _max_halves(c, even, size)
        low = _total(m, one)
        if low <= best and _total(m) - low <= best:
            if _total(_max_halves(_fold(m, self._to_b), one, 2 * size)) <= best:
                return True
        # The roof network: as a function of the sides x and y, the count
        # is sum c00 + sum alpha_i x_i + sum beta_j y_j + sum q x_i y_j,
        # with q = c00 + c11 - c01 - c10 per pattern, alpha_i the sum of
        # max(c10 - c00, c11 - c01) over the patterns of a-class i (its
        # c10 - c00 and its positive q), and beta_j that of c01 - c00.
        # each pattern's lowest alive vector: alive without the vectors
        # above another of their pattern
        after = 0
        seen = alive
        for s, zero in self._free:
            low = (seen & zero) << s
            after |= low
            seen |= low | (seen >> s & zero)
        firsts = alive & ~after
        # the patterns with q nonzero: with c11 moved to block 1 and c10,
        # c01 to blocks 2, 3, a fold gives c00 + c11 and c10 + c01
        moved = [p & one | p >> 2 * size & one << size | p << size & two << 2 * size for p in c]
        lanes = 0
        for p in _fold(moved, [(size, even)]):
            lanes |= (p ^ p >> 2 * size) & one
        if len(c) <= 8 and 2 * lanes.bit_count() >= firsts.bit_count():
            top, terms = self._every_pattern(c, firsts)
        else:
            top, terms = self._nonzero_lanes(alive, c, firsts, lanes)
        return _roof_bound(len(self._node), top, terms, best, self.clock.check) <= best

    def _every_pattern(self, c: list[int], firsts: int) -> tuple[int, list[tuple[int, int, int]]]:
        """The roof network's top and terms in one pass over the alive
        patterns, for a finish where at least half of them have q
        nonzero: their counts are read from bytes, and each class's alpha
        (beta) comes with its first pattern."""
        size = 1 << self.n
        counts = _lane_bytes(c, 4 * size)
        joint = self.rows[-2][1] | self.rows[-1][1]
        pair = self._pair
        alpha: defaultdict[int, int] = defaultdict(int)
        beta: defaultdict[int, int] = defaultdict(int)
        top = _total(c, self._masks[0])
        terms = []
        for u in _bits(firsts):
            i = u & joint
            c00 = counts[i]
            c10 = counts[size + i]
            c01 = counts[2 * size + i]
            c11 = counts[3 * size + i]
            a, b = pair[i]
            beta[b] += c01 - c00
            v = c00 + c11 - c01 - c10
            if v < 0:
                terms.append((a, b, -v))
                v = 0
            elif v > 0:
                # in the negation, -q x y = -q x + q x (not y)
                terms.append((a, b + 1, v))
            alpha[a] += c10 - c00 + v
        for linear in (alpha, beta):
            for u, v in linear.items():
                if v > 0:
                    top += v
                    terms.append((u + 1, 0, v))
                elif v < 0:
                    terms.append((u, 0, -v))
        return top, terms

    def _nonzero_lanes(
        self, alive: int, c: list[int], firsts: int, lanes: int
    ) -> tuple[int, list[tuple[int, int, int]]]:
        """The roof network's top and terms from bit-sliced counters, for
        a finish where few patterns have q nonzero (`lanes`): only their
        lanes are read, and those of the classes whose alpha (beta) can be
        nonzero."""
        size = 1 << self.n
        one, two, even = self._masks
        sa, sb = self.rows[-2][1], self.rows[-1][1]
        terms = []
        gain: dict[int, int] = {}  # the positive q of each a-class
        for s, _ in self._free:
            lanes |= lanes << s
        firsts &= lanes
        while firsts:
            low = firsts & -firsts
            firsts ^= low
            i = (low.bit_length() - 1) & (sa | sb)
            v = 0
            for k, p in enumerate(c):
                x = p >> i
                v += ((x & 1) + (x >> 3 * size & 1) - (x >> size & 1) - (x >> 2 * size & 1)) << k
            u, w = self._pair[i]
            if v < 0:
                terms.append((u, w, -v))
            else:
                # in the negation, -q x y = -q x + q x (not y)
                terms.append((u, w + 1, v))
                gain[i & sa] = gain.get(i & sa, 0) + v
        top = _total(c, one)
        # alpha_i is c10 - c00 summed over a-class i, plus its gain, and
        # beta_j is c01 - c00 summed over b-class j; a class where neither
        # sum differs and no gain comes has none
        for sums, shift, of, mark, extra in (
            (_fold([p & two for p in c], self._to_a), size, self._of_a, 0, gain),
            (_fold([p & even for p in c], self._to_b), 2 * size, self._of_b, size, {}),
        ):
            lanes = 0
            for p in sums:
                lanes |= (p ^ p >> shift) & one
            for i in extra:
                lanes |= 1 << i
            found = []
            while lanes:
                low = lanes & -lanes
                lanes ^= low
                i = low.bit_length() - 1
                v = _lane(sums, i + shift) - _lane(sums, i) + extra.get(i, 0)
                if v:
                    first = alive & of << i
                    found.append((first & -first, i, v))
            for _, i, v in sorted(found):
                u = self._node[i | mark]
                if v > 0:
                    top += v
                    terms.append((u + 1, 0, v))
                else:
                    terms.append((u, 0, -v))
        return top, terms

    def resume(self, stop: int | None) -> bool:
        # The stack holds the walks still to run, each as (alive, ri,
        # order, suffix, t, prefix); a walk runs only if it can still beat
        # the best.
        stack = self._stack
        if stack is None:
            stack = self._stack = []
            self._go(self.full & ~self.K, 0)
        while stack and self.best < self.ceiling:
            alive, ri, order, suffix, t, prefix = stack[-1]
            if prefix + suffix[t] <= self.best:
                stack.pop()
                continue
            if stop is not None and self.clock.ticks >= stop:
                return False
            stack.pop()
            self._walk(alive, ri, order, suffix, t, prefix)
        return True

    def _go(self, alive: int, ri: int):
        rows = self.rows
        classes = rows[ri][2]
        if ri == len(rows) - 1:
            # the last row alone: each class keeps its larger side, the
            # even one on a tie, as _row_sum counts it
            kept = alive
            for om, em in classes:
                odd = alive & om
                even = alive & em
                kept &= ~(even if odd.bit_count() > even.bit_count() else odd)
            count = kept.bit_count()
            if count > self.best:
                self.best = count
                self.best_mask = kept
            return
        # each row alone keeps at most its sum of larger sides
        cap = self.best + 1
        if any(self._row_sum(alive, row[2], cap) < cap for row in rows[ri:]):
            return
        if ri == len(rows) - 2 and self._finish_closed(alive):
            return
        pairs = []
        for om, em in classes:
            pairs.append(((alive & om).bit_count(), (alive & em).bit_count()))
        order = sorted(range(len(classes)), key=lambda c: -min(pairs[c]))
        suffix = [0] * (len(order) + 1)
        for t in range(len(order) - 1, -1, -1):
            o, e = pairs[order[t]]
            suffix[t] = suffix[t + 1] + (o if o > e else e)
        self._stack.append((alive, ri, order, suffix, 0, 0))

    def _walk(self, alive: int, ri: int, order, suffix, t: int, prefix: int):
        self.clock.check()
        # _go has bounded the row's first node by the last two rows
        if t and ri == len(self.rows) - 2 and self._finish_closed(alive):
            return
        classes = self.rows[ri][2]
        # resume bounded prefix + suffix[t]; skipping a one-sided class adds
        # exactly its suffix term and best stays put, so the bound holds here
        while t < len(order):
            om, em = classes[order[t]]
            odd = alive & om
            even = alive & em
            oc, ec = odd.bit_count(), even.bit_count()
            if oc == 0 or ec == 0:
                prefix += oc + ec
                t += 1
                continue
            if oc >= ec:
                kills = ((even, oc), (odd, ec))
            else:
                kills = ((odd, ec), (even, oc))
            # keeping the larger side first: pushed last, so it runs first
            self._stack.append(
                (alive & ~kills[1][0], ri, order, suffix, t + 1, prefix + kills[1][1])
            )
            self._stack.append(
                (alive & ~kills[0][0], ri, order, suffix, t + 1, prefix + kills[0][1])
            )
            return
        self._go(alive, ri + 1)


# The subspace search of opt_exact's coset certificate (_coset_basis)
# stops after _SUBSPACE_WORK // (2^n + 4096) ticks.  A tick translates
# 2^n-bit bitmaps, and its interpreter overhead costs about as much as
# 4096 bits of that: 1.9, 2.5 and 3.6 us at n = 8, 10 and 12 on a 2-core
# x86 box with Python 3.11, so the cap comes to about 7 to 8 ms at each n.
_SUBSPACE_WORK = 1 << 24


def _coset_basis(K: int, n: int, r: int, deadline: float | None = None) -> tuple[int, ...] | None:
    """A basis of an r-dimensional subspace U whose nonzero members all
    lie in K, or None when a capped search finds none.

    Every coset of U is a clique of the Cayley graph, so a solution picks
    at most one vector per coset: opt <= 2^(n - r), which is lin when r
    is the min rank.  Such a U avoids the rest of GF(2)^n, so one
    _KernelSide search at dimension r finds it.  Its ticks are capped at
    _SUBSPACE_WORK // (2^n + 4096), and the deadline holds.
    """
    clock = _Deadline(deadline, n)
    clock.check_time()
    search = _KernelSide(((1 << (1 << n)) - 1) & ~K & ~1, n, r, clock)
    search.resume(_SUBSPACE_WORK // ((1 << n) + 4096))
    return search.found


def _parity_choice_ready(rows) -> bool:
    """True when the parity-choice engine fits a worklist (_prepare_rows).

    It branches within each row over star-pattern classes, so every
    meaningful row must be thin (at most 64 classes), and its per-step
    row bounds only pay off when there are few distinct rows (at most
    12).  It bounds the last two rows together, so it needs two; with
    one distinct nonzero row min rank is 1, which the column bound meets
    at the root.
    """
    return 2 <= len(rows) <= 12 and all((1 << s.bit_count()) <= 64 for _, s in rows)


def opt_exact(
    A: PartialMatrix,
    limit_n: int = _OPT_N,
    deadline: float | None = None,
) -> tuple[int, SolutionSet]:
    """Exact maximum size of a solution for A, with a witness.

    Starts from a verified linear warm start: the kernel of a min-rank
    completion, a solution of size lin = 2^(n - min_rank), as a bitmap
    doubled over the kernel's basis: one xor_translate per basis vector.
    When a certified upper bound meets lin, that kernel is returned at
    once.  On an edgeless A (no fixed ones) that is every vector: min
    rank and the column floor are both 0, so lin = 2^n closes the root.
    Three certificates are tried in turn: the column bound
    2^(n - col_min_rank), the ratio bound (_ratio_bound), and a coset
    certificate, a subspace U of dimension min_rank whose nonzero members
    all lie in the forbidden set (_coset_basis): its cosets are cliques,
    so opt <= 2^(n - min_rank) = lin.  The column bound is the coset
    certificate's coordinate-subspace case: the record's column floor is
    the dimension of the largest coordinate subspace inside K.  The
    ratio bound is 2^n unless K holds whole Hamming weight classes W,
    and then the smaller of
    Delsarte's LP bound on codes avoiding the distances W, whose dual is
    checked exactly before it is used, and Plotkin's bound on codes of
    the least distance outside W.  On code
    matrices K is a punctured Hamming ball, and the LP settles codes
    (5, 3), (6, 3), (7, 3), (8, 3) and others at the root, and Plotkin's
    bound settles (7, 4) and (8, 5).

    Otherwise exactly one exact search runs, in slices of ticks that
    double every round (_sliced_search).  Where every row is thin and
    distinct rows are few (_parity_choice_ready), it is a parity-choice
    search (_ParityChoiceSearch); elsewhere it is branch and bound over
    independent sets of the Cayley graph generated by the forbidden set
    (_OptSearch).  Either stops when it exhausts, or when its incumbent
    reaches the smaller of the column and ratio bounds, which proves it
    optimal.  Slices are counted in ticks, never in time, so the value
    and the witness do not depend on the host.  The engines adopt only
    strictly larger sets than the warm start, so the witness is the same
    kernel whenever opt = lin.  A search witness is verified before it
    is returned, whatever its size.  The parity search bounds each node
    of its last row but one by the last two rows together, with two
    relaxations and the roof-duality bound, one max-flow; a node that
    bound does not close is walked like any other, and the last row is
    settled by the larger side of each of its classes.

    When A has three distinct rows or more, a second parity search may
    take a turn before each slice, twice as long as that slice: on A
    without one row whose removal keeps min rank r (_row_subset).  Every
    solution of A is a solution of the rows kept, so an exhausted search
    there that finds nothing above lin proves opt(A) = lin, and the
    kernel is returned.  It shares no incumbent with A's engine, and it
    stops once either side finds a set above lin.

    Everything runs on min_rank_completion's record of A
    (partial._Completed), which A keeps once completed (by min_rank,
    report or conjecture_epsilon), else completed by this call; an equal
    but distinct matrix has a record of its own.  The record is the
    core's: A without its unused columns, dropped once, whose optimum
    times 2^(unused columns) is A's, every core solution crossed with
    every value of them.  The searches take the core's worklist, K and
    ratio bound from it, so min_rank followed by opt_exact on A builds
    each once and solves Delsarte's LP at most once.

    It refuses A.n > limit_n, and a core wider than the forbidden-set
    bitmap's _BITMAP_N columns, before it completes A.  Instances whose
    root bounds are not tight can still take more than a minute at n = 8.
    """
    if A.n > limit_n:
        raise LimitError(f"exact search over GF(2)^{A.n} exceeds n <= {limit_n}")
    _bitmap_cap(A._record.core.n)
    rec = _completed(A, deadline)
    rows, n, (r, _) = rec.rows, rec.core.n, rec.answer
    K = rec.K

    # a verified linear warm start: the kernel of a min-rank completion
    vbm = 1
    for b in kernel(GF2Matrix(n, tuple(rec.completed))).basis:
        vbm |= xor_translate(vbm, b, n)
    if vbm & K:  # pragma: no cover - would contradict the forbidden-set identity
        raise InternalError("kernel of a completion intersects the forbidden set")

    # root certificates: a subspace avoiding K is a solution, so a bound
    # meeting its size proves it optimal.  The column bound, the ratio
    # bound and the coset certificate are tried in turn, and the smaller
    # bound is the search's ceiling.
    lin = 1 << (n - r)
    floor = rec.column_floor
    if floor is None:  # past col_min_rank's cap: search A's distinct columns
        # under the deadline, up to r, as no more of them stay independent
        # in every completion; only their starred columns double the sums
        floor = _max_independent_rows(_distinct_rows(A.transpose()), _Deadline(deadline, n), r)
    ceiling = 1 << (n - floor)
    if ceiling > lin:
        ceiling = min(ceiling, rec.ratio)
    best, mask = lin, vbm
    if ceiling > lin and _coset_basis(K, n, r, deadline) is None:
        if _parity_choice_ready(rows):
            engine = _ParityChoiceSearch(rows, n, K, deadline)
            relaxed = _row_subset(rows, n, r, deadline)
        else:
            engine, relaxed = _OptSearch(n, K, deadline), None
        engine.ceiling = ceiling
        engine.seed(vbm)
        if relaxed is not None:
            # a relaxed set above lin proves nothing about A
            relaxed.ceiling = lin + 1
            relaxed.seed(vbm)
        _sliced_search(engine, relaxed, lin)
        best, mask = engine.best, engine.best_mask
        if mask.bit_count() != best:
            raise InternalError("witness size disagrees with the optimum")
        if not _avoids(mask, K, n):
            raise InternalError("witness fails the solution check")
    if not rec.dropped:
        return best, SolutionSet.of(_bits(mask), n)
    dropped = [_spread(d, rec.dropped) for d in range(1 << len(rec.dropped))]
    members = [x | d for x in (_spread(w, rec.kept) for w in _bits(mask)) for d in dropped]
    return best << len(rec.dropped), SolutionSet.of(members, A.n)


def _sliced_search(engine: _Engine, relaxed: _Engine | None, lin: int):
    """Run the engine in slices of ticks that start at _FIRST_SLICE and
    double every round, until it exhausts its search or its incumbent
    reaches its ceiling.  Either way its incumbent is then the value and
    the witness: the engine adopts only strictly larger sets, so an
    exhausted search would have ended with the same one.  Code (9, 4),
    where Plotkin's bound gives 6 = A(9, 5), stops at the vertex
    search's sixth tick; run to its end, that search takes 192,082
    ticks to return the same witness.

    `relaxed`, when given, searches a matrix made of some of A's rows
    (_row_subset), whose optimum is at least A's.  Most items that reach
    it have opt = lin, which only an exhausted search proves, and the
    relaxed one is often the shorter, so it takes its turn before each
    slice of the engine, twice as long as that slice (512 relaxed
    ticks, 256 of the engine, 1,024 relaxed, 512, ...), while the
    engine's incumbent is still lin.  Its ceiling is lin + 1, so a turn
    ends as soon as it holds a set above lin, and it is then dropped.
    If it exhausts with nothing above lin, opt(A) <= lin, so the
    engine's incumbent, which is still the warm start, is the witness.
    Otherwise the engine runs to the end that it reaches alone, so the
    relaxation changes ticks, never the value or the witness; its
    incumbent never reaches the engine, since it need not be a solution
    of A.  Three rows of H2, the 4x8
    ***1*111/100**0*1/**011110/11*0***1 (opt = lin = 32), exhaust in
    439 to 455 ticks, so H2's own engine takes none, where alone it
    takes 3,663.  Items the relaxation cannot settle pay for it: one
    whose relaxation holds a set above lin, as wherever opt > lin, pays
    the relaxed ticks it takes to find it (29 to 234 on the seeded
    matrices measured), and one that A's engine settles within its
    first slice pays a whole first turn of 512 ticks."""
    size = _FIRST_SLICE
    while True:
        if relaxed is not None and engine.best == lin:
            if relaxed.resume(relaxed.clock.ticks + 2 * size):
                if relaxed.best == lin:
                    return
                relaxed = None
        if engine.resume(engine.clock.ticks + size):
            return
        size *= 2


def _row_subset(rows, n: int, r: int, deadline: float | None) -> _Engine | None:
    """A parity engine on a worklist without one of its rows, or None.

    Each row's function depends only on that row's stars, so every
    solution of A is a solution of any matrix B made of some of A's rows:
    K(B) lies inside K(A) and opt(A) <= opt(B).  B can only certify
    opt(A) = lin = 2^(n - r) when it keeps min rank r, so the worklist is
    walked in order and B drops the first row without which no
    completion has rank below r.  The rank side decides that within
    _FIRST_SLICE ticks, and a row it does not settle in time is kept.
    Needs three distinct rows, so that B keeps the two the parity engine
    bounds together.
    """
    if len(rows) < 3:
        return None
    for i in range(len(rows)):
        rest = rows[:i] + rows[i + 1 :]
        search = _RankSide(rest, n, r - 1, _Deadline(deadline, n))
        if not search.resume(_FIRST_SLICE) or search.found is not None:
            continue
        return _ParityChoiceSearch(rest, n, _forbidden_bitmap(rest, n), deadline)
    return None


def brute_force_opt_tiny(A: PartialMatrix) -> int:
    """Maximum solution size by sheer enumeration, tiny instances only.

    Runs two independent routes and cross-checks them: operators against
    every completion, and operators against the canonical completion
    alone.  The two must agree; a mismatch is an internal error.
    """
    if A.n > 4 or A.m > 3:
        raise LimitError("matrix too large for the tiny brute force")
    if any(s.bit_count() > 2 for s in A.stars):
        raise LimitError("a row has too many stars for the tiny brute force")

    full = (1 << (1 << A.n)) - 1
    accepts = []
    for s in A.stars:
        classes = _star_classes(s, A.n)
        per_table = []
        for t in range(1 << len(classes)):
            acc = 0
            for ci, cls in enumerate(classes):
                if (t >> ci) & 1:
                    acc |= cls
            per_table.append(acc)
        accepts.append(per_table)

    def best_for(M: GF2Matrix) -> int:
        parities = [_parity_bitmap(row, A.n) for row in M.rows]
        best = 0
        for combo in product(*accepts):
            bm = full
            for i, accept in enumerate(combo):
                bm &= ~(parities[i] ^ accept)
                if bm == 0:
                    break
            got = bm.bit_count()
            if got > best:
                best = got
        return best

    over_all = max(best_for(M) for M in enumerate_completions(A))
    canonical_only = best_for(canonical_completion(A))
    if over_all != canonical_only:
        raise InternalError(
            "completion sweep and canonical-completion sweep disagree: "
            f"{over_all} vs {canonical_only}"
        )
    return over_all


def lin_exact(A: PartialMatrix) -> int:
    """Largest subspace solution, 2^(n - min rank), found with no deadline."""
    return 1 << (A.n - min_rank(A))


# ---------------------------------------------------------------------------
# separating rank via the kernel-side search


def separating_min_rank(A: PartialMatrix) -> int:
    """n minus the largest dimension of a subspace avoiding the forbidden set.

    The kernel-side search of min_rank_completion (_KernelSide) tries
    dimensions 1, 2, ... until none exists, since a subspace avoiding K
    has subspaces of every lower dimension that do too.
    """
    if A.n > _SUBSPACE_N:
        raise LimitError(f"subspace sweep over GF(2)^{A.n} exceeds n <= {_SUBSPACE_N}")
    K = _required_bitmap(A)
    dim = 0
    while dim < A.n and _KernelSide(K, A.n, dim + 1, _Deadline(None, A.n)).run() is not None:
        dim += 1
    return A.n - dim


# ---------------------------------------------------------------------------
# consistent operators


@dataclass(frozen=True)
class ConsistentOperator:
    """Row-wise functions of the star coordinates fitting a solution.

    tables[i] maps the packed star projection of x to the required value
    of row i; projections never seen in the fitted solution default to 0.
    """

    n: int
    star_masks: tuple[int, ...]
    tables: tuple[tuple[tuple[int, int], ...], ...]

    def component(self, i: int, x: int) -> int:
        p = _pack(x, list(_bits(self.star_masks[i])))
        for key, val in self.tables[i]:
            if key == p:
                return val
        return 0

    def apply(self, x: int) -> int:
        out = 0
        for i in range(len(self.star_masks)):
            out |= self.component(i, x) << i
        return out


def reconstruct_operator(A: PartialMatrix, L: SolutionSet | Iterable[int]) -> ConsistentOperator:
    """Fit row operators to L; raises OperatorConflict when none exist,
    and ValueError when a member lies outside GF(2)^n."""
    members = sorted(_members(L, A.n))
    tables = []
    for i in range(A.m):
        a, s = A.ones[i], A.stars[i]
        positions = list(_bits(s))
        seen: dict[int, tuple[int, int]] = {}
        for x in members:
            p = _pack(x, positions)
            val = dot(a, x)
            if p in seen:
                if seen[p][0] != val:
                    raise OperatorConflict(i, seen[p][1], x)
            else:
                seen[p] = (val, x)
        tables.append(tuple(sorted((p, v) for p, (v, _) in seen.items())))
    return ConsistentOperator(A.n, A.stars, tuple(tables))


# ---------------------------------------------------------------------------
# structure checks


def codistance(S: Subspace) -> int | None:
    """Minimum weight of a nonzero vector orthogonal to S; None if S is full."""
    return min_weight_nonzero(orthogonal_complement(S))


@dataclass(frozen=True)
class HullVerdict:
    applicable: bool
    conclusion_holds: bool
    max_stars_per_row: int
    codistance: int | None


def linear_hull_check(
    A: PartialMatrix, L: SolutionSet, W: Subspace
) -> HullVerdict:
    """Check the robust-subspace statement on a concrete instance.

    Premise: L is a solution for A and contains the subspace W whose
    codistance exceeds the largest per-row star count.  Conclusion: the
    linear span of L avoids the forbidden set, i.e. L sits inside a
    solution that is a subspace.  Raises ValueError when L is not a
    solution or W is not contained in L.
    """
    if not is_solution(A, L):
        raise ValueError("L is not a solution for A")
    for w in W.vectors():
        if w not in L.members:
            raise ValueError("W is not contained in L")
    s = max((s.bit_count() for s in A.stars), default=0)
    cod = codistance(W)
    applicable = cod is None or cod >= s + 1
    F = forbidden_set(A)
    holds = not any(map(F.contains, Subspace.span(L.members, A.n).vectors()))
    return HullVerdict(applicable, holds, s, cod)


# ---------------------------------------------------------------------------
# the conjectured exponent


def epsilon_of(n: int, opt: int, minrk: int) -> float | None:
    """The exponent ratio (n - log2 opt) / minrk; None when minrk = 0."""
    if minrk == 0:
        return None
    return (n - math.log2(opt)) / minrk


@dataclass(frozen=True)
class EpsilonRecord:
    """Exact witnesses for the exponent (n - log2 opt) / minrk."""

    n: int
    opt: int
    minrk: int

    @property
    def value(self) -> float:
        # conjecture_epsilon builds records only for minrk > 0
        return epsilon_of(self.n, self.opt, self.minrk)


def conjecture_epsilon(A: PartialMatrix) -> EpsilonRecord | None:
    """The observed exponent for A, or None when min rank is zero, that
    is, when no row fixes a one.  opt_exact, at its defaults, refuses
    A.n > 16 before anything completes A; its completion gives min rank."""
    if not any(A.ones):
        return None
    opt, _ = opt_exact(A)
    return EpsilonRecord(A.n, opt, min_rank(A))
