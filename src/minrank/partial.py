"""Partial (0,1,*) matrices over GF(2) and their completion ranks.

A partial matrix stores, per row, the mask of fixed ones and the mask of
star positions; the two masks are disjoint.  A completion replaces every
star independently by 0 or 1, so row i of any completion lies in the
coset a_i + span{e_j : j in S_i}.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .errors import InternalError, LimitError
from .gf2 import (
    GF2Matrix,
    _bits,
    _columns,
    _half_mask,
    _pack,
    _ratio_bound,
    _spread,
    _weight_classes,
    dot,
    reduce_vector,
    rref,
    solve,
    xor_translate,
)

__all__ = [
    "PartialMatrix",
    "IsolationWitness",
    "canonical_completion",
    "enumerate_completions",
    "min_rank",
    "min_rank_completion",
    "max_rank",
    "star_matching",
    "line_cover_number",
    "stars_independent",
    "max_independent_rows",
    "row_min_rank",
    "col_min_rank",
    "isolation",
    "is_star_monotone",
]


@dataclass(frozen=True)
class PartialMatrix:
    """An m x n matrix with entries 0, 1, or star.

    ones[i] holds the 1 entries of row i, stars[i] the star positions;
    a position in neither mask is a fixed 0.
    """

    n: int
    ones: tuple[int, ...]
    stars: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one column")
        if len(self.ones) != len(self.stars):
            raise ValueError("ones and stars must pair up row by row")
        mask = (1 << self.n) - 1
        for a, s in zip(self.ones, self.stars):
            if a < 0 or s < 0 or (a | s) & ~mask:
                raise ValueError("row has bits outside the declared width")
            if a & s:
                raise ValueError("a position cannot be both fixed and star")

    @property
    def m(self) -> int:
        return len(self.ones)

    @property
    def star_count(self) -> int:
        return sum(s.bit_count() for s in self.stars)

    @cached_property
    def _record(self) -> "_Completed":
        # min_rank_completion's record, in __dict__: ==, hash and repr ignore it
        return _Completed(self)

    def transpose(self) -> "PartialMatrix":
        """Columns become rows, stars staying stars."""
        m, low = self.m, (1 << self.m) - 1
        cols = _columns(self.ones + self.stars, self.n)  # the stars from bit m on
        ones = tuple([c & low for c in cols])
        return PartialMatrix(max(m, 1), ones, tuple([c >> m for c in cols]))


@dataclass(frozen=True)
class IsolationWitness:
    """Vectors z_1..z_m certifying an isolation property row by row."""

    vectors: tuple[int, ...]
    strong: bool


# total stars for completion enumeration, starred lines for max_rank's
# line-cover scan, and vectors for stars_independent's check
_STARS = 24
# distinct rows for row_min_rank, and distinct columns for col_min_rank
_SUBSET_ROWS = 20


def canonical_completion(A: PartialMatrix) -> GF2Matrix:
    """The completion with every star set to 0."""
    return GF2Matrix(A.n, A.ones)


def enumerate_completions(A: PartialMatrix) -> Iterator[GF2Matrix]:
    """Yield all 2^(#stars) completions, star positions filled row-major."""
    positions = [
        (i, j) for i in range(A.m) for j in range(A.n) if (A.stars[i] >> j) & 1
    ]
    k = len(positions)
    if k > _STARS:
        raise LimitError(f"enumerating 2^{k} completions exceeds the {_STARS}-star cap")
    for fill in range(1 << k):
        rows = list(A.ones)
        for t, (i, j) in enumerate(positions):
            if (fill >> t) & 1:
                rows[i] |= 1 << j
        yield GF2Matrix(A.n, tuple(rows))


# ---------------------------------------------------------------------------
# minimum rank over completions


def _prepare_rows(A: PartialMatrix):
    """Dedupe rows, drop all-star-or-zero rows, sort by star count.

    Rows with no fixed ones always admit the zero completion, which lies
    in every span, so they never force rank.  Returns the worklist, the
    distinct (ones, stars) rows in a stable sort by star count, so rows
    with equal counts keep the order of their first occurrence, plus a
    map from each original row index to its worklist slot (or None).
    """
    pairs = list(zip(A.ones, A.stars))
    rows = sorted(dict.fromkeys(p for p in pairs if p[0]), key=lambda p: p[1].bit_count())
    slot = {p: t for t, p in enumerate(rows)}
    return rows, [slot.get(p) for p in pairs]


# The rank side's memos, on (stars s, basis vectors whose pivot s stars): a
# search of the benchmark's workloads meets at most 288 keys, the seed-0
# sweep 4,069 in all, and code (13, 2) at target 3 44,240 in 120,000 ticks.
@lru_cache(maxsize=4096)
def _cleared_basis(s: int, starred: tuple[int, ...]) -> tuple[int, ...]:
    """Rref of the vectors `starred` with the stars s cleared."""
    return rref([b & ~s for b in starred])


@lru_cache(maxsize=4096)
def _star_basis(s: int, basis: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Rref, with generating star sets, of {e_j mod basis : j in stars}.

    In an rref basis e_j reduces to itself, or, when j is the pivot of
    b, to b with its pivot cleared, so of the basis only the vectors
    whose pivot s stars matter, and `basis` may hold just those.  The
    vectors come in no particular order: each pivot lies in exactly one
    of them, so reducing against them and enumerating their span give
    the same result in any order.
    """
    starred = {p: b for b in basis if (p := b & -b) & s}
    red: list[tuple[int, int]] = []  # (vector, star subset that generates it)
    for j in _bits(s):
        t = 1 << j
        v = starred.get(t, 0) ^ t
        for bv, bt in red:
            if v & (bv & -bv):
                v ^= bv
                t ^= bt
        if v == 0:
            continue
        p = v & -v
        for k, (bv, bt) in enumerate(red):
            if bv & p:
                red[k] = (bv ^ v, bt ^ t)
        red.append((v, t))
    return tuple(red)


def _insert(basis: tuple[int, ...], v: int) -> tuple[int, ...]:
    # v is already reduced against basis and nonzero; the pivots ascend
    p = v & -v
    rows = [b ^ v if b & p else b for b in basis]
    i = len(rows)
    while i and rows[i - 1] & -rows[i - 1] > p:
        i -= 1
    rows.insert(i, v)
    return tuple(rows)


class _Deadline:
    """The one search clock type, a tick count with an optional deadline;
    each search that counts ticks builds its own.

    The deadline is read every 2^(10 - n) ticks, and every tick from
    n = 10 on, so a search over GF(2)^n ends within a millisecond or two
    of its deadline.  On the opt engines of the seed-0 sweep items,
    99% of ticks cost at most about 0.10 ms at n = 8 and 0.07 ms at
    n = 12.  The costliest are the parity engine's two-row bounds, where
    a tick covers the bit-sliced count of the finish's cells with its
    relaxations and flow network, or one phase of its roof-bound flow.  A tick of
    min_rank_completion's rank side costs about 4 us at n = 8 and 6 to
    7 us at n = 12 to 14 on seeded star-heavy matrices.  A check that
    reads the clock costs about 0.3 us (2-core x86 box, Python 3.11).
    """

    def __init__(self, deadline: float | None, n: int):
        self.deadline = deadline
        self.ticks = 0
        self._mask = (1 << max(0, 10 - n)) - 1

    def check(self):
        self.ticks += 1
        if self.ticks & self._mask == 0 and self.deadline is not None:
            self.check_time()

    def check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise LimitError("deadline exceeded")


def _join(basis: tuple[int, ...], pivots: int, sums: list, a: int, s: int):
    """The state (basis, pivots, sums) with (a, s) joined, or None when
    some completion makes (a, s) dependent on it: an rref basis of the
    star-free vectors (and of any span taken modulo), its pivot mask, and
    the subset sums (x, o) of the starred ones, x reduced modulo it, so
    x ^ a lies in the span plus the stars o | s iff its part off o | s
    lies in the span of the b & ~(o | s) whose pivot o | s stars.  Only a
    starred vector doubles the sums; a star-free one joins the basis."""
    a = reduce_vector(a, basis)
    fresh = []
    for x, o in sums:
        nx, no = x ^ a, o | s
        r = nx & ~no
        if r and no & pivots:  # r modulo the b & ~no whose pivot no stars
            ech = []
            for b in basis:
                if b & -b & no and (v := reduce_vector(b & ~no, ech)):
                    ech.append(v)
                    if r & v & -v:
                        r ^= v
        if r == 0:
            return None
        fresh.append((nx, no))
    if s:
        return basis, pivots, sums + fresh
    p = a & -a
    return _insert(basis, a), pivots | p, [(x ^ a, o) if x & p else (x, o) for x, o in sums]


def _forced_independent(rows, start: int, basis: tuple[int, ...], need: int) -> int:
    """Greedy count, capped at `need`, of rows[start:] that stay
    independent modulo span(basis) in every completion (_join)."""
    pivots = 0
    for b in basis:
        pivots |= b & -b
    sums = [(0, 0)]
    count = 0
    for a, s in rows[start:]:
        if joined := _join(basis, pivots, sums, a, s):
            basis, pivots, sums = joined
            count += 1
            if count >= need:
                break
    return count


class _Decider:
    """A search on an explicit stack, paused as the opt engines are:
    resume(stop) runs it until it ends (True) or just before the tick
    that would pass `stop` (False), and a later call goes on from there.
    `found` is then its result, or None; run() searches to the end."""

    found = None

    def run(self):
        self.resume(None)
        return self.found


class _RankSide(_Decider):
    """A completion of the worklist spanning at most `target` dimensions,
    as its list of completed rows.

    Depth-first over rows.  When some completion of the current row
    already lies in the running span we take it and never branch: any
    completion reachable by growing the span is also reachable after
    staying inside it.  Otherwise each branch adjoins one coset
    representative, tried in ascending vector order.

    Before a node branches it is cut when more than room = target -
    dim(span) of the rows still to place are independent modulo the span
    in every completion (_forced_independent, by _join): every completion
    below it outgrows the target.  Such a node holds no completion, so
    the cut leaves the search order and the result unchanged.  The test
    runs only at nodes with at most n rows still to place, so its cost
    per node does not grow with m on tall matrices, where it seldom
    cuts, and more than room of them, as fewer cannot outgrow it.

    A node reads the basis once, for its row's ones reduced (ra) and
    the basis vectors whose pivot the row stars.  As ra is zero on every
    pivot, some completion of the row lies in the span iff ra & ~s lies
    in the span of those vectors with the stars cleared (_cleared_basis),
    so a node that is cut needs no star basis (_star_basis); it names
    the stars of that completion or lists the branches, and a row that
    stars no pivot branches over the subsets of its stars at once.  Both
    are bounded functools caches on (s, the starred basis vectors).

    Each node entered takes a tick.  The search keeps its stack and
    nothing else: a node proven empty is not recorded, as one met again
    fails again in the same order.
    """

    def __init__(self, rows, n: int, target: int, clock: _Deadline):
        self.rows, self.n, self.target, self.clock = rows, n, target, clock
        # a frame is (idx, basis, branches, k): once the node is entered,
        # branches lists (vector adjoined or None, stars set), k taken
        self._stack = [(0, (), None, 0)]

    def resume(self, stop: int | None) -> bool:
        stack, clock, end = self._stack, self.clock, len(self.rows)
        while stack:
            idx, basis, branches, k = stack[-1]
            if idx == end:  # the rows as the open branches complete them
                self.found = [self.rows[i][0] ^ b[j - 1][1] for i, _, b, j in stack[:-1]]
                stack.clear()
                return True
            if branches is None:
                if stop is not None and clock.ticks >= stop:
                    return False
                clock.check()
                branches = self._branches(idx, basis)
            if k == len(branches):
                stack.pop()
                continue
            u = branches[k][0]
            stack[-1] = (idx, basis, branches, k + 1)
            stack.append((idx + 1, basis if u is None else _insert(basis, u), None, 0))
        return True

    def _branches(self, idx: int, basis: tuple[int, ...]) -> list:
        rows, n = self.rows, self.n
        a, s = rows[idx]
        ra, starred = a, ()  # a reduced, and the basis vectors with a starred pivot
        for b in basis:
            p = b & -b
            if ra & p:
                ra ^= b
            if s & p:
                starred += (b,)
        w = ra & ~s
        if starred:
            w = reduce_vector(w, _cleared_basis(s, starred))
        room = self.target - len(basis)
        if w and (
            room <= 0
            or (room < len(rows) - idx <= n and _forced_independent(rows, idx, basis, room + 1) > room)
        ):
            return []
        if w and not starred:  # the stars' unit vectors: ra ^ u over u within s, ascending
            t, u, out = ra & s, 0, [(w, ra & s)]
            while u != s:
                u = (u - s) & s
                out.append((w | u, u ^ t))
            return out
        red = _star_basis(s, starred)
        if w == 0:
            t = 0
            for bv, bt in red:
                if ra & (bv & -bv):
                    ra ^= bv
                    t ^= bt
            return [(None, t)]
        span = [(ra, 0)]
        for bv, bt in red:
            span += [(u ^ bv, ut ^ bt) for u, ut in span]
        span.sort()
        return span


def _forbidden_bitmap(rows, n: int) -> int:
    """Bitmap of the forbidden set of (fixed ones, stars) rows: every x
    that vanishes on the stars of some row and has odd inner product with
    that row's fixed ones, built per row by doubling over the coordinates
    outside its stars (`van`: the x so far that vanish on them)."""
    bm = 0
    for a, s in rows:
        odd, van, size = 0, 1, 1
        for j in range(n if a else 0):
            if not s >> j & 1:
                odd |= (odd ^ van if a >> j & 1 else odd) << size
                van |= van << size
            size <<= 1
        bm |= odd
    return bm


class _KernelSide(_Decider):
    """The first subspace of GF(2)^n of dimension `dim` with no member in
    K, as its reduced echelon basis.

    Bases are visited in ascending order, each subspace once: the pivot of
    a vector is its high bit, basis vectors ascend, and each one is zero
    on the pivots before it.  `cand` holds the x with x ^ v outside K for
    every v in the span built so far; adjoining b keeps cand & (cand ^ b).
    The nonzero vectors that the rest of the basis spans lie in cand,
    above the last pivot and zero on every pivot so far, so a node with
    fewer than 2^(dim - k) - 1 such candidates is cut (k vectors built).
    Each candidate tried takes a tick; entering a node takes none.

    Some completion has rank at most n - dim iff such a subspace avoids
    the forbidden set, so min_rank_completion and separating_min_rank
    decide min rank with it; opt_exact's coset certificate
    (solutions._coset_basis) finds its U as one avoiding the rest.
    """

    def __init__(self, K: int, n: int, dim: int, clock: _Deadline):
        self.n, self.dim, self.clock = n, dim, clock
        full = (1 << (1 << n)) - 1
        # a frame is [cand, k, allowed, xs, left, x], a node built on _path[:k]:
        # xs yields its candidates, `left` of them from x on; x awaits a tick
        self._stack: list = []
        self._path: list[int] = []
        self._enter(full & ~K, 0, full ^ 1)

    def _enter(self, cand: int, k: int, allowed: int):
        nxt = cand & allowed
        left = nxt.bit_count()
        if left < (1 << (self.dim - k)) - 1:
            return
        if k + 1 < self.dim:
            self._stack.append([cand, k, allowed, _bits(nxt), left, None])
            return
        last = [(nxt & -nxt).bit_length() - 1] if k < self.dim else []
        self.found = tuple(self._path[:k] + last)
        self._stack.clear()

    def resume(self, stop: int | None) -> bool:
        stack, path, clock, n, dim = self._stack, self._path, self.clock, self.n, self.dim
        while stack:
            frame = stack[-1]
            cand, k, allowed, xs, left, x = frame
            if x is None:  # at least 2^(dim - k) - 2 candidates are left
                x = next(xs)
            if stop is not None and clock.ticks >= stop:
                frame[5] = x
                return False
            clock.check()
            if left < (1 << (dim - k)) - 1:
                stack.pop()
                continue
            frame[4:] = left - 1, None
            del path[k:]
            path.append(x)
            top = 1 << x.bit_length()  # the first vector above x's pivot
            rest = (allowed & _half_mask(n, x.bit_length() - 1)) >> top << top
            self._enter(cand & xor_translate(cand, x, n), k + 1, rest)
        return True


def _orthogonal_completion(rows, n: int, V: tuple[int, ...]) -> list[int]:
    """The completion of every (fixed ones, stars) row that is orthogonal
    to each vector of V, its stars the canonical solution of one GF(2)
    system: stars x within s with <x, v> = <a, v> for every v in V.

    The system (v_i & s) | e_{n+i} is reduced once per star set s, so
    each reduced row's bits from n on name its combination of V, whose
    parity against a is its right-hand side; free stars stay zero.

    Row (a, s) has no such completion iff some member of span(V)
    vanishes on s and is odd against a, i.e. lies in the row's forbidden
    set, so a V that avoids the forbidden set completes every row.
    """
    systems: dict[int, tuple[int, ...]] = {}
    out = []
    for a, s in rows:
        system = systems.get(s)
        if system is None:
            system = systems[s] = rref((v & s) | 1 << (n + i) for i, v in enumerate(V))
        rhs = sum(dot(a, v) << i for i, v in enumerate(V)) << n
        x = 0
        for r in system:
            if dot(r, rhs):
                p = r & -r
                if p >> n:  # a combination of V that vanishes on s
                    raise InternalError("the subspace found meets a row's forbidden set")
                x |= p
        out.append(a ^ x)
    return out


# min_rank_completion races the kernel side only on cores this
# narrow.  On seeded star-heavy matrices a kernel-side tick costs about
# 6 us up to n = 12 and 16 us at n = 14, a rank-side tick about 4 us at
# n = 8 and 6-7 us at n = 12-14, and building K and its ratio bound
# 13, 20, 25 and 46 us at n = 8, 10, 12 and 14 (3-8 rows, 60% stars,
# median of 12).  From n = 9 to 12 the race settles code (n, 2) in
# 0.01-0.03 s, where the rank side alone takes 27 s on code (9, 2).  Over 450 seeded random 3-8 x 9-12
# and 10-24 x 9-12 star-heavy matrices with a 5 s deadline each, it cut
# the total time from 80 s to 58 s, measured when a rank-side tick cost
# 13-19 us at n = 12-14.  Where the kernel side proves nothing the rank
# side gets half the ticks: 6 of the matrices got more than 1.5 times
# slower, one 17 x 12 from 3.5 s to 5.6 s (2-core x86 box, Python 3.11).
_KERNEL_SIDE_N = 12

# The first slice of opt_exact's engines, vertex or parity, in ticks; it
# doubles every round, and the relaxed parity engine's turn before each
# slice is twice as long.  opt_exact's row-subset check also gives each
# row this many ticks, and min_rank_completion's race caps its first
# slice at it.  A first slice of 256 parity-engine ticks takes 1 to 10
# ms on the parity-ready 4x8, 5x10 and 6x12 items of the seed-0 sweep
# that reach it (2-core x86 box, Python 3.11).
_FIRST_SLICE = 256


def _drop_unused_columns(A: PartialMatrix) -> tuple[PartialMatrix, list[int], list[int]]:
    """Split off columns that no row fixes or stars.

    Such a coordinate is zero in every completion and never matters to
    the forbidden set, so the optimum factors: every solution of the
    core can be crossed with all values of the unused coordinates.
    """
    used = 0
    for a, s in zip(A.ones, A.stars):
        used |= a | s
    kept = [j for j in range(A.n) if (used >> j) & 1]
    dropped = [j for j in range(A.n) if not (used >> j) & 1]
    if not dropped or not kept:
        return A, list(range(A.n)), []
    core = PartialMatrix(
        len(kept),
        tuple(_pack(a, kept) for a in A.ones),
        tuple(_pack(s, kept) for s in A.stars),
    )
    return core, kept, dropped


class _Completed:
    """min_rank_completion's record of one matrix A, built on its core:
    A without its unused columns, dropped once (_drop_unused_columns).
    It holds the core, its worklist and remap (_prepare_rows), and,
    once _complete has searched to the end, A's column floor
    (col_min_rank(A), None past its cap), A's answer (min rank,
    completion) and the worklist as completed.
    The core's forbidden set K and ratio bound (Delsarte's and
    Plotkin's bounds on the weight classes K holds whole,
    gf2._ratio_bound) are built the first time the column floor, the
    race or opt_exact reads them, so min_rank followed by opt_exact or
    report builds each once per matrix; the floor reads this K on every
    core up to _SUBSET_ROWS columns wide.  A keeps its record (A._record)
    while it lives; an equal but distinct matrix completes on its own.  The answer does not
    depend on the deadline, so the record is exact, and a call refused
    by its deadline stores neither the floor nor the answer.
    """

    def __init__(self, A: PartialMatrix):
        self.A = A
        self.core, self.kept, self.dropped = _drop_unused_columns(A)
        self.rows, self.remap = _prepare_rows(self.core)
        # set when the race ends
        self.column_floor, self.answer, self.completed = None, None, []

    @cached_property
    def K(self) -> int:
        return _forbidden_bitmap(self.rows, self.core.n)

    @cached_property
    def ratio(self) -> int:
        return _ratio_bound(self.K, self.core.n)


def _completed(A: PartialMatrix, deadline: float | None = None) -> _Completed:
    """A's record, completed by a search (_complete) while it has no
    answer.  A call refused by its deadline leaves none, so the next
    call searches again; threads that search at once store equal answers."""
    rec = A._record
    if rec.answer is None:
        _complete(rec, deadline)
    return rec


def min_rank_completion(
    A: PartialMatrix, deadline: float | None = None
) -> tuple[int, GF2Matrix]:
    """Minimum rank over all completions, with a completion attaining it.

    Exact: iterative deepening on the target rank, so the first target
    that admits a completion is the minimum.  Deepening starts at
    col_min_rank(A), a proven lower bound: the dimension of the largest
    coordinate subspace inside K, read off K with no search
    (_column_floor; 0 past its cap).  Two exact deciders race on
    each target t:

    * the rank side, _RankSide, a depth-first search for the
      completion itself that cuts every node whose remaining rows are
      forced to outgrow t;
    * the kernel side, _KernelSide, a search for a subspace of
      dimension n - t avoiding the forbidden set K, which exists iff some
      completion has rank at most t.

    The rank side runs first, in slices of ticks that double, and after
    each slice it does not finish the kernel side gets an equal slice;
    each side resumes where its last slice ended.  The first slice is
    min(256, max(16, n * 2^n / 128)) ticks: 16 up to n = 8, 36 to 176 at
    n = 9 to 11, and 256 from n = 12 on, so that the rank side, which
    needs no K, spends at least what building K and its ratio bound
    costs before the kernel side is tried (_KERNEL_SIDE_N gives both
    costs).  The rank side enters one node, and so
    takes one tick, per worklist row before it can return a completion,
    so on a worklist longer than the first slice that slice could only
    refute the target.  There the kernel side takes the first turn
    instead, and the rank side follows with the doubled slice.  On every
    code matrix up to n = 8 with more than 16 rows, the kernel side
    settles the min rank in that first turn, within 0 to 3 ticks.
    Only cores with n <= 12 race; wider ones run the rank side alone.
    The first time a matrix reaches the kernel side, K is built and the
    floor rises to n - floor(log2 of K's ratio bound), since
    2^(n - min rank) = lin <= opt <= the ratio bound: the smaller of
    Delsarte's and Plotkin's bounds when K holds whole Hamming weight
    classes, else 2^n (gf2._ratio_bound).  On code matrices that floor is the min rank itself, so the race
    searches no lower target.  If the kernel side proves t infeasible, t
    is skipped; if it finds a subspace V first, every row gets the stars
    that make it orthogonal to V (_orthogonal_completion).  That
    completion's kernel contains V and every lower target is refuted,
    so its rank is t and its kernel is span(V).  Both sides count ticks,
    not time: a deadline can end the call, not change it.

    All of this runs on A's core, n columns wide: the columns that no row
    fixes or stars are zero in every completion, so they are dropped
    once, at the start, and the completion gets them back as zeros.  A
    keeps its record (_Completed), on that core, while it lives: a second
    call on A returns the answer without searching again, while an equal
    but distinct matrix completes on its own.  opt_exact reads the rest,
    so min_rank followed by opt_exact on A builds the worklist, K and the
    ratio bound once each, and solves Delsarte's LP at most once.
    """
    return _completed(A, deadline).answer


def _complete(rec: _Completed, deadline: float | None):
    """min_rank_completion's search: stores the column floor
    (_column_floor, read off K before the race) and the answer in rec,
    together, once the race ends."""
    rows, n = rec.rows, rec.core.n
    column_floor = _column_floor(rec.A)
    clock = _Deadline(deadline, n)
    floor = column_floor or 0

    def decide(target: int):
        nonlocal floor
        rank_side = _RankSide(rows, n, target, clock)
        if n > _KERNEL_SIDE_N:
            return rank_side.run()
        kernel_side, budget = None, min(_FIRST_SLICE, max(16, (n << n) >> 7))
        # the rank side enters one node per row before it can complete, so
        # a shorter first slice could only refute: the kernel side goes first
        lead = len(rows) <= budget
        while not (lead and rank_side.resume(clock.ticks + budget)):
            lead = True
            clock.check_time()
            floor = max(floor, n + 1 - rec.ratio.bit_length())
            if target < floor:
                return None
            kernel_side = kernel_side or _KernelSide(rec.K, n, n - target, clock)
            if kernel_side.resume(clock.ticks + budget):
                V = kernel_side.found
                return None if V is None else _orthogonal_completion(rows, n, V)
            budget *= 2
        return rank_side.found

    target = floor
    while (found := decide(target)) is None:
        target = max(target + 1, floor)
    rec.column_floor, rec.completed = column_floor, found
    if rec.dropped:
        found = [_spread(w, rec.kept) for w in found]
    full = [0 if t is None else found[t] for t in rec.remap]
    rec.answer = target, GF2Matrix(rec.A.n, tuple(full))


def min_rank(A: PartialMatrix, deadline: float | None = None) -> int:
    """Minimum rank over all completions."""
    return min_rank_completion(A, deadline)[0]


# ---------------------------------------------------------------------------
# maximum rank and star covers


def max_rank(A: PartialMatrix) -> int:
    """Maximum rank over all completions.

    No completion has rank above min(m, n), so a greedy completion
    answers first when it reaches that: row by row, it keeps a row that
    leaves the span of those kept, else sets one star whose direction
    leaves it.  On tall code matrices it always does.  Otherwise it
    uses the line-cover identity: the maximum equals the minimum over
    line sets X covering all stars of rank(A with X removed) + |X|.
    Removing a line with no star never lowers rank + |X|, so the scan
    runs over the subsets of the star-bearing lines of whichever side
    has fewer, each with every crossing line that its kept lines' stars
    force: 2^k rank computations for k such lines, at most _STARS = 24
    of them, so a matrix with at most 24 stars is never refused.  The
    cap is checked before the greedy completion runs.
    """
    columns = 0
    for s in A.stars:
        columns |= s
    B = A if sum(1 for s in A.stars if s) <= columns.bit_count() else A.transpose()
    starred = [(a, s) for a, s in zip(B.ones, B.stars) if s]
    if len(starred) > _STARS:
        raise LimitError(f"line-cover scan over {len(starred)} starred lines exceeds {_STARS}")
    best = min(B.m, B.n)
    basis: tuple[int, ...] = ()
    for a, s in zip(A.ones, A.stars):
        v = reduce_vector(a, basis)
        if v == 0:  # a star direction that leaves the span, if any
            v = next((u for j in _bits(s) if (u := reduce_vector(1 << j, basis))), 0)
        if v:
            basis = _insert(basis, v)
            if len(basis) == best:
                return best
    plain = [a for a, s in zip(B.ones, B.stars) if not s]
    for removed in range(1 << len(starred)):
        cost = removed.bit_count()
        if cost >= best:
            continue
        forced = 0
        rows = list(plain)
        for i, (a, s) in enumerate(starred):
            if not (removed >> i) & 1:
                forced |= s
                rows.append(a)
        cost += forced.bit_count()
        if cost < best:
            best = min(best, cost + len(rref([a & ~forced for a in rows])))
    return best


def star_matching(A: PartialMatrix) -> tuple[tuple[int, int], ...]:
    """A maximum matching of star positions, as (row, column) pairs.

    Augmenting-path search; rows are tried in order and columns in
    ascending index, so the result is deterministic.  It stops once every
    star column is matched, as a failed try changes no match.
    """
    match_col: dict[int, int] = {}

    def try_row(i: int, seen: set[int]) -> bool:
        for j in _bits(A.stars[i]):
            if j in seen:
                continue
            seen.add(j)
            if j not in match_col or try_row(match_col[j], seen):
                match_col[j] = i
                return True
        return False

    star_columns = 0
    for s in A.stars:
        star_columns |= s
    for i in range(A.m):
        if len(match_col) == star_columns.bit_count():
            break
        try_row(i, set())
    return tuple(sorted((i, j) for j, i in match_col.items()))


def line_cover_number(A: PartialMatrix) -> int:
    """Minimum number of lines (rows or columns) covering every star.

    Equals the maximum star matching by Konig's theorem.
    """
    return len(star_matching(A))


# ---------------------------------------------------------------------------
# independence of (0,1,*) vectors


def stars_independent(rows: Sequence[tuple[int, int]]) -> bool:
    """Whether a set of (0,1,*) vectors is independent.

    A set is dependent iff some nonempty subset can be completed to sum
    to zero, i.e. the xor of its fixed parts vanishes outside the union
    of its star masks.  The set is independent iff the greedy count of
    _forced_independent, over no basis, keeps every vector; only the
    starred ones double its subset sums (_join), in whatever order.
    """
    k = len(rows)
    if k > _STARS:
        raise LimitError(f"independence check over {k} vectors exceeds {_STARS}")
    return _forced_independent(rows, 0, (), k) == k


def max_independent_rows(rows: Sequence[tuple[int, int]]) -> int:
    """Size of the largest independent subset of (0,1,*) vectors.

    Depth-first over the rows in order, joining each candidate to the
    chosen set (_join), so only chosen starred rows double the subset
    sums.  The rows of an independent set are pairwise independent, so a
    node keeps as candidates only the later rows that pair with every
    chosen one, and is cut when even all of them would not beat the best.
    No completion spans more dimensions than the coordinates that some
    row fixes or stars, so the search stops once it holds that many.
    """
    return _max_independent_rows(rows, _Deadline(None, 0), len(rows))


def _max_independent_rows(rows: Sequence[tuple[int, int]], clock: _Deadline, stop: int) -> int:
    """max_independent_rows under the deadline of a search clock, read at
    each node but taking no tick, stopping once it holds `stop` rows.
    The best starts at the rank of the star-free rows, which stay
    independent in every completion."""
    k = len(rows)
    used = 0
    for a, s in rows:
        used |= a | s
    cap = min(stop, used.bit_count())
    # pairs[i]: the later rows j with {i, j} independent
    pairs = [0] * k
    alone = 0  # the rows independent on their own
    for i, (a, s) in enumerate(rows):
        if a & ~s:
            alone |= 1 << i
            for j in range(i + 1, k):
                b, t = rows[j]
                if (a ^ b) & ~(s | t) and b & ~t:
                    pairs[i] |= 1 << j
    best = min(cap, len(rref(a for a, s in rows if not s)))

    def extend(cand: int, state: tuple, size: int):
        nonlocal best
        if size > best:
            best = size
        clock.check_time()
        basis, pivots, sums = state
        while cand and best < cap and size + cand.bit_count() > best:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            a, s = rows[i]
            if joined := _join(basis, pivots, sums, a, s):
                extend(cand & pairs[i], joined, size + 1)

    extend(alone, ((), 0, [(0, 0)]), 0)
    return best


def _distinct_rows(A: PartialMatrix) -> list[tuple[int, int]]:
    # duplicate (0,1,*) vectors can never both sit in an independent set
    return list(dict.fromkeys(zip(A.ones, A.stars)))


def row_min_rank(A: PartialMatrix) -> int:
    """Largest number of rows that stay independent in every completion;
    a lower bound for min_rank: col_min_rank of the transpose."""
    return col_min_rank(A.transpose())


def col_min_rank(A: PartialMatrix) -> int:
    """Largest number of columns that stay independent in every
    completion; a lower bound for min_rank.

    A set C of columns stays independent in every completion iff every
    nonzero x supported on C lies in the forbidden set K: a completion
    maps x to zero unless some row vanishes on its stars at x and is odd
    against its fixed ones.  So the floor is the dimension of the
    largest coordinate subspace inside K | {0}, read with no search:
    after one subset-AND pass per coordinate, bit C of H = K | 1 says
    that every subset of C lies in K | {0}, and the floor is the largest
    weight H keeps: H holds every subset of what it holds, so the first
    weight it misses ends the scan.  Equal columns never both stay
    independent, nor does their sum lie in K, so K is the core's own
    (A._record.K), which min_rank and opt_exact read too, unless the
    core is wider than _SUBSET_ROWS columns; then it is that of A's
    distinct nonzero columns.  It refuses past _SUBSET_ROWS distinct
    columns, the all-zero one counted, before it builds anything, so no
    K wider than that is built for it.
    """
    if A.n > _SUBSET_ROWS:
        cols = list(dict.fromkeys(_columns(A.ones + A.stars, A.n)))
        if len(cols) > _SUBSET_ROWS:
            raise LimitError(f"row search over {len(cols)} distinct rows exceeds {_SUBSET_ROWS}")
    rec = A._record
    n = rec.core.n
    if n <= _SUBSET_ROWS:
        K = rec.K
    else:  # A.n > _SUBSET_ROWS too: the rows of A's distinct nonzero columns
        cols = [c for c in cols if c]
        lines, n = _columns(tuple(cols), 2 * A.m), len(cols)  # ones, then stars
        K = _forbidden_bitmap(zip(lines[: A.m], lines[A.m :]), n)
    H = K | 1
    for j in range(n):
        z = _half_mask(n, j)
        H &= z | (H & z) << (1 << j)
    classes = _weight_classes(n)
    w = 0
    while w < n and H & classes[w + 1]:
        w += 1
    return w


def _column_floor(A: PartialMatrix) -> int | None:
    """col_min_rank(A), or None past its cap."""
    try:
        return col_min_rank(A)
    except LimitError:
        return None


# ---------------------------------------------------------------------------
# isolation certificates


def isolation(A: PartialMatrix, strong: bool = False) -> IsolationWitness | None:
    """Vectors z_i with <a_i, z_i> = 1, <a_j, z_i> = 0 for j < i, and
    z_i zero on the stars of row i (of rows j <= i when strong).

    Existence forces every completion to have rank m.  Returns None when
    some row admits no such vector.  The matrix (<a_j, z_i>) of such
    vectors is unitriangular, so the rows of ones must be independent:
    when m > n, or when they are dependent, it returns None without
    solving a system.
    """
    if A.m > A.n or len(rref(A.ones)) < A.m:
        return None
    zs = []
    for i in range(A.m):
        smask = A.stars[i]
        if strong:
            for j in range(i):
                smask |= A.stars[j]
        rows = [1 << j for j in range(A.n) if (smask >> j) & 1]
        rows += [A.ones[j] for j in range(i + 1)]
        b = 1 << (len(rows) - 1)
        z = solve(GF2Matrix(A.n, tuple(rows)), b)
        if z is None:
            return None
        zs.append(z)
    return IsolationWitness(tuple(zs), strong)


def is_star_monotone(A: PartialMatrix) -> bool:
    """Whether the star masks can be ordered into a chain under inclusion."""
    masks = sorted(A.stars, key=lambda s: s.bit_count())
    return all(a & ~b == 0 for a, b in zip(masks, masks[1:]))
