"""Exact linear algebra over GF(2) on bit-packed vectors.

A vector in GF(2)^n is a Python int: bit j of the int is coordinate j,
so the bitstring "1100" parses to the int 3.  Ints cannot carry their
own length, so matrices and subspaces store an explicit column count n
and every routine takes n from there.  "Smallest" or "lexicographically
first" always means smallest under this integer encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .errors import InternalError, LimitError

__all__ = [
    "vec",
    "vec_text",
    "dot",
    "GF2Matrix",
    "Subspace",
    "rref",
    "reduce_vector",
    "rank",
    "kernel",
    "solve",
    "orthogonal_complement",
    "min_weight_nonzero",
    "subspaces_of_dim",
    "enumerate_subspaces",
]


def vec(text: str) -> int:
    """Parse a 0/1 string into a vector; the leftmost character is coordinate 0."""
    value = 0
    for j, ch in enumerate(text):
        if ch == "1":
            value |= 1 << j
        elif ch != "0":
            raise ValueError(f"bad vector character {ch!r}")
    return value


def vec_text(x: int, n: int) -> str:
    """Inverse of vec for a vector of known length."""
    return "".join("1" if (x >> j) & 1 else "0" for j in range(n))


def dot(x: int, y: int) -> int:
    """Inner product over GF(2)."""
    return (x & y).bit_count() & 1


def _pack(x: int, positions: Iterable[int]) -> int:
    """The bits of x at the given positions, as bits 0, 1, ... in order."""
    w = 0
    for t, j in enumerate(positions):
        w |= ((x >> j) & 1) << t
    return w


def _spread(w: int, positions: Iterable[int]) -> int:
    """Inverse of _pack: bit t of w goes to the t-th position."""
    x = 0
    for t, j in enumerate(positions):
        if (w >> t) & 1:
            x |= 1 << j
    return x


@dataclass(frozen=True)
class GF2Matrix:
    """A fully specified matrix, one int per row."""

    n: int
    rows: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one column")
        mask = (1 << self.n) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the declared width")

    @property
    def m(self) -> int:
        return len(self.rows)

    def mul_vec(self, x: int) -> int:
        """Matrix-vector product; bit i of the result is <row_i, x>."""
        out = 0
        for i, r in enumerate(self.rows):
            out |= dot(r, x) << i
        return out

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix(max(self.m, 1), _columns(self.rows, self.n))


def _columns(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The n columns of the rows: one bitstring holds row i at offset
    (m - 1 - i) * n, high bit first, so column j is its slice [n - 1 - j::n]."""
    text = (f"{{:0{n}b}}" * len(rows)).format(*reversed(rows))
    return tuple([int(text[j::n] or "0", 2) for j in range(n - 1, -1, -1)])


def rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon basis of the span of the given vectors.

    Pivots are the lowest set bits, fixed left to right; each pivot
    coordinate appears in exactly one basis vector.  The result is the
    canonical basis of the subspace, independent of input order.
    """
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            if v & (b & -b):
                v ^= b
        if v == 0:
            continue
        p = v & -v
        for i, b in enumerate(basis):
            if b & p:
                basis[i] = b ^ v
        i = len(basis)  # the basis stays sorted by pivot
        while i and basis[i - 1] & -basis[i - 1] > p:
            i -= 1
        basis.insert(i, v)
    return tuple(basis)


def reduce_vector(v: int, basis: Iterable[int]) -> int:
    """Reduce v modulo an rref basis; zero iff v lies in the span."""
    for b in basis:
        if v & (b & -b):
            v ^= b
    return v


def rank(M: GF2Matrix) -> int:
    return len(rref(M.rows))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of GF(2)^n held by its canonical rref basis."""

    n: int
    basis: tuple[int, ...] = ()

    @classmethod
    def span(cls, vectors: Iterable[int], n: int) -> "Subspace":
        return cls(n, rref(vectors))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: int) -> bool:
        return reduce_vector(x, self.basis) == 0

    def vectors(self) -> Iterator[int]:
        """All 2^dim member vectors, Gray-code order, starting at 0."""
        cur = 0
        yield cur
        for i in range(1, 1 << self.dim):
            cur ^= self.basis[(i & -i).bit_length() - 1]
            yield cur


def kernel(M: GF2Matrix) -> Subspace:
    """Right kernel {x : Mx = 0}."""
    basis = rref(M.rows)
    pivots = {(b & -b).bit_length() - 1 for b in basis}
    kb = []
    for f in range(M.n):
        if f in pivots:
            continue
        v = 1 << f
        for b in basis:
            if (b >> f) & 1:
                v |= 1 << ((b & -b).bit_length() - 1)
        kb.append(v)
    return Subspace(M.n, rref(kb))


def solve(M: GF2Matrix, b: int) -> int | None:
    """One solution of Mx = b, or None.

    Deterministic: free coordinates (non-pivots of the rref) are set to
    zero, so the answer is canonical for the given system.
    """
    n = M.n
    aug = [row | (((b >> i) & 1) << n) for i, row in enumerate(M.rows)]
    basis = rref(aug)
    x = 0
    for r in basis:
        p = r & -r
        if p == (1 << n):
            return None  # a zero row demanding a one
        if (r >> n) & 1:
            x |= p
    return x


def orthogonal_complement(S: Subspace) -> Subspace:
    """All vectors orthogonal to every member of S."""
    return kernel(GF2Matrix(S.n, S.basis))


# dimension for min_weight_nonzero's scan, and columns for
# enumerate_subspaces and solutions.separating_min_rank
_WEIGHT_DIM = 24
_SUBSPACE_N = 8


def min_weight_nonzero(S: Subspace) -> int | None:
    """Smallest Hamming weight among nonzero members; None for the zero space."""
    if S.dim == 0:
        return None
    if S.dim > _WEIGHT_DIM:
        raise LimitError(f"minimum-weight scan over dimension {S.dim} exceeds {_WEIGHT_DIM}")
    best = S.n + 1
    for v in S.vectors():
        w = v.bit_count()
        if 0 < w < best:
            best = w
            if best == 1:
                break
    return best


def subspaces_of_dim(n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of GF(2)^n, one canonical basis each.

    Bases are generated directly in rref: choose pivot columns, then fill
    every position that is right of its pivot and not a pivot column.
    """
    if k == 0:
        yield Subspace(n, ())
        return
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        slots = [
            (i, j)
            for i, p in enumerate(pivots)
            for j in range(p + 1, n)
            if j not in pivot_set
        ]
        base = [1 << p for p in pivots]
        for fill in range(1 << len(slots)):
            rows = list(base)
            for t, (i, j) in enumerate(slots):
                if (fill >> t) & 1:
                    rows[i] |= 1 << j
            yield Subspace(n, tuple(rows))


def enumerate_subspaces(n: int) -> Iterator[Subspace]:
    """All subspaces of GF(2)^n, dimension ascending."""
    if n > _SUBSPACE_N:
        raise LimitError(f"subspace enumeration over GF(2)^{n} exceeds n <= {_SUBSPACE_N}")
    for k in range(n + 1):
        yield from subspaces_of_dim(n, k)


# ---------------------------------------------------------------------------
# occupancy bitmaps over all 2^n vectors
#
# A set of vectors is an int with bit x marking vector x.  Translating a
# set by x is a fixed permutation of bitmap blocks, so the Cayley-graph
# work of the forbidden set (min rank from the kernel side, the opt
# search) is a few shifts and ANDs per step.


def _parity_bitmap(a: int, n: int) -> int:
    """Bitmap with bit x = <a, x>, built by doubling over coordinates."""
    bm, size = 0, 1
    for j in range(n):
        mask = (1 << size) - 1
        half = bm ^ mask if (a >> j) & 1 else bm
        bm |= half << size
        size <<= 1
    return bm


def _vanishes_bitmap(s: int, n: int) -> int:
    """Bitmap with bit x = 1 iff x & s == 0."""
    bm, size = 1, 1
    for j in range(n):
        if not (s >> j) & 1:
            bm |= bm << size
        size <<= 1
    return bm


@cache
def _half_mask(n: int, j: int) -> int:
    # bitmap of the vectors whose coordinate j is zero
    return _vanishes_bitmap(1 << j, n)


def _star_classes(s: int, n: int, basis: Iterable[int] = ()) -> list[int]:
    """Split GF(2)^n by the pattern on the star positions s, then by the
    parities against each vector of `basis`.

    Returns one bitmap per class.  Bit t of a class index is coordinate
    j of its vectors, for the t-th star position j in ascending order;
    the bits above those are the parities against basis, in order.
    """
    full = (1 << (1 << n)) - 1
    splits = [_half_mask(n, j) for j in _bits(s)]
    splits += [full ^ _parity_bitmap(b, n) for b in basis]
    classes = [full]
    for zero in splits:
        one = full ^ zero
        classes = [c & zero for c in classes] + [c & one for c in classes]
    return classes


def xor_translate(bm: int, x: int, n: int) -> int:
    """Bitmap of {v ^ x : v in bm}, as coordinate-wise block swaps."""
    j = 0
    while x:
        if x & 1:
            sh = 1 << j
            zero = _half_mask(n, j)
            bm = ((bm & zero) << sh) | ((bm >> sh) & zero)
        x >>= 1
        j += 1
    return bm


# the set bits of each byte value, lowest first
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def _bits(v: int):
    """The set bits of v >= 0, lowest first, found a byte at a time, so
    each member costs a table read instead of a pass over all of v."""
    base = 0
    for byte in v.to_bytes((v.bit_length() + 7) >> 3, "little"):
        if byte:
            for j in _BYTE_BITS[byte]:
                yield base + j
        base += 8


def _ratio_bound(K: int, n: int) -> int:
    """An upper bound on the solutions of a forbidden set K: 2^n, unless
    K holds whole Hamming weight classes W, and then the smaller of
    Delsarte's LP bound on W (_delsarte_bound) and Plotkin's bound.

    Every solution avoids the distances W, so it is a code whose size
    Delsarte's LP bounds.  When W holds the weights 1..d - 1 and d <= n,
    every solution is a code of minimum distance d, so Plotkin's bound
    applies too: A(n, d) <= 2 * floor(d / (2d - n)) for even d with 2d >
    n, and A(n, d) = A(n + 1, d + 1) for odd d (MacWilliams and Sloane,
    ch. 2).
    """
    W = 0
    for w, cls in enumerate(_weight_classes(n)):
        if w and K & cls == cls:
            W |= 1 << w
    if not W:
        return 1 << n
    bound = _delsarte_bound(n, W)
    d = 1
    while W >> d & 1:
        d += 1
    n1, d1 = n + (d & 1), d + (d & 1)  # the even distance of the extended code
    if d <= n and 2 * d1 > n1:
        bound = min(bound, 2 * (d1 // (2 * d1 - n1)))
    return bound


@cache
def _weight_classes(n: int) -> tuple[int, ...]:
    """Bitmaps of the vectors of Hamming weight 0, 1, ..., n, built by
    doubling over coordinates, once per n."""
    masks = [1]
    for j in range(n):
        masks = [
            (masks[w] if w <= j else 0) | (masks[w - 1] << (1 << j) if w else 0)
            for w in range(j + 2)
        ]
    return tuple(masks)


def _krawtchouk(n: int, k: int, i: int) -> int:
    """K_k(i): the sum of (-1)^<x, y> over the y of weight k, for any x
    of weight i."""
    return sum((-1) ** j * comb(i, j) * comb(n - i, k - j) for j in range(k + 1))


def _delsarte_lp(n: int, W: int) -> tuple[tuple[int, ...], int]:
    """An optimal dual y_1..y_n of Delsarte's LP for codes in GF(2)^n
    with no two words at a distance w for any bit w of W, as integer
    numerators over one positive denominator D.

    A code's distance distribution (A_i = the mean number of words at
    distance i from a word) has A_0 = 1, A_i = 0 on W, and nonnegative
    transforms sum_i A_i K_k(i) >= 0 (Delsarte 1973).  So its size
    1 + sum A_i is at most the maximum over A >= 0 on the allowed
    weights i of 1 + sum_i A_i subject to -sum_i K_k(i) A_i <= C(n, k)
    for k = 1..n, which equals the dual's 1 + sum_k y_k C(n, k).  Every
    C(n, k) is positive, so the slack basis is feasible and the simplex
    needs no first phase; Bland's rule keeps it from cycling.  The dual
    is read off the slack columns of the objective row.
    """
    free = [i for i in range(1, n + 1) if not (W >> i) & 1]
    p = len(free)
    # row k - 1: the constraint of K_k, then its slack, then C(n, k); row
    # n: the reduced costs, then minus the objective.  Entries are kept
    # as integers over the common denominator D, and each pivot divides
    # exactly (Bareiss), so the arithmetic is exact.
    T = [
        [-_krawtchouk(n, k, i) for i in free]
        + [int(t == k) for t in range(1, n + 1)]
        + [comb(n, k)]
        for k in range(1, n + 1)
    ]
    T.append([1] * p + [0] * (n + 1))
    basis = list(range(p, p + n))
    D = 1
    while (enter := next((j for j in range(p + n) if T[n][j] > 0), None)) is not None:
        # the least ratio, ties to the lowest basic variable; some row
        # qualifies, as the constraints sum to sum_i A_i <= 2^n - 1
        t = None
        for u in range(n):
            if T[u][enter] > 0:
                d = 0 if t is None else T[u][-1] * T[t][enter] - T[t][-1] * T[u][enter]
                if t is None or d < 0 or d == 0 and basis[u] < basis[t]:
                    t = u
        pivot = T[t]
        e = pivot[enter]
        for u, row in enumerate(T):
            if u != t:
                f = row[enter]
                T[u] = [(x * e - f * y) // D for x, y in zip(row, pivot)]
        D = e
        basis[t] = enter
    return tuple(-x for x in T[n][p : p + n]), D


def _delsarte_check(n: int, W: int, y: tuple[int, ...], D: int) -> int:
    """floor(1 + sum_k y_k C(n, k) / D), once y_1..y_n over D > 0 is
    checked to be a feasible dual of _delsarte_lp: y >= 0 and
    D + sum_k y_k K_k(i) <= 0 at every weight i >= 1 outside W.  Then
    every code avoiding the distances W has at most that many words
    (weak duality)."""
    if D <= 0 or any(v < 0 for v in y):
        raise InternalError("Delsarte dual is not nonnegative")
    for i in range(1, n + 1):
        if not (W >> i) & 1 and D + sum(v * _krawtchouk(n, k, i) for k, v in enumerate(y, 1)) > 0:
            raise InternalError(f"Delsarte dual fails at weight {i}")
    return (D + sum(v * comb(n, k) for k, v in enumerate(y, 1))) // D


@cache
def _delsarte_bound(n: int, W: int) -> int:
    """Delsarte's LP bound for the distances W, floored, from a dual
    checked exactly; solved once per (n, W)."""
    return _delsarte_check(n, W, *_delsarte_lp(n, W))
