"""Partial matrices whose solutions are error-correcting codes.

For integers 1 <= r < n, stack a block of r+1 rows for every r-element
column subset S: each row has stars everywhere off S and, on S, either
all ones or a single zero.  A vector avoids every row of such a matrix
exactly when it is zero or has weight above r, so differences between
solution members stay outside the punctured Hamming ball of radius r.
Solutions are therefore binary codes of minimum distance r+1, linear
solutions are linear codes, and the classical Hamming and
Gilbert-Varshamov bounds become statements about the maximum and the
maximum linear solution size.

These matrices also separate min-rank from its row and column variants:
row_min_rank stays at most 2r and col_min_rank at most r+1, while
min_rank itself grows with the length n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import LimitError
from .gf2 import _weight_classes
from .partial import PartialMatrix, max_independent_rows
from .solutions import _BITMAP_N, SolutionSet, _required_bitmap

@dataclass(frozen=True)
class CodeMatrixSpec:
    """Parameters (n, r) of a code matrix: n columns, distance r+1."""

    n: int
    r: int

    def __post_init__(self):
        if not 1 <= self.r < self.n:
            raise ValueError("need 1 <= r < n")

    @property
    def rows(self) -> int:
        return (self.r + 1) * comb(self.n, self.r)


def code_matrix(spec: CodeMatrixSpec) -> PartialMatrix:
    """The (n, r) code matrix.

    Column subsets are taken in lexicographic order; within a block the
    all-ones row comes first, then the single-zero rows with the zero
    position ascending.
    """
    if spec.rows > 1_000_000:
        raise LimitError(f"code matrix would have {spec.rows} rows, over 1000000")
    n, r = spec.n, spec.r
    full = (1 << n) - 1
    ones, stars = [], []
    for subset in combinations(range(n), r):
        smask = 0
        for j in subset:
            smask |= 1 << j
        star = full & ~smask
        ones.append(smask)
        stars.append(star)
        for j in subset:
            ones.append(smask & ~(1 << j))
            stars.append(star)
    return PartialMatrix(n, tuple(ones), tuple(stars))


def ball(n: int, r: int) -> set[int]:
    """All vectors in GF(2)^n of Hamming weight at most r."""
    if n > _BITMAP_N:
        raise LimitError(f"ball enumeration over GF(2)^{n} exceeds n <= {_BITMAP_N}")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    out = {0}
    for w in range(1, min(r, n) + 1):
        for positions in combinations(range(n), w):
            v = 0
            for j in positions:
                v |= 1 << j
            out.add(v)
    return out


def verify_ka_is_ball(spec: CodeMatrixSpec) -> bool:
    """Whether the forbidden set of the code matrix is the punctured ball."""
    K = _required_bitmap(code_matrix(spec))
    # the weights 1..r; the zero vector is never forbidden
    return K == sum(_weight_classes(spec.n)[1 : spec.r + 1])


def hamming_bound(n: int, r: int) -> int:
    """Upper bound on any solution of the (n, r) code matrix.

    The ball of radius t = floor(r/2) is a clique in the Cayley graph of
    the forbidden set, as its members differ in at most r places, so no
    code of distance r+1 packs more than 2^n over its size.  At r = 0
    every set is a code, and t = 0 gives 2^n.  Exact integer arithmetic.
    """
    if r < 0:
        raise ValueError("need r >= 0")
    t = r // 2
    return (1 << n) // sum(comb(n, i) for i in range(t + 1))


def gv_bound(n: int, r: int) -> int:
    """Guaranteed linear solution size of the (n, r) code matrix.

    Linear codes of distance r+1 and size 2^n over the radius-r ball
    volume always exist.  Exact integer arithmetic throughout.
    """
    if r < 0:
        raise ValueError("need r >= 0")
    return (1 << n) // sum(comb(n, i) for i in range(r + 1))


def min_distance(L: SolutionSet) -> int | None:
    """Minimum Hamming distance over member pairs; None below two members."""
    members = L.sorted_members()
    if len(members) < 2:
        return None
    best = L.n + 1
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            d = (x ^ y).bit_count()
            if d < best:
                best = d
                if best == 1:
                    return best
    return best


# blocks that code_row_min_rank searches past n = 6
_SAMPLE_BLOCKS = 12


def code_row_min_rank(spec: CodeMatrixSpec) -> int:
    """Largest independent row set of the code matrix.

    Exhaustive over all distinct rows for n <= 6.  For larger n the
    matrix is too tall, so _SAMPLE_BLOCKS blocks drawn at seed 0 are
    searched instead; any independent subset of a sample stays
    independent in the full matrix, making the result a lower bound.
    """
    A = code_matrix(spec)
    rows = list(zip(A.ones, A.stars))
    blocks = list(range(comb(spec.n, spec.r)))
    if spec.n > 6 and len(blocks) > _SAMPLE_BLOCKS:
        width = spec.r + 1
        picked = sorted(random.Random(0).sample(blocks, _SAMPLE_BLOCKS))
        rows = [rows[b * width + i] for b in picked for i in range(width)]
    return max_independent_rows(list(dict.fromkeys(rows)))
