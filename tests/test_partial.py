"""Unit tests for partial matrices and their rank parameters."""

import hashlib
import random
import sys
import threading
import time
import tracemalloc
from itertools import combinations

import pytest

from minrank import gf2, partial, solutions
from minrank.codes import CodeMatrixSpec, code_matrix
from minrank.errors import InternalError, LimitError
from minrank.gf2 import GF2Matrix, Subspace, dot, kernel, rank, reduce_vector, rref, solve
from minrank.partial import (
    _insert,
    _prepare_rows,
    PartialMatrix,
    canonical_completion,
    col_min_rank,
    enumerate_completions,
    is_star_monotone,
    isolation,
    line_cover_number,
    max_independent_rows,
    max_rank,
    min_rank,
    min_rank_completion,
    row_min_rank,
    star_matching,
    stars_independent,
)
from minrank.pmx import parse_pmx
from minrank.report import _random_matrices, evaluate_matrix, report
from minrank.solutions import conjecture_epsilon, is_solution, opt_exact

A1 = parse_pmx("10*0*1\n*111**\n0**1**\n")
A2 = parse_pmx("11*1\n101*\n1*00\n")


def random_matrix(rng, m, n):
    ones, stars = [], []
    for _ in range(m):
        a = s = 0
        for j in range(n):
            c = rng.randrange(3)
            if c == 1:
                a |= 1 << j
            elif c == 2:
                s |= 1 << j
        ones.append(a)
        stars.append(s)
    return PartialMatrix(n, tuple(ones), tuple(stars))


def is_completion(A, M):
    for i in range(A.m):
        free = A.stars[i]
        if (M.rows[i] ^ A.ones[i]) & ~free:
            return False
    return True


def test_constructor_validation():
    with pytest.raises(ValueError):
        PartialMatrix(0, (), ())
    with pytest.raises(ValueError):
        PartialMatrix(2, (1,), (1,))  # fixed and star at once
    with pytest.raises(ValueError):
        PartialMatrix(2, (4,), (0,))  # bit outside the width
    with pytest.raises(ValueError):
        PartialMatrix(2, (1, 0), (0,))


def test_transpose_involution():
    rng = random.Random(3)
    for _ in range(50):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        T = A.transpose()
        assert T.m == A.n and T.n == A.m
        assert T.transpose().ones[: A.m] == A.ones
        for i in range(A.m):
            for j in range(A.n):
                assert ((A.stars[i] >> j) & 1) == ((T.stars[j] >> i) & 1)


def test_flagship_fixture_values():
    assert A1.n == 6 and A1.m == 3
    assert A1.ones == (33, 14, 8)
    assert A1.stars == (20, 49, 54)
    assert A1.star_count == 9
    assert min_rank(A1) == 2
    assert max_rank(A1) == 3
    assert line_cover_number(A1) == 3
    assert row_min_rank(A1) == 2
    assert col_min_rank(A1) == 2
    assert canonical_completion(A1).rows == (33, 14, 8)


def test_row_column_gap_fixture_values():
    assert A2.ones == (11, 5, 1)
    assert A2.stars == (4, 8, 2)
    assert min_rank(A2) == 3
    assert row_min_rank(A2) == 3
    assert col_min_rank(A2) == 2


def test_min_rank_completion_is_a_completion_attaining_the_rank():
    rng = random.Random(7)
    for _ in range(150):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        r, W = min_rank_completion(A)
        assert is_completion(A, W)
        assert rank(W) == r


def test_min_and_max_rank_against_enumeration():
    rng = random.Random(11)
    for _ in range(150):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        ranks = [rank(M) for M in enumerate_completions(A)]
        assert min(ranks) == min_rank(A)
        assert max(ranks) == max_rank(A)


def test_max_rank_of_large_matrices_against_enumeration():
    # 14 to 16 rows and columns, past the 13 lines that the scan was once
    # capped at, with up to 10 stars over rows spanning a small space
    rng = random.Random(211)
    for _ in range(40):
        m, n = rng.randint(14, 16), rng.randint(14, 16)
        basis = [rng.getrandbits(n) for _ in range(rng.randint(3, 10))]
        ones = [0] * m
        for i in range(m):
            for b in basis:
                if rng.random() < 0.5:
                    ones[i] ^= b
        stars = [0] * m
        for _ in range(rng.randint(0, 10)):
            i, j = rng.randrange(m), rng.randrange(n)
            stars[i] |= 1 << j
            ones[i] &= ~(1 << j)
        A = PartialMatrix(n, tuple(ones), tuple(stars))
        assert max_rank(A) == max(rank(M) for M in enumerate_completions(A))


def test_the_greedy_max_rank_certificate_agrees_with_the_scan(monkeypatch):
    # the greedy completion answers only when it reaches min(m, n), the
    # ceiling of every completion's rank; with it disabled (no row ever
    # enters its basis) the line-cover scan answers every case alone
    rng = random.Random(97)
    cases = [random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9)) for _ in range(300)]
    cases += [star_heavy_matrix(rng, rng.randint(10, 30), rng.randint(3, 8), 0.6) for _ in range(60)]
    for _ in range(60):  # rows in a small span with few stars: below min(m, n)
        m, n = rng.randint(6, 10), rng.randint(6, 10)
        basis = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
        ones = [0] * m
        for i in range(m):
            for b in basis:
                if rng.random() < 0.5:
                    ones[i] ^= b
        stars = [1 << rng.randrange(n) if rng.random() < 0.2 else 0 for _ in range(m)]
        cases.append(PartialMatrix(n, tuple(a & ~s for a, s in zip(ones, stars)), tuple(stars)))
    codes = [code_matrix(CodeMatrixSpec(n, r)) for n in range(2, 8) for r in range(1, n)]
    scans = []
    real = partial.rref

    def counted(vectors):
        scans.append(None)
        return real(vectors)

    monkeypatch.setattr(partial, "rref", counted)
    for A in codes:  # tall: every one answers n before the scan
        assert max_rank(A) == A.n
    assert not scans
    got, settled = [], 0
    for A in cases:
        scans.clear()
        got.append(max_rank(A))
        if not scans:
            settled += 1
    monkeypatch.setattr(partial, "_insert", lambda basis, v: basis)
    assert [max_rank(A) for A in cases] == got
    assert settled >= 300 and len(cases) - settled >= 50  # 348 of the 420 settle


def test_max_rank_with_many_stars_in_two_rows():
    # 14 x 14 with 25 to 28 stars in two rows: past the 24 stars that
    # completion enumeration takes, but only two starred lines to scan.
    # The reference completes the row with fewer stars every way, and
    # asks whether some completion of the other leaves the span of the
    # rest; reduced modulo the plain rows' rref basis, a vector lies in
    # span(plain + [w]) iff it reduces to 0 or to w's reduction
    rng = random.Random(223)
    for _ in range(8):
        basis = [rng.getrandbits(14) for _ in range(rng.randint(2, 9))]
        ones = []
        for _ in range(14):
            row = 0
            for b in basis:
                if rng.random() < 0.5:
                    row ^= b
            ones.append(row)
        stars = [0] * 14
        few, many = rng.sample(range(14), 2)
        k = rng.randint(13, 14)
        stars[many] = sum(1 << j for j in rng.sample(range(14), k))
        stars[few] = sum(1 << j for j in rng.sample(range(14), rng.randint(25 - k, k)))
        for i in (few, many):
            ones[i] &= ~stars[i]
        A = PartialMatrix(14, tuple(ones), tuple(stars))
        assert A.star_count > 24
        with pytest.raises(LimitError):
            next(enumerate_completions(A))
        plain = rref(ones[i] for i in range(14) if i not in (few, many))
        units = [1 << j for j in range(14) if (stars[few] >> j) & 1]
        other = {reduce_vector(v, plain) for v in [ones[many]] + [1 << j for j in range(14) if (stars[many] >> j) & 1]}
        want = 0
        for fill in range(1 << len(units)):
            v = ones[few]
            for t, e in enumerate(units):
                if (fill >> t) & 1:
                    v ^= e
            w = reduce_vector(v, plain)
            want = max(want, len(plain) + (w != 0) + bool(other - {0, w}))
        assert max_rank(A) == want


def test_enumerate_completions_count_and_validity():
    rng = random.Random(13)
    for _ in range(50):
        A = random_matrix(rng, 2, 3)
        seen = set()
        for M in enumerate_completions(A):
            assert is_completion(A, M)
            seen.add(M.rows)
        assert len(seen) == 1 << A.star_count
    wide = PartialMatrix(13, (0, 0), ((1 << 13) - 1, (1 << 13) - 1))
    with pytest.raises(LimitError):
        list(enumerate_completions(wide))


def test_star_matching_is_a_valid_matching():
    rng = random.Random(17)
    for _ in range(100):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        pairs = star_matching(A)
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)
        for i, j in pairs:
            assert (A.stars[i] >> j) & 1


def per_bit_columns(rows, n):
    # column j of the rows, bit by bit
    return tuple(sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(n))


def per_row_star_matching(A):
    # the augmenting-path matching with a try from every row
    match_col = {}

    def try_row(i, seen):
        for j in range(A.n):
            if (A.stars[i] >> j) & 1 and j not in seen:
                seen.add(j)
                if j not in match_col or try_row(match_col[j], seen):
                    match_col[j] = i
                    return True
        return False

    for i in range(A.m):
        try_row(i, set())
    return tuple(sorted((i, j) for j, i in match_col.items()))


def per_row_forbidden_bitmap(rows, n):
    # row by row, the vanishing bitmap of the stars ANDed with the parity
    # bitmap of the ones
    bm = 0
    for a, s in rows:
        if a:
            bm |= gf2._vanishes_bitmap(s, n) & gf2._parity_bitmap(a, n)
    return bm


def shape_cases(rng, tall_matrix):
    """Seeded matrices with no rows, one row, wide, square and tall
    shapes, some with rows drawn from a few star sets, and the tall
    fixture."""
    cases = [PartialMatrix(n, (), ()) for n in (1, 5)]
    cases += [random_matrix(rng, 1, n) for n in (1, 4, 9)]
    for _ in range(40):
        cases.append(random_matrix(rng, rng.randint(2, 5), rng.randint(6, 12)))
        cases.append(star_heavy_matrix(rng, rng.randint(15, 60), rng.randint(3, 9), 0.3))
    for _ in range(20):
        n = rng.randint(3, 8)
        pool = [rng.getrandbits(n) for _ in range(3)]
        rows = [(rng.getrandbits(n), rng.choice(pool)) for _ in range(rng.randint(4, 40))]
        cases.append(PartialMatrix(n, tuple(a & ~s for a, s in rows), tuple(s for _, s in rows)))
    return cases + [tall_matrix]


def test_transpose_by_column_slices_matches_the_per_bit_reference(tall_matrix):
    for A in shape_cases(random.Random(29), tall_matrix):
        T = A.transpose()
        assert T == PartialMatrix(
            max(A.m, 1), per_bit_columns(A.ones, A.n), per_bit_columns(A.stars, A.n)
        )
        M = GF2Matrix(A.n, A.ones)
        assert M.transpose() == GF2Matrix(max(A.m, 1), per_bit_columns(A.ones, A.n))


def test_saturating_star_matching_is_the_per_row_matching(tall_matrix):
    saturated_early = 0
    for A in shape_cases(random.Random(31), tall_matrix):
        got = star_matching(A)
        assert got == per_row_star_matching(A)
        columns = 0
        for s in A.stars:
            columns |= s
        saturated_early += bool(got) and len(got) == columns.bit_count() and got[-1][0] < A.m - 1
    assert saturated_early > 40


def test_one_doubling_pass_per_row_matches_the_vanish_and_parity_bitmap(tall_matrix):
    for A in shape_cases(random.Random(37), tall_matrix):
        rows = list(zip(A.ones, A.stars))
        assert partial._forbidden_bitmap(rows, A.n) == per_row_forbidden_bitmap(rows, A.n)


def brute_cover(A):
    lines = [("r", i) for i in range(A.m)] + [("c", j) for j in range(A.n)]
    stars = [
        (i, j) for i in range(A.m) for j in range(A.n) if (A.stars[i] >> j) & 1
    ]
    for k in range(len(lines) + 1):
        for pick in combinations(lines, k):
            chosen = set(pick)
            if all(
                ("r", i) in chosen or ("c", j) in chosen for i, j in stars
            ):
                return k
    return len(lines)


def test_line_cover_matches_brute_force():
    rng = random.Random(19)
    for _ in range(60):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        assert line_cover_number(A) == brute_cover(A)


def test_stars_independent_frozen_cases():
    # x = (0,1), y = (1,*): independent, but y xor y is dependent
    assert stars_independent([(2, 0), (1, 2)])
    assert not stars_independent([(1, 2), (1, 2)])
    # a (0,*) vector alone is dependent (complete it to zero)
    assert not stars_independent([(0, 1)])
    assert stars_independent([(1, 0)])
    assert stars_independent([])
    assert not stars_independent([(1, 0)] * 24)
    with pytest.raises(LimitError):
        stars_independent([(1, 0)] * 25)


def test_max_independent_rows_matches_subset_scan():
    rng = random.Random(23)
    for _ in range(80):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        rows = list(zip(A.ones, A.stars))
        best = 0
        for k in range(1, len(rows) + 1):
            for pick in combinations(rows, k):
                if stars_independent(pick):
                    best = max(best, k)
        assert max_independent_rows(rows) == best


def traced_peak(f):
    """f()'s result and the peak of the memory that tracemalloc traces
    while it runs, in bytes."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_star_free_vectors_keep_no_subset_sums():
    # star-free vectors join a basis, so the subset sums double only on
    # starred ones: whichever order they come in, one starred row and 18
    # unit rows keep 2 sums, and 22 unit rows keep 1; doubling on every
    # row would keep 2^19 sums (80 MB) and 2^22 (500 MB)
    starred = [(1 << 19, 1 << 18)]
    units = [(1 << i, 0) for i in range(22)]
    for rows in (starred + units[:18], units[:18] + starred):
        independent, peak = traced_peak(lambda: stars_independent(rows))
        assert independent and peak < 8 << 20
    size, peak = traced_peak(lambda: max_independent_rows(units))
    assert size == 22 and peak < 8 << 20
    assert max_independent_rows(starred + units[:18]) == 19


# 13 x 20, 20 distinct columns; its column floor is its min rank, 11
WIDE_13x20 = (
    "1110*1101110011101*0\n11100*0110*01101*010\n01*01101010001000*11\n"
    "00010110011001111010\n11100100000001011101\n10000101110011110011\n"
    "0101111110*00111100*\n101*1101000101011110\n0000010011110000011*\n"
    "10111010100*010*1000\n11111011110*00110010\n00111100111100011111\n"
    "00101*11*1100*111100\n"
)


def test_the_column_floor_of_20_distinct_columns_settles_min_rank():
    # the floor is read off K, with no search over the 20 columns, and
    # min_rank settles at it, both well within the deadline
    deadline = time.monotonic() + 0.5
    assert col_min_rank(parse_pmx(WIDE_13x20)) == 11
    assert min_rank(parse_pmx(WIDE_13x20), deadline) == 11
    assert time.monotonic() < deadline


def test_a_refused_min_rank_stores_neither_floor_nor_answer():
    # code (13, 2) refutes its column floor, 2, past any short deadline
    A = code_matrix(CodeMatrixSpec(13, 2))
    deadline = time.monotonic() + 0.5
    with pytest.raises(LimitError, match="deadline"):
        min_rank(A, deadline)
    assert time.monotonic() < deadline + 1
    # a refused call stores neither the floor nor the answer
    assert A._record.column_floor is None and A._record.answer is None


def searched_column_floor(A):
    """col_min_rank(A) by the subset search over A's distinct columns."""
    return max_independent_rows(partial._distinct_rows(A.transpose()))


def completed_column_floor(A):
    """The most columns independent in every completion, by enumeration."""
    completions = list(enumerate_completions(A))
    best = 0
    for C in range(1, 1 << A.n):
        k = C.bit_count()
        if k > best and all(rank(GF2Matrix(A.n, tuple(r & C for r in M.rows))) == k for M in completions):
            best = k
    return best


def with_columns(A, picks):
    """A's columns picks[0], picks[1], ...; None picks an all-zero column."""
    cols = A.transpose()
    T = PartialMatrix(
        A.m,
        tuple(0 if j is None else cols.ones[j] for j in picks),
        tuple(0 if j is None else cols.stars[j] for j in picks),
    )
    return T.transpose()


def star_heavy(rng, m, n, p):
    ones, stars = [], []
    for _ in range(m):
        a = s = 0
        for j in range(n):
            u = rng.random()
            if u < p:
                s |= 1 << j
            elif u < (1 + p) / 2:
                a |= 1 << j
        ones.append(a)
        stars.append(s)
    return PartialMatrix(n, tuple(ones), tuple(stars))


def test_the_column_floor_read_off_k_matches_the_search():
    rng = random.Random(61)
    cases = [random_matrix(rng, m, n) for m, n in [(4, 8), (5, 10), (6, 12)] for _ in range(25)]
    cases += [star_heavy(rng, rng.randint(10, 24), rng.randint(4, 9), 0.6) for _ in range(25)]
    cases += [star_heavy(rng, rng.randint(3, 8), rng.randint(14, 20), 0.3) for _ in range(15)]
    for _ in range(40):
        A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 8))
        picks = [rng.choice([*range(A.n), None]) for _ in range(rng.randint(1, 12))]
        cases.append(with_columns(A, picks))
    for A in cases:
        assert col_min_rank(A) == searched_column_floor(A)
    for _ in range(60):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert col_min_rank(A) == completed_column_floor(A) == searched_column_floor(A)


def test_the_column_floor_cap_counts_distinct_columns_and_the_zero_one():
    # column j < 20 reads j + 1 in binary over 5 rows: 20 distinct used
    # columns, then an all-zero column makes 21, which is refused
    A = PartialMatrix(21, tuple(sum(((j + 1) >> i & 1) << j for j in range(20)) for i in range(5)), (0,) * 5)
    with pytest.raises(LimitError, match="21 distinct rows exceeds 20"):
        col_min_rank(A)
    with pytest.raises(LimitError, match="21 distinct rows exceeds 20"):
        row_min_rank(A.transpose())
    assert min_rank(A) == 5 and A._record.column_floor is None
    # a 22-column core with 20 distinct columns, and the same with one
    # used column swapped for an all-zero one, still get a floor
    core = with_columns(A, [*range(20), 3, 7])
    zero = with_columns(A, [*range(19), None, 3, 7])
    for B in (core, zero):
        assert col_min_rank(B) == searched_column_floor(B) == 5
        assert min_rank(B) == 5 and B._record.column_floor == 5
    assert core._record.core.n == 22 and zero._record.core.n == 21


def test_the_column_floor_of_40_x_20_takes_no_search():
    # a subset search over the 20 columns takes seconds here; reading
    # the floor off K takes milliseconds
    A = star_heavy(random.Random(0), 40, 20, 0.2)
    start = time.perf_counter()
    assert col_min_rank(A) == 13
    assert time.perf_counter() - start < 0.5


def test_row_and_col_min_rank_never_exceed_min_rank():
    rng = random.Random(29)
    for _ in range(120):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        r = min_rank(A)
        assert row_min_rank(A) <= r
        assert col_min_rank(A) <= r
        assert col_min_rank(A) == row_min_rank(A.transpose())


def test_row_and_col_min_rank_refuse_past_20_distinct_lines():
    # the unit rows e_0..e_20, e_20 with a star, then e_0..e_19 again:
    # 21 distinct lines are refused; e_0..e_19 twice, 20 distinct, are not
    rows = [1 << j for j in range(21)]
    stars = [0] * 20 + [1]
    A = PartialMatrix(21, tuple(rows + rows[:20]), tuple(stars + stars[:20]))
    with pytest.raises(LimitError, match="21 distinct rows exceeds 20"):
        row_min_rank(A)
    with pytest.raises(LimitError, match="21 distinct rows exceeds 20"):
        col_min_rank(A.transpose())
    B = PartialMatrix(21, tuple(rows[:20] * 2), (0,) * 40)
    assert row_min_rank(B) == col_min_rank(B.transpose()) == 20


def isolation_by_rows(A, strong):
    """isolation(A, strong) by its per-row GF(2) solves alone."""
    zs = []
    for i in range(A.m):
        smask = A.stars[i]
        for j in range(i if strong else 0):
            smask |= A.stars[j]
        rows = [1 << j for j in range(A.n) if (smask >> j) & 1]
        rows += A.ones[: i + 1]
        z = solve(GF2Matrix(A.n, tuple(rows)), 1 << (len(rows) - 1))
        if z is None:
            return None
        zs.append(z)
    return tuple(zs)


def test_isolation_refuses_dependent_rows_of_ones_without_solving(monkeypatch):
    # z_1..z_m make the matrix (<a_j, z_i>) unitriangular, so the rows of
    # ones are independent, and so m <= n; tall matrices call solve zero times
    rng = random.Random(41)
    cases = [random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)) for _ in range(400)]
    want = [[isolation_by_rows(A, strong) for strong in (False, True)] for A in cases]
    solves = []
    real = partial.solve

    def counted(M, b):
        solves.append(None)
        return real(M, b)

    monkeypatch.setattr(partial, "solve", counted)
    found = 0
    for A, pair in zip(cases, want):
        solves.clear()
        got = [isolation(A, strong) for strong in (False, True)]
        assert [None if w is None else w.vectors for w in got] == pair
        found += pair[0] is not None
        if A.m > A.n or rank(GF2Matrix(A.n, A.ones)) < A.m:
            assert not solves
    assert found > 50
    solves.clear()
    for A in (code_matrix(CodeMatrixSpec(7, 3)), star_heavy_matrix(rng, 20, 6, 0.3)):
        assert isolation(A) is None and isolation(A, strong=True) is None
    assert not solves


def test_isolation_witness_conditions():
    rng = random.Random(31)
    found = 0
    for _ in range(200):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
        for strong in (False, True):
            w = isolation(A, strong=strong)
            if w is None:
                continue
            found += 1
            for i, z in enumerate(w.vectors):
                smask = A.stars[i]
                if strong:
                    for j in range(i):
                        smask |= A.stars[j]
                assert z & smask == 0
                assert dot(A.ones[i], z) == 1
                for j in range(i):
                    assert dot(A.ones[j], z) == 0
    assert found > 50


def test_full_min_rank_rows_are_isolated():
    # a square-min-rank matrix is always isolated
    rng = random.Random(37)
    hits = 0
    for _ in range(200):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(3, 5))
        if min_rank(A) == A.m:
            assert isolation(A) is not None
            hits += 1
    assert hits > 20


def test_star_monotone():
    assert is_star_monotone(parse_pmx("1*\n**\n"))
    assert is_star_monotone(parse_pmx("**\n1*\n"))  # order free
    assert not is_star_monotone(parse_pmx("*1\n1*\n"))
    assert is_star_monotone(parse_pmx("11\n00\n"))


def test_row_min_rank_dedupes_before_the_cap():
    # 30 copies of one row collapse to a single vector
    A = PartialMatrix(3, (1,) * 30, (2,) * 30)
    assert row_min_rank(A) == 1


def reference_star_basis(s, basis):
    red = []
    for j in range(s.bit_length()):
        if not (s >> j) & 1:
            continue
        v = reduce_vector(1 << j, basis)
        t = 1 << j
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
        red.sort(key=lambda e: e[0] & -e[0])
    return red


def reference_forced_independent(rows, start, basis, need):
    """_forced_independent as it projected the whole basis: for each
    union o of stars, the rref of {b & ~o : b in basis}, and the subset
    sum's ones as given."""
    sums = [(0, 0)]
    projected = {}
    count = 0
    for a, s in rows[start:]:
        fresh = []
        ok = True
        for x, o in sums:
            nx, no = x ^ a, o | s
            p = projected.get(no)
            if p is None:
                p = projected[no] = rref(b & ~no for b in basis)
            if reduce_vector(nx & ~no, p) == 0:
                ok = False
                break
            fresh.append((nx, no))
        if ok:
            count += 1
            if count >= need:
                break
            sums += fresh
    return count


def reference_max_independent_rows(rows):
    """max_independent_rows with no bound but the rows left."""
    best = 0

    def extend(start, sums, size):
        nonlocal best
        best = max(best, size)
        for i in range(start, len(rows)):
            if size + len(rows) - i <= best:
                break
            a, s = rows[i]
            fresh = [(x ^ a, o | s) for x, o in sums]
            if all(x & ~o for x, o in fresh):
                extend(i + 1, sums + fresh, size + 1)

    extend(0, [(0, 0)], 0)
    return best


def test_the_pivot_map_keeps_star_bases_and_independence_counts():
    # the star basis from the basis's pivots, the forced-independence
    # count on rows reduced once, and the capped, pair-bounded largest
    # independent set against the references, on seeded random rows and
    # rref bases, with and without a starred pivot
    rng = random.Random(2036)
    starred = plain = 0
    for _ in range(1500):
        n = rng.randint(1, 12)
        A = star_heavy_matrix(rng, rng.randint(1, 9), n, rng.random() * 0.7)
        rows = list(zip(A.ones, A.stars))
        basis = rref(rng.getrandbits(n) for _ in range(rng.randint(0, n)))
        start = rng.randrange(len(rows))
        s = rows[start][1]
        want = sorted(reference_star_basis(s, basis))
        assert sorted(partial._star_basis(s, basis)) == want
        assert sorted(partial._star_basis(s, tuple(b for b in basis if b & -b & s))) == want
        if any(b & -b & s for b in basis):
            starred += 1
        else:
            plain += 1
        for need in range(1, len(rows) - start + 2):
            assert partial._forced_independent(rows, start, basis, need) == (
                reference_forced_independent(rows, start, basis, need)
            )
        assert max_independent_rows(rows) == reference_max_independent_rows(rows)
    assert starred > 500 and plain > 300


def parent_forced_independent(rows, start, basis, need):
    """_forced_independent before star-free rows joined the basis: every
    kept row doubles the subset sums, and a per-call dict keeps the
    projected basis for each union of stars."""
    pivots = 0
    for b in basis:
        pivots |= b & -b
    sums = [(0, 0)]
    projected = {}
    count = 0
    for a, s in rows[start:]:
        a = reduce_vector(a, basis)
        fresh = []
        for x, o in sums:
            nx, no = x ^ a, o | s
            r = nx & ~no
            if r and no & pivots:
                p = projected.get(no)
                if p is None:
                    p = projected[no] = rref(b & ~no for b in basis if b & -b & no)
                r = reduce_vector(r, p)
            if r == 0:
                break
            fresh.append((nx, no))
        else:
            count += 1
            if count >= need:
                break
            sums += fresh
    return count


def test_star_free_rows_join_the_basis_with_the_same_count():
    # star-free rows at any position, before and after starred ones, on
    # seeded random rows and rref bases, at every need
    rng = random.Random(2043)
    leading = trailing = 0
    for _ in range(2000):
        n = rng.randint(1, 10)
        rows = []
        for _ in range(rng.randint(1, 9)):
            s = rng.getrandbits(n) & rng.getrandbits(n) if rng.random() < 0.5 else 0
            rows.append((rng.getrandbits(n) & ~s, s))
        basis = rref(rng.getrandbits(n) for _ in range(rng.randint(0, n)))
        start = rng.randrange(len(rows))
        stars = [s for _, s in rows[start:]]
        leading += stars[0] == 0
        trailing += any(s == 0 and any(stars[:i]) for i, s in enumerate(stars))
        for need in range(1, len(rows) - start + 2):
            assert partial._forced_independent(rows, start, basis, need) == (
                parent_forced_independent(rows, start, basis, need)
            )
        assert max_independent_rows(rows) == reference_max_independent_rows(rows)
        independent = parent_forced_independent(rows, 0, (), len(rows)) == len(rows)
        assert stars_independent(rows) == stars_independent(rows[::-1]) == independent
    assert leading > 500 and trailing > 500


def test_the_independence_search_starts_at_the_star_free_rank(monkeypatch):
    # independent star-free rows stay independent in every completion, so
    # the largest independent set starts at their rank: the same value as
    # a search that starts at 0, at every stop, on seeded random rows
    rng = random.Random(2047)
    below = met = 0
    for _ in range(1500):
        n = rng.randint(1, 10)
        rows = []
        for _ in range(rng.randint(1, 9)):
            s = rng.getrandbits(n) & rng.getrandbits(n) if rng.random() < 0.5 else 0
            rows.append((rng.getrandbits(n) & ~s, s))
        rows = list(dict.fromkeys(rows))
        start = len(rref(a for a, s in rows if not s))
        for stop in range(1, len(rows) + 2):
            got = partial._max_independent_rows(rows, partial._Deadline(None, 0), stop)
            with monkeypatch.context() as m:
                m.setattr(partial, "rref", lambda vectors: ())
                assert partial._max_independent_rows(rows, partial._Deadline(None, 0), stop) == got
        best = max_independent_rows(rows)
        assert best == reference_max_independent_rows(rows)
        below += 0 < start < best
        met += 0 < start == best
    assert below > 100 and met > 100


def test_min_rank_of_a_wide_identity_is_plain_rank():
    # 25 distinct columns leave no column floor, so the rank side refutes
    # targets 0 to 23, each cut at its root by the star-free count
    A = PartialMatrix(25, tuple(1 << i for i in range(24)), (0,) * 24)
    assert min_rank(A, time.monotonic() + 2) == 24


def reference_complete_within(rows, target):
    """The depth-first search of _RankSide without the
    forced-independence cut and the cache of reduced unit vectors: the
    oracle that min_rank_completion must agree with byte for byte."""
    failed = set()

    def go(idx, basis):
        if idx == len(rows):
            return []
        key = (idx, basis)
        if key in failed:
            return None
        a, s = rows[idx]
        red = reference_star_basis(s, basis)
        v = reduce_vector(a, basis)
        t = 0
        for bv, bt in red:
            if v & (bv & -bv):
                v ^= bv
                t ^= bt
        if v == 0:
            rest = go(idx + 1, basis)
            if rest is not None:
                return [a ^ t] + rest
            failed.add(key)
            return None
        if len(basis) >= target:
            failed.add(key)
            return None
        ra = reduce_vector(a, basis)
        span = [(0, 0)]
        for bv, bt in red:
            span += [(u ^ bv, ut ^ bt) for u, ut in span]
        for u, ut in sorted((ra ^ u, ut) for u, ut in span):
            rest = go(idx + 1, _insert(basis, u))
            if rest is not None:
                return [a ^ ut] + rest
        failed.add(key)
        return None

    return go(0, ())


def reference_min_rank_completion(A):
    rows, remap = _prepare_rows(A)
    for target in range(col_min_rank(A), min(len(rows), A.n) + 1):
        found = reference_complete_within(rows, target)
        if found is not None:
            full = tuple(0 if t is None else found[t] for t in remap)
            return target, GF2Matrix(A.n, full)
    raise AssertionError("the canonical completion always fits")


def assert_min_rank_completion(A):
    """min_rank_completion(A) has the unpruned search's min rank, and its
    completion is a completion of A of that rank.  The race may return
    the completion built from the kernel side's subspace, so the entries
    need not match the rank side's."""
    r, W = min_rank_completion(A)
    assert r == reference_min_rank_completion(A)[0]
    assert is_completion(A, W) and rank(W) == r


def shuffled_rows(A, rng):
    rows = list(zip(A.ones, A.stars))
    rng.shuffle(rows)
    return PartialMatrix(A.n, tuple(a for a, _ in rows), tuple(s for _, s in rows))


def test_min_rank_completion_matches_the_unpruned_search():
    rng = random.Random(43)
    cases = [
        random_matrix(rng, rng.randint(1, 6), rng.randint(1, 12)) for _ in range(300)
    ]
    cases += [random_matrix(rng, 6, 12) for _ in range(20)]
    for n in range(2, 8):
        for r in range(1, n):
            if (n, r) != (7, 2):
                cases.append(shuffled_rows(code_matrix(CodeMatrixSpec(n, r)), rng))
    for A in cases:
        assert_min_rank_completion(A)


def test_every_forced_independence_cut_holds_no_completion(monkeypatch):
    cuts = set()
    real = partial._forced_independent

    def spy(rows, start, basis, need):
        got = real(rows, start, basis, need)
        if got >= need:  # the node is cut: room = need - 1
            cuts.add((tuple(rows[start:]), basis, len(basis) + need - 1))
        return got

    monkeypatch.setattr(partial, "_forced_independent", spy)
    rng = random.Random(47)
    for _ in range(600):
        A = random_matrix(rng, rng.randint(2, 6), rng.randint(3, 8))
        if A.star_count > 10:
            continue
        # every target up to the minimum, so the failing ones are cut too
        rows, _ = _prepare_rows(A)
        for target in range(min_rank(A) + 1):
            partial._RankSide(rows, A.n, target, partial._Deadline(None, A.n)).run()
    for rest, basis, target in cuts:
        n = max(v.bit_length() for row in rest for v in row)
        R = PartialMatrix(n, tuple(a for a, _ in rest), tuple(s for _, s in rest))
        for M in enumerate_completions(R):
            assert len(rref(basis + M.rows)) > target
    assert len(cuts) > 500
    assert sum(1 for _, basis, _ in cuts if basis) > 80  # below the root


def completed_from(A, V):
    """The completion of A built from a subspace V that avoids its
    forbidden set, as min_rank_completion builds it."""
    rows, remap = _prepare_rows(A)
    found = partial._orthogonal_completion(rows, A.n, V)
    return GF2Matrix(A.n, tuple(0 if t is None else found[t] for t in remap))


def test_the_orthogonal_finish_completes_from_every_subspace_found(monkeypatch, fresh):
    # V avoids the forbidden set, so every row has stars that make it
    # orthogonal to V; the completion's kernel then holds V, and at the
    # minimum it is span(V)
    def check(A, V, t, least):
        W = completed_from(A, V)
        assert is_completion(A, W) and rank(W) <= t
        assert all(dot(w, v) == 0 for w in W.rows for v in V)
        if t == least:
            assert kernel(W) == Subspace.span(V, A.n)
        return W

    def every_target(A):
        rows, _ = _prepare_rows(A)
        K = partial._forbidden_bitmap(rows, A.n)
        least = min_rank(A)
        for t in range(least, A.n + 1):
            V = partial._KernelSide(K, A.n, A.n - t, partial._Deadline(None, A.n)).run()
            check(A, V, t, least)

    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(5, 7)
        every_target(star_heavy_matrix(rng, rng.randint(n + 1, 3 * n), n, rng.uniform(0.3, 0.6)))
    for n in range(3, 7):
        for r in range(1, n):
            every_target(shuffled_rows(code_matrix(CodeMatrixSpec(n, r)), rng))
    # from n = 9 on, proving the minimum from the kernel side alone can
    # take seconds, so these take the subspaces the race finds
    found = []

    class Spy(partial._KernelSide):
        def resume(self, stop):
            done = super().resume(stop)
            if done and self.found is not None:
                found.append(self.found)
            return done

    monkeypatch.setattr(partial, "_KernelSide", Spy)
    cases = [shuffled_rows(code_matrix(CodeMatrixSpec(n, 2)), rng) for n in range(9, 13)]
    cases += [
        star_heavy_matrix(rng, rng.randint(10, 14), rng.randint(9, 12), 0.7) for _ in range(40)
    ]
    settled = 0
    for A in cases:
        found.clear()
        r, W = min_rank_completion(fresh(A))
        for V in found:
            assert check(A, V, r, r) == W
        settled += bool(found)
    assert settled >= 10  # 13 of the 44 settle from the kernel side


def test_a_subspace_meeting_the_forbidden_set_is_an_internal_error():
    # the row 1* forbids 10: zero on the star and odd against the one
    with pytest.raises(InternalError):
        partial._orthogonal_completion([(0b01, 0b10)], 2, (0b01,))


def per_row_completion(rows, n, V):
    """_orthogonal_completion by one gf2.solve per row; None for a row
    with no completion orthogonal to V."""
    out = []
    for a, s in rows:
        rhs = sum(dot(a, v) << i for i, v in enumerate(V))
        x = solve(GF2Matrix(n, tuple(v & s for v in V)), rhs)
        out.append(None if x is None else a ^ x)
    return out


def test_one_elimination_per_star_set_completes_as_one_solve_per_row():
    # many rows share each star set, as the r + 1 rows of each star set
    # of a code matrix do; every V the kernel side finds completes them
    # all, and a random V either completes them as the per-row solve does
    # or meets a row's forbidden set
    rng = random.Random(89)
    cases = [shuffled_rows(code_matrix(CodeMatrixSpec(n, r)), rng) for n, r in ((6, 2), (7, 3))]
    for _ in range(40):
        n = rng.randint(4, 8)
        star_sets = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
        rows = [
            (a, s)
            for s in star_sets
            for a in {rng.getrandbits(n) & ~s for _ in range(rng.randint(2, 8))} - {0}
        ]
        rng.shuffle(rows)
        cases.append(PartialMatrix(n, tuple(a for a, _ in rows), tuple(s for _, s in rows)))
    found = refused = 0
    for A in cases:
        rows, _ = _prepare_rows(A)
        n = A.n
        K = partial._forbidden_bitmap(rows, n)
        for dim in range(1, n + 1):
            V = partial._KernelSide(K, n, dim, partial._Deadline(None, n)).run()
            if V is None:
                break
            assert partial._orthogonal_completion(rows, n, V) == per_row_completion(rows, n, V)
            found += 1
        for _ in range(5):
            V = rref(rng.getrandbits(n) for _ in range(rng.randint(1, n)))
            want = per_row_completion(rows, n, V)
            if None in want:
                with pytest.raises(InternalError):
                    partial._orthogonal_completion(rows, n, V)
                refused += 1
            else:
                assert partial._orthogonal_completion(rows, n, V) == want
    assert found >= 50 and refused >= 50  # 102 and 161


def completion_ticks(monkeypatch, fresh, A):
    """The ticks of every search clock of one min_rank_completion(A)."""
    clocks = []

    class Counted(partial._Deadline):
        def __init__(self, *args):
            super().__init__(*args)
            clocks.append(self)

    monkeypatch.setattr(partial, "_Deadline", Counted)
    min_rank_completion(fresh(A))
    return sum(clock.ticks for clock in clocks)


def test_the_orthogonal_finish_saves_completion_ticks(monkeypatch, fresh):
    # once the kernel side finds its subspace no search is left; these
    # worklists are longer than the race's 16-tick first slice, so the
    # kernel side goes first, and Delsarte's LP puts the floor at the
    # min rank: 2 ticks on code (7, 3) and on code (6, 2), 3 on H1 =
    # code (7, 2) and on code (8, 2), and 0 on code (7, 4), against 32
    # to 35 when the rank side took the first turn; finishing the target
    # by the rank side's search takes 6,858 ticks on code (7, 3), 19,539
    # on code (7, 2) and 66,349 on code (8, 2)
    pins = (((7, 3), 10), ((6, 2), 10), ((7, 2), 10), ((8, 2), 10), ((7, 4), 10))
    for (n, r), most in pins:
        assert completion_ticks(monkeypatch, fresh, code_matrix(CodeMatrixSpec(n, r))) <= most


def race_turns(monkeypatch, fresh, A):
    """The turns of one min_rank_completion(A), in order, as (side, the
    clock's ticks when the turn began)."""
    turns = []
    for cls, side in ((partial._RankSide, "rank"), (partial._KernelSide, "kernel")):

        def resume(self, stop, real=cls.resume, side=side):
            turns.append((side, self.clock.ticks))
            return real(self, stop)

        monkeypatch.setattr(cls, "resume", resume)
    min_rank_completion(fresh(A))
    return turns


def test_a_worklist_longer_than_the_first_slice_starts_on_the_kernel_side(monkeypatch, fresh):
    # the rank side takes a tick per row before it can complete: 140 rows
    # on code (7, 3) and 63 on H1 = code (7, 2), against a 16-tick first
    # slice, so the kernel side takes the first turn, and settles there
    for n, r in ((7, 3), (7, 2)):
        A = code_matrix(CodeMatrixSpec(n, r))
        assert len(_prepare_rows(A)[0]) > 16
        assert race_turns(monkeypatch, fresh, A)[0] == ("kernel", 0)
        assert_min_rank_completion(A)


def test_a_sweep_item_still_starts_on_the_rank_side(monkeypatch, fresh):
    # a 4x8 worklist fits in its 16-tick first slice, where the rank side
    # can complete it; records 91 and 100 of the seed-0 sweep go on to
    # the kernel side
    kernel_turns = 0
    for A in _random_matrices(4, 8, 101, 0):
        turns = race_turns(monkeypatch, fresh, A)
        assert turns[0] == ("rank", 0)
        kernel_turns += any(side == "kernel" for side, _ in turns)
    assert kernel_turns == 2


def test_min_rank_of_codes_past_n_8_within_a_deadline(monkeypatch):
    subspaces = []
    real = partial._orthogonal_completion

    def spy(rows, n, V):
        subspaces.append(Subspace.span(V, n))
        return real(rows, n, V)

    monkeypatch.setattr(partial, "_orthogonal_completion", spy)
    for (n, d), want in (((9, 2), 4), ((10, 2), 4), ((11, 2), 4), ((10, 3), 5), ((12, 3), 5)):
        A = code_matrix(CodeMatrixSpec(n, d))
        r, W = min_rank_completion(A, deadline=time.monotonic() + 2)
        assert r == want and rank(W) == r and is_completion(A, W)
        assert kernel(W) == subspaces[-1]


def sliced(search, size):
    """Run a decider in slices of `size` ticks: its result and ticks."""
    while not search.resume(search.clock.ticks + size):
        pass
    return search.found, search.clock.ticks


def test_deciders_resume_in_slices_as_in_one_run(monkeypatch, fresh):
    # paused every 1, 7 or 256 ticks, each search finds what one run
    # finds with the same ticks, so no pause walks a node twice: the rank
    # side and the kernel side on both sides of the min rank r, and the
    # coset certificate's search for subspaces inside K
    rng = random.Random(73)
    cases = [star_heavy_matrix(rng, rng.randint(4, 12), rng.randint(4, 8), 0.4) for _ in range(30)]
    cases += [shuffled_rows(code_matrix(CodeMatrixSpec(7, r)), rng) for r in (2, 3)]
    paused = 0
    for A in cases:
        n, r = A.n, min_rank(A)
        rows, _ = _prepare_rows(A)
        K = partial._forbidden_bitmap(rows, n)
        inside = ((1 << (1 << n)) - 1) & ~K & ~1
        makes = [lambda c, t=t: partial._RankSide(rows, n, t, c) for t in {max(r - 1, 0), r}]
        makes += [lambda c, d=d: partial._KernelSide(K, n, d, c) for d in (n - r, n - r + 1)]
        makes += [lambda c, d=d: partial._KernelSide(inside, n, d, c) for d in range(1, r + 2)]
        for make in makes:
            whole = make(partial._Deadline(None, n))
            whole.run()
            for size in (1, 7, 256):
                assert sliced(make(partial._Deadline(None, n)), size) == (
                    whole.found,
                    whole.clock.ticks,
                )
            paused += whole.clock.ticks > 256
    assert paused >= 10
    # the race on this 12 x 8 matrix takes 297 ticks over four rounds;
    # restarting the rank side at the root after every slice takes 348
    A = star_heavy_matrix(random.Random(16), 12, 8, 0.5)
    assert completion_ticks(monkeypatch, fresh, A) <= 300


def pin_corpus():
    """The sweep's shapes, as the records of `minrank search --mode random
    --seed 0`, then seeded random and star-heavy 6-8 x 9-12 matrices."""
    cases = list(_random_matrices(4, 8, 101, 0))
    cases += _random_matrices(5, 10, 30, 0)
    cases += _random_matrices(6, 12, 10, 0)
    rng = random.Random(2036)
    cases += [random_matrix(rng, rng.randint(6, 8), rng.randint(9, 12)) for _ in range(40)]
    cases += [star_heavy_matrix(rng, rng.randint(6, 8), rng.randint(9, 12), 0.5) for _ in range(30)]
    return cases


# min_rank_completion on pin_corpus(), computed when each rank-side node
# reduced all n unit vectors: the min ranks, the ticks of its one clock,
# and the sha256 of the completions' rows
PIN_RANKS = (
    "32223333332334343233334333333343333343324433433233433342334334323323334343333232"
    "33333343233333233343234443324444343544334444444433344444544444455455555345465443"
    "434554555445465545464443433343343344343434443434333"
)
PIN_TICKS = (
    5, 8, 9, 5, 3, 3, 5, 8, 11, 5, 3, 8, 4, 4, 5, 4, 6, 3, 3, 4, 4, 3, 4, 3, 7, 11,
    4, 4, 5, 4, 4, 4, 4, 3, 4, 5, 4, 5, 4, 14, 4, 4, 5, 3, 4, 12, 4, 4, 6, 10, 4, 8,
    3, 3, 4, 6, 7, 3, 4, 3, 8, 4, 5, 5, 3, 6, 5, 4, 3, 5, 4, 7, 4, 10, 5, 5, 6, 6,
    9, 10, 8, 6, 4, 4, 4, 5, 4, 5, 3, 8, 5, 20, 7, 7, 4, 6, 4, 6, 4, 4, 21, 22, 10,
    7, 4, 26, 19, 6, 5, 8, 7, 5, 13, 7, 21, 5, 5, 5, 40, 8, 11, 6, 6, 10, 10, 5, 7,
    7, 5, 13, 9, 7, 14, 9, 2469, 19, 8, 8, 12, 52, 9, 27, 15, 8, 6, 263, 9, 15, 50,
    10, 8, 15, 5, 194, 11, 15, 21, 77, 10, 12, 10, 107, 43, 10, 20, 11, 10, 6, 32,
    7, 26, 10, 8, 8, 14, 8, 7, 12, 5, 9, 19, 8, 8, 63, 22, 183, 145, 264, 3722, 39,
    9, 15, 28, 86, 118, 46, 264, 7, 17, 69, 183, 182, 9, 40, 12, 7, 107, 31, 96,
    2631, 50,
)
PIN_COMPLETIONS = "3052ee4e5754e3122cf366b4913d3928a93dfc3453eaa55068701cb4a999f8de"


def test_the_race_keeps_every_rank_completion_and_tick(monkeypatch, fresh):
    clocks = []

    class Counted(partial._Deadline):
        def __init__(self, *args):
            super().__init__(*args)
            clocks.append(self)

    monkeypatch.setattr(partial, "_Deadline", Counted)
    ranks, ticks, digest = [], [], hashlib.sha256()
    for A in pin_corpus():
        clocks.clear()
        r, W = min_rank_completion(fresh(A))
        assert len(clocks) == 1
        ranks.append(str(r))
        ticks.append(clocks[0].ticks)
        digest.update(repr(W.rows).encode())
    assert "".join(ranks) == PIN_RANKS
    assert tuple(ticks) == PIN_TICKS
    assert digest.hexdigest() == PIN_COMPLETIONS


def test_the_rank_side_completes_a_21_by_15_at_its_pinned_tick():
    # min rank 6; its 12-column core at target 6, from the root
    A = parse_pmx(
        "01*000**01*010*\n000000*101***11\n0*10*0*001*00*0\n0*10*0*00*1*10*\n0011*0**0000*10\n"
        "0*1*000*0010*00\n0*11*0**0*01*0*\n0*1*001*0***110\n011*10**01*10*1\n001**010011*1*1\n"
        "00*1*000010**0*\n0*10*0**0**10*0\n0***00*00*11011\n0**000*10*1***1\n011000*1000**10\n"
        "0**0*0**01*0*1*\n0****0*00**00*0\n0****0*000**0**\n0**0*01*01*00*0\n01*0*0010**011*\n"
        "0*00101*01100**\n"
    )
    core = partial._drop_unused_columns(A)[0]
    rows, _ = _prepare_rows(core)
    clock = partial._Deadline(None, core.n)
    found = partial._RankSide(rows, core.n, 6, clock).run()
    assert clock.ticks == 5959
    assert found == [1059, 3168, 1038, 679, 4050, 1272, 593, 219, 2427, 836, 3459, 1705, 650, 1650, 219, 2390, 483, 2464, 1272]


def test_the_rank_side_keeps_no_record_per_node():
    # code (13, 2) at its column floor, 2, where min_rank starts: a long
    # refutation.  Past its first 20,000 ticks the two star caches
    # (partial._cleared_basis and _star_basis) are near their bound of
    # 4,096 entries each, so what the search allocates and keeps over the
    # next 15,000 is what they add and its stack, about 0.9 MB.  A set
    # of the nodes proven empty kept about 2 MB there.
    rec = code_matrix(CodeMatrixSpec(13, 2))._record
    assert col_min_rank(rec.A) == 2
    clock = partial._Deadline(None, rec.core.n)
    side = partial._RankSide(rec.rows, rec.core.n, 2, clock)
    assert side.resume(20_000) is False
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert side.resume(clock.ticks + 15_000) is False
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 1_250_000


def test_the_rank_side_memos_stay_bounded():
    # code (13, 2) at target 3 from the root meets about 11,000 distinct
    # (stars, starred basis vectors) keys in its first 30,000 ticks, and a
    # memo kept per search grew with them to about 10 MB; the two bounded
    # star caches, empty or full of other keys, peak at about 6.5 MB
    rec = code_matrix(CodeMatrixSpec(13, 2))._record
    side = partial._RankSide(rec.rows, rec.core.n, 3, partial._Deadline(None, rec.core.n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert side.resume(30_000) is False
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_a_worklist_past_the_recursion_limit(tall_matrix):
    limit = sys.getrecursionlimit()
    assert len(_prepare_rows(tall_matrix)[0]) > limit
    assert min_rank(tall_matrix) == 14
    assert sys.getrecursionlimit() == limit


def test_code_matrix_min_ranks():
    for r, want in ((3, 4), (4, 6), (5, 6)):
        assert min_rank(code_matrix(CodeMatrixSpec(7, r))) == want


@pytest.fixture
def dfs_calls(monkeypatch):
    """Count min_rank_completion's target searches."""
    calls = []

    class Counted(partial._RankSide):
        def __init__(self, rows, n, target, *args):
            calls.append(target)
            super().__init__(rows, n, target, *args)

    monkeypatch.setattr(partial, "_RankSide", Counted)
    return calls


def test_min_rank_then_opt_exact_completes_once(dfs_calls, fresh):
    A = fresh(A1)
    assert min_rank(A) == 2
    searched = len(dfs_calls)
    assert searched > 0
    assert opt_exact(A)[0] > 0
    assert len(dfs_calls) == searched
    # each of these completes a copy of A1 and then runs opt_exact on
    # it, which takes the completion from the copy's record
    for run in (report, evaluate_matrix, conjecture_epsilon):
        dfs_calls.clear()
        run(fresh(A1))
        assert len(dfs_calls) == searched


def test_opt_exact_reads_the_memo_without_a_completion_call(monkeypatch, fresh):
    calls = []
    real = partial.min_rank_completion

    def counted(*args):
        calls.append(args)
        return real(*args)

    for A in (A1, A2, code_matrix(CodeMatrixSpec(6, 2))):
        A = fresh(A)
        min_rank(A)
        for module in (partial, solutions):
            monkeypatch.setattr(module, "min_rank_completion", counted, raising=False)
        opt_exact(A)
        assert calls == []
        monkeypatch.undo()


def test_min_rank_then_opt_exact_builds_k_and_the_ratio_bound_once(monkeypatch, fresh):
    # K and its ratio bound, Delsarte's LP included, are built by the
    # completion record (partial._forbidden_bitmap, partial._ratio_bound)
    # when the race or opt_exact first reads them; a second K built by
    # opt_exact would go through solutions._required_bitmap
    builds = {"K": 0, "ratio": 0, "lp": 0}

    def spy(module, name, kind):
        real = getattr(module, name)

        def counted(*args):
            builds[kind] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    spy(partial, "_forbidden_bitmap", "K")
    spy(solutions, "_required_bitmap", "K")
    spy(partial, "_ratio_bound", "ratio")
    spy(gf2, "_delsarte_lp", "lp")
    rng = random.Random(67)
    raced = solved = 0
    for n in range(2, 8):
        for r in range(1, n):
            code = code_matrix(CodeMatrixSpec(n, r))
            for A in (fresh(code), shuffled_rows(code, rng)):
                gf2._delsarte_bound.cache_clear()
                builds.update(K=0, ratio=0, lp=0)
                min_rank(A)
                raced += builds["K"]
                opt_exact(A)
                assert builds["K"] == 1 and builds["ratio"] <= 1, (n, r, builds)
                assert builds["lp"] <= builds["ratio"], (n, r, builds)
                solved += builds["lp"]
    assert raced >= 10  # 16 of the 42 reach the race's kernel side
    assert solved >= 30  # 34 of the 42 solve the LP


def test_min_rank_then_opt_exact_builds_the_worklist_and_k_once(monkeypatch, fresh):
    # code (6, 2) with an unused column 3, which the record drops once, and
    # H2, whose parity engine and relaxed engine take the record's
    # worklist.  The relaxed engine's own K, of one row fewer, is a
    # different set and is not counted.
    code = code_matrix(CodeMatrixSpec(6, 2))
    keep = [0, 1, 2, 4, 5, 6]
    wide = PartialMatrix(
        7,
        tuple(gf2._spread(a, keep) for a in code.ones),
        tuple(gf2._spread(s, keep) for s in code.stars),
    )
    H2 = parse_pmx("***1*111\n100**0*1\n**011110\n11*0***1\n")
    cases = [(A, len(_prepare_rows(A)[0])) for A in (wide, H2)]
    builds = {"worklist": 0, "K": 0, "ratio": 0}

    def spy(name, kind, counts=lambda args: True):
        # every module binding of the name, partial's and solutions' alike
        real = getattr(partial, name)

        def counted(*args):
            builds[kind] += counts(args)
            return real(*args)

        for module in (partial, solutions):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)

    spy("_prepare_rows", "worklist")
    spy("_forbidden_bitmap", "K", lambda args: len(args[0]) >= length)
    spy("_ratio_bound", "ratio")
    for A, length in cases:
        A = fresh(A)
        builds.update(worklist=0, K=0, ratio=0)
        min_rank(A)
        _, sol = opt_exact(A)
        assert builds["worklist"] == 1 and builds["K"] == 1 and builds["ratio"] <= 1, builds
        assert is_solution(A, sol)
    assert opt_exact(fresh(wide))[0] == 2 * opt_exact(code)[0]


def test_a_matrix_keeps_its_record_while_others_complete(dfs_calls, fresh):
    A = fresh(A1)
    first = min_rank_completion(A)
    rec = partial._completed(A)
    for B in (A2, code_matrix(CodeMatrixSpec(6, 2)), parse_pmx("1*0*1\n*11*0\n01*11\n")):
        min_rank_completion(fresh(B))
    dfs_calls.clear()
    assert min_rank_completion(A) == first and opt_exact(A)[0] == 16
    assert dfs_calls == [] and partial._completed(A) is rec


def test_an_equal_but_distinct_matrix_completes_on_its_own(dfs_calls, fresh):
    A = fresh(A1)
    first = min_rank_completion(A)
    searched = len(dfs_calls)
    twin = PartialMatrix(A1.n, tuple(list(A1.ones)), tuple(list(A1.stars)))
    assert twin is not A and twin.ones is not A.ones
    assert min_rank_completion(twin) == first
    assert len(dfs_calls) == 2 * searched
    assert partial._completed(twin) is not partial._completed(A)


def test_a_record_leaves_equality_hash_and_repr_alone(fresh):
    A, twin = fresh(A1), fresh(A1)
    before = hash(A), repr(A)
    min_rank(A)
    assert "_record" in vars(A) and "_record" not in vars(twin)
    assert A == twin and (hash(A), repr(A)) == before == (hash(twin), repr(twin))
    assert {twin: "found"}[A] == "found"


def test_threads_on_different_matrices_each_get_their_own_opt(fresh):
    # three threads, more than the cores, under a tiny switch interval:
    # first all three walk one list of copies, so they complete each
    # shared record at once, then each walks copies of its own; the
    # copies alternate two matrices, and every answer must be its own
    cases = [(code_matrix(CodeMatrixSpec(5, 2)), 4), (parse_pmx("1*0*1\n*11*0\n01*11\n"), 8)]

    def copies():
        return [(fresh(A), want) for _ in range(2000) for A, want in cases]

    def run(walks):
        answers, stop = [], time.monotonic() + 0.5

        def loop(walk):
            for A, want in walk:
                if time.monotonic() > stop:
                    break
                try:
                    answers.append(opt_exact(A)[0] == want)
                except LimitError:
                    answers.append(False)

        threads = [threading.Thread(target=loop, args=(walk,)) for walk in walks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) > 100 and all(answers)

    run([copies()] * 3)
    run([copies() for _ in range(3)])


def test_deadline_refusal_is_not_memoized(dfs_calls, fresh):
    A = fresh(code_matrix(CodeMatrixSpec(6, 3)))
    with pytest.raises(LimitError):
        min_rank_completion(A, deadline=time.monotonic() - 1)
    assert A._record.answer is None
    refused = len(dfs_calls)
    assert_min_rank_completion(A)
    assert len(dfs_calls) > refused


def star_heavy_matrix(rng, m, n, density):
    """Each entry a star with probability `density`, else 0 or 1 evenly."""
    ones, stars = [], []
    for _ in range(m):
        a = s = 0
        for j in range(n):
            if rng.random() < density:
                s |= 1 << j
            elif rng.random() < 0.5:
                a |= 1 << j
        ones.append(a)
        stars.append(s)
    return PartialMatrix(n, tuple(ones), tuple(stars))


def test_kernel_side_agrees_with_the_rank_side_at_every_target():
    # a subspace of dimension n - t avoids the forbidden set iff some
    # completion has rank at most t
    rng = random.Random(53)
    cases = [random_matrix(rng, rng.randint(1, 8), rng.randint(1, 7)) for _ in range(200)]
    cases += [star_heavy_matrix(rng, 12, 6, 0.6) for _ in range(60)]
    cases += [star_heavy_matrix(rng, rng.randint(8, 15), 7, 0.5) for _ in range(40)]
    feasible = infeasible = 0
    for A in cases:
        rows, _ = _prepare_rows(A)
        K = partial._forbidden_bitmap(rows, A.n)
        for t in range(A.n + 1):
            clock = partial._Deadline(None, A.n)
            kernel_side = partial._KernelSide(K, A.n, A.n - t, clock).run() is not None
            rank_side = partial._RankSide(rows, A.n, t, clock).run() is not None
            assert kernel_side == rank_side
            feasible += kernel_side
            infeasible += not kernel_side
    assert feasible > 1000 and infeasible > 400


def test_deadline_reads_the_clock_by_width():
    # the clock is read every 2^(10 - n) ticks, so an expired deadline
    # is noticed at that check, and at the first from n = 10 on
    for n in (4, 8, 12):
        period = 1 << max(0, 10 - n)
        clock = partial._Deadline(time.monotonic() - 1, n)
        with pytest.raises(LimitError):
            for _ in range(period):
                clock.check()
        assert clock.ticks == period


def test_min_rank_of_code_8_2_and_h1_within_a_deadline():
    for (n, r), want in (((8, 2), 4), ((7, 2), 3)):
        A = code_matrix(CodeMatrixSpec(n, r))
        assert min_rank(A, deadline=time.monotonic() + 10) == want


def test_expired_deadline_on_the_race_leaves_the_memo(monkeypatch, fresh):
    kernel_calls = []

    class Spy(partial._KernelSide):
        def __init__(self, K, n, dim, clock):
            kernel_calls.append(dim)
            super().__init__(K, n, dim, clock)

    monkeypatch.setattr(partial, "_KernelSide", Spy)
    B = fresh(A1)
    held = min_rank_completion(B)
    entry = B._record
    A = code_matrix(CodeMatrixSpec(6, 3))
    with pytest.raises(LimitError):
        min_rank_completion(A, deadline=time.monotonic() - 1)
    assert B._record is entry and entry.answer == held
    assert_min_rank_completion(A)
    assert kernel_calls  # the race reached the kernel side


def test_wide_matrices_run_the_rank_side_alone_within_a_deadline(monkeypatch):
    # only cores with n <= 12 race: the 8 x 16 matrix runs the rank
    # side alone (about 0.3 s), while the 16 x 12 one reaches the kernel
    # side, whose subspace settles it in about 0.01 s against about 0.4 s
    # for the rank side alone
    kernel_widths = []

    class Spy(partial._KernelSide):
        def __init__(self, K, n, dim, clock):
            kernel_widths.append(n)
            super().__init__(K, n, dim, clock)

    monkeypatch.setattr(partial, "_KernelSide", Spy)
    tall = star_heavy_matrix(random.Random(3), 8, 16, 0.4)
    rng = random.Random(6)
    star_heavy_matrix(rng, 8, 16, 0.4)
    wide = star_heavy_matrix(rng, 16, 12, 0.5)
    for A, want, widths in ((tall, 4, set()), (wide, 5, {12})):
        kernel_widths.clear()
        r, W = min_rank_completion(A, deadline=time.monotonic() + 5)
        assert r == want and rank(W) == r and is_completion(A, W)
        assert set(kernel_widths) == widths


def test_the_race_agrees_with_the_rank_side_alone_from_n_9_to_12(monkeypatch, fresh):
    rng = random.Random(71)
    cases = [random_matrix(rng, rng.randint(3, 8), rng.randint(9, 12)) for _ in range(40)]
    cases += [
        star_heavy_matrix(rng, rng.randint(10, 14), rng.randint(9, 12), 0.7) for _ in range(20)
    ]
    built = []
    real = partial._orthogonal_completion

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(partial, "_orthogonal_completion", spy)
    raced = []
    for A in cases:
        r, W = min_rank_completion(fresh(A))
        assert is_completion(A, W) and rank(W) == r
        raced.append(r)
    settled = len(built)
    assert settled >= 4  # answers built from the kernel side's subspace: 4 of the 60
    monkeypatch.setattr(partial, "_KERNEL_SIDE_N", 0)  # the rank side alone
    for A, r in zip(cases, raced):
        assert min_rank(fresh(A)) == r
    assert len(built) == settled


def test_unused_columns_complete_as_the_core(monkeypatch, fresh):
    # min_rank_completion drops the unused columns once and completes the
    # core, so A's answer is the core's with zero columns put back.  With
    # n = 13 to 16 and a core at most 11 wide, A races: the kernel side
    # runs on such an A.  The min rank agrees with the rank side alone.
    kernel_widths = []

    class Spy(partial._KernelSide):
        def __init__(self, K, n, dim, clock):
            kernel_widths.append(n)
            super().__init__(K, n, dim, clock)

    monkeypatch.setattr(partial, "_KernelSide", Spy)
    rng = random.Random(83)
    raced = 0
    for _ in range(50):
        core_n = rng.randint(4, 11)
        n = rng.randint(core_n + 1, core_n + 2) if rng.random() < 0.3 else rng.randint(13, 16)
        keep = sorted(rng.sample(range(n), core_n))
        core = star_heavy_matrix(rng, rng.randint(3, 20), core_n, 0.5)
        if partial._drop_unused_columns(core)[0] is not core:
            continue
        A = PartialMatrix(
            n,
            tuple(gf2._spread(a, keep) for a in core.ones),
            tuple(gf2._spread(s, keep) for s in core.stars),
        )
        kernel_widths.clear()
        r, W = min_rank_completion(fresh(A))
        raced += n > 12 and core_n in kernel_widths
        assert is_completion(A, W) and rank(W) == r
        rc, Wc = min_rank_completion(fresh(core))
        assert (r, W.rows) == (rc, tuple(gf2._spread(w, keep) for w in Wc.rows))
        with monkeypatch.context() as m:
            m.setattr(partial, "_KERNEL_SIDE_N", 0)  # the rank side alone
            assert min_rank(fresh(A)) == r
    assert raced >= 15  # 19 of the draws race at n > 12


def test_min_rank_then_opt_exact_finds_the_column_floor_once(monkeypatch, fresh):
    calls = []
    real = partial._column_floor

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(partial, "_column_floor", counted)
    rng = random.Random(59)
    cases = [A1, A2, PartialMatrix(8, A1.ones, A1.stars)]  # two unused columns
    cases += [random_matrix(rng, rng.randint(2, 5), rng.randint(4, 9)) for _ in range(40)]
    for A in cases:
        calls.clear()
        warm = fresh(A)
        min_rank(warm)
        value, sol = opt_exact(warm)
        assert len(calls) == 1
        cold = opt_exact(fresh(A))
        assert (value, sol.sorted_members()) == (cold[0], cold[1].sorted_members())
