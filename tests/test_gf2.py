"""Unit tests for the packed GF(2) linear algebra."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from minrank.errors import InternalError, LimitError
from minrank.gf2 import (
    GF2Matrix,
    _bits,
    _delsarte_check,
    _delsarte_bound,
    _delsarte_lp,
    _ratio_bound,
    _star_classes,
    _weight_classes,
    Subspace,
    dot,
    enumerate_subspaces,
    kernel,
    min_weight_nonzero,
    orthogonal_complement,
    rank,
    reduce_vector,
    rref,
    solve,
    subspaces_of_dim,
    vec,
    vec_text,
)


def list_rank(rows, n):
    """Independent oracle: elimination over lists of 0/1 ints."""
    mat = [[(r >> j) & 1 for j in range(n)] for r in rows]
    rk = 0
    for col in range(n):
        piv = next((i for i in range(rk, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        for i in range(len(mat)):
            if i != rk and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rk])]
        rk += 1
    return rk


def random_matrix(rng, m, n):
    return GF2Matrix(n, tuple(rng.getrandbits(n) for _ in range(m)))


def test_vec_round_trip():
    assert vec("10110") == 0b01101
    assert vec_text(0b01101, 5) == "10110"
    with pytest.raises(ValueError, match="bad vector character '2'"):
        vec("102")
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 20)
        x = rng.getrandbits(n)
        assert vec(vec_text(x, n)) == x


def test_dot():
    assert dot(0b101, 0b100) == 1
    assert dot(0b101, 0b110) == 1
    assert dot(0b101, 0b111) == 0
    assert dot(0, 0b111) == 0


def test_mul_vec_matches_dots():
    rng = random.Random(7)
    for _ in range(100):
        n, m = rng.randint(1, 10), rng.randint(1, 6)
        M = random_matrix(rng, m, n)
        x = rng.getrandbits(n)
        y = M.mul_vec(x)
        for i in range(m):
            assert (y >> i) & 1 == dot(M.rows[i], x)


def test_transpose_involution():
    rng = random.Random(11)
    for _ in range(50):
        n, m = rng.randint(1, 12), rng.randint(1, 8)
        M = random_matrix(rng, m, n)
        T = M.transpose()
        assert T.m == n and T.n >= m
        for i in range(m):
            for j in range(n):
                assert (M.rows[i] >> j) & 1 == (T.rows[j] >> i) & 1


def test_rank_against_list_oracle():
    rng = random.Random(13)
    for _ in range(300):
        n, m = rng.randint(1, 12), rng.randint(1, 10)
        rows = [rng.getrandbits(n) for _ in range(m)]
        assert rank(GF2Matrix(n, tuple(rows))) == list_rank(rows, n)


def test_rref_canonical_and_span_preserving():
    rng = random.Random(17)
    for _ in range(100):
        n, m = rng.randint(1, 10), rng.randint(1, 8)
        M = random_matrix(rng, m, n)
        R = rref(M.rows)
        # same rank, idempotent, and every original row reduces to zero
        assert len(R) == rank(M)
        assert rref(R) == R
        for r in M.rows:
            assert reduce_vector(r, R) == 0
        # each pivot appears in exactly one rref row
        for row in R:
            p = row & -row
            assert sum(1 for q in R if q & p) == 1


def test_kernel_is_the_full_null_space():
    rng = random.Random(19)
    for _ in range(100):
        n, m = rng.randint(1, 9), rng.randint(0, 6)
        M = random_matrix(rng, m, n)
        V = kernel(M)
        assert V.dim == n - rank(M)
        hit = {x for x in range(1 << n) if M.mul_vec(x) == 0}
        assert set(V.vectors()) == hit


def test_solve_round_trip_and_unsolvable():
    rng = random.Random(23)
    for _ in range(200):
        n, m = rng.randint(1, 10), rng.randint(1, 8)
        M = random_matrix(rng, m, n)
        x0 = rng.getrandbits(n)
        b = M.mul_vec(x0)
        x = solve(M, b)
        assert x is not None and M.mul_vec(x) == b
        # perturb b outside the column space when possible
        bad = solve(M, b ^ 1)
        if bad is not None:
            assert M.mul_vec(bad) == b ^ 1


def test_solve_detects_inconsistency():
    M = GF2Matrix(2, (0b01, 0b01))
    assert solve(M, 0b01) is None
    assert solve(M, 0b11) == 0b01


def test_subspace_span_contains_members():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 8)
        gens = [rng.getrandbits(n) for _ in range(rng.randint(0, 5))]
        S = Subspace.span(gens, n)
        vecs = list(S.vectors())
        assert len(vecs) == 1 << S.dim
        assert len(set(vecs)) == len(vecs)
        assert 0 in vecs
        for g in gens:
            assert S.contains(g)
        for x in vecs:
            assert S.contains(x)


def test_orthogonal_complement_pairing():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 9)
        S = Subspace.span([rng.getrandbits(n) for _ in range(3)], n)
        C = orthogonal_complement(S)
        assert S.dim + C.dim == n
        for x in S.vectors():
            for y in C.basis:
                assert dot(x, y) == 0
        CC = orthogonal_complement(C)
        assert CC.dim == S.dim
        assert all(S.contains(x) for x in CC.basis)


def test_min_weight_nonzero_exhaustive():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(1, 9)
        S = Subspace.span([rng.getrandbits(n) for _ in range(rng.randint(1, 4))], n)
        got = min_weight_nonzero(S)
        want = min(
            (x.bit_count() for x in S.vectors() if x), default=None
        )
        assert got == want


def test_min_weight_nonzero_limit():
    # the scan stops at its first weight-1 vector, so 24 dimensions are
    # quick; 25 are refused before any vector is read
    assert min_weight_nonzero(Subspace(40, tuple(1 << i for i in range(24)))) == 1
    S = Subspace(40, tuple(1 << i for i in range(25)))
    with pytest.raises(LimitError, match="dimension 25 exceeds 24"):
        min_weight_nonzero(S)


def test_subspace_counts_match_gaussian_binomials():
    # number of k-dim subspaces of GF(2)^n
    expected = {
        (3, 0): 1, (3, 1): 7, (3, 2): 7, (3, 3): 1,
        (4, 0): 1, (4, 1): 15, (4, 2): 35, (4, 3): 15, (4, 4): 1,
    }
    for (n, k), count in expected.items():
        spaces = list(subspaces_of_dim(n, k))
        assert len(spaces) == count
        assert all(S.dim == k for S in spaces)
        # all distinct as sets of vectors
        seen = {frozenset(S.vectors()) for S in spaces}
        assert len(seen) == count


def test_enumerate_subspaces_total():
    assert sum(1 for _ in enumerate_subspaces(3)) == 16
    assert sum(1 for _ in enumerate_subspaces(4)) == 67
    with pytest.raises(LimitError):
        list(enumerate_subspaces(9))


def test_empty_and_degenerate_matrices():
    M = GF2Matrix(3, ())
    assert rank(M) == 0
    assert kernel(M).dim == 3
    assert M.mul_vec(5) == 0
    with pytest.raises(ValueError, match="at least one column"):
        GF2Matrix(0)
    with pytest.raises(ValueError, match="outside the declared width"):
        GF2Matrix(2, (4,))


def test_star_classes_index_by_star_pattern_then_parities():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 6)
        s = rng.getrandbits(n)
        basis = [rng.getrandbits(n) for _ in range(rng.randint(0, 2))]
        stars = [j for j in range(n) if (s >> j) & 1]
        classes = _star_classes(s, n, basis)
        assert len(classes) == 1 << (len(stars) + len(basis))
        for x in range(1 << n):
            p = sum(((x >> j) & 1) << t for t, j in enumerate(stars))
            p |= sum(dot(b, x) << (len(stars) + t) for t, b in enumerate(basis))
            assert [(c >> x) & 1 for c in classes] == [int(i == p) for i in range(len(classes))]


def test_weight_classes_split_the_space_by_weight():
    for n in range(1, 9):
        classes = _weight_classes(n)
        assert len(classes) == n + 1
        for x in range(1 << n):
            weight = x.bit_count()
            assert [(c >> x) & 1 for c in classes] == [int(w == weight) for w in range(n + 1)]


def punctured_ball(r):
    # the distances 1..r, as bits of W
    return (1 << (r + 1)) - 2


def test_delsarte_lp_values_on_punctured_balls():
    # Delsarte's LP for codes of length n and minimum distance r + 1:
    # its optimum is the dual objective 1 + sum_k y_k C(n, k)
    for (n, r), want in (
        ((7, 3), 8),
        ((7, 4), 3),
        ((8, 2), Fraction(128, 5)),
        ((8, 3), 16),
        ((9, 2), Fraction(128, 3)),
    ):
        W = punctured_ball(r)
        y, D = _delsarte_lp(n, W)
        assert Fraction(D + sum(v * comb(n, k) for k, v in enumerate(y, 1)), D) == want
        assert _delsarte_check(n, W, y, D) == int(want)


def test_delsarte_check_refuses_a_tampered_dual():
    # y is optimal and every C(n, k) > 0, so lowering any positive y_k
    # gives a smaller objective, which no feasible dual reaches
    lowered = 0
    cases = ((7, punctured_ball(3)), (8, punctured_ball(2)), (9, punctured_ball(2)), (6, 0b1010))
    for n, W in cases:
        y, D = _delsarte_lp(n, W)
        for k, v in enumerate(y):
            if v > 0:
                with pytest.raises(InternalError):
                    _delsarte_check(n, W, y[:k] + (v - 1,) + y[k + 1 :], D)
                lowered += 1
        with pytest.raises(InternalError):
            _delsarte_check(n, W, (-1,) + y[1:], D)
    assert lowered >= 8


def ball_bitmap(n, r):
    # the vectors of weight 1..r
    return sum(cls for w, cls in enumerate(_weight_classes(n)) if 1 <= w <= r)


def test_plotkin_bound_meets_a_n_d_where_it_is_tight():
    # A(n, d) from MacWilliams and Sloane's table: Plotkin's bound is the
    # ratio bound here.  Delsarte's LP alone is looser on (7, 5), (8, 6)
    # and (12, 7); on (12, 7), an odd d, only the bound of length n + 1
    # and distance d + 1 is tight
    cases = ((7, 5), 2), ((8, 6), 2), ((9, 5), 6), ((11, 7), 4), ((12, 7), 4)
    for (n, d), want in cases:
        assert _ratio_bound(ball_bitmap(n, d - 1), n) == want, (n, d)
        assert _delsarte_bound(n, punctured_ball(d - 1)) >= want
    lp = [_delsarte_bound(n, punctured_ball(d - 1)) for n, d in ((7, 5), (8, 6), (12, 7))]
    assert lp == [3, 3, 5]


def test_plotkin_bound_past_the_length_leaves_one_vector():
    # K holds every nonzero vector, so d = n + 1 and every solution is a
    # single vector; Plotkin's bound is not used there
    for n in range(1, 9):
        assert _ratio_bound((1 << (1 << n)) - 2, n) == 1


def walsh_by_lists(K, n):
    """Independent oracle: the Walsh-Hadamard transform of K's indicator,
    entry y the sum over x in K of (-1)^<x, y>, one list entry at a
    time."""
    v = [K >> x & 1 for x in range(1 << n)]
    for j in range(n):
        h = 1 << j
        for x in range(1 << n):
            if not x & h:
                v[x], v[x | h] = v[x] + v[x | h], v[x] - v[x | h]
    return v


def test_ratio_bound_is_the_whole_space_without_a_whole_weight_class():
    # seeded K at n = 1..12, sparse and dense, each with one vector of
    # every weight class left out, and single vectors below weight n: no
    # class is whole, so no distance is avoided and the bound is 2^n
    rng = random.Random(131)
    cases = [(0, n) for n in range(1, 13)]
    cases += [(1 << rng.randrange((1 << n) - 1), n) for n in range(1, 13)]
    for n in range(1, 13):
        for density in (0.1, 0.5, 0.9):
            K = sum(1 << x for x in range(1 << n) if rng.random() < density)
            for w in range(1, n + 1):
                K &= ~(1 << rng.choice([x for x in range(1 << n) if x.bit_count() == w]))
            cases.append((K, n))
    for K, n in cases:
        assert not any(
            all(K >> x & 1 for x in range(1 << n) if x.bit_count() == w) for w in range(1, n + 1)
        )
        assert _ratio_bound(K, n) == 1 << n, (n, K)


def test_ratio_bound_on_code_k_is_delsarte_or_plotkin_and_never_above_hoffman():
    # K of code (n, r) is the weights 1..r, so d = r + 1.  The ratio bound
    # is the smaller of Delsarte's LP and Plotkin's bound, and Hoffman's
    # ratio bound on the Cayley graph of K, from its least eigenvalue
    # (Hoffman 1970), is never below it.  Up to n = 5 the list transform
    # is checked against the definition
    for n in range(2, 13):
        for r in range(1, n):
            K = ball_bitmap(n, r)
            n1, d1 = n + (r + 1) % 2, r + 1 + (r + 1) % 2
            plotkin = 2 * (d1 // (2 * d1 - n1)) if 2 * d1 > n1 else 1 << n
            bound = _ratio_bound(K, n)
            assert bound == min(_delsarte_bound(n, punctured_ball(r)), plotkin), (n, r)
            eigenvalues = walsh_by_lists(K, n)
            if n <= 5:
                assert eigenvalues == [
                    sum((-1) ** dot(x, y) for x in range(1 << n) if K >> x & 1)
                    for y in range(1 << n)
                ]
            low = min(eigenvalues)
            assert bound <= ((1 << n) * -low) // (K.bit_count() - low), (n, r)


def test_bits_lists_the_members_lowest_first():
    # _bits against a one-bit-at-a-time walk: on 0, on small masks, and
    # on sparse, dense and full 4,096-bit bitmaps
    rng = random.Random(137)
    values = [0, 1, 2, 3, 128, 255, 256, 257, (1 << 64) - 1]
    values += [rng.getrandbits(rng.randint(1, 16)) for _ in range(300)]
    values += [sum(1 << x for x in rng.sample(range(4096), k)) for k in (1, 32, 250, 1000)]
    values += [rng.getrandbits(4096) for _ in range(4)] + [(1 << 4096) - 1]
    for v in values:
        assert list(_bits(v)) == [j for j in range(v.bit_length()) if v >> j & 1]
