"""Unit tests for forbidden sets, solutions, and the exact opt search."""

import random
import time
from itertools import product

import pytest

from minrank.codes import CodeMatrixSpec, code_matrix
from minrank.errors import LimitError, OperatorConflict
from minrank.gf2 import Subspace, dot, kernel
from minrank.partial import PartialMatrix, col_min_rank, min_rank, min_rank_completion
from minrank.pmx import parse_pmx
from minrank.solutions import (
    SolutionSet,
    _avoids,
    _OptSearch,
    _ratio_bound,
    brute_force_opt_tiny,
    codistance,
    conjecture_epsilon,
    forbidden_set,
    is_solution,
    lin_exact,
    linear_hull_check,
    opt_exact,
    reconstruct_operator,
    separating_min_rank,
    xor_translate,
)

A1 = parse_pmx("10*0*1\n*111**\n0**1**\n")


def random_matrix(rng, m, n, star_cap=None):
    ones, stars = [], []
    for _ in range(m):
        a = s = 0
        cols = list(range(n))
        rng.shuffle(cols)
        cap = n if star_cap is None else star_cap
        picked = 0
        for j in cols:
            c = rng.randrange(3)
            if c == 1:
                a |= 1 << j
            elif c == 2 and picked < cap:
                s |= 1 << j
                picked += 1
        ones.append(a)
        stars.append(s)
    return PartialMatrix(n, tuple(ones), tuple(stars))


def test_forbidden_set_by_definition():
    rng = random.Random(3)
    for _ in range(80):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        F = forbidden_set(A)
        for x in range(1 << A.n):
            want = any(
                x & s == 0 and dot(a, x) == 1
                for a, s in zip(A.ones, A.stars)
            )
            assert F.contains(x) == want
        assert not F.contains(0)


def test_forbidden_set_flagship_members():
    # row 0 contributes 8 vectors, row 1 four, row 2 is absorbed
    F = forbidden_set(A1)
    assert F.size == 12
    assert sorted(F.vectors()) == [1, 2, 3, 4, 8, 9, 11, 14, 32, 34, 40, 42]


def test_xor_translate_permutes_occupancy():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8)
        bm = rng.getrandbits(1 << n)
        t = rng.getrandbits(n)
        shifted = xor_translate(bm, t, n)
        for x in range(1 << n):
            assert (shifted >> x) & 1 == (bm >> (x ^ t)) & 1


def test_is_solution_translation_invariant():
    rng = random.Random(7)
    for _ in range(60):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
        members = [x for x in range(1 << A.n) if rng.random() < 0.2]
        t = rng.getrandbits(A.n)
        shifted = [x ^ t for x in members]
        assert is_solution(A, members) == is_solution(A, shifted)


def test_kernel_of_min_rank_completion_is_a_solution():
    rng = random.Random(11)
    for _ in range(80):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        _, W = min_rank_completion(A)
        V = kernel(W)
        assert is_solution(A, V.vectors())


def test_opt_flagship():
    value, sol = opt_exact(A1)
    assert value == 16
    assert sol.size == 16
    assert is_solution(A1, sol)


def test_opt_matches_tiny_brute_force():
    rng = random.Random(13)
    for _ in range(120):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), star_cap=2)
        assert opt_exact(A)[0] == brute_force_opt_tiny(A)


def test_opt_witness_is_a_solution_of_the_stated_size():
    rng = random.Random(17)
    for _ in range(60):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        value, sol = opt_exact(A)
        assert sol.size == value
        assert is_solution(A, sol)
        assert value >= lin_exact(A)


def test_opt_deterministic_witness():
    rng = random.Random(19)
    for _ in range(20):
        A = random_matrix(rng, 3, 6)
        v1, s1 = opt_exact(A)
        v2, s2 = opt_exact(A)
        assert v1 == v2
        assert s1.sorted_members() == s2.sorted_members()


def test_root_certificate_matches_the_seeded_search():
    # wherever a root bound settles opt_exact, the vertex search seeded
    # with the same kernel proves the same value and keeps that witness
    rng = random.Random(37)
    cases = [random_matrix(rng, rng.randint(1, 4), rng.randint(2, 7)) for _ in range(200)]
    for n, r in ((4, 2), (6, 2)):
        A = code_matrix(CodeMatrixSpec(n, r))
        rows = list(zip(A.ones, A.stars))
        for _ in range(3):
            rng.shuffle(rows)
            cases.append(PartialMatrix(n, tuple(a for a, _ in rows), tuple(s for _, s in rows)))
    fired = {"column": 0, "ratio": 0}
    for A in cases:
        K = forbidden_set(A).bitmap
        if K == 0:
            continue
        r, W = min_rank_completion(A)
        if col_min_rank(A) == r:
            fired["column"] += 1
        elif _ratio_bound(K, A.n) == 1 << (A.n - r):
            fired["ratio"] += 1
        else:
            continue
        search = _OptSearch(A, K, None)
        search.seed(kernel(W).vectors())
        best, members = search.run()
        value, sol = opt_exact(A)
        assert (value, sol.sorted_members()) == (best, members)
    assert fired["column"] > 150 and fired["ratio"] == 6


H3 = parse_pmx(
    "101*00*01*0*\n00011000*10*\n00***0**1000\n"
    "*0110*0*1**0\n0***010**0*0\n*01**111*111\n"
)


def test_root_bounds_settle_h1_and_h3():
    # H3: the column bound 2^(12 - 4) meets lin; H1, the (7, 2) code
    # matrix: the ratio bound 16 meets lin
    for A, want in ((H3, 256), (code_matrix(CodeMatrixSpec(7, 2)), 16)):
        value, sol = opt_exact(A, deadline=time.monotonic() + 10)
        assert value == sol.size == want
        assert is_solution(A, sol)


def test_witness_above_4096_members_is_checked():
    A = parse_pmx("1" + "*" * 13 + "\n")
    value, sol = opt_exact(A)
    assert value == sol.size == 8192
    assert is_solution(A, sol)
    K = forbidden_set(A).bitmap
    lbm = sum(1 << x for x in sol.members)
    assert _avoids(lbm, K, A.n)
    # 0 is a member and 1 is forbidden, so adding 1 breaks the set
    assert not _avoids(lbm | 0b10, K, A.n)


def test_opt_refuses_above_limit():
    A = PartialMatrix(20, (1,), (0,))
    with pytest.raises(LimitError):
        opt_exact(A, limit_n=16)


def test_lin_exact_value():
    assert lin_exact(A1) == 16
    all_star = parse_pmx("**\n**\n")
    assert lin_exact(all_star) == 4


def test_separating_min_rank_equals_min_rank():
    rng = random.Random(23)
    for _ in range(120):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        assert separating_min_rank(A) == min_rank(A)


def test_brute_force_guards():
    with pytest.raises(LimitError):
        brute_force_opt_tiny(PartialMatrix(5, (1,), (0,)))
    with pytest.raises(LimitError):
        brute_force_opt_tiny(PartialMatrix(4, (1,), (14,)))


def test_reconstruct_operator_fits_solutions():
    rng = random.Random(29)
    for _ in range(60):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
        value, sol = opt_exact(A)
        G = reconstruct_operator(A, sol)
        for x in sol.members:
            for i in range(A.m):
                assert dot(A.ones[i], x) == G.component(i, x)


def test_reconstruct_operator_conflict():
    # single row x1 = g(x2): members 01 and 11 need g(1) = 0 and 1
    A = parse_pmx("1*\n")
    with pytest.raises(OperatorConflict):
        reconstruct_operator(A, [0b10, 0b11])


def test_codistance_frozen():
    # repetition code {00, 11}: dual is {00, 11}, distance 2
    S = Subspace.span([0b11], 2)
    assert codistance(S) == 2
    assert codistance(Subspace.span([1, 2], 2)) is None
    assert codistance(Subspace(3, ())) == 1


def test_linear_hull_check_on_kernel_extensions():
    rng = random.Random(31)
    applicable = 0
    for _ in range(300):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(3, 7), star_cap=2)
        _, W = min_rank_completion(A)
        V = kernel(W)
        k = rng.randint(0, min(V.dim, 3))
        picks = [V.basis[i] for i in rng.sample(range(V.dim), k)]
        S = Subspace.span(picks, A.n)
        members = set(S.vectors())
        for _ in range(4):
            x = rng.getrandbits(A.n)
            if x not in members and is_solution(A, members | {x}):
                members.add(x)
        verdict = linear_hull_check(A, SolutionSet.of(members, A.n), S)
        if verdict.applicable:
            applicable += 1
            assert verdict.conclusion_holds
    assert applicable > 20


def test_linear_hull_check_rejects_non_solutions():
    A = parse_pmx("11\n")
    S = Subspace(2, ())
    with pytest.raises(ValueError):
        linear_hull_check(A, SolutionSet.of([0, 1, 2], 2), S)


def test_conjecture_epsilon_flagship():
    rec = conjecture_epsilon(A1)
    assert rec is not None
    assert (rec.n, rec.opt, rec.minrk) == (6, 16, 2)
    assert rec.value == 1.0
    assert conjecture_epsilon(parse_pmx("**\n")) is None
