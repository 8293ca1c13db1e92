"""Unit tests for code matrices, distance, and the packing bounds."""

from itertools import combinations
from math import comb

import pytest

from minrank.codes import (
    CodeMatrixSpec,
    ball,
    code_matrix,
    code_row_min_rank,
    gv_bound,
    hamming_bound,
    min_distance,
    verify_ka_is_ball,
)
from minrank.errors import LimitError
from minrank.gf2 import _weight_classes
from minrank.partial import col_min_rank, row_min_rank
from minrank.pmx import emit_pmx
from minrank.solutions import SolutionSet, opt_exact


def test_spec_validation_and_row_count():
    assert CodeMatrixSpec(5, 1).rows == 10
    assert CodeMatrixSpec(6, 2).rows == 45
    assert CodeMatrixSpec(7, 2).rows == 63
    with pytest.raises(ValueError):
        CodeMatrixSpec(4, 0)
    with pytest.raises(ValueError):
        CodeMatrixSpec(4, 4)


def test_code_matrix_block_structure():
    spec = CodeMatrixSpec(5, 2)
    A = code_matrix(spec)
    assert A.m == spec.rows
    blocks = list(combinations(range(5), 2))
    for b, cols in enumerate(blocks):
        smask = sum(1 << j for j in cols)
        base = b * 3
        # all-ones row on the block, then one row per dropped position
        assert A.ones[base] == smask
        for t, j in enumerate(cols):
            assert A.ones[base + 1 + t] == smask ^ (1 << j)
        for i in range(base, base + 3):
            assert A.stars[i] == 0b11111 ^ smask


def test_code_matrix_frozen_tiny():
    # each 1-subset block: the all-ones row, then its single-zero row
    text = emit_pmx(code_matrix(CodeMatrixSpec(3, 1)))
    assert text == "1**\n0**\n*1*\n*0*\n**1\n**0\n"


def test_code_matrix_row_limit():
    with pytest.raises(LimitError):
        code_matrix(CodeMatrixSpec(24, 12))


def test_ball_sizes_and_members():
    for n in range(1, 7):
        for r in range(n + 1):
            B = ball(n, r)
            assert len(B) == sum(comb(n, i) for i in range(r + 1))
            assert all(x.bit_count() <= r for x in B)
    with pytest.raises(LimitError):
        ball(30, 2)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        ball(4, -1)


def test_forbidden_set_is_punctured_ball():
    for n, r in ((5, 1), (4, 3), (4, 2), (6, 2)):
        assert verify_ka_is_ball(CodeMatrixSpec(n, r))
    with pytest.raises(LimitError, match="bitmap"):
        verify_ka_is_ball(CodeMatrixSpec(25, 1))


def _ball_bitmap(n, r):
    # the punctured ball as a bitmap, built from ball() one member at a time
    bm = 0
    for v in ball(n, r):
        bm |= 1 << v
    return bm & ~1


def test_ka_weight_classes_match_the_ball_bitmap():
    for n in range(2, 11):
        for r in range(1, n):
            assert sum(_weight_classes(n)[1 : r + 1]) == _ball_bitmap(n, r)
            assert verify_ka_is_ball(CodeMatrixSpec(n, r))


def test_bounds_frozen_values():
    assert hamming_bound(7, 3) == 16
    assert hamming_bound(7, 1) == 128
    # distance 3: a radius-1 ball is a clique, as at distance 4
    assert hamming_bound(7, 2) == 16
    assert gv_bound(7, 2) == 4
    assert gv_bound(5, 1) == 5
    # exact sums of at most r + 1 binomials, at any length
    assert hamming_bound(80, 3) == (1 << 80) // 81
    assert gv_bound(64, 1) == (1 << 64) // 65
    assert gv_bound(65, 1) == (1 << 65) // 66


def test_bounds_at_distance_one_and_below():
    # r = 0 is distance 1: every set is a code, so both bounds are 2^n
    for n in range(1, 11):
        assert hamming_bound(n, 0) == gv_bound(n, 0) == 1 << n
    for r in (-1, -2, -7):
        with pytest.raises(ValueError, match="r >= 0"):
            hamming_bound(7, r)
        with pytest.raises(ValueError, match="r >= 0"):
            gv_bound(7, r)


def test_solutions_are_codes():
    # (5,1): distance-2 codes, so the even-weight code is optimal
    spec = CodeMatrixSpec(5, 1)
    value, sol = opt_exact(code_matrix(spec))
    assert value == 16
    d = min_distance(sol)
    assert d is not None and d >= spec.r + 1
    assert value <= hamming_bound(5, 1)


def test_min_distance_basics():
    assert min_distance(SolutionSet.of([0], 3)) is None
    assert min_distance(SolutionSet.of([0, 7], 3)) == 3
    assert min_distance(SolutionSet.of([0, 3, 5], 3)) == 2
    # the first pair at distance 1 ends the scan
    assert min_distance(SolutionSet.of([0, 1, 7], 3)) == 1


def test_gap_bounds_small_scale():
    for n, r in ((5, 1), (6, 2), (4, 3)):
        spec = CodeMatrixSpec(n, r)
        A = code_matrix(spec)
        assert col_min_rank(A) <= r + 1
        assert code_row_min_rank(spec) <= 2 * r


def test_row_min_rank_frozen_values():
    assert code_row_min_rank(CodeMatrixSpec(5, 1)) == 1
    assert code_row_min_rank(CodeMatrixSpec(6, 2)) == 2
    assert code_row_min_rank(CodeMatrixSpec(4, 3)) == 3


def test_row_min_rank_stops_at_n_minus_1():
    # the repetition code has distance n > r, so min rank is at most
    # n - 1 and no larger row set stays independent; the search stops
    # there, where it ran past 5 s on (8, 7) and (9, 8)
    for n, r in ((7, 6), (8, 7), (9, 8)):
        assert code_row_min_rank(CodeMatrixSpec(n, r)) == n - 1


def test_row_min_rank_past_n6_searches_a_block_sample():
    # (7, 1) has 7 blocks, at most the 12 sampled, so it searches them
    # all and meets the full matrix's value; (7, 2), (8, 2) and (7, 3)
    # search 12 of their 21, 28 and 35 blocks at seed 0
    full = code_matrix(CodeMatrixSpec(7, 1))
    assert code_row_min_rank(CodeMatrixSpec(7, 1)) == row_min_rank(full) == 1
    for n, r, want in ((7, 2, 2), (8, 2, 2), (7, 3, 3)):
        assert code_row_min_rank(CodeMatrixSpec(n, r)) == want
