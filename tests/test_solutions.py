"""Unit tests for forbidden sets, solutions, and the exact opt search."""

import random
import sys
import time
import tracemalloc
from itertools import product

import pytest

from minrank.codes import CodeMatrixSpec, code_matrix
from minrank.errors import LimitError, OperatorConflict
from minrank import partial, solutions
from minrank.gf2 import (
    Subspace,
    _bits,
    _delsarte_bound,
    _half_mask,
    _parity_bitmap,
    _ratio_bound,
    _weight_classes,
    dot,
    kernel,
)
from minrank.partial import (
    PartialMatrix,
    _Deadline,
    _KernelSide,
    _prepare_rows,
    col_min_rank,
    min_rank,
    min_rank_completion,
)
from minrank.pmx import parse_pmx
from minrank.report import _random_matrices
from minrank.solutions import (
    ForbiddenSet,
    SolutionSet,
    _avoids,
    _coset_basis,
    _OptSearch,
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


def _mask(vectors):
    # the occupancy bitmap of a set of vectors, as the opt engines keep it
    return sum(1 << v for v in vectors)


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


def test_forbidden_set_row_predicate_past_the_bitmap():
    # with no bitmap, membership is read off the rows and agrees with
    # the bitmap; counting and listing are refused
    rng = random.Random(41)
    for _ in range(40):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        F = forbidden_set(A)
        P = ForbiddenSet(A.n, F.rows, None)
        assert P.bitmap is None
        assert all(P.contains(x) == F.contains(x) for x in range(1 << A.n))
    with pytest.raises(LimitError, match="too wide to count"):
        P.size
    with pytest.raises(LimitError, match="too wide to enumerate"):
        P.vectors()


def test_is_solution_past_the_bitmap_checks_every_pair():
    # over 26 columns forbidden_set keeps no bitmap, and is_solution
    # tests each difference against the rows
    n = 26
    A = PartialMatrix(n, (0b11, 1 << 25 | 1), (0, 0b110))
    F = forbidden_set(A)
    assert F.bitmap is None and F.contains(1) and not F.contains(3)
    pool = [0, 1, 2, 3, 5, 6, 1 << 25, 1 << 25 | 1, 1 << 25 | 4]
    rng = random.Random(43)
    seen = set()
    for _ in range(60):
        members = rng.sample(pool, rng.randint(2, 4))
        want = not any(
            (x ^ y) & s == 0 and dot(a, x ^ y)
            for x in members
            for y in members
            for a, s in zip(A.ones, A.stars)
        )
        assert is_solution(A, members) == want
        seen.add(want)
    assert seen == {False, True}


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
    # wherever a root bound settles opt_exact, the reference vertex
    # search (_RowBoundSearch) seeded with the same kernel proves the
    # same value and keeps that witness
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
        search = _RowBoundSearch(A.n, K, None, _prepare_rows(A)[0])
        search.seed(_mask(kernel(W).vectors()))
        assert search.resume(None)
        value, sol = opt_exact(A)
        assert (value, sol.sorted_members()) == (search.best, list(_bits(search.best_mask)))
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


def test_opt_refuses_past_the_bitmap_cap():
    # a raised opt_n does not lift the forbidden-set bitmap's 24 columns
    A = parse_pmx("1" * 25 + "\n")
    with pytest.raises(LimitError, match="bitmap"):
        opt_exact(A, limit_n=25)


def test_opt_checks_the_bitmap_cap_before_it_completes(monkeypatch):
    completed = []
    real = partial._complete
    monkeypatch.setattr(partial, "_complete", lambda rec, deadline: completed.append(rec))
    # a 26-column core: refused before min_rank_completion runs
    A = next(_random_matrices(12, 26, 1, 3))
    assert A._record.core.n == 26
    with pytest.raises(LimitError, match="bitmap"):
        opt_exact(A, limit_n=40)
    assert completed == []
    # 25 columns around a 12-column core pass the cap: the identity's
    # opt of 1, crossed with the 13 unused columns
    monkeypatch.setattr(partial, "_complete", real)
    A = PartialMatrix(25, tuple(1 << i for i in range(12)), (0,) * 12)
    assert opt_exact(A, limit_n=25)[0] == 1 << 13


def test_opt_settles_on_the_column_floor_fallback(built_engines):
    # 21 distinct columns: col_min_rank refuses, so opt_exact finds the
    # floor 5 = min rank over the distinct columns itself, and the column
    # bound closes the root at lin = 2^16 with the kernel warm start
    A = parse_pmx(
        "10001101*0**010*1*0**\n0*1010*0**10*00101010\n11*1****000**1*101**0\n"
        "11011110*1**000001111\n0*01*101***1*0**1*1*1\n0*00*00**0**00*1**00*\n"
    )
    value, witness = opt_exact(A, limit_n=25)
    assert A._record.column_floor is None
    assert value == 65_536
    r, completion = min_rank_completion(A)
    assert r == 5
    assert witness.members == frozenset(kernel(completion).vectors())
    assert built_engines == []


def test_the_column_floor_fallback_keeps_no_sums_for_star_free_columns(built_engines):
    # the 24 unit rows in 25 columns: 25 distinct columns are past
    # col_min_rank's cap, and the fallback finds 24 independent ones.
    # Star-free columns join a basis, so the peak is the forbidden-set
    # bitmap over 2^24 points while it is built, about 10 MB; doubling
    # the subset sums on every column would take about 2 GB
    A = PartialMatrix(25, tuple(1 << i for i in range(24)), (0,) * 24)
    tracemalloc.start()
    try:
        value, witness = opt_exact(A, limit_n=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 2 and witness == SolutionSet.of([0, 1 << 24], 25)
    assert peak < 16 << 20
    assert built_engines == []


def test_the_column_floor_fallback_stops_at_the_min_rank():
    # 24 distinct columns, past col_min_rank's cap: min rank 11 settles
    # at once, and no more than 11 columns stay independent in every
    # completion, so the fallback's search over the columns stops once it
    # holds 11 and the column bound closes the root at lin = 2^13 (run to
    # its end, that search took about 7 s on a 2-core x86 box)
    A = parse_pmx(
        "10111011110101101*01*111\n010111110100011110110101\n10*100111110100100100010\n"
        "100110001*011*0110*11111\n10010011*001101110010001\n10111000111001011110*010\n"
        "000010001110111010011110\n101100011100001001010*01\n011000001010110111000111\n"
        "*110011*1001000110*10001\n101001001010111101100100\n0001111101*1111001**10*1\n"
    )
    r, completion = min_rank_completion(A)
    assert r == 11
    value, witness = opt_exact(A, limit_n=24, deadline=time.monotonic() + 3)
    assert value == 8192
    assert witness.members == frozenset(kernel(completion).vectors())


def test_the_column_floor_fallback_stops_at_the_deadline():
    # 24 distinct columns, past col_min_rank's cap: min rank 12 settles
    # at once, and the fallback's search over the columns runs to the
    # deadline, as only 11 of them stay independent in every completion
    # and it never holds 12 (unbounded, it takes about 10 s on a 2-core
    # x86 box to prove 11)
    A = parse_pmx(
        "0111**10011*111010101010\n000110*01100100100*01*11\n010011110110101001010110\n"
        "001110110110111011110011\n10*111101*00001110*10000\n11010011*111*00*0*110000\n"
        "0111011100110*1000**0*1*\n110010111001100001010111\n1*00101100010101111000*1\n"
        "0001111110*0010001010001\n01000**00000010100000*00\n1101011111100010101111*1\n"
        "*1100*0**0*111100*100110\n"
    )
    assert min_rank(A) == 12
    deadline = time.monotonic() + 0.5
    with pytest.raises(LimitError, match="deadline"):
        opt_exact(A, limit_n=24, deadline=deadline)
    assert time.monotonic() < deadline + 1


def test_opt_on_edgeless_matrices_is_every_vector():
    # no fixed one: min rank 0, and the kernel warm start is all of GF(2)^n
    for n in range(1, 11):
        for stars in (0, (1 << n) - 1):
            value, witness = opt_exact(PartialMatrix(n, (0, 0), (stars, stars)))
            assert value == 1 << n
            assert witness == SolutionSet.of(range(1 << n), n)
    # the edgeless case takes the general path, so the bitmap cap holds
    with pytest.raises(LimitError, match="bitmap"):
        opt_exact(PartialMatrix(25, (0,), (0,)), limit_n=25)


def test_conjecture_epsilon_refuses_before_min_rank(monkeypatch):
    called = []
    monkeypatch.setattr(solutions, "min_rank", lambda *args: called.append(args))
    monkeypatch.setattr(partial, "_complete", lambda *args: called.append(args))
    with pytest.raises(LimitError):
        conjecture_epsilon(PartialMatrix(20, (1,), (0,)))
    # no row fixes a one, so min rank is 0 whatever the width
    assert conjecture_epsilon(PartialMatrix(40, (0, 0), ((1 << 40) - 1, 3))) is None
    assert called == []


def test_lin_exact_value():
    assert lin_exact(A1) == 16
    all_star = parse_pmx("**\n**\n")
    assert lin_exact(all_star) == 4


def test_separating_min_rank_equals_min_rank():
    rng = random.Random(23)
    cases = [random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5)) for _ in range(120)]
    # up to the n = 8 limit: H2, and the code matrices, which hold
    # H1 = code (7, 2) and code (8, 2), each also shuffled
    cases += [H2] + _shuffled_codes(rng, 8, 1)
    for A in cases:
        assert separating_min_rank(A) == min_rank(A)
    with pytest.raises(LimitError):
        separating_min_rank(PartialMatrix(9, (1,), (0,)))


def test_brute_force_guards():
    with pytest.raises(LimitError):
        brute_force_opt_tiny(PartialMatrix(5, (1,), (0,)))
    with pytest.raises(LimitError):
        brute_force_opt_tiny(PartialMatrix(4, (1,), (14,)))
    with pytest.raises(LimitError):
        brute_force_opt_tiny(PartialMatrix(2, (1, 2, 0, 0), (0, 0, 1, 2)))


def test_reconstruct_operator_fits_solutions():
    rng = random.Random(29)
    for _ in range(60):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
        value, sol = opt_exact(A)
        G = reconstruct_operator(A, sol)
        for x in sol.members:
            for i in range(A.m):
                assert dot(A.ones[i], x) == G.component(i, x)


def test_consistent_operator_apply_and_unseen_projections():
    # one row x1 = g(x2), x2 a star: the solution {01} fixes g(0) = 1,
    # and g(1), which no member shows, reads 0
    G = reconstruct_operator(parse_pmx("1*\n"), [0b01])
    assert [G.component(0, x) for x in range(4)] == [1, 1, 0, 0]
    assert [G.apply(x) for x in range(4)] == [1, 1, 0, 0]
    # on the members of a solution, apply gives <a_i, x> in every row
    rng = random.Random(37)
    for _ in range(40):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
        _, sol = opt_exact(A)
        G = reconstruct_operator(A, sol)
        for x in sol.members:
            assert G.apply(x) == sum(dot(A.ones[i], x) << i for i in range(A.m))


def test_reconstruct_operator_conflict():
    # single row x1 = g(x2): members 01 and 11 need g(1) = 0 and 1
    A = parse_pmx("1*\n")
    with pytest.raises(OperatorConflict):
        reconstruct_operator(A, [0b10, 0b11])


def test_members_outside_the_space_are_refused():
    # over GF(2)^2 only 0..3 are vectors: 5 once passed as a solution
    # and -1 failed with a negative shift count
    A = parse_pmx("11\n")
    assert is_solution(A, [0, 3]) and not is_solution(A, [0, 1])
    for bad in ([0, 5], [0, -1], SolutionSet.of([4], 2)):
        with pytest.raises(ValueError, match="outside GF"):
            is_solution(A, bad)
        with pytest.raises(ValueError, match="outside GF"):
            reconstruct_operator(A, bad)


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
    with pytest.raises(ValueError, match="L is not a solution"):
        linear_hull_check(A, SolutionSet.of([0, 1, 2], 2), S)
    # {00, 11} is a solution, but the span of 10 holds 10
    with pytest.raises(ValueError, match="W is not contained in L"):
        linear_hull_check(A, SolutionSet.of([0, 3], 2), Subspace.span([1], 2))


def test_conjecture_epsilon_flagship():
    rec = conjecture_epsilon(A1)
    assert rec is not None
    assert (rec.n, rec.opt, rec.minrk) == (6, 16, 2)
    assert rec.value == 1.0
    assert conjecture_epsilon(parse_pmx("**\n")) is None


def _coset_subspace(K, n):
    """A basis of the largest subspace U whose nonzero members all lie
    in K: subspaces avoiding the rest of GF(2)^n, found dimension by
    dimension until none exists."""
    rest = ((1 << (1 << n)) - 1) & ~K & ~1
    U = ()
    while True:
        found = _KernelSide(rest, n, len(U) + 1, _Deadline(None, n)).run()
        if found is None:
            return U
        U = found


class _RowBoundSearch(_OptSearch):
    """The vertex search with two more admissible bounds, the reference
    for _OptSearch's answers and witnesses.  One takes an entry per
    distinct row: the row's classes keep one parity each.  The other is
    the coset bound: U (_coset_subspace) has every nonzero member in K,
    so every U-coset is a clique and candidates allow one pick per
    coset.  A node takes the bound when it is entered and again once its
    candidates shrink by 8.  Admissible bounds cut only nodes that
    cannot beat the best, so both searches find the same incumbents."""

    def __init__(self, n, K, deadline, worklist):
        super().__init__(n, K, deadline)
        span = [0]
        for u in _coset_subspace(self.K, self.n):
            span += [u ^ v for v in span]
        self.coset_U = span if len(span) > 1 else None
        rows = []
        seen = set()
        for a, s in worklist:
            k = s.bit_count()
            if a == 0 or k == 0 or k > 8 or (a, s) in seen:
                continue
            seen.add((a, s))
            parity = _parity_bitmap(a, self.n)
            classes = [self.full]
            for j in _bits(s):
                zero = _half_mask(self.n, j)
                one = self.full ^ zero
                classes = [c & zero for c in classes] + [c & one for c in classes]
            rows.append((parity, classes))
        rows.sort(key=lambda e: len(e[1]))
        self.bound_rows = rows

    def _bound(self, cand):
        bound = cand.bit_count()
        for parity, classes in self.bound_rows:
            total = 0
            for cls in classes:
                inside = cand & cls
                if inside == 0:
                    continue
                odd = (inside & parity).bit_count()
                total += max(odd, inside.bit_count() - odd)
                if total >= bound:
                    break
            if total < bound:
                bound = total
        if self.coset_U is not None:
            touched = cand
            for t in self.coset_U[1:]:
                touched |= xor_translate(cand, t, self.n)
            b = touched.bit_count() // len(self.coset_U)
            if b < bound:
                bound = b
        return bound

    def resume(self, stop):
        # _OptSearch.resume, its frames (cand, count, added, stale,
        # stale_at, low) holding the node's last bound `stale`, taken at
        # stale_at candidates
        stack = self._stack
        if stack is None:
            stack = self._stack = [(self.full & ~self.K & ~1, 1, 0, None, 0, -1)]
        chosen = self.chosen
        while stack and self.best < self.ceiling:
            cand, count, added, stale, stale_at, low = stack[-1]
            if low < 0:
                if stop is not None and self.clock.ticks >= stop:
                    return False
                self.clock.check()
            else:
                chosen.pop()
                cand ^= low
            child = None
            while cand:
                pc = cand.bit_count()
                ub = pc if stale is None else min(pc, stale)
                if count + ub <= self.best:
                    break
                if stale is None or pc <= stale_at - 8:
                    stale = self._bound(cand)
                    stale_at = pc
                    if count + min(pc, stale) <= self.best:
                        break
                low = cand & -cand
                x = low.bit_length() - 1
                nbrs = xor_translate(self.K, x, self.n) & cand
                chosen.append(x)
                if nbrs == 0:
                    added += 1
                    cand ^= low
                    count += 1
                    continue
                child = (cand & ~nbrs & ~low, count + 1, 0, None, 0, -1)
                break
            else:
                if count > self.best:
                    self.best = count
                    self.best_mask = sum(1 << v for v in chosen)
            if child is not None:
                stack[-1] = (cand, count, added, stale, stale_at, low)
                stack.append(child)
                continue
            if added:
                del chosen[-added:]
            stack.pop()
        return True


def _max_independent(cand: int, K: int, n: int) -> int:
    """Largest set inside cand with no two members differing in K."""
    if cand == 0:
        return 0
    low = cand & -cand
    x = low.bit_length() - 1
    rest = cand ^ low
    return max(
        _max_independent(rest, K, n),
        1 + _max_independent(rest & ~xor_translate(K, x, n), K, n),
    )


def test_delsarte_bound_is_admissible():
    # on random matrices whose K holds whole weight classes W, opt is at
    # most the ratio bound, which is at most Delsarte's LP on W
    rng = random.Random(103)
    checked = tight = 0
    while checked < 120:
        n = rng.randint(3, 5)
        A = random_matrix(rng, rng.randint(2, 8), n)
        K = forbidden_set(A).bitmap
        W = sum(
            1 << w
            for w in range(1, n + 1)
            if all((K >> x) & 1 for x in range(1 << n) if x.bit_count() == w)
        )
        if not W:
            continue
        opt = _max_independent(((1 << (1 << n)) - 1) & ~K, K, n)
        bound = _delsarte_bound(n, W)
        assert opt <= _ratio_bound(K, n) <= bound
        checked += 1
        tight += bound == opt
    assert tight > 20


def test_delsarte_floor_is_the_min_rank_of_every_code():
    # K of code (n, r) holds the weights 1..r, so 2^(n - min rank) = lin
    # <= opt <= Delsarte's LP; the LP's floor meets min rank on every
    # code up to n = 8, where separating_min_rank, which reads no floor,
    # finds it too, and on (9..12, 3), whose min rank is 5
    for n in range(2, 9):
        for r in range(1, n):
            try:
                A = code_matrix(CodeMatrixSpec(n, r))
            except (ValueError, LimitError):
                continue
            floor = n + 1 - _delsarte_bound(n, (1 << (r + 1)) - 2).bit_length()
            assert floor == min_rank(A) == separating_min_rank(A), (n, r)
    for n in range(9, 13):
        assert n + 1 - _delsarte_bound(n, 0b1110).bit_length() == 5


def _plotkin(n, d):
    # Plotkin's bound on A(n, d), or None where it does not apply
    if d & 1:
        n, d = n + 1, d + 1
    return 2 * (d // (2 * d - n)) if 2 * d > n else None


def test_plotkin_bound_is_admissible():
    # code (n, r) rows and a few seeded random rows: K holds the weights
    # 1..r and maybe more, so W holds 1..d - 1 for some d > r, and opt
    # is at most the ratio bound, which is at most Plotkin's bound on d;
    # at n = 7 and 8 Plotkin's bound can be below Delsarte's LP
    rng = random.Random(107)
    checked = active = below_lp = 0
    while checked < 80:
        n = rng.randint(4, 8)
        r = rng.randint(max(2, n - 3), n - 1)
        code = code_matrix(CodeMatrixSpec(n, r))
        extra = random_matrix(rng, rng.randint(0, 3), n)
        A = PartialMatrix(n, code.ones + extra.ones, code.stars + extra.stars)
        K = forbidden_set(A).bitmap
        d = 1
        while d <= n and all((K >> x) & 1 for x in range(1 << n) if x.bit_count() == d):
            d += 1
        plotkin = _plotkin(n, d) if d <= n else None
        if plotkin is None:
            continue
        opt = _max_independent(((1 << (1 << n)) - 1) & ~K, K, n)
        assert opt <= _ratio_bound(K, n) <= plotkin, (n, r, d)
        checked += 1
        active += _ratio_bound(K, n) == plotkin == opt
        W = sum(1 << w for w, cls in enumerate(_weight_classes(n)) if w and K & cls == cls)
        below_lp += plotkin < _delsarte_bound(n, W)
    assert active > 40 and below_lp > 5


def test_opt_exact_builds_no_engine_on_the_codes_up_to_n_8(built_engines):
    # the column, ratio and coset certificates settle every code (n, r)
    # with n <= 8 but (8, 2), whose search no certificate closes
    for n in range(2, 9):
        for r in range(1, n):
            if (n, r) == (8, 2):
                continue
            A = code_matrix(CodeMatrixSpec(n, r))
            built_engines.clear()
            opt_exact(A)
            assert built_engines == [], (n, r)


def test_the_vertex_engine_stops_at_the_root_ceiling(built_engines):
    # codes (9, 4) and (10, 5): Plotkin's bound gives 6 = A(9, 5) =
    # A(10, 6) at the root, against lin 4.  The vertex search finds a
    # 6-word code at its sixth tick and stops there, with the witness
    # that its exhausted search returns after 192,082 and 204,542 ticks
    for n, r, witness in (
        (9, 4, [0, 31, 227, 364, 437, 474]),
        (10, 5, [0, 63, 455, 729, 874, 948]),
    ):
        A = code_matrix(CodeMatrixSpec(n, r))
        assert _ratio_bound(forbidden_set(A).bitmap, n) == 6 and lin_exact(A) == 4
        built_engines.clear()
        value, sol = opt_exact(A)
        assert (value, sol.sorted_members()) == (6, witness)
        [vertex] = built_engines
        assert isinstance(vertex, _OptSearch) and vertex._stack
        assert vertex.clock.ticks == 6


def _shuffled_codes(rng, max_n, shuffles):
    out = []
    for n in range(2, max_n + 1):
        for r in range(n):
            try:
                A = code_matrix(CodeMatrixSpec(n, r))
            except (ValueError, LimitError):
                continue
            out.append(A)
            rows = list(zip(A.ones, A.stars))
            for _ in range(shuffles):
                rng.shuffle(rows)
                out.append(PartialMatrix(n, tuple(a for a, _ in rows), tuple(s for _, s in rows)))
    return out


def _opt_with(monkeypatch, built_engines, engine, A):
    # opt_exact with `engine` as its vertex search, and the ticks of each
    # vertex search it built; _RowBoundSearch takes the worklist of the
    # record that opt_exact runs on
    def build(n, K, deadline):
        return engine(n, K, deadline, partial._completed(A).rows)

    monkeypatch.setattr(solutions, "_OptSearch", engine if engine is _OptSearch else build)
    built_engines.clear()
    value, sol = opt_exact(A)
    ticks = [e.clock.ticks for e in built_engines if isinstance(e, engine)]
    return value, sol.sorted_members(), ticks


def _reaches_search(A):
    # neither the column bound nor the ratio bound settles opt_exact on A
    K = forbidden_set(A).bitmap
    if not K:
        return False
    r, _ = min_rank_completion(A)
    return col_min_rank(A) != r and _ratio_bound(K, A.n) != 1 << (A.n - r)


def _ready(A):
    # whether the parity engine fits A's worklist
    return solutions._parity_choice_ready(_prepare_rows(A)[0])


def _reaches_the_vertex_engine(A):
    # what opt_exact asks of A's core before it builds _OptSearch: no
    # root certificate (column, ratio, coset) settles it, and it is not
    # parity-ready
    A = partial._drop_unused_columns(A)[0]
    if _ready(A) or not _reaches_search(A):
        return False
    r = min_rank(A)
    return _coset_basis(forbidden_set(A).bitmap, A.n, r) is None


def test_coset_bound_keeps_every_answer_and_witness(monkeypatch, built_engines):
    rng = random.Random(71)
    cases = _shuffled_codes(rng, 7, 2)
    cases += [random_matrix(rng, rng.randint(3, 10), rng.randint(4, 7)) for _ in range(200)]
    # most random matrices settle at the root; these tall ones pass the
    # column and ratio bounds
    tall = []
    while len(tall) < 60:
        A = random_matrix(rng, rng.randint(6, 14), rng.randint(5, 6))
        if _reaches_search(A):
            tall.append(A)
    for A in cases + tall:
        new = _opt_with(monkeypatch, built_engines, _OptSearch, A)
        old = _opt_with(monkeypatch, built_engines, _RowBoundSearch, A)
        assert new[:2] == old[:2]
    # and these reach the vertex engine itself
    searched = []
    while len(searched) < 60:
        A = random_matrix(rng, rng.randint(6, 14), rng.randint(5, 6))
        if _reaches_the_vertex_engine(A):
            searched.append(A)
    for A in searched:
        new = _opt_with(monkeypatch, built_engines, _OptSearch, A)
        old = _opt_with(monkeypatch, built_engines, _RowBoundSearch, A)
        assert new[:2] == old[:2]
        assert len(new[2]) == len(old[2]) == 1
    # code (7, 3): Delsarte's LP settles it at the root, so no engine is
    # built; on its K, the ticks each search takes
    A = code_matrix(CodeMatrixSpec(7, 3))
    built_engines.clear()
    assert opt_exact(A)[0] == 8 and built_engines == []
    _, W = min_rank_completion(A)
    K = forbidden_set(A).bitmap
    reference = _RowBoundSearch(A.n, K, None, _prepare_rows(A)[0])
    for search, ticks in ((reference, 720), (_OptSearch(A.n, K, None), 2084)):
        search.seed(_mask(kernel(W).vectors()))
        assert search.resume(None) and search.best == 8 and search.clock.ticks == ticks


def _extend_oracle(K):
    """The largest subspace U with U \\ {0} inside K, as _OptSearch found
    it before it used the kernel-side subspace search: a depth-first
    enumeration over K ascending, each extension the minimum of its
    coset, stopped after 60,000 nodes.  Returns U's basis and whether
    the node cap bound."""
    elems = list(_bits(K))
    best = [0]
    budget = [60000]

    def extend(start, span_list):
        if len(span_list) > len(best):
            best[:] = span_list
        for idx in range(start, len(elems)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            e = elems[idx]
            if all(e ^ s > e and (K >> (e ^ s)) & 1 for s in span_list if s):
                extend(idx + 1, span_list + [e ^ s for s in span_list])

    extend(0, [0])
    basis = tuple(best[1 << i] for i in range(len(best).bit_length() - 1))
    return basis, budget[0] <= 0


H2 = parse_pmx("***1*111\n100**0*1\n**011110\n11*0***1\n")


def test_coset_subspace_matches_the_extend_oracle():
    rng = random.Random(79)
    cases = _shuffled_codes(rng, 7, 2) + [H2, code_matrix(CodeMatrixSpec(8, 2))]
    cases += [random_matrix(rng, rng.randint(1, 6), rng.randint(3, 8)) for _ in range(240)]
    exact = capped = 0
    for A in cases:
        K = forbidden_set(A).bitmap
        if not K:
            continue
        r = min_rank(A)
        got = _coset_basis(K, A.n, r)
        want, cap_bound = _extend_oracle(K)
        if not cap_bound:
            assert got == (want if len(want) == r else None)
            exact += 1
            continue
        capped += 1
        if got is None:
            continue
        assert len(got) == r
        span = [0]
        for u in got:
            span += [u ^ v for v in span]
        assert all((K >> v) & 1 for v in span[1:])
    assert exact > 250 and capped > 20


def test_expired_deadline_ends_opt_exact_before_the_search(built_engines):
    # sweep seed 5, item 6x12#8: neither the column nor the ratio bound
    # settles it, so opt_exact runs the coset certificate's subspace
    # search, which must honour the deadline before any engine is built
    A = list(_random_matrices(6, 12, 9, 5))[8]
    assert _reaches_search(A)  # and min rank is memoised, so opt_exact gets past it
    with pytest.raises(LimitError):
        opt_exact(A, deadline=time.monotonic() - 1)
    assert built_engines == []


def test_opt_exact_leaves_the_recursion_limit_alone():
    # sweep seed 5, item 6x12#8 reaches the search; both engines run on
    # explicit stacks, so a deadline ends them with LimitError at the
    # default recursion limit, which stays as it was
    A = list(_random_matrices(6, 12, 9, 5))[8]
    assert _reaches_search(A) and _ready(A)
    limit = sys.getrecursionlimit()
    with pytest.raises(LimitError):
        opt_exact(A, deadline=time.monotonic() + 0.3)
    assert sys.getrecursionlimit() == limit


@pytest.fixture
def built_engines(monkeypatch):
    """Every opt engine built while the test runs."""
    engines = []
    real = solutions._Engine.__init__

    def recorded(self, *args):
        real(self, *args)
        engines.append(self)

    monkeypatch.setattr(solutions._Engine, "__init__", recorded)
    return engines


def _total(cells, xa, yb):
    # keeping side xa[ia] of every a-class and side yb[ib] of every
    # b-class keeps m2[xa[ia]][yb[ib]] of each cell
    return sum(m2[xa[ia]][yb[ib]] for ia, ib, m2 in cells)


def _random_cell_sets():
    """Seeded two-row finishes: cells (ia, ib, m2) counting vectors by
    their parity against row a and row b, over na a-classes and nb
    b-classes, with their maximum over every side choice and a `best`
    to beat near it.  1,500 sets of 1 to 4 classes a side with counts up
    to 4, then 200 deeper ones of 3 to 5 classes a side with counts up
    to 6, most of which pass their root."""
    rng = random.Random(97)
    for low, high, count, sets in ((1, 4, 4, 1500), (3, 5, 6, 200)):
        for _ in range(sets):
            na, nb = rng.randint(low, high), rng.randint(low, high)
            cells = [
                (ia, ib, [[rng.randint(0, count) for _ in (0, 1)] for _ in (0, 1)])
                for ia in range(na)
                for ib in range(nb)
                if rng.random() < 0.7
            ]
            top = max(
                _total(cells, pick[:na], pick[na:])
                for pick in product((0, 1), repeat=na + nb)
            )
            best = rng.randint(max(0, top - 3), top + 1)
            yield cells, na, nb, top, best


def test_pair_closed_never_closes_a_beatable_cell_set():
    # a two-row finish closes only when no side choice beats best; that
    # each bound it closes on is at least the maximum is pinned by
    # test_roof_bound_on_random_cell_sets
    beatable = closed = 0
    for cells, na, nb, top, best in _random_cell_sets():
        shut = solutions._pair_closed(cells, (na, nb), best, lambda: None)
        if top > best:
            assert not shut
            beatable += 1
        closed += shut
    assert beatable > 600 and closed > 300


def test_roof_bound_on_random_cell_sets():
    exact = 0
    for cells, na, nb, top, best in _random_cell_sets():
        # the two relaxations that _pair_closed checks: each a-class
        # (then each b-class) takes one side, every cell the best of the
        # other side
        by_a = [[0, 0] for _ in range(na)]
        by_b = [[0, 0] for _ in range(nb)]
        for ia, ib, m2 in cells:
            for v in (0, 1):
                by_a[ia][v] += max(m2[v])
                by_b[ib][v] += max(m2[0][v], m2[1][v])
        relaxed = min(sum(map(max, by_a)), sum(map(max, by_b)))
        s, *network = solutions._pair_cell_pass(cells, (na, nb))
        assert s == [by_a, by_b]
        roof = solutions._roof_bound((na, nb), *network, -1, lambda: None)
        assert top <= roof <= relaxed
        # stopped early, the flow still decides the comparison with best
        early = solutions._roof_bound((na, nb), *network, best, lambda: None)
        assert (early <= best) == (roof <= best)
        # flipping b-class j negates the interactions of its cells; when
        # every b-class sees one sign, the function is supermodular after
        # the flip and the roof dual is exact
        signs = [set() for _ in range(nb)]
        for ia, ib, ((c00, c01), (c10, c11)) in cells:
            q = c00 + c11 - c01 - c10
            if q:
                signs[ib].add(q > 0)
        if all(len(s) < 2 for s in signs):
            assert roof == top
            exact += 1
    assert exact > 500


def _cells_by_vector(alive, rowa, rowb):
    """The two-row finish's cells, counted one vector at a time: one cell
    per pattern on the rows' joint stars, in order of its lowest alive
    vector, with the a- and b-classes numbered as their first cells come.
    Returns the cells and the numbers of a- and b-classes."""
    (aa, sa), (ab, sb) = rowa, rowb
    counts = {}
    for u in range(alive.bit_length()):
        if (alive >> u) & 1:
            m2 = counts.setdefault(u & (sa | sb), [[0, 0], [0, 0]])
            m2[bin(aa & u).count("1") & 1][bin(ab & u).count("1") & 1] += 1
    pats_a, pats_b = {}, {}
    cells = [
        (pats_a.setdefault(q & sa, len(pats_a)), pats_b.setdefault(q & sb, len(pats_b)), m2)
        for q, m2 in counts.items()
    ]
    return cells, (len(pats_a), len(pats_b))


def test_finish_cells_match_a_count_per_vector(monkeypatch):
    # the parity engine counts its two-row finish's cells from a table of
    # each vector's cell, built once, walking alive a byte at a time; the
    # cells and their order are those of a count one vector at a time,
    # with up to 12 joint stars
    rng = random.Random(131)
    passed = []
    real = solutions._pair_cell_pass

    def spy(cells, size):
        passed.append((cells, size))
        return real(cells, size)

    monkeypatch.setattr(solutions, "_pair_cell_pass", spy)
    for n in (8, 10, 12):
        for k in range(1, min(n, 12) + 1):
            joint = rng.sample(range(n), k)
            cut = rng.randint(max(0, k - 6), min(6, k))
            sa = sum(1 << j for j in joint[:cut])
            sb = sum(1 << j for j in joint[cut:] + rng.sample(joint[:cut], min(cut, 6 + cut - k)))
            rows = []
            while len(set(rows)) < 2:
                rows = []
                for s in (sa, sb):
                    free = ((1 << n) - 1) & ~s
                    rows.append((rng.randint(1, free) & free or free & -free, s))
            A = PartialMatrix(n, tuple(a for a, _ in rows), tuple(s for _, s in rows))
            engine = solutions._ParityChoiceSearch(_prepare_rows(A)[0], A.n, 0, None)
            rowa, rowb = ((a, s) for a, s, _ in engine.rows[-2:])
            assert (rowa[1] | rowb[1]).bit_count() == k
            full = (1 << (1 << n)) - 1
            for alive in (full, rng.getrandbits(1 << n), rng.getrandbits(1 << n) & rng.getrandbits(1 << n)):
                engine.best = -1
                assert not engine._finish_closed(alive)
                assert passed[-1] == _cells_by_vector(alive, rowa, rowb)


def test_the_last_row_keeps_the_larger_side_of_each_class():
    # with one row left, the parity engine keeps, in each star-pattern
    # class of that row, the alive vectors of the larger parity, the even
    # ones on a tie, and adopts them only when they beat the best
    rng = random.Random(137)
    for _ in range(200):
        n = rng.randint(3, 9)
        A = random_matrix(rng, rng.randint(2, 4), n, star_cap=5)
        if len(_prepare_rows(A)[0]) < 2:
            continue
        engine = solutions._ParityChoiceSearch(_prepare_rows(A)[0], A.n, 0, None)
        a, s, _ = engine.rows[-1]
        alive = rng.getrandbits(1 << n)
        sides = {}
        for u in _bits(alive):
            sides.setdefault(u & s, ([], []))[bin(a & u).count("1") & 1].append(u)
        kept = sorted(u for even, odd in sides.values() for u in (odd if len(odd) > len(even) else even))
        engine.best = len(kept) - 1
        engine._go(alive, len(engine.rows) - 1)
        assert (engine.best, list(_bits(engine.best_mask))) == (len(kept), kept)
        engine.best_mask = 0
        engine._go(alive, len(engine.rows) - 1)
        assert (engine.best, engine.best_mask) == (len(kept), 0)


def test_parity_engine_settles_what_the_vertex_search_stalls_on(built_engines):
    # sweep seed 5, items 4x8#174 and #338: opt = lin = 16, which the
    # parity engine proves in 13 and 199 ticks, while the vertex search
    # alone takes 148,172 ticks on #174 and over 200,000 on #338
    drawn = list(_random_matrices(4, 8, 339, 5))
    for k in (174, 338):
        A = drawn[k]
        assert _reaches_search(A)
        _, W = min_rank_completion(A)
        built_engines.clear()
        value, sol = opt_exact(A)
        assert value == 16
        assert sol.sorted_members() == sorted(kernel(W).vectors())
        ticks = sum(engine.clock.ticks for engine in built_engines)
        assert 0 < ticks < 1000


def test_no_vertex_search_on_parity_ready_matrices(monkeypatch, built_engines):
    # on a parity-ready matrix that no root certificate settles, the
    # parity engine, seeded with the kernel, settles the value alone
    subsets = []
    real = solutions._row_subset

    def recorded(*args):
        subsets.append(real(*args))
        return subsets[-1]

    monkeypatch.setattr(solutions, "_row_subset", recorded)
    # sweep seed 0, 4x8#365: no three of its rows keep min rank 3, and
    # the parity engine proves opt = lin = 32 in 939 ticks
    A = list(_random_matrices(4, 8, 366, 0))[365]
    assert _reaches_search(A) and _ready(A)
    _, W = min_rank_completion(A)
    value, sol = opt_exact(A)
    assert value == 32
    assert sol.sorted_members() == sorted(kernel(W).vectors())
    [parity] = built_engines
    assert isinstance(parity, solutions._ParityChoiceSearch)
    assert parity._stack == [] and parity.clock.ticks == 939
    assert subsets == [None]
    # sweep seed 2, 5x10#148: the coset certificate settles it, so
    # neither the parity engine nor the row subset is built
    A = list(_random_matrices(5, 10, 149, 2))[148]
    assert _reaches_search(A) and _ready(A)
    _, W = min_rank_completion(A)
    built_engines.clear()
    subsets.clear()
    value, sol = opt_exact(A)
    assert value == 64
    assert sol.sorted_members() == sorted(kernel(W).vectors())
    assert built_engines == [] and subsets == []


def test_the_coset_certificate_settles_at_the_root(built_engines):
    # sweep items (seed, shape, index) that neither the column nor the
    # ratio bound settles, on which some subspace U with every nonzero
    # member forbidden has dim U = min rank r: its cosets are cliques, so
    # opt <= 2^(n - r) = lin, the kernel is the witness and no engine is
    # built.  The last is not parity-ready.
    for seed, m, n, k, ready in (
        (2, 5, 10, 148, True),
        (4, 5, 10, 121, True),
        (7, 4, 8, 256, True),
        (5, 6, 12, 60, False),
    ):
        A = list(_random_matrices(m, n, k + 1, seed))[k]
        assert _reaches_search(A) and _ready(A) == ready
        r, W = min_rank_completion(A)
        assert len(_coset_basis(forbidden_set(A).bitmap, n, r)) == r
        value, sol = opt_exact(A)
        assert value == 1 << (n - r)
        assert sol.sorted_members() == sorted(kernel(W).vectors())
    assert built_engines == []


def test_roof_bound_settles_h2(built_engines):
    # no root bound meets lin = 32 on H2, so only an exhausted search
    # proves opt = lin: of H2 itself, or of three of its rows (the
    # relaxed engine); the roof bound closes each two-row finish at its
    # root, and without it the parity engine alone needs 3.73M ticks
    _, W = min_rank_completion(H2)
    V = sorted(kernel(W).vectors())
    value, sol = opt_exact(H2)
    assert value == 32
    assert sol.sorted_members() == V
    # the relaxed engine's first turn comes before any slice of H2's own
    # parity engine, and exhausts, so that engine is never resumed; both
    # keep the kernel
    parity, relaxed = built_engines
    assert (parity.clock.ticks, relaxed.clock.ticks) == (0, 439)
    assert parity._stack is None and relaxed._stack == []
    assert (parity.best, parity.best_mask) == (relaxed.best, relaxed.best_mask) == (32, _mask(V))


@pytest.fixture
def relaxations(monkeypatch):
    """What _row_subset returned in each opt_exact call while the test
    runs: None, or the relaxed engine, whose `turns` lists its incumbent
    size after each of its turns."""
    out = []
    real = solutions._row_subset

    def recorded(*args):
        engine = real(*args)
        out.append(engine)
        if engine is not None:
            engine.turns = []
            resume = engine.resume

            def counted(stop):
                done = resume(stop)
                engine.turns.append(engine.best)
                return done

            engine.resume = counted
        return engine

    monkeypatch.setattr(solutions, "_row_subset", recorded)
    return out


def test_no_relaxation_when_every_row_keeps_the_min_rank_up(relaxations, built_engines):
    # sweep seed 0, 4x8#319: min rank 4, and each three of its four rows
    # have a completion of rank 3, so _row_subset finds no row to drop;
    # opt_exact then runs the parity engine alone, which exhausts at
    # 16 = lin in 207 ticks
    A = list(_random_matrices(4, 8, 320, 0))[319]
    rows = _prepare_rows(A)[0]
    r, W = min_rank_completion(A)
    assert (len(rows), r) == (4, 4) and _ready(A) and _reaches_search(A)
    for i in range(len(rows)):
        rest = rows[:i] + rows[i + 1 :]
        assert min_rank(PartialMatrix(A.n, tuple(a for a, _ in rest), tuple(s for _, s in rest))) == 3
    assert solutions._row_subset(rows, A.n, r, None) is None
    relaxations.clear()
    built_engines.clear()
    value, sol = opt_exact(A)
    assert value == 16 and sol.sorted_members() == sorted(kernel(W).vectors())
    assert relaxations == [None]
    [parity] = built_engines
    assert isinstance(parity, solutions._ParityChoiceSearch)
    assert parity._stack == [] and parity.clock.ticks == 207


def test_three_rows_of_h2_settle_it_in_every_row_order(relaxations, built_engines):
    # H2 keeps min rank 3 without one of its rows, and the parity engine
    # on the other three exhausts at 32 = lin in its first turn, of
    # 2 * _FIRST_SLICE ticks (439 to 455 needed), which comes before the
    # first slice of H2's own parity engine, so that engine takes no tick
    rng = random.Random(113)
    ticks = 0
    for _ in range(4):
        rows = list(zip(H2.ones, H2.stars))
        rng.shuffle(rows)
        A = PartialMatrix(H2.n, tuple(a for a, _ in rows), tuple(s for _, s in rows))
        _, W = min_rank_completion(A)
        relaxations.clear()
        built_engines.clear()
        value, sol = opt_exact(A)
        assert value == 32
        assert sol.sorted_members() == sorted(kernel(W).vectors())
        [relaxed] = relaxations
        kept = [(a, s) for a, s, _ in relaxed.rows]
        assert len(kept) == 3 and set(kept) < set(rows)
        assert relaxed._stack == [] and relaxed.best == 32
        assert relaxed.turns == [32]
        parity, built = built_engines
        assert built is relaxed and isinstance(parity, solutions._ParityChoiceSearch)
        assert parity._stack is None and parity.clock.ticks == 0
        ticks += relaxed.clock.ticks
    assert 0 < ticks < 2_500


def test_the_parity_engine_keeps_its_first_slice(relaxations, built_engines):
    # sweep seed 0, 4x8#320 and #113: three of the rows of each keep min
    # rank 3, and the relaxed engine on them proves opt = lin = 32 in its
    # first turn, in 25 and 27 ticks, so A's own parity engine keeps its
    # first slice unspent
    for k, ticks in ((320, 25), (113, 27)):
        A = list(_random_matrices(4, 8, k + 1, 0))[k]
        assert _reaches_search(A) and _ready(A)
        _, W = min_rank_completion(A)
        built_engines.clear()
        relaxations.clear()
        value, sol = opt_exact(A)
        assert value == 32
        assert sol.sorted_members() == sorted(kernel(W).vectors())
        [relaxed] = relaxations
        assert relaxed.turns == [32] and relaxed._stack == []
        assert relaxed.clock.ticks == ticks
        parity, built = built_engines
        assert built is relaxed and isinstance(parity, solutions._ParityChoiceSearch)
        assert parity._stack is None and parity.clock.ticks == 0


def test_single_row_sums_skip_every_finish_of_113(monkeypatch):
    # sweep seed 0, item 4x8#113: in the parity engine on A, seeded with
    # the kernel as opt_exact seeds it, each finish's own row sums
    # already cannot beat the best, so no two-row bound runs (1,024 ran
    # without that check).  opt_exact also runs the relaxed engine on
    # three of A's rows, whose finishes do reach the two-row bound.
    calls = []
    real = solutions._pair_closed

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(solutions, "_pair_closed", counted)
    A = list(_random_matrices(4, 8, 114, 0))[113]
    assert _reaches_search(A) and _ready(A)
    _, W = min_rank_completion(A)
    V = sorted(kernel(W).vectors())
    parity = solutions._ParityChoiceSearch(
        _prepare_rows(A)[0], A.n, forbidden_set(A).bitmap, None
    )
    parity.seed(_mask(V))
    assert parity.resume(None) and (parity.best, parity.best_mask) == (32, _mask(V))
    assert calls == []
    value, sol = opt_exact(A)
    assert value == 32 and sol.sorted_members() == V


def test_a_relaxed_incumbent_never_reaches_the_engines_of_a(monkeypatch, relaxations):
    # a relaxation qualifies on each, but none proves opt = lin = 16: on
    # the first two opt = 20, and on the third opt = lin.  Each relaxed
    # engine stops at its ceiling lin + 1 in its first turn, after 29, 57
    # and 234 ticks, with a set of 18, 17 and 18 that is no solution of
    # A, and takes no turn after it.
    seeded = []
    real = solutions._Engine.seed

    def spy(self, mask):
        seeded.append((self, mask))
        real(self, mask)

    monkeypatch.setattr(solutions._Engine, "seed", spy)
    cases = (
        ("*11*1*1/0*1**1*/1**1000/*01***0/0110111/*01*11*", 20, 29, 18),
        ("*0100**/**10**1/00**010/0*1*1*1/*111*0*", 20, 57, 17),
        ("*11*00*0/1*11***0/11*01110/0**11***/01*10*01/1111*11*", 16, 234, 18),
    )
    for text, opt, ticks, found in cases:
        A = parse_pmx(text.replace("/", "\n"))
        seeded.clear()
        relaxations.clear()
        value, sol = opt_exact(A)
        assert value == opt and sol.size == opt and is_solution(A, sol)
        [relaxed] = relaxations
        assert relaxed is not None and relaxed.turns == [found]
        assert relaxed.clock.ticks == ticks
        assert not is_solution(A, _bits(relaxed.best_mask))
        for engine, mask in seeded:
            if engine is not relaxed:
                assert is_solution(A, _bits(mask))


def test_the_relaxation_changes_no_answer(monkeypatch, relaxations, built_engines):
    # opt_exact with and without the relaxed engine on seeded random
    # parity-ready matrices with three distinct rows or more that reach
    # the search, the same value and witness.  Draws on which an engine
    # without it passes 4,000 ticks are skipped, which keeps the run
    # short.  No vertex search is built, and where the coset certificate
    # settles a draw, no engine at all.  brute_force_opt_tiny refuses
    # every matrix here (and no matrix it accepts reaches the search), so
    # at n = 6 the check is the exhaustive _max_independent.
    class Capped(Exception):
        pass

    def capped(real):
        # a slice that ends at 4,000 ticks with a tick still to take, or
        # that passes them, means the search needs more than 4,000
        def resume(self, stop):
            done = real(self, 4000 if stop is None else min(stop, 4000))
            if self.clock.ticks > 4000 or not done and self.clock.ticks >= 4000:
                raise Capped
            return done

        return resume

    rng = random.Random(107)
    drawn = compared = settled = rooted = 0
    while drawn < 60:
        A = random_matrix(rng, rng.randint(3, 6), rng.randint(6, 8))
        if not (
            len(_prepare_rows(A)[0]) >= 3
            and _ready(A)
            and _reaches_search(A)
        ):
            continue
        drawn += 1
        with monkeypatch.context() as m:
            m.setattr(solutions, "_row_subset", lambda *args: None)
            for engine in (_OptSearch, solutions._ParityChoiceSearch):
                m.setattr(engine, "resume", capped(engine.resume))
            try:
                without = opt_exact(A)
            except Capped:
                continue
        relaxations.clear()
        built_engines.clear()
        value, sol = opt_exact(A)
        assert (value, sol.sorted_members()) == (without[0], without[1].sorted_members())
        assert not any(isinstance(engine, _OptSearch) for engine in built_engines)
        compared += 1
        if relaxations:
            relaxed = relaxations[0]
            if relaxed is not None and relaxed._stack == [] and relaxed.best == value:
                settled += 1
        else:
            assert built_engines == []
            rooted += 1
        if A.n == 6:
            K = forbidden_set(A).bitmap
            assert value == _max_independent(((1 << 64) - 1) & ~K, K, 6)
    assert compared > 40 and settled >= 5 and rooted >= 5


def test_a_finish_past_its_root_on_27(monkeypatch):
    # sweep seed 1, item 4x8#27: opt = 40 > lin = 32, and some of its
    # two-row finishes do not close at their root, so the walk goes on
    # through the last row but one and settles the last row alone
    A = list(_random_matrices(4, 8, 28, 1))[27]
    assert _reaches_search(A) and _ready(A)
    closed = []
    real = solutions._pair_closed

    def spy(*args):
        closed.append(real(*args))
        return closed[-1]

    monkeypatch.setattr(solutions, "_pair_closed", spy)
    limit = sys.getrecursionlimit()
    value, sol = opt_exact(A)
    assert value == 40 and sol.size == 40 and is_solution(A, sol)
    assert not all(closed)
    assert sys.getrecursionlimit() == limit


def test_a_parity_slice_ends_within_a_few_ticks_of_its_stop():
    # sweep seed 1, 4x8#27 and seed 3, 5x10#9 and #30, whose two-row
    # bounds do not all close, in slices of 256 ticks up to 4,096: a slice
    # stops before the node that would start past its stop, and a node
    # takes its walk tick plus, on the last row but one, one two-row
    # bound: a tick and the phases of its flow
    for seed, m, n, k in ((1, 4, 8, 27), (3, 5, 10, 9), (3, 5, 10, 30)):
        A = list(_random_matrices(m, n, k + 1, seed))[k]
        assert _reaches_search(A) and _ready(A)
        _, W = min_rank_completion(A)
        engine = solutions._ParityChoiceSearch(
            _prepare_rows(A)[0], A.n, forbidden_set(A).bitmap, None
        )
        engine.seed(_mask(kernel(W).vectors()))
        past = []
        while engine.clock.ticks < 4096:
            stop = engine.clock.ticks + 256
            if engine.resume(stop):
                break
            past.append(engine.clock.ticks - stop)
        assert len(past) > 10 and max(past) <= 5


def test_one_distinct_row_settles_at_the_root(built_engines):
    # one distinct nonzero row, repeated, among zero and all-star rows:
    # min rank 1 meets the column bound, so no engine is built, and the
    # parity engine, which finishes two rows together, is never ready
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 8)
        j = rng.randrange(n)
        s = rng.getrandbits(n) & ~(1 << j)
        a = rng.getrandbits(n) & ~s | 1 << j
        rows = [(a, s)] * rng.randint(1, 3)
        rows += [(0, rng.choice((0, (1 << n) - 1))) for _ in range(rng.randint(0, 3))]
        rng.shuffle(rows)
        A = PartialMatrix(n, tuple(r for r, _ in rows), tuple(t for _, t in rows))
        assert not _ready(A)
        _, W = min_rank_completion(A)
        value, sol = opt_exact(A)
        assert value == 1 << (n - 1)
        assert sol.sorted_members() == sorted(kernel(W).vectors())
    assert built_engines == []


def _alone(engine, A, stop):
    """opt by one engine alone, seeded with the kernel as opt_exact
    seeds it, or None when it does not finish within `stop` ticks."""
    _, W = min_rank_completion(A)
    K = forbidden_set(A).bitmap
    if engine is _OptSearch:
        search = engine(A.n, K, None)
    else:
        search = engine(_prepare_rows(A)[0], A.n, K, None)
    search.seed(_mask(kernel(W).vectors()))
    return search.best if search.resume(stop) else None


def test_portfolio_agrees_with_each_engine_alone():
    rng = random.Random(89)

    def draw(count, make):
        out = []
        while len(out) < count:
            A = make()
            if (
                partial._drop_unused_columns(A)[0] is A
                and _ready(A)
                and _reaches_search(A)
            ):
                out.append(A)
        return out

    tall = draw(40, lambda: random_matrix(rng, rng.randint(6, 14), rng.randint(5, 6)))
    # the shape of H2
    wide = draw(24, lambda: random_matrix(rng, 4, 8))
    compared = [0, 0]
    for A in tall + wide:
        r, W = min_rank_completion(A)
        vertex = _alone(_OptSearch, A, 4000)
        parity = _alone(solutions._ParityChoiceSearch, A, 4000)
        if vertex is None and parity is None:
            continue
        value, sol = opt_exact(A)
        for i, alone in enumerate((vertex, parity)):
            if alone is not None:
                assert value == alone
                compared[i] += 1
        assert sol.size == value and is_solution(A, sol)
        if value == 1 << (A.n - r):
            assert sol.sorted_members() == sorted(kernel(W).vectors())
        if A.n <= 5:
            K = forbidden_set(A).bitmap
            assert value == _max_independent(((1 << (1 << A.n)) - 1) & ~K, K, A.n)
    # the vertex engine alone settles every tall draw within 4,000 ticks,
    # and no wide one
    assert compared[0] >= 40 and compared[1] > 50

