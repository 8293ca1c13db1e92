"""Acceptance suite: one test per headline capability.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion; `-s` adds a timed summary line for each.
"""

import itertools
import math
import random
import time
from math import comb

import pytest

from conftest import build_circuit
from minrank.circuits import (
    evaluate,
    extract_linear_operator,
    linearize,
    linearize_middle,
    matrix_of,
    metrics,
    rigidity,
)
from minrank.cli import main
from minrank.codes import (
    CodeMatrixSpec,
    code_matrix,
    code_row_min_rank,
    gv_bound,
    hamming_bound,
    min_distance,
    verify_ka_is_ball,
)
from minrank.gf2 import GF2Matrix, Subspace, _ratio_bound, enumerate_subspaces, kernel, rank, rref
from minrank.partial import (
    PartialMatrix,
    col_min_rank,
    enumerate_completions,
    is_star_monotone,
    isolation,
    line_cover_number,
    max_rank,
    min_rank,
    min_rank_completion,
    row_min_rank,
)
from minrank.pmx import parse_pmx
from minrank.solutions import (
    SolutionSet,
    brute_force_opt_tiny,
    forbidden_set,
    is_solution,
    lin_exact,
    linear_hull_check,
    opt_exact,
    separating_min_rank,
)

A1 = parse_pmx("10*0*1\n*111**\n0**1**\n")
A2 = parse_pmx("11*1\n101*\n1*00\n")


def timed(budget_s):
    """Start a clock whose close() asserts the criterion's time budget."""
    t0 = time.perf_counter()

    def close(label):
        dt = time.perf_counter() - t0
        assert dt < budget_s, f"{label} took {dt:.1f}s, budget {budget_s}s"
        print(f"PASS {label} [{dt:.2f}s]")

    return close


def random_matrix(rng, m, n, star_cap=None):
    ones, stars = [], []
    for _ in range(m):
        a = s = 0
        for j in range(n):
            c = rng.randrange(3)
            if c == 1:
                a |= 1 << j
            elif c == 2:
                s |= 1 << j
        if star_cap is not None and s.bit_count() > star_cap:
            keep = star_cap
            pruned = 0
            for j in range(n):
                if (s >> j) & 1 and keep:
                    pruned |= 1 << j
                    keep -= 1
            s = pruned
        ones.append(a)
        stars.append(s)
    return PartialMatrix(n, tuple(ones), tuple(stars))


def test_criterion_01_flagship_example():
    done = timed(1.0)
    assert min_rank(A1) == 2
    completion = GF2Matrix(6, (33, 14, 14))  # rows 100001, 011100, 011100
    for i in range(3):
        assert (completion.rows[i] ^ A1.ones[i]) & ~A1.stars[i] == 0
    assert rank(completion) == 2
    assert col_min_rank(A1) == 2
    assert lin_exact(A1) == 16
    value, sol = opt_exact(A1)
    assert value == 16 and is_solution(A1, sol)
    assert (6 - math.log2(16)) / 2 == 1.0
    done("criterion 1: flagship matrix (minrk 2, completion rank 2, lin 16, opt 16, eps 1)")


def test_criterion_02_row_column_gap_example():
    done = timed(1.0)
    assert row_min_rank(A2) == 3
    assert col_min_rank(A2) == 2
    assert min_rank(A2) == 3
    done("criterion 2: row/column min-rank gap fixture (3 vs 2, minrk 3)")


def rows_with_few_stars(n, cap):
    out = []
    for cells in itertools.product("01*", repeat=n):
        if cells.count("*") > cap:
            continue
        a = s = 0
        for j, c in enumerate(cells):
            if c == "1":
                a |= 1 << j
            elif c == "*":
                s |= 1 << j
        out.append((a, s))
    return out


def test_criterion_03_opt_matches_brute_force_exhaustively():
    done = timed(300.0)
    total = 0
    for n in (1, 2, 3):
        rows = rows_with_few_stars(n, 2)
        for m in (1, 2):
            for pick in itertools.product(rows, repeat=m):
                A = PartialMatrix(
                    n, tuple(a for a, _ in pick), tuple(s for _, s in pick)
                )
                assert opt_exact(A)[0] == brute_force_opt_tiny(A)
                total += 1
    assert total == 804
    done(f"criterion 3: opt equals tiny brute force on all {total} small matrices")


def test_criterion_04_min_rank_oracles():
    done = timed(120.0)
    rng = random.Random(401)
    enum_checked = 0
    for _ in range(500):
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        r = min_rank(A)
        assert separating_min_rank(A) == r
        if A.star_count <= 12:
            assert min(rank(W) for W in enumerate_completions(A)) == r
            enum_checked += 1
    done(
        "criterion 4: separating rank and completion sweep agree on 500 "
        f"matrices ({enum_checked} via enumeration)"
    )


def column_split(A, p):
    low = (1 << p) - 1
    B = PartialMatrix(
        p, tuple(a & low for a in A.ones), tuple(s & low for s in A.stars)
    )
    C = PartialMatrix(
        A.n - p, tuple(a >> p for a in A.ones), tuple(s >> p for s in A.stars)
    )
    return B, C


def test_criterion_05_theorem_suite():
    done = timed(600.0)
    rng = random.Random(2026)
    for _ in range(1000):
        n = rng.randint(1, 10)
        m = rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        opt, _ = opt_exact(A)
        minrk = min_rank(A)
        assert lin_exact(A) <= opt <= 1 << n

        # removing a row never shrinks the optimum
        if m >= 2:
            drop = rng.randrange(m)
            ones = A.ones[:drop] + A.ones[drop + 1:]
            stars = A.stars[:drop] + A.stars[drop + 1:]
            assert opt_exact(PartialMatrix(n, ones, stars))[0] >= opt

        # column split sandwich
        if n >= 2:
            p = rng.randint(1, n - 1)
            B, C = column_split(A, p)
            ob = opt_exact(B)[0]
            oc = opt_exact(C)[0]
            assert ob * oc <= opt <= ob * (1 << (n - p))

        # every star-free submatrix bounds the optimum by its rank
        for pick in range(1, 1 << m):
            smask = 0
            for i in range(m):
                if (pick >> i) & 1:
                    smask |= A.stars[i]
            cols = ((1 << n) - 1) & ~smask
            sub = [A.ones[i] & cols for i in range(m) if (pick >> i) & 1]
            assert opt <= 1 << (n - len(rref(sub)))

        # max-rank minus line cover
        assert opt <= 1 << (n - max_rank(A) + line_cover_number(A))

        # independent columns
        assert opt <= 1 << (n - col_min_rank(A))

        # the ratio bound: Delsarte's LP and Plotkin's bound on the weight
        # classes that the forbidden set holds whole, else 2^n
        K = forbidden_set(A).bitmap
        if K:
            assert opt <= _ratio_bound(K, n)

        # star-monotone instances obey the row version
        if is_star_monotone(A):
            assert opt <= 1 << (n - row_min_rank(A))

        # strongly isolated instances force full row rank
        if isolation(A, strong=True) is not None:
            assert opt <= 1 << (n - m)

        # with at most one star per row only linear operators fit
        if all(s.bit_count() <= 1 for s in A.stars):
            assert opt == 1 << (n - minrk)
    done("criterion 5: bound and structure theorems hold on 1000 matrices")


def test_criterion_06_subspace_oracle():
    done = timed(120.0)
    rng = random.Random(601)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        F = forbidden_set(A)
        best = 0
        for S in enumerate_subspaces(n):
            if S.dim > best and all(not F.contains(x) for x in S.vectors()):
                best = S.dim
        assert best == n - min_rank(A)
    done("criterion 6: largest avoiding subspace equals n - minrk on 200 matrices")


def test_criterion_07_code_matrices():
    done = timed(300.0)
    for n, r in ((5, 1), (6, 2), (7, 2), (4, 3)):
        assert verify_ka_is_ball(CodeMatrixSpec(n, r))
    spec = CodeMatrixSpec(7, 2)
    A = code_matrix(spec)
    assert min_rank(A) == 3
    assert lin_exact(A) == 16
    value, sol = opt_exact(A)
    assert value == 16
    d = min_distance(sol)
    assert d is not None and d >= 3
    assert hamming_bound(7, 3) == 16
    assert gv_bound(7, 2) == 4
    for n, r in ((5, 1), (6, 2)):
        cspec = CodeMatrixSpec(n, r)
        assert col_min_rank(code_matrix(cspec)) <= r + 1
        assert code_row_min_rank(cspec) <= 2 * r
    done("criterion 7: code matrices, distance-3 optimum 16, packing bounds")


def test_criterion_08_circuit_linearization():
    done = timed(600.0)
    rng = random.Random(1203)
    nonparity = 0
    for _ in range(200):
        F, target = build_circuit(rng)
        M = extract_linear_operator(F)
        assert M is not None and M.rows == target
        A = matrix_of(F)
        L = linearize(F)
        assert all(L.evaluate(x) == evaluate(F, x) for x in range(1 << F.n))
        assert L.width == min_rank(A)
        assert L.degree <= F.degree
        got = metrics(F)
        assert max_rank(A) - got["match_size"] <= F.width
        cnt, _ = opt_exact(A)
        assert F.width >= F.n - math.log2(cnt) - 1e-9
        try:
            G = linearize_middle(F)
        except ValueError:
            nonparity += 1
        else:
            assert all(evaluate(G, x) == evaluate(F, x) for x in range(1 << F.n))
    done(
        "criterion 8: 200 circuits linearize exactly "
        f"({nonparity} with non-parity outputs)"
    )


def test_criterion_09_rigidity():
    done = timed(60.0)
    I4 = GF2Matrix(4, (1, 2, 4, 8))
    for r in range(5):
        assert rigidity(I4, r) == 4 - r
    rng = random.Random(901)
    for _ in range(30):
        M = GF2Matrix(4, tuple(rng.getrandbits(4) for _ in range(4)))
        assert rigidity(M, rank(M)) == 0
    rng = random.Random(1203)
    evaluable = 0
    for _ in range(200):
        F, _ = build_circuit(rng)
        M = extract_linear_operator(F)
        L = linearize(F)
        _, W = min_rank_completion(matrix_of(F))
        dist = sum((a ^ b).bit_count() for a, b in zip(M.rows, W.rows))
        if M.m * M.n <= 25 and dist <= 5:
            rig = rigidity(M, L.width)
            assert rig <= dist
            assert L.degree >= rig / M.n - 1e-9
            evaluable += 1
    assert evaluable >= 100
    done(f"criterion 9: rigidity sanity and degree bound on {evaluable} fixtures")


def test_criterion_10_linear_hull_property():
    done = timed(600.0)
    rng = random.Random(4242)
    applicable = 0
    for _ in range(10_000):
        n = rng.randint(4, 10)
        m = rng.randint(1, 4)
        ones, stars = [], []
        for _ in range(m):
            a = rng.getrandbits(n)
            cols = list(range(n))
            rng.shuffle(cols)
            s = 0
            for j in cols[: rng.randrange(3)]:
                s |= 1 << j
            ones.append(a & ~s)
            stars.append(s)
        A = PartialMatrix(n, tuple(ones), tuple(stars))
        _, Wc = min_rank_completion(A)
        V = kernel(Wc)
        if V.dim == 0:
            W = Subspace(n, ())
        else:
            k = rng.randint(1, min(V.dim, 4))
            picks = [V.basis[i] for i in rng.sample(range(V.dim), k)]
            W = Subspace.span(picks, n)
        members = set(W.vectors())
        for _ in range(6):
            x = rng.getrandbits(n)
            if x not in members and is_solution(A, members | {x}):
                members.add(x)
        verdict = linear_hull_check(A, SolutionSet.of(members, n), W)
        if verdict.applicable:
            applicable += 1
            assert verdict.conclusion_holds
    assert applicable >= 1000
    done(f"criterion 10: span of every applicable trial avoids K ({applicable} applicable)")


def test_criterion_11_determinism(tmp_path, capsys):
    done = timed(120.0)
    logs = []
    for name in ("first.jsonl", "second.jsonl"):
        out = tmp_path / name
        rc = main([
            "search", "--shape", "3x6", "--mode", "random",
            "--count", "50", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        logs.append(out.read_bytes())
    assert logs[0] == logs[1]
    capsys.readouterr()

    files = []
    for i, text in enumerate(("10*0*1\n*111**\n0**1**\n", "11*1\n101*\n1*00\n")):
        p = tmp_path / f"r{i}.pmx"
        p.write_text(text)
        files.append(str(p))
    assert main(["report", *files]) == 0
    first = capsys.readouterr().out
    assert main(["report", *files]) == 0
    second = capsys.readouterr().out
    assert first == second
    done("criterion 11: byte-identical logs and reports")
