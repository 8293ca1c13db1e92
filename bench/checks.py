"""Answer checks, run after the timed loop and outside every span.

The checks use the benchmark's own definitions wherever they can:

* the forbidden set K comes from the row predicate (x vanishes on a
  row's stars and has odd inner product with its ones), not from the
  program's bitmaps;
* a witness L is a solution when no member xor a forbidden vector is
  another member, checked at a cost of |L| * |K|;
* opt >= lin = 2^(n - min_rank), since the kernel of a min-rank
  completion is a solution;
* known answers (committed instances, the code table, the committed
  default-seed records) must match;
* the reports of one code matrix must not depend on its row order.
"""

from __future__ import annotations

import json
from pathlib import Path

import minrank

DEFAULT_SEED = 0
EXPECTED_SWEEP = Path(__file__).resolve().parent / "expected" / f"sweep-seed{DEFAULT_SEED}.jsonl"


def forbidden_vectors(A: minrank.PartialMatrix) -> list[int]:
    rows = [(a, s) for a, s in zip(A.ones, A.stars) if a]
    return [
        x
        for x in range(1, 1 << A.n)
        if any(x & s == 0 and (a & x).bit_count() & 1 for a, s in rows)
    ]


def witness_problem(A, opt: int, bitmap: int, K: list[int]) -> str | None:
    """What is wrong with the witness whose bit x marks member x, if anything."""
    if bitmap >> (1 << A.n):
        return "witness member outside GF(2)^n"
    L = {x for x in range(1 << A.n) if bitmap >> x & 1}
    if len(L) != opt:
        return f"witness has {len(L)} members, opt is {opt}"
    for k in K:
        if not L.isdisjoint({x ^ k for x in L}):
            return f"two witness members differ by the forbidden vector {k}"
    return None


def search_record(A, minrk: int, opt: int, seed: int) -> minrank.SearchRecord:
    """What evaluate_matrix returns for A, rebuilt from the budgeted calls."""
    eps = minrank.epsilon_of(A.n, opt, minrk)
    alarm = minrank.ToolConfig().epsilon_alarm
    return minrank.SearchRecord(
        matrix=minrank.compact(A),
        n=A.n,
        m=A.m,
        stars=A.star_count,
        minrk=minrk,
        opt=opt,
        lin=1 << (A.n - minrk),
        epsilon=eps,
        flag="COUNTEREXAMPLE-CANDIDATE" if eps is not None and eps < alarm else None,
        seed=seed,
        version=minrank.VERSION,
    )


def expected_records(workload: str, seed: int) -> dict[str, str]:
    """Committed SearchRecord lines, by matrix, for the default-seed sweep."""
    if workload != "sweep" or seed != DEFAULT_SEED:
        return {}
    lines = EXPECTED_SWEEP.read_text(encoding="utf-8").splitlines()
    return {json.loads(line)["matrix"]: line for line in lines}


def check_answers(workload: str, seed: int, items, outcomes):
    """Problems found in the answers, the input properties seen, and the
    indices of the items whose column bound 2^(n - col_min_rank) is lin.

    outcomes[i] is (status, seconds, answer) for items[i]; only "ok"
    outcomes carry an answer.
    """
    problems: list[str] = []
    expected = expected_records(workload, seed)
    unmatched = 0
    K_cache: dict = {}
    density: dict[int, list[float]] = {}
    first_report: dict[str, dict] = {}
    tight: list[int] = []
    lin_known = 0
    for idx, (item, (status, _, answer)) in enumerate(zip(items, outcomes)):
        A = item.A
        rowset = frozenset(zip(A.ones, A.stars))
        if rowset not in K_cache:
            K_cache[rowset] = forbidden_vectors(A)
        K = K_cache[rowset]
        density.setdefault(A.n, []).append(len(K) / (1 << A.n))

        def bad(msg):
            problems.append(f"{item.key}: {msg}")

        lin = item.known.get("lin")
        if status == "ok" and workload == "codes":
            rep = answer
            lin = rep["lin"]
            if rep["opt"] < rep["lin"]:
                bad(f"opt {rep['opt']} < lin {rep['lin']}")
            if rep["lin"] != 1 << (A.n - rep["min_rank"]):
                bad("lin is not 2^(n - min_rank)")
            for key in ("opt", "lin"):
                if rep[key] != item.known[key]:
                    bad(f"{key} {rep[key]}, known answer {item.known[key]}")
            spec = item.key.split("#")[0]
            ref = first_report.setdefault(spec, rep)
            if rep != ref:
                bad("report differs from another row order of the same matrix")
        elif status == "ok":
            minrk, opt, witness = answer
            lin = 1 << (A.n - minrk)
            if opt < lin:
                bad(f"opt {opt} < lin {lin}")
            problem = witness_problem(A, opt, witness, K)
            if problem:
                bad(problem)
            for key, got in (("opt", opt), ("lin", lin)):
                if key in item.known and got != item.known[key]:
                    bad(f"{key} {got}, known answer {item.known[key]}")
            if expected:
                line = search_record(A, minrk, opt, seed).to_json()
                want = expected.get(minrank.compact(A))
                if want is None:
                    unmatched += 1
                elif line != want:
                    bad(f"record {line} differs from the committed {want}")
        elif status == "error":
            bad(f"raised {answer}")
        if lin is not None:
            lin_known += 1
            if 1 << (A.n - minrank.col_min_rank(A)) == lin:
                tight.append(idx)

    shapes: dict[str, int] = {}
    shape_s: dict[str, float] = {}
    for item, (_, seconds, _) in zip(items, outcomes):
        shape = f"{item.A.m}x{item.A.n}"
        shapes[shape] = shapes.get(shape, 0) + 1
        shape_s[shape] = shape_s.get(shape, 0.0) + seconds
    properties = {
        "shape_mix": shapes,
        "time_s_by_shape": shape_s,
        "forbidden_density_by_n": {
            str(n): sum(v) / len(v) for n, v in sorted(density.items())
        },
        "col_bound_tight_items": len(tight),
        "col_bound_tight_base": lin_known,
        "col_bound_tight_share": len(tight) / lin_known if lin_known else 0.0,
        "records_without_expected": unmatched,
    }
    return problems, properties, set(tight)
