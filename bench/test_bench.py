"""The benchmark's own tests: its checks pass on right answers and fail a
run on a wrong opt, an invalid witness or a row-order dependent report."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import worker

minrank = worker.import_program()

import checks  # noqa: E402  (both import minrank, so they follow import_program)
import corpus  # noqa: E402


def run_checked(workload, items, seed=1, budget=5.0):
    outcomes = worker.run_loop(workload, items, budget)
    problems, properties, _ = checks.check_answers(workload, seed, items, outcomes)
    return outcomes, problems, properties


def fixtures():
    return [corpus.load_instance(name) for name in corpus.FIXTURES]


def test_fixture_answers_pass():
    items = fixtures()
    assert [it.known for it in items] == [{"opt": 16, "lin": 16}, {"opt": 2, "lin": 2}]
    outcomes, problems, _ = run_checked("hard", items)
    assert [status for status, _, _ in outcomes] == ["ok", "ok"]
    assert problems == []


def test_default_seed_records_match_committed_lines():
    expected = checks.expected_records("sweep", checks.DEFAULT_SEED)
    items = [
        it for it in corpus.sweep(checks.DEFAULT_SEED, 0.3)
        if minrank.compact(it.A) in expected
    ]
    assert len(items) >= 8
    outcomes, problems, properties = run_checked("sweep", items, seed=checks.DEFAULT_SEED)
    assert all(status == "ok" for status, _, _ in outcomes)
    assert problems == []
    assert properties["records_without_expected"] == 0


def test_wrong_opt_fails_the_run(monkeypatch, capsys):
    real = minrank.opt_exact

    def off_by_one(A, *args, **kwargs):
        value, witness = real(A, *args, **kwargs)
        return value + 1, witness

    monkeypatch.setattr(minrank, "opt_exact", off_by_one)
    _, problems, _ = run_checked("hard", fixtures())
    assert any("known answer 16" in p for p in problems)
    assert any("witness has 2 members, opt is 3" in p for p in problems)

    worker.main(["--workload", "sweep", "--seed", "5", "--seconds", "0.3"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["problems"] and result["errors"] == 0


def test_invalid_witness_fails_the_run(monkeypatch):
    real = minrank.opt_exact

    def forged(A, *args, **kwargs):
        value, witness = real(A, *args, **kwargs)
        members = witness.sorted_members()
        # swap the last member for a forbidden neighbour of the first
        members[-1] = members[0] ^ checks.forbidden_vectors(A)[0]
        return value, minrank.SolutionSet.of(members, A.n)

    monkeypatch.setattr(minrank, "opt_exact", forged)
    _, problems, _ = run_checked("hard", fixtures())
    assert sum("forbidden vector" in p for p in problems) == 2


def test_row_order_dependent_report_fails():
    items = [it for it in corpus.codes(0, 0) if it.key.startswith("code-3-1#")]
    assert len(items) == 2
    outcomes = [("ok", 0.0, minrank.report(it.A)) for it in items]
    assert checks.check_answers("codes", 0, items, outcomes)[0] == []
    outcomes[1][2]["max_rank"] += 1
    problems = checks.check_answers("codes", 0, items, outcomes)[0]
    assert problems == ["code-3-1#1: report differs from another row order of the same matrix"]


def test_code_table_within_packing_bounds():
    for n, r in corpus.CODE_SPECS:
        opt = corpus.code_optimum(n, r)
        assert minrank.gv_bound(n, r) <= opt <= minrank.hamming_bound(n, r)


def test_run_fails_without_the_program(tmp_path):
    root = Path(worker.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hard", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
