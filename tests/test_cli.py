"""End-to-end tests for the command line layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minrank
from minrank.circuits import Depth2Circuit, MiddleGate, OutputGate, emit_ckt
from minrank.codes import CodeMatrixSpec, code_matrix
from minrank.cli import main
from minrank.errors import InternalError
from minrank.pmx import emit_pmx

A1_TEXT = "10*0*1\n*111**\n0**1**\n"


@pytest.fixture
def a1_file(tmp_path):
    p = tmp_path / "a1.pmx"
    p.write_text(A1_TEXT)
    return str(p)


def test_report_command(a1_file, capsys):
    assert main(["report", a1_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["min_rank"] == 2 and rep["opt"] == 16 and rep["epsilon"] == 1.0


def test_report_several_files(tmp_path, capsys):
    paths = []
    for i, text in enumerate((A1_TEXT, "11*1\n101*\n1*00\n", "01\n1*\n")):
        p = tmp_path / f"m{i}.pmx"
        p.write_text(text)
        paths.append(str(p))
    assert main(["report", *paths]) == 0
    out = capsys.readouterr().out
    assert out.count("==") == 3
    # one header per file, in argument order, each followed by its report
    for path, chunk in zip(paths, out.split("== ")[1:]):
        head, body = chunk.split("\n", 1)
        assert head == path
        assert main(["report", path]) == 0
        assert capsys.readouterr().out == body


def test_minrank_command(a1_file, capsys):
    assert main(["minrank", a1_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "min_rank: 2"
    assert out[1] == "completion:"
    assert len(out) == 5


def test_minrank_command_refuses_a_negative_timeout(a1_file, capsys):
    assert main(["minrank", a1_file, "--timeout-ms", "-5"]) == 2
    assert capsys.readouterr().err == "error: timeout must be nonnegative, got -5 ms\n"
    assert main(["minrank", a1_file, "--timeout-ms", "60000"]) == 0
    assert capsys.readouterr().out.startswith("min_rank: 2\ncompletion:\n")


def test_minrank_command_past_the_recursion_limit(tall_matrix, tmp_path, capsys):
    p = tmp_path / "tall.pmx"
    p.write_text(emit_pmx(tall_matrix))
    assert main(["minrank", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "min_rank: 14" and len(out) == 2 + tall_matrix.m


def test_opt_command_with_witness(a1_file, capsys):
    assert main(["opt", a1_file, "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "opt: 16"
    assert len(out) == 17
    assert all(set(line) <= {"0", "1"} for line in out[1:])


def test_opt_command_refuses_a_negative_timeout(tmp_path, capsys):
    # 1* settles before any clock is read, so a past deadline would not
    # be noticed: the sign is checked first
    p = tmp_path / "s.pmx"
    p.write_text("1*\n")
    assert main(["opt", str(p), "--timeout-ms", "-5"]) == 2
    assert capsys.readouterr().err == "error: timeout must be nonnegative, got -5 ms\n"
    assert main(["opt", str(p), "--timeout-ms", "60000"]) == 0
    assert capsys.readouterr().out == "opt: 2\n"


def test_lin_and_ka_commands(tmp_path, capsys):
    p = tmp_path / "s.pmx"
    p.write_text("1*\n01\n")
    assert main(["lin", str(p)]) == 0
    assert capsys.readouterr().out == "lin: 1\n"
    assert main(["ka", str(p)]) == 0
    assert capsys.readouterr().out == "size: 3\n10\n01\n11\n"


def test_opt_limit_refusal(a1_file, capsys):
    assert main(["opt", a1_file, "--limit-n", "4"]) == 3
    assert "error:" in capsys.readouterr().err


def test_opt_past_the_bitmap_cap_exits_3(tmp_path, capsys):
    wide = tmp_path / "w.pmx"
    wide.write_text("1" * 25 + "\n")
    assert main(["opt", "--limit-n", "25", str(wide)]) == 3
    assert capsys.readouterr().err.startswith("error: forbidden-set bitmap")


def test_internal_error_exits_4(a1_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("witness fails the solution check")

    monkeypatch.setattr(minrank.cli, "opt_exact", broken)
    assert main(["opt", a1_file]) == 4
    assert capsys.readouterr().err == "error: witness fails the solution check\n"


def test_parse_failures_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.pmx"
    bad.write_text("01\n1\n")
    assert main(["report", str(bad)]) == 2
    assert main(["report", str(tmp_path / "absent.pmx")]) == 2
    capsys.readouterr()
    # argparse refuses a bad shape before any command runs
    for shape, message in (("4y8", "expected MxN"), ("0x8", "must be positive")):
        with pytest.raises(SystemExit) as exit_:
            main(["search", "--shape", shape, "--seed", "1", "--count", "1"])
        assert exit_.value.code == 2 and message in capsys.readouterr().err


def test_search_log_byte_identical(tmp_path, capsys):
    logs = []
    for name in ("one.jsonl", "two.jsonl"):
        out = tmp_path / name
        rc = main([
            "search", "--shape", "3x6", "--mode", "random",
            "--count", "20", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        logs.append(out.read_bytes())
    assert logs[0] == logs[1]
    assert len(logs[0].splitlines()) == 20
    tail = capsys.readouterr().out.strip().splitlines()
    assert tail[-1].startswith("# best epsilon:")


def test_search_exhaustive_stdout(capsys):
    assert main(["search", "--shape", "1x2", "--mode", "exhaustive"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10  # 9 records plus the leaderboard line
    assert lines[-1].startswith("# best epsilon: 1")


def test_search_needs_seed(capsys):
    rc = main(["search", "--shape", "2x2", "--mode", "random", "--count", "3"])
    assert rc == 2
    capsys.readouterr()


def test_search_refuses_a_negative_count(capsys):
    assert main(["search", "--shape", "2x2", "--seed", "1", "--count", "-1"]) == 2
    assert "count" in capsys.readouterr().err
    # a count of 0 logs no record, so there is no best epsilon
    assert main(["search", "--shape", "2x2", "--seed", "1", "--count", "0"]) == 0
    assert capsys.readouterr().out == "# best epsilon: none\n"


def test_codes_commands(tmp_path, capsys):
    assert main(["codes", "bounds", "7", "2"]) == 0
    out = capsys.readouterr().out
    assert "hamming_bound: 16" in out and "gv_bound: 4" in out
    assert main(["codes", "verify", "5", "1"]) == 0
    capsys.readouterr()
    target = tmp_path / "c.pmx"
    assert main(["codes", "gen", "3", "1", "--out", str(target)]) == 0
    assert target.read_text() == "1**\n0**\n*1*\n*0*\n**1\n**0\n"
    assert main(["codes", "gen", "3", "1"]) == 0
    assert capsys.readouterr().out == emit_pmx(code_matrix(CodeMatrixSpec(3, 1)))
    assert main(["codes", "gen", "24", "12"]) == 3
    assert main(["codes", "verify", "25", "1"]) == 3
    capsys.readouterr()


def test_circuit_commands(tmp_path, capsys):
    F = Depth2Circuit(
        2,
        (MiddleGate((0, 1), 0b0110),),
        (OutputGate((), (0,), 0b10),),
    )
    p = tmp_path / "xor.ckt"
    p.write_text(emit_ckt(F))
    assert main(["circuit", "check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "linear: yes" in out and "\n11\n" in out
    assert main(["circuit", "linearize", str(p)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("width: 1\ndegree: 0\n")

    nonlinear = Depth2Circuit(
        2,
        (MiddleGate((0, 1), 0b1000),),
        (OutputGate((), (0,), 0b10),),
    )
    q = tmp_path / "and.ckt"
    q.write_text(emit_ckt(nonlinear))
    assert main(["circuit", "check", str(q)]) == 0
    assert "linear: no" in capsys.readouterr().out
    assert main(["circuit", "linearize", str(q)]) == 2
    capsys.readouterr()


def test_module_entry_point(a1_file):
    # the child imports the package the tests import, also when pytest
    # found it through its own pythonpath setting
    src = str(Path(minrank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    got = subprocess.run(
        [sys.executable, "-m", "minrank.cli", "lin", a1_file],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert got.returncode == 0
    assert got.stdout == "lin: 16\n"
