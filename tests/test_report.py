"""Unit tests for reports, search records, and the sweep driver."""

import builtins
import json
from math import comb

import pytest

from minrank import partial
from minrank.cli import main
from minrank.codes import CodeMatrixSpec, code_matrix
from minrank.config import ToolConfig
from minrank.errors import LimitError
from minrank.partial import PartialMatrix, col_min_rank
from minrank.pmx import emit_pmx, parse_pmx
from minrank.report import (
    SearchRecord,
    _random_matrices,
    best_epsilon,
    epsilon_of,
    evaluate_matrix,
    format_report,
    report,
    search,
)

A1 = parse_pmx("10*0*1\n*111**\n0**1**\n")

REPORT_KEYS = [
    "n", "m", "star_count", "min_rank", "max_rank", "line_cover",
    "row_min_rank", "col_min_rank", "star_monotone", "isolated",
    "strongly_isolated", "lin", "opt", "epsilon", "epsilon_exact",
]


def test_report_flagship():
    rep = report(A1)
    assert list(rep) == REPORT_KEYS
    assert rep["min_rank"] == 2
    assert rep["col_min_rank"] == 2
    assert rep["lin"] == 16
    assert rep["opt"] == 16
    assert rep["epsilon"] == 1.0
    assert rep["epsilon_exact"] == [6, 16, 2]


def test_report_all_star():
    rep = report(parse_pmx("**\n**\n"))
    assert rep["min_rank"] == 0
    assert rep["opt"] == 4
    assert rep["epsilon"] is None


# 25 x 25 with a star on the diagonal and no ones: 25 starred lines on
# either side, 25 distinct rows and columns, and 25 columns
DIAGONAL = PartialMatrix(25, (0,) * 25, tuple(1 << i for i in range(25)))


def test_report_marks_skipped_fields():
    rep = report(DIAGONAL)
    for field in ("max_rank", "row_min_rank", "col_min_rank", "opt", "epsilon"):
        assert rep[field] == "skipped: limit"
    assert rep["min_rank"] == 0  # unaffected fields still computed
    assert rep["line_cover"] == 25


def test_report_skips_max_rank_past_the_star_cap():
    # max_rank scans the subsets of one side's starred lines, up to 24:
    # 14 x 14 with 3 stars in three rows and three columns, and the
    # diagonal at 24 and 25
    A = PartialMatrix(14, tuple(1 << i for i in range(14)), (2, 4, 8) + (0,) * 11)
    assert report(A)["max_rank"] == 14
    assert report(PartialMatrix(24, (0,) * 24, DIAGONAL.stars[:24]))["max_rank"] == 24
    assert report(DIAGONAL)["max_rank"] == "skipped: limit"


def test_report_reads_col_min_rank_from_the_completion(monkeypatch, fresh):
    calls = []
    real = partial._column_floor

    def counted(A):
        calls.append(A.n)
        return real(A)

    monkeypatch.setattr(partial, "_column_floor", counted)
    # 3 x 22, column j reading j in base 3 (0, 1, *): 22 distinct
    # columns, so the cap of 20 refuses col_min_rank, and 22
    # distinct rows refuse row_min_rank on its transpose
    digit = [[j // 3**t % 3 for j in range(22)] for t in range(3)]
    wide = PartialMatrix(
        22,
        tuple(sum(1 << j for j in range(22) if d[j] == 1) for d in digit),
        tuple(sum(1 << j for j in range(22) if d[j] == 2) for d in digit),
    )
    code = code_matrix(CodeMatrixSpec(5, 2))
    # the completion record finds the floor once, on A itself, and
    # report reads it from there
    for A, want in [(code, col_min_rank(code)), (A1, 2), (wide, "skipped: limit")]:
        calls.clear()
        rep = report(fresh(A))
        assert rep["col_min_rank"] == want
        assert calls == [A.n]
    rep = report(wide.transpose())
    assert rep["row_min_rank"] == "skipped: limit"
    assert rep["col_min_rank"] == col_min_rank(wide.transpose()) == 3


def test_format_report_stable_order():
    text = format_report(report(A1))
    rep = json.loads(text)
    assert list(rep) == REPORT_KEYS
    assert format_report(report(A1)) == text


def test_epsilon_of():
    assert epsilon_of(6, 16, 2) == 1.0
    assert epsilon_of(4, 16, 0) is None
    assert epsilon_of(4, 4, 4) == 0.5


def test_search_record_round_trip_and_invariants():
    rec = evaluate_matrix(A1, ToolConfig(seed=9))
    assert rec.lin == 1 << (rec.n - rec.minrk)
    assert rec.epsilon == epsilon_of(rec.n, rec.opt, rec.minrk)
    assert rec.seed == 9
    back = SearchRecord.from_json(rec.to_json())
    assert back == rec
    assert json.loads(rec.to_json())["epsilon_exact"] == [6, 16, 2]


# to_json bytes on the cases the committed sweep lines miss: opt past
# opt_n, min rank 0, and a record flagged under an alarm above 1
RECORD_LINES = [
    (
        A1,
        ToolConfig(seed=4, opt_n=5),
        '{"matrix": "10*0*1/*111**/0**1**", "n": 6, "m": 3, "stars": 9, "minrk": 2,'
        ' "opt": null, "lin": 16, "epsilon": null, "epsilon_exact": null,'
        ' "flag": null, "seed": 4, "version": "0.1.0"}',
    ),
    (
        parse_pmx("**\n**\n"),
        ToolConfig(seed=2),
        '{"matrix": "**/**", "n": 2, "m": 2, "stars": 4, "minrk": 0, "opt": 4,'
        ' "lin": 4, "epsilon": null, "epsilon_exact": null, "flag": null,'
        ' "seed": 2, "version": "0.1.0"}',
    ),
    (
        A1,
        ToolConfig(seed=5),
        '{"matrix": "10*0*1/*111**/0**1**", "n": 6, "m": 3, "stars": 9, "minrk": 2,'
        ' "opt": 16, "lin": 16, "epsilon": 1.0, "epsilon_exact": [6, 16, 2],'
        ' "flag": "COUNTEREXAMPLE-CANDIDATE", "seed": 5, "version": "0.1.0"}',
    ),
]


def test_record_bytes_off_the_sweep_path(monkeypatch):
    monkeypatch.setattr(ToolConfig, "epsilon_alarm", 1.01)
    for A, cfg, line in RECORD_LINES:
        rec = evaluate_matrix(A, cfg)
        assert rec.to_json() == line
        assert SearchRecord.from_json(line) == rec


def test_report_tail_past_opt_n():
    rep = report(A1, ToolConfig(opt_n=5))
    tail = json.dumps(dict(list(rep.items())[-4:]))
    assert tail == (
        '{"lin": 16, "opt": "skipped: limit", "epsilon": "skipped: limit",'
        ' "epsilon_exact": "skipped: limit"}'
    )


def test_report_skips_opt_past_the_bitmap_cap(tmp_path, capsys):
    # opt_n = 30 lets this 2 x 26 draw, whose core has 25 columns, reach
    # opt_exact's forbidden-set bitmap cap of 24, which the report, the
    # record and the command line mark as skipped
    A = next(_random_matrices(2, 26, 1, 3))
    cfg = ToolConfig(opt_n=30)
    rep = report(A, cfg)
    assert A._record.core.n == 25 and rep["min_rank"] == 2
    for field in ("opt", "epsilon", "epsilon_exact"):
        assert rep[field] == "skipped: limit"
    rec = evaluate_matrix(A, cfg)
    assert (rec.minrk, rec.opt, rec.epsilon) == (2, None, None)
    path = tmp_path / "wide.pmx"
    path.write_text(emit_pmx(A))
    assert main(["report", "--limit-n", "30", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == rep


def test_exhaustive_search_comes_in_matrix_text_order():
    # rows of equal length joined by "/", so the text order of the whole
    # matrix is the order of its row tuples
    for m, n in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        texts = [rec.matrix for rec in search(m, n, mode="exhaustive")]
        assert len(texts) == comb(3**n + m - 1, m)
        assert all(a < b for a, b in zip(texts, texts[1:]))


def test_early_close_keeps_the_log_prefix(tmp_path, monkeypatch):
    out = tmp_path / "log.jsonl"
    handles = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if str(file) == str(out):
            handles.append(fh)
        return fh

    monkeypatch.setattr(builtins, "open", spy)
    cfg = ToolConfig(seed=3, out=str(out))
    gen = search(3, 5, mode="random", count=10, config=cfg)
    assert handles == []  # nothing opens before the first record
    got = [next(gen) for _ in range(4)]
    assert len(handles) == 1 and not handles[0].closed
    gen.close()
    assert handles[0].closed
    monkeypatch.undo()
    assert [SearchRecord.from_json(ln) for ln in out.read_text().splitlines()] == got


def test_exhaustive_search_tiny_shape():
    recs = list(search(1, 2, mode="exhaustive"))
    assert len(recs) == 9
    assert {r.epsilon for r in recs} == {1.0, None}


def test_exhaustive_search_dedupes_row_multisets():
    recs = list(search(2, 2, mode="exhaustive"))
    # 9 distinct rows, multisets of two: C(9,2) + 9
    assert len(recs) == 45
    for rec in recs:
        rows = rec.matrix.split("/")
        assert rows == sorted(rows)
    assert len({r.matrix for r in recs}) == 45


def test_exhaustive_search_stops_after_count():
    assert list(search(2, 2, "exhaustive", count=3)) == list(search(2, 2, "exhaustive"))[:3]
    assert list(search(2, 2, "exhaustive", count=0)) == []
    for mode in ("exhaustive", "random"):
        with pytest.raises(ValueError):
            list(search(2, 2, mode, count=-1, config=ToolConfig(seed=1)))


def test_exhaustive_search_respects_space_limit():
    with pytest.raises(LimitError):
        list(search(2, 8, mode="exhaustive"))
    with pytest.raises(LimitError):  # refused before the count is read
        list(search(2, 8, mode="exhaustive", count=1))


def test_exhaustive_search_caps_the_row_multisets():
    # 3x5 enumerates C(3^5 + 2, 3) = 2,421,090 row multisets, under the
    # cap, though 3^15 matrices are over it; 8x3 has 18,156,204
    assert len(list(search(3, 5, "exhaustive", count=2))) == 2
    with pytest.raises(LimitError, match="18156204 row multisets"):
        list(search(8, 3, "exhaustive", count=1))


def test_random_search_needs_seed_and_count():
    with pytest.raises(ValueError):
        list(search(2, 2, mode="random", count=3))
    with pytest.raises(ValueError):
        list(search(2, 2, mode="random", config=ToolConfig(seed=1)))
    with pytest.raises(ValueError):
        list(search(2, 2, mode="sideways"))


def test_random_search_reproducible_and_logged(tmp_path):
    log1, log2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    r1 = list(search(3, 6, mode="random", count=25, config=ToolConfig(seed=7, out=str(log1))))
    r2 = list(search(3, 6, mode="random", count=25, config=ToolConfig(seed=7, out=str(log2))))
    assert r1 == r2
    assert log1.read_text() == log2.read_text()
    lines = log1.read_text().splitlines()
    assert len(lines) == 25
    assert all(SearchRecord.from_json(line) in r1 for line in lines)


def test_threads_option_is_gone(capsys):
    # one sequential path: records come in input order, and neither the
    # command line nor the config accepts a thread count
    cfg = ToolConfig(seed=3)
    recs = list(search(2, 5, mode="random", count=40, config=cfg))
    assert recs == [evaluate_matrix(A, cfg) for A in _random_matrices(2, 5, 40, 3)]
    for argv in (
        ["search", "--shape", "2x5", "--count", "4", "--seed", "3", "--threads", "4"],
        ["report", "a.pmx", "--threads", "4"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(TypeError):
        ToolConfig(seed=3, threads=4)
    # the alarm is a class constant, not a setting
    with pytest.raises(TypeError):
        ToolConfig(epsilon_alarm=1.0)
    assert ToolConfig().epsilon_alarm == 0.5


def test_counterexample_flagging(monkeypatch):
    assert all(r.flag is None for r in search(1, 2, mode="exhaustive"))
    # alarm above 1 flags every matrix with defined epsilon 1.0
    monkeypatch.setattr(ToolConfig, "epsilon_alarm", 1.01)
    recs = list(search(1, 2, mode="exhaustive", config=ToolConfig(seed=5)))
    flagged = [r for r in recs if r.flag == "COUNTEREXAMPLE-CANDIDATE"]
    assert flagged and all(r.epsilon == 1.0 for r in flagged)


def test_best_epsilon():
    recs = list(search(1, 2, mode="exhaustive"))
    best = best_epsilon(recs)
    assert best is not None and best.epsilon == 1.0
    assert best_epsilon([]) is None


def test_search_writes_to_configured_path(tmp_path):
    out = tmp_path / "log.jsonl"
    cfg = ToolConfig(seed=11, out=str(out))
    recs = list(search(2, 3, mode="random", count=5, config=cfg))
    lines = out.read_text().splitlines()
    assert [SearchRecord.from_json(ln) for ln in lines] == recs
    # append-only: a second run extends the log
    list(search(2, 3, mode="random", count=5, config=cfg))
    assert len(out.read_text().splitlines()) == 10
