"""Aggregate reports, seeded searches, and their JSONL records.

A report gathers every statistic the toolkit can compute for one
matrix, marking anything refused by a size limit as skipped instead of
dropping it.  A search sweeps a matrix shape exhaustively or by seeded
sampling, appends one JSON record per matrix to a log, and tracks the
record with the smallest epsilon seen, since a matrix with unusually
small epsilon is exactly what a counterexample hunt is after.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, TextIO

from .config import VERSION, ToolConfig
from .errors import LimitError
from .partial import (
    PartialMatrix,
    _completed,
    is_star_monotone,
    isolation,
    line_cover_number,
    max_rank,
    min_rank,
    row_min_rank,
)
from .pmx import compact, row_text
from .solutions import epsilon_of, opt_exact

_SKIPPED = "skipped: limit"


def _guarded(fn, *args):
    try:
        return fn(*args)
    except LimitError:
        return _SKIPPED


def report(A: PartialMatrix, config: ToolConfig | None = None) -> dict:
    """Every per-matrix statistic, in a stable key order.

    Fields whose exact computation is refused at the configured limits
    hold the string "skipped: limit" rather than disappearing.
    """
    cfg = config or ToolConfig()
    lim = cfg.limits
    out: dict = {
        "n": A.n,
        "m": A.m,
        "star_count": A.star_count,
    }
    minrk = min_rank(A)
    out["min_rank"] = minrk
    out["max_rank"] = _guarded(max_rank, A, lim.stars)
    out["line_cover"] = line_cover_number(A)
    out["row_min_rank"] = _guarded(row_min_rank, A, lim.subset_rows)
    out["col_min_rank"] = _guarded(_completed(A).col_min_rank, lim.subset_rows)
    out["star_monotone"] = is_star_monotone(A)
    out["isolated"] = isolation(A) is not None
    out["strongly_isolated"] = isolation(A, strong=True) is not None
    out["lin"] = 1 << (A.n - minrk)
    if A.n <= lim.opt_n:
        opt, _ = opt_exact(A, lim.opt_n)
        out["opt"] = opt
        eps = epsilon_of(A.n, opt, minrk)
        out["epsilon"] = eps
        out["epsilon_exact"] = [A.n, opt, minrk] if eps is not None else None
    else:
        out["opt"] = _SKIPPED
        out["epsilon"] = _SKIPPED
        out["epsilon_exact"] = _SKIPPED
    return out


def format_report(rep: dict) -> str:
    """One JSON object, keys in report() order."""
    return json.dumps(rep, indent=2)


@dataclass(frozen=True)
class SearchRecord:
    """One evaluated matrix in a search log."""

    matrix: str
    n: int
    m: int
    stars: int
    minrk: int
    opt: int | None
    lin: int
    epsilon: float | None
    flag: str | None
    seed: int | None
    version: str

    def to_json(self) -> str:
        body = {
            "matrix": self.matrix,
            "n": self.n,
            "m": self.m,
            "stars": self.stars,
            "minrk": self.minrk,
            "opt": self.opt,
            "lin": self.lin,
            "epsilon": self.epsilon,
            "epsilon_exact": (
                [self.n, self.opt, self.minrk] if self.epsilon is not None else None
            ),
            "flag": self.flag,
            "seed": self.seed,
            "version": self.version,
        }
        return json.dumps(body, separators=(", ", ": "))

    @classmethod
    def from_json(cls, line: str) -> "SearchRecord":
        d = json.loads(line)
        return cls(
            matrix=d["matrix"],
            n=d["n"],
            m=d["m"],
            stars=d["stars"],
            minrk=d["minrk"],
            opt=d["opt"],
            lin=d["lin"],
            epsilon=d["epsilon"],
            flag=d["flag"],
            seed=d["seed"],
            version=d["version"],
        )


def evaluate_matrix(
    A: PartialMatrix, config: ToolConfig | None = None
) -> SearchRecord:
    """The search record for one matrix."""
    cfg = config or ToolConfig()
    minrk = min_rank(A)
    opt: int | None
    if A.n <= cfg.limits.opt_n:
        opt, _ = opt_exact(A, cfg.limits.opt_n)
    else:
        opt = None
    eps = epsilon_of(A.n, opt, minrk) if opt is not None else None
    flag = (
        "COUNTEREXAMPLE-CANDIDATE"
        if eps is not None and eps < cfg.epsilon_alarm
        else None
    )
    return SearchRecord(
        matrix=compact(A),
        n=A.n,
        m=A.m,
        stars=A.star_count,
        minrk=minrk,
        opt=opt,
        lin=1 << (A.n - minrk),
        epsilon=eps,
        flag=flag,
        seed=cfg.seed,
        version=VERSION,
    )


def _all_rows(n: int) -> Iterator[tuple[int, int]]:
    """Every (ones, stars) row over n columns, in .pmx lexicographic order."""
    order = "01*"

    def go(j: int, a: int, s: int):
        if j == n:
            yield (a, s)
            return
        for ch in order:
            yield from go(
                j + 1,
                a | ((1 << j) if ch == "1" else 0),
                s | ((1 << j) if ch == "*" else 0),
            )

    yield from go(0, 0, 0)


def _exhaustive_matrices(m: int, n: int) -> Iterator[PartialMatrix]:
    """All m x n matrices up to row order, canonical representative each.

    The canonical form sorts rows by their .pmx text, so enumerating
    sorted row multisets yields exactly one matrix per class.
    """
    rows = list(_all_rows(n))
    keyed = sorted(range(len(rows)), key=lambda i: _row_key(rows[i], n))
    for pick in combinations_with_replacement(keyed, m):
        ones = tuple(rows[i][0] for i in pick)
        stars = tuple(rows[i][1] for i in pick)
        yield PartialMatrix(n, ones, stars)


def _row_key(row: tuple[int, int], n: int) -> str:
    return row_text(row[0], row[1], n)


def _random_matrices(
    m: int, n: int, count: int, seed: int
) -> Iterator[PartialMatrix]:
    rng = random.Random(seed)
    for _ in range(count):
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
        yield PartialMatrix(n, tuple(ones), tuple(stars))


def search(
    m: int,
    n: int,
    mode: str = "random",
    count: int | None = None,
    config: ToolConfig | None = None,
    log: TextIO | None = None,
) -> Iterator[SearchRecord]:
    """Evaluate a shape's matrices, yielding records in input order.

    Exhaustive mode enumerates every matrix once up to row permutation;
    random mode draws `count` matrices from the configured seed.  Each
    record is appended to `log` (or the configured output path) as one
    JSON line before it is yielded, so interrupted runs keep their
    prefix.
    """
    cfg = config or ToolConfig()
    if mode == "exhaustive":
        if 3 ** (m * n) > cfg.limits.search_space:
            raise LimitError(
                f"exhaustive sweep over 3^{m * n} matrices exceeds"
                f" {cfg.limits.search_space}"
            )
        matrices: Iterable[PartialMatrix] = _exhaustive_matrices(m, n)
    elif mode == "random":
        if cfg.seed is None:
            raise ValueError("random mode requires a seed")
        if count is None:
            raise ValueError("random mode requires a count")
        matrices = _random_matrices(m, n, count, cfg.seed)
    else:
        raise ValueError(f"unknown search mode {mode!r}")

    sink = log
    opened = None
    if sink is None and cfg.out is not None:
        opened = open(cfg.out, "a", encoding="utf-8")
        sink = opened
    try:
        for A in matrices:
            rec = evaluate_matrix(A, cfg)
            if sink is not None:
                sink.write(rec.to_json() + "\n")
            yield rec
    finally:
        if opened is not None:
            opened.close()


def best_epsilon(records: Iterable[SearchRecord]) -> SearchRecord | None:
    """The record with the smallest defined epsilon, ties to the earliest."""
    best = None
    for rec in records:
        if rec.epsilon is None:
            continue
        if best is None or rec.epsilon < best.epsilon:
            best = rec
    return best
