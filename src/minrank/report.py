"""Aggregate reports, seeded searches, and their JSONL records.

A report gathers every statistic the toolkit can compute for one
matrix, marking anything refused by a size limit as skipped instead of
dropping it.  A search sweeps a matrix shape exhaustively or by seeded
sampling, appends one JSON record per matrix to a log, and tracks the
record with the smallest epsilon seen, since a matrix with unusually
small epsilon is exactly what a counterexample hunt is after.  Reports
and records read min rank, opt and epsilon from one helper,
_exact_answer, and write the exact witnesses [n, opt, minrk] of epsilon
through one more, _epsilon_exact.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, fields
from itertools import combinations_with_replacement, islice, product
from typing import Iterable, Iterator

from .config import VERSION, ToolConfig
from .errors import LimitError
from .partial import (
    PartialMatrix,
    is_star_monotone,
    isolation,
    line_cover_number,
    max_rank,
    min_rank,
    row_min_rank,
)
from .pmx import compact
from .solutions import epsilon_of, opt_exact

_SKIPPED = "skipped: limit"

# matrices for an exhaustive search sweep
_SEARCH_SPACE = 10_000_000


def _guarded(fn, *args):
    try:
        return fn(*args)
    except LimitError:
        return _SKIPPED


def _exact_answer(A: PartialMatrix, cfg: ToolConfig) -> tuple[int, int | None, float | None]:
    """Min rank, opt and epsilon of A, the last two None if opt_exact refuses."""
    minrk = min_rank(A)
    try:
        opt, _ = opt_exact(A, cfg.opt_n)
    except LimitError:
        return minrk, None, None
    return minrk, opt, epsilon_of(A.n, opt, minrk)


def _epsilon_exact(n: int, opt: int | None, minrk: int, eps: float | None) -> list | None:
    """The exact witnesses [n, opt, minrk] of a defined epsilon, else None."""
    return [n, opt, minrk] if eps is not None else None


def report(A: PartialMatrix, config: ToolConfig | None = None) -> dict:
    """Every per-matrix statistic, in a stable key order.

    Fields whose exact computation is refused at a size cap (opt past
    the configured opt_n or the forbidden-set bitmap) hold the string
    "skipped: limit" rather than disappearing.  col_min_rank is the
    column floor that A's completion record found.  On tall
    matrices the cheap exact certificates answer first: the kernel side
    of min_rank_completion's race takes its first turn, a greedy
    completion of rank min(m, n) settles max_rank, and isolation refuses
    m > n at once.
    """
    cfg = config or ToolConfig()
    minrk, opt, eps = _exact_answer(A, cfg)
    floor = A._record.column_floor
    out: dict = {
        "n": A.n,
        "m": A.m,
        "star_count": A.star_count,
        "min_rank": minrk,
        "max_rank": _guarded(max_rank, A),
        "line_cover": line_cover_number(A),
        "row_min_rank": _guarded(row_min_rank, A),
        "col_min_rank": _SKIPPED if floor is None else floor,
        "star_monotone": is_star_monotone(A),
        "isolated": isolation(A) is not None,
        "strongly_isolated": isolation(A, strong=True) is not None,
        "lin": 1 << (A.n - minrk),
    }
    exact = {"opt": opt, "epsilon": eps, "epsilon_exact": _epsilon_exact(A.n, opt, minrk, eps)}
    out.update(exact if opt is not None else dict.fromkeys(exact, _SKIPPED))
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
        body = asdict(self)
        tail = {k: body.pop(k) for k in ("flag", "seed", "version")}
        body["epsilon_exact"] = _epsilon_exact(self.n, self.opt, self.minrk, self.epsilon)
        return json.dumps(body | tail, separators=(", ", ": "))

    @classmethod
    def from_json(cls, line: str) -> "SearchRecord":
        d = json.loads(line)
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def evaluate_matrix(
    A: PartialMatrix, config: ToolConfig | None = None
) -> SearchRecord:
    """The search record for one matrix."""
    cfg = config or ToolConfig()
    minrk, opt, eps = _exact_answer(A, cfg)
    alarm = eps is not None and eps < cfg.epsilon_alarm
    return SearchRecord(
        matrix=compact(A),
        n=A.n,
        m=A.m,
        stars=A.star_count,
        minrk=minrk,
        opt=opt,
        lin=1 << (A.n - minrk),
        epsilon=eps,
        flag="COUNTEREXAMPLE-CANDIDATE" if alarm else None,
        seed=cfg.seed,
        version=VERSION,
    )


def _exhaustive_matrices(m: int, n: int) -> Iterator[PartialMatrix]:
    """All m x n matrices up to row order, canonical representative each.

    The canonical form sorts rows by their .pmx text.  In ASCII
    "*" < "0" < "1", so product("*01") draws the rows in that text
    order, and their sorted multisets give exactly one matrix per class,
    in ascending text of the whole matrix.
    """
    rows = [
        (
            sum(1 << j for j, ch in enumerate(text) if ch == "1"),
            sum(1 << j for j, ch in enumerate(text) if ch == "*"),
        )
        for text in product("*01", repeat=n)
    ]
    for pick in combinations_with_replacement(rows, m):
        ones, stars = zip(*pick)
        yield PartialMatrix(n, ones, stars)


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
) -> Iterator[SearchRecord]:
    """Evaluate a shape's matrices, yielding records in input order.

    Exhaustive mode enumerates every matrix once up to row permutation,
    in ascending text, and stops after `count` of them when a count is
    given; random mode draws `count` matrices from the configured seed.
    A negative count is a ValueError.  An exhaustive sweep over more than
    10,000,000 matrices, counted as the C(3^n + m - 1, m) row multisets
    it enumerates, is a LimitError, whatever the count.  When the
    config names an output path, each record is appended to it as one
    JSON line before it is yielded, so interrupted runs keep their
    prefix.
    """
    cfg = config or ToolConfig()
    if count is not None and count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if mode == "exhaustive":
        classes = math.comb(3**n + m - 1, m)
        if classes > _SEARCH_SPACE:
            raise LimitError(
                f"exhaustive sweep over {classes} row multisets exceeds {_SEARCH_SPACE}"
            )
        matrices: Iterable[PartialMatrix] = islice(_exhaustive_matrices(m, n), count)
    elif mode == "random":
        if cfg.seed is None:
            raise ValueError("random mode requires a seed")
        if count is None:
            raise ValueError("random mode requires a count")
        matrices = _random_matrices(m, n, count, cfg.seed)
    else:
        raise ValueError(f"unknown search mode {mode!r}")

    records = (evaluate_matrix(A, cfg) for A in matrices)
    if cfg.out is None:
        yield from records
        return
    with open(cfg.out, "a", encoding="utf-8") as sink:
        for rec in records:
            sink.write(rec.to_json() + "\n")
            yield rec


def best_epsilon(records: Iterable[SearchRecord]) -> SearchRecord | None:
    """The record with the smallest defined epsilon, ties to the earliest."""
    best = None
    for rec in records:
        if rec.epsilon is None:
            continue
        if best is None or rec.epsilon < best.epsilon:
            best = rec
    return best
