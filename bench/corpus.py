"""Seeded inputs for the three benchmark workloads.

Every generator is a pure function of (seed, seconds): the same pair
always yields the same matrices, and a larger `seconds` only appends
items.  The corpus is sized so that one closed-loop pass over it takes
about `seconds` on a 2-core x86 box with Python 3.11.

The program under test is reached only through the `minrank` package
attributes, so that the span tracer can wrap them (see spans.py).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import minrank

INSTANCES = Path(__file__).resolve().parent / "instances"

# One absolute deadline per item, shared by all of the item's calls, this
# many seconds after the item starts.  codes items call report(), which
# takes no deadline.  A hard item spends about 0.75 s in its two
# min_rank_completion calls before opt_exact starts searching (H1).
BUDGET_S = {"sweep": 0.15, "codes": None, "hard": 1.25}

# sweep: one cycle holds this many matrices of each (m, n) shape, so that
# each shape takes about the same time.  Measured with the 0.15 s budget
# on 400, 200 and 120 records of seed 11, an item costs 11.7, 32.7 and
# 104.2 ms on average (budget-outs at what they took), so a cycle spends
# about 0.105, 0.098 and 0.104 s on the three shapes.  Each run reports
# its own split as the time_s_by_shape property.
SWEEP_MIX = ((4, 8, 9), (5, 10, 3), (6, 12, 1))
SWEEP_CYCLES_PER_S = 3.25

# codes: every (n, r) code matrix with n <= 7 except H1 = (7, 2); a
# round of them takes about 2 s
CODE_SPECS = tuple(
    (n, r) for n in range(2, 8) for r in range(1, n) if (n, r) != (7, 2)
)
CODES_S_PER_ROUND = 2.0

HARD = ("h1-code-7-2", "h2-4x8", "h3-6x12", "code-8-2")
FIXTURES = ("readme-flagship", "readme-gap")

# A(n, d): the largest binary code of length n and minimum distance d,
# from the table in MacWilliams and Sloane, The Theory of Error-Correcting
# Codes (1977).  For n <= 7 a linear code attains it, so lin = opt there.
_A_ND = {
    (3, 3): 2, (4, 3): 2, (5, 3): 4, (6, 3): 8, (7, 3): 16,
    (4, 4): 2, (5, 4): 2, (6, 4): 4, (7, 4): 8,
}


def code_optimum(n: int, r: int) -> int:
    """Known opt (= lin) of the (n, r) code matrix for n <= 7: A(n, r + 1)."""
    d = r + 1
    if d == 2:
        return 1 << (n - 1)  # the even-weight code
    if d >= 5:
        return 2  # Plotkin: A(n, d) = 2 once 3d > 2n, true for n <= 7
    return _A_ND[(n, d)]


@dataclass(frozen=True)
class Item:
    """One closed-loop request: a matrix and what is known about it."""

    key: str
    A: minrank.PartialMatrix
    known: dict  # known answers, e.g. {"opt": 16, "lin": 16}; may be empty


def load_instance(name: str) -> Item:
    """A committed .pmx instance; `# key: value` comments hold its answers."""
    text = (INSTANCES / f"{name}.pmx").read_text(encoding="utf-8")
    known = {}
    for line in text.splitlines():
        key, sep, value = line.lstrip("# ").partition(": ")
        if line.startswith("#") and sep and key in ("opt", "lin"):
            known[key] = int(value)
    return Item(name, minrank.parse_pmx(text), known)


def shuffled(A: minrank.PartialMatrix, rng: random.Random) -> minrank.PartialMatrix:
    """A with its rows permuted; every answer is invariant under this."""
    rows = list(zip(A.ones, A.stars))
    rng.shuffle(rows)
    return minrank.PartialMatrix(
        A.n, tuple(a for a, _ in rows), tuple(s for _, s in rows)
    )


def random_matrices(m: int, n: int, seed: int):
    """The `minrank search --mode random` stream: each entry 0, 1 or * with
    probability 1/3, row-major, from random.Random(seed)."""
    rng = random.Random(seed)
    while True:
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
        yield minrank.PartialMatrix(n, tuple(ones), tuple(stars))


def sweep(seed: int, seconds: float) -> list[Item]:
    """Cycles of SWEEP_MIX, each shape drawn from its own search stream.

    The k-th m x n item is record k of `minrank search --shape mxn
    --mode random --seed <seed>`.
    """
    streams = {(m, n): random_matrices(m, n, seed) for m, n, _ in SWEEP_MIX}
    drawn = {shape: 0 for shape in streams}
    items = []
    for _ in range(max(1, round(seconds * SWEEP_CYCLES_PER_S))):
        for m, n, count in SWEEP_MIX:
            for _ in range(count):
                k = drawn[(m, n)]
                drawn[(m, n)] += 1
                items.append(Item(f"{m}x{n}#{k}", next(streams[(m, n)]), {}))
    return items


def codes(seed: int, seconds: float) -> list[Item]:
    """Round 0 is the code matrices as generated; later rounds are seeded
    row shuffles of them, so no two items of a spec share an input."""
    rng = random.Random(f"codes:{seed}")
    base = [
        (n, r, minrank.code_matrix(minrank.CodeMatrixSpec(n, r)))
        for n, r in CODE_SPECS
    ]
    items = []
    for k in range(max(2, round(seconds / CODES_S_PER_ROUND))):
        for n, r, A in base:
            opt = code_optimum(n, r)
            items.append(
                Item(
                    f"code-{n}-{r}#{k}",
                    A if k == 0 else shuffled(A, rng),
                    {"opt": opt, "lin": opt},
                )
            )
    return items


def hard(seed: int, seconds: float) -> list[Item]:
    """Rounds of H1, H2, H3 and code (8, 2); round 0 as committed, later
    rounds seeded row shuffles."""
    rng = random.Random(f"hard:{seed}")
    base = [load_instance(name) for name in HARD]
    items = []
    for k in range(max(1, math.ceil(seconds / (len(base) * BUDGET_S["hard"])))):
        for it in base:
            A = it.A if k == 0 else shuffled(it.A, rng)
            items.append(Item(f"{it.key}#{k}", A, it.known))
    return items


WORKLOADS = {"sweep": sweep, "codes": codes, "hard": hard}
