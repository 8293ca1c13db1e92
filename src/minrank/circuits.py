"""Depth-2 circuits with arbitrary truth-table gates.

A circuit has n input variables, a middle layer of gates that each read
a declared subset of the inputs, and an output layer of gates that each
read declared direct input wires plus declared middle-gate wires.  Any
boolean function is allowed at a gate, stored as a truth table.

When such a circuit computes a linear map x -> Mx, replacing every
entry of M that some direct wire can see with a star yields a partial
matrix whose min-rank is exactly the width of the best equivalent
linear circuit.  linearize() performs that rewrite constructively;
linearize_middle() handles the easier case where only the middle layer
is non-linear.  rigidity() measures how many entries of a full matrix
must be flipped to push its rank down, which lower-bounds the degree of
width-limited circuits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .errors import InternalError, LimitError, ParseError
from .gf2 import (
    GF2Matrix,
    _bits,
    _columns,
    _pack,
    _parity_bitmap,
    rank,
    reduce_vector,
    rref,
    solve,
)
from .partial import PartialMatrix, line_cover_number, min_rank_completion

_MAX_INPUTS = 16


def _check_wires(wires: tuple[int, ...], count: int, what: str):
    if len(wires) > 16:
        raise LimitError(f"{what} reads {len(wires)} wires, over 16")
    if len(set(wires)) != len(wires):
        raise ValueError(f"{what} lists a wire twice")
    for w in wires:
        if not 0 <= w < count:
            raise ValueError(f"{what} wire {w} out of range")


def _check_table(table: int, arity: int, what: str):
    if table < 0 or table >> (1 << arity):
        raise ValueError(f"{what} truth table does not fit {arity} wires")


def _check_inputs(n: int):
    if n < 1:
        raise ValueError("need at least one input")


def _circuit_checks(n: int, middle, outputs):
    """A circuit's own checks in order, as (check, args): the input
    count, then each gate's wire lists and table in the order that
    emit_ckt writes them."""
    yield _check_inputs, (n,)
    for k, g in enumerate(middle):
        yield _check_wires, (g.wires, n, f"middle gate {k}")
        yield _check_table, (g.table, len(g.wires), f"middle gate {k}")
    for i, g in enumerate(outputs):
        yield _check_wires, (g.direct, n, f"output gate {i} (direct)")
        yield _check_wires, (g.middle, len(middle), f"output gate {i} (middle)")
        yield _check_table, (g.table, len(g.direct) + len(g.middle), f"output gate {i}")


@dataclass(frozen=True)
class MiddleGate:
    """A gate reading input variables; bit k of table is its value on
    the assignment whose bit j gives the value of wires[j]."""

    wires: tuple[int, ...]
    table: int


@dataclass(frozen=True)
class OutputGate:
    """A gate reading direct input wires and middle-gate wires.

    Assignment bits for the table: the direct wires in listed order
    occupy the low bits, the middle wires follow.
    """

    direct: tuple[int, ...]
    middle: tuple[int, ...]
    table: int


@dataclass(frozen=True)
class Depth2Circuit:
    n: int
    middle: tuple[MiddleGate, ...]
    outputs: tuple[OutputGate, ...]

    def __post_init__(self):
        for check, args in _circuit_checks(self.n, self.middle, self.outputs):
            check(*args)

    @property
    def m(self) -> int:
        return len(self.outputs)

    @property
    def width(self) -> int:
        return len(self.middle)

    @property
    def degree(self) -> int:
        return max((len(g.direct) for g in self.outputs), default=0)


def evaluate(F: Depth2Circuit, x: int) -> int:
    """Output vector of the circuit on input x; bit i is output gate i."""
    if x < 0 or x >> F.n:
        raise ValueError("input does not fit the circuit's variables")
    mids = 0
    for k, g in enumerate(F.middle):
        mids |= ((g.table >> _pack(x, g.wires)) & 1) << k
    out = 0
    for i, g in enumerate(F.outputs):
        idx = _pack(x, g.direct) | _pack(mids, g.middle) << len(g.direct)
        out |= ((g.table >> idx) & 1) << i
    return out


def extract_linear_operator(F: Depth2Circuit) -> GF2Matrix | None:
    """The matrix of the circuit's map, or None when the map is not linear.

    Evaluates F on the n basis vectors, then once on every input in
    Gray-code order, n + 2^n evaluations in all: each input must give
    the xor of the images of its set bits, which at x = 0 checks
    F(0) = 0.
    """
    if F.n > _MAX_INPUTS:
        raise LimitError(f"linearity check over GF(2)^{F.n} exceeds n <= {_MAX_INPUTS}")
    images = [evaluate(F, 1 << j) for j in range(F.n)]
    want = 0
    for t in range(1 << F.n):
        if t:
            want ^= images[(t & -t).bit_length() - 1]
        if evaluate(F, t ^ t >> 1) != want:
            return None
    return GF2Matrix(F.n, _columns(tuple(images), F.m))


def _operator(F: Depth2Circuit) -> GF2Matrix:
    """extract_linear_operator(F), or ValueError when the map is not linear."""
    M = extract_linear_operator(F)
    if M is None:
        raise ValueError("circuit does not compute a linear operator")
    return M


def matrix_of(F: Depth2Circuit) -> PartialMatrix:
    """The partial matrix of a linear-map circuit.

    Entry (i, j) is a star when output i has a direct wire from input
    j, and the matrix entry of the computed map otherwise.
    """
    return _partial_of(F, _operator(F))


def _partial_of(F: Depth2Circuit, M: GF2Matrix) -> PartialMatrix:
    """matrix_of(F), given the matrix M of the map that F computes."""
    stars = tuple(sum(1 << w for w in g.direct) for g in F.outputs)
    return PartialMatrix(F.n, tuple(r & ~s for r, s in zip(M.rows, stars)), stars)


@dataclass(frozen=True)
class LinearDepth2Circuit:
    """A depth-2 circuit whose every gate is a parity.

    Computes x -> direct·x xor combine·(middle·x): row k of `middle` is
    the k-th middle gate, row i of `direct` holds output i's direct
    wires, and row i of `combine` selects the middle gates feeding it.
    """

    direct: GF2Matrix
    middle: GF2Matrix
    combine: GF2Matrix

    def __post_init__(self):
        if self.direct.n != self.middle.n:
            raise ValueError("direct and middle layers disagree on input count")
        if self.combine.m != self.direct.m:
            raise ValueError("combine must have one row per output")
        if self.middle.m > 0 and self.combine.n != self.middle.m:
            raise ValueError("combine width must match the middle gate count")
        if self.middle.m == 0 and any(self.combine.rows):
            raise ValueError("combine selects a gate, but there is no middle gate")

    @property
    def n(self) -> int:
        return self.direct.n

    @property
    def m(self) -> int:
        return self.direct.m

    @property
    def width(self) -> int:
        return self.middle.m

    @property
    def degree(self) -> int:
        return max((r.bit_count() for r in self.direct.rows), default=0)

    def evaluate(self, x: int) -> int:
        return self.direct.mul_vec(x) ^ self.combine.mul_vec(self.middle.mul_vec(x))

    def operator(self) -> GF2Matrix:
        """The matrix of the computed map."""
        rows = []
        for r, c in zip(self.direct.rows, self.combine.rows):
            for k in _bits(c):
                r ^= self.middle.rows[k]
            rows.append(r)
        return GF2Matrix(self.n, tuple(rows))


def linearize(F: Depth2Circuit) -> LinearDepth2Circuit:
    """An equivalent all-parity circuit of width min_rank(matrix_of(F)).

    Takes a minimum-rank completion of the circuit's partial matrix,
    puts a maximal independent set of its rows on the middle layer, and
    corrects each output through its existing direct wires: the star
    part of the completion row and the star part of the true matrix row
    are both visible there.  The degree never increases.
    """
    M = _operator(F)
    A = _partial_of(F, M)
    r, W = min_rank_completion(A)
    picked = []
    basis: tuple[int, ...] = ()
    for row in W.rows:
        if reduce_vector(row, basis) != 0:
            picked.append(row)
            basis = rref(basis + (row,))
    if len(picked) != r:  # pragma: no cover - rank certified by the search
        raise InternalError("completion rank disagrees with its row basis")
    mid = GF2Matrix(F.n, tuple(picked))
    mid_cols = mid.transpose()  # n x 1 and zero when nothing is picked
    direct_rows, combine_rows = [], []
    for i in range(F.m):
        c = solve(mid_cols, W.rows[i])
        if c is None:  # pragma: no cover - rows lie in the basis span
            raise InternalError("completion row escapes the selected basis")
        direct_rows.append((W.rows[i] ^ M.rows[i]) & A.stars[i])
        combine_rows.append(c)
    out = LinearDepth2Circuit(
        GF2Matrix(F.n, tuple(direct_rows)),
        mid,
        GF2Matrix(max(r, 1), tuple(combine_rows)),
    )
    if out.operator().rows != M.rows:  # pragma: no cover - algebraic identity
        raise InternalError("linearized circuit computes a different operator")
    return out


def _parity_support(table: int, arity: int) -> int | None:
    """The wire subset S with table = parity over S, or None."""
    support = 0
    for j in range(arity):
        support |= (table >> (1 << j) & 1) << j
    return support if table == _parity_bitmap(support, arity) else None


def linearize_middle(F: Depth2Circuit) -> Depth2Circuit:
    """Replace non-linear middle gates, given all-parity output gates.

    The map stays intact with middle gate k replaced by the parity of
    the inputs on which its basis images differ: summing gate images
    over the set input bits commutes with the linear output layer.
    Width, degree, and the computed operator are all preserved.  The
    operator is extracted from the original and from the result, each
    in n + 2^n evaluations (extract_linear_operator), and the two must
    be equal.
    """
    for i, g in enumerate(F.outputs):
        if _parity_support(g.table, len(g.direct) + len(g.middle)) is None:
            raise ValueError(f"output gate {i} is not a parity")
    M = _operator(F)
    new_middle = []
    for g in F.middle:
        # bit j is the gate's value at the j-th basis vector
        v = sum((g.table >> _pack(1 << j, g.wires) & 1) << j for j in range(F.n))
        wires = tuple(_bits(v))
        new_middle.append(MiddleGate(wires, _parity_bitmap((1 << len(wires)) - 1, len(wires))))
    out = Depth2Circuit(F.n, tuple(new_middle), F.outputs)
    if extract_linear_operator(out) != M:  # pragma: no cover
        raise InternalError("middle-layer rewrite changed the computed map")
    return out


def metrics(F: Depth2Circuit) -> dict[str, int]:
    """Width, degree, and the maximum matching among direct wires.

    The matching is the line cover number of the outputs' direct-wire
    masks taken as star rows (Konig's theorem).
    """
    match = line_cover_number(_partial_of(F, GF2Matrix(F.n, (0,) * F.m)))
    return {"width": F.width, "degree": F.degree, "match_size": match}


# entry flips that rigidity tries before it refuses
_FLIPS = 8


def rigidity(M: GF2Matrix, r: int) -> int:
    """Fewest entry flips that bring rank(M) to at most r.

    Iterative deepening over at most _FLIPS flips; exact but tiny-scale only.
    """
    if r < 0:
        raise ValueError("no matrix has rank below 0")
    cells = M.m * M.n
    if cells > 25:
        raise LimitError(f"rigidity search over {cells} entries exceeds 25")
    if rank(M) <= r:
        return 0
    positions = [(i, 1 << j) for i in range(M.m) for j in range(M.n)]
    rows = list(M.rows)
    for k in range(1, _FLIPS + 1):
        for combo in combinations(positions, k):
            for i, bit in combo:
                rows[i] ^= bit
            ok = len(rref(rows)) <= r
            for i, bit in combo:
                rows[i] ^= bit
            if ok:
                return k
    raise LimitError(f"rigidity exceeds the flip cap of {_FLIPS}")


# ---------------------------------------------------------------------------
# circuit files


def _fmt_wires(wires: tuple[int, ...]) -> str:
    return ",".join(str(w) for w in wires) if wires else "-"


def emit_ckt(F: Depth2Circuit) -> str:
    """Serialize a circuit; truth tables as hex, one gate per line."""
    lines = [f"inputs {F.n}"]
    for g in F.middle:
        lines.append(f"middle wires {_fmt_wires(g.wires)} table {g.table:x}")
    for g in F.outputs:
        lines.append(
            f"output direct {_fmt_wires(g.direct)}"
            f" middle {_fmt_wires(g.middle)} table {g.table:x}"
        )
    return "\n".join(lines) + "\n"


def _parse_wires(token: str, line_no: int, col: int) -> tuple[int, ...]:
    if token == "-":
        return ()
    try:
        return tuple(int(p) for p in token.split(","))
    except ValueError:
        raise ParseError("bad wire list", line_no, col) from None


def parse_ckt(text: str) -> Depth2Circuit:
    """Parse the emit_ckt format; '#' comments and blank lines allowed.

    A refusal of the circuit itself names the token at fault: the count
    of the inputs line, or a gate's wire list or table on its own line.
    """
    n = None
    middle: list[MiddleGate] = []
    outputs: list[OutputGate] = []
    # (line, column) of each token that _circuit_checks checks, gate by gate
    sites: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = list(re.finditer(r"\S+", raw.split("#", 1)[0]))
        if not tokens:
            continue
        parts = [t.group() for t in tokens]

        def at(idx: int) -> int:
            return tokens[idx].start() + 1

        def expect(idx: int, word: str):
            if len(parts) <= idx or parts[idx] != word:
                raise ParseError(f"expected '{word}'", line_no, at(min(idx, len(parts) - 1)))

        if parts[0] == "inputs":
            if n is not None:
                raise ParseError("duplicate inputs line", line_no, 1)
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("expected 'inputs <count>'", line_no, 1)
            n = int(parts[1])
            count_site = (line_no, at(1))
        elif parts[0] == "middle":
            expect(1, "wires")
            expect(3, "table")
            if len(parts) != 5:
                raise ParseError("expected 'middle wires <list> table <hex>'", line_no, 1)
            if outputs:
                raise ParseError("middle gates must come before outputs", line_no, 1)
            wires = _parse_wires(parts[2], line_no, at(2))
            try:
                table = int(parts[4], 16)
            except ValueError:
                raise ParseError("bad table hex", line_no, at(4)) from None
            middle.append(MiddleGate(wires, table))
            sites += [(line_no, at(2)), (line_no, at(4))]
        elif parts[0] == "output":
            expect(1, "direct")
            expect(3, "middle")
            expect(5, "table")
            if len(parts) != 7:
                raise ParseError(
                    "expected 'output direct <list> middle <list> table <hex>'",
                    line_no,
                    1,
                )
            direct = _parse_wires(parts[2], line_no, at(2))
            mids = _parse_wires(parts[4], line_no, at(4))
            try:
                table = int(parts[6], 16)
            except ValueError:
                raise ParseError("bad table hex", line_no, at(6)) from None
            outputs.append(OutputGate(direct, mids, table))
            sites += [(line_no, at(2)), (line_no, at(4)), (line_no, at(6))]
        else:
            raise ParseError(f"unknown directive '{parts[0]}'", line_no, 1)
    if n is None:
        raise ParseError("missing inputs line", 1, 1)
    for site, (check, args) in zip([count_site] + sites, _circuit_checks(n, middle, outputs)):
        try:
            check(*args)
        except ValueError as e:
            raise ParseError(str(e), *site) from None
    return Depth2Circuit(n, tuple(middle), tuple(outputs))
