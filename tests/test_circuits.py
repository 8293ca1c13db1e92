"""Unit tests for depth-2 circuits, linearization, and rigidity."""

import math
import random
from itertools import combinations

import pytest

from conftest import build_circuit, parity_table
from minrank import circuits
from minrank.circuits import (
    Depth2Circuit,
    LinearDepth2Circuit,
    MiddleGate,
    OutputGate,
    emit_ckt,
    evaluate,
    extract_linear_operator,
    linearize,
    linearize_middle,
    matrix_of,
    metrics,
    parse_ckt,
    rigidity,
)
from minrank.errors import LimitError, ParseError
from minrank.gf2 import GF2Matrix, rank, rref
from minrank.partial import line_cover_number, min_rank
from minrank.solutions import opt_exact

# x0 and x1, fed to one output that copies it
AND_CIRCUIT = Depth2Circuit(
    2,
    (MiddleGate((0, 1), 0b1000),),
    (OutputGate((), (0,), 0b10),),
)


def xor_of_all(n):
    table = parity_table(n, (1 << n) - 1)
    return Depth2Circuit(
        n,
        (MiddleGate(tuple(range(n)), table),),
        (OutputGate((), (0,), 0b10),),
    )


def test_evaluate_hand_cases():
    F = xor_of_all(3)
    for x in range(8):
        assert evaluate(F, x) == x.bit_count() & 1
    for x in range(4):
        assert evaluate(AND_CIRCUIT, x) == (1 if x == 3 else 0)
    with pytest.raises(ValueError):
        evaluate(F, 8)


def _gather_evaluate(F, x):
    # evaluate() with every gate's table index gathered wire by wire
    mids = 0
    for k, g in enumerate(F.middle):
        idx = 0
        for pos, w in enumerate(g.wires):
            idx |= ((x >> w) & 1) << pos
        mids |= ((g.table >> idx) & 1) << k
    out = 0
    for i, g in enumerate(F.outputs):
        idx = 0
        pos = 0
        for w in g.direct:
            idx |= ((x >> w) & 1) << pos
            pos += 1
        for k in g.middle:
            idx |= ((mids >> k) & 1) << pos
            pos += 1
        out |= ((g.table >> idx) & 1) << i
    return out


def test_evaluate_matches_a_per_wire_gather():
    # on the seeded circuits with an output reading both direct and
    # middle wires, as built and with random output tables
    rng = random.Random(101)
    seen = 0
    for _ in range(60):
        F, _ = build_circuit(rng)
        if not any(g.direct and g.middle for g in F.outputs):
            continue
        seen += 1
        outs = tuple(
            OutputGate(g.direct, g.middle, rng.getrandbits(1 << (len(g.direct) + len(g.middle))))
            for g in F.outputs
        )
        junk = Depth2Circuit(F.n, F.middle, outs)
        for G in (F, junk):
            assert all(evaluate(G, x) == _gather_evaluate(G, x) for x in range(1 << G.n))
    assert seen > 40


def test_extract_linear_operator():
    M = extract_linear_operator(xor_of_all(3))
    assert M is not None and M.rows == (0b111,)
    assert extract_linear_operator(AND_CIRCUIT) is None
    # f(0) != 0 is already non-linear
    not_gate = Depth2Circuit(1, (), (OutputGate((0,), (), 0b01),))
    assert extract_linear_operator(not_gate) is None
    # no outputs: the zero map, with no rows
    assert extract_linear_operator(Depth2Circuit(2, (), ())) == GF2Matrix(2, ())
    with pytest.raises(LimitError, match=r"GF\(2\)\^17 exceeds n <= 16"):
        extract_linear_operator(Depth2Circuit(17, (), ()))


def _per_input_operator(F):
    # the operator read off the basis images, and whether every input
    # gives the xor of the images of its set bits
    images = [evaluate(F, 1 << j) for j in range(F.n)]
    for x in range(1 << F.n):
        want = 0
        for j in range(F.n):
            if (x >> j) & 1:
                want ^= images[j]
        if evaluate(F, x) != want:
            return None
    rows = [sum(((images[j] >> i) & 1) << j for j in range(F.n)) for i in range(F.m)]
    return GF2Matrix(F.n, tuple(rows))


def test_extract_linear_operator_matches_a_per_input_check():
    # the seeded linear circuits, and the same circuits with one output
    # table flipped at a random index, which is linear only by accident
    rng = random.Random(103)
    linear = broken = 0
    for _ in range(60):
        F, _ = build_circuit(rng)
        g = F.outputs[0]
        flip = 1 << rng.randrange(1 << (len(g.direct) + len(g.middle)))
        flipped = OutputGate(g.direct, g.middle, g.table ^ flip)
        G = Depth2Circuit(F.n, F.middle, (flipped,) + F.outputs[1:])
        for H in (F, G):
            want = _per_input_operator(H)
            assert extract_linear_operator(H) == want
            linear += want is not None
            broken += want is None
    assert linear >= 60 and broken >= 20


def test_matrix_of_puts_stars_on_direct_wires():
    # output 0 reads x0 directly, output 1 only the middle gate
    F = Depth2Circuit(
        2,
        (MiddleGate((0, 1), 0b0110),),
        (
            OutputGate((0,), (0,), 0b0110),
            OutputGate((), (0,), 0b10),
        ),
    )
    A = matrix_of(F)
    assert A.stars == (0b01, 0)
    assert A.ones == (0b10, 0b11)
    with pytest.raises(ValueError):
        matrix_of(AND_CIRCUIT)


def test_linearize_on_generated_circuits():
    rng = random.Random(77)
    for _ in range(40):
        F, target = build_circuit(rng)
        M = extract_linear_operator(F)
        assert M is not None and M.rows == target
        L = linearize(F)
        assert all(L.evaluate(x) == evaluate(F, x) for x in range(1 << F.n))
        assert L.operator().rows == target
        assert L.width == min_rank(matrix_of(F))
        assert L.degree <= F.degree
        assert metrics(F)["match_size"] == line_cover_number(matrix_of(F))


def _count_evaluations(monkeypatch):
    calls = []
    real = circuits.evaluate

    def counted(F, x):
        calls.append(x)
        return real(F, x)

    monkeypatch.setattr(circuits, "evaluate", counted)
    return calls


def test_linearize_evaluates_the_circuit_once_per_input(monkeypatch):
    # the linearity check reads F at each basis vector and then at every
    # input, n + 2^n evaluations, and linearize builds the partial
    # matrix from the operator that check found
    calls = _count_evaluations(monkeypatch)
    rng = random.Random(77)
    for _ in range(40):
        F, _ = build_circuit(rng)
        calls.clear()
        linearize(F)
        assert len(calls) == F.n + (1 << F.n)
        assert sorted(set(calls)) == list(range(1 << F.n))


def test_linearize_width_bound_via_opt():
    rng = random.Random(79)
    for _ in range(25):
        F, _ = build_circuit(rng)
        A = matrix_of(F)
        cnt, _ = opt_exact(A)
        assert F.width >= F.n - math.log2(cnt) - 1e-9


def _parity_output_circuits(rng, count):
    # linear circuits with junk middle tables and all-parity outputs
    done = 0
    while done < count:
        n = rng.randint(2, 5)
        w = rng.randint(1, 2)
        mids = []
        for _ in range(w):
            # non-linear middle gate: junk table
            mids.append(MiddleGate(tuple(range(n)), rng.getrandbits(1 << n)))
        outs = []
        for _ in range(rng.randint(1, 2)):
            dw = tuple(j for j in range(n) if rng.random() < 0.3)
            mw = tuple(range(w))
            outs.append(
                OutputGate(dw, mw, parity_table(len(dw) + w, rng.getrandbits(len(dw) + w)))
            )
        F = Depth2Circuit(n, tuple(mids), tuple(outs))
        if extract_linear_operator(F) is None:
            continue
        yield F
        done += 1


def test_linearize_middle_preserves_parity_circuits():
    for F in _parity_output_circuits(random.Random(83), 15):
        G = linearize_middle(F)
        assert all(evaluate(G, x) == evaluate(F, x) for x in range(1 << F.n))
        assert G.width == F.width and G.degree == F.degree


def test_linearize_middle_extracts_two_operators(monkeypatch):
    # one linearity check of the original and one of the rewrite, each
    # n + 2^n evaluations: 2n + 2^(n+1), where checking both circuits on
    # every input after the first check took 1 + n + 3 * 2^n
    circuits_seen = _parity_output_circuits(random.Random(83), 15)
    calls = _count_evaluations(monkeypatch)
    for F in circuits_seen:
        calls.clear()
        linearize_middle(F)
        assert len(calls) == 2 * F.n + (1 << (F.n + 1))


def _parity_loop(k):
    # the truth table of the parity of k wires, one input at a time
    table = 0
    for a in range(1 << k):
        table |= (a.bit_count() & 1) << a
    return table


def test_linearize_middle_tables_match_a_parity_loop():
    # a middle gate over all n inputs computing the parity of a k-subset
    # becomes a gate over that subset, for every 0 <= k <= n <= 8
    rng = random.Random(89)
    for n in range(1, 9):
        for k in range(n + 1):
            s = sum(1 << j for j in rng.sample(range(n), k))
            mids = (MiddleGate(tuple(range(n)), parity_table(n, s)),)
            F = Depth2Circuit(n, mids, (OutputGate((), (0,), 0b10),))
            (g,) = linearize_middle(F).middle
            assert g.wires == tuple(j for j in range(n) if (s >> j) & 1)
            assert g.table == _parity_loop(k)


def test_linearize_middle_rejects_non_parity_outputs():
    and_output = Depth2Circuit(2, (), (OutputGate((0, 1), (), 0b1000),))
    with pytest.raises(ValueError, match="output gate 0 is not a parity"):
        linearize_middle(and_output)
    # a parity output copying a non-linear middle gate
    with pytest.raises(ValueError, match="does not compute a linear operator"):
        linearize_middle(AND_CIRCUIT)


def test_linear_circuit_validation_and_operator():
    two = GF2Matrix(2, (0b01, 0b10))
    for direct, middle, combine, message in (
        (two, GF2Matrix(3, (1,)), GF2Matrix(1, (0, 1)), "disagree on input count"),
        (two, GF2Matrix(2, (1,)), GF2Matrix(1, (1,)), "one row per output"),
        (two, GF2Matrix(2, (1, 3)), GF2Matrix(1, (0, 1)), "width must match"),
    ):
        with pytest.raises(ValueError, match=message):
            LinearDepth2Circuit(direct, middle, combine)
    L = LinearDepth2Circuit(two, GF2Matrix(2, (0b01, 0b11)), GF2Matrix(2, (0b11, 0b01)))
    assert (L.n, L.m, L.width) == (2, 2, 2)
    assert L.operator().rows == (0b11, 0b11)
    assert all(L.evaluate(x) == L.operator().mul_vec(x) for x in range(4))
    # with no middle gates, combine's one column must select nothing
    with pytest.raises(ValueError, match="no middle gate"):
        LinearDepth2Circuit(two, GF2Matrix(2, ()), GF2Matrix(1, (1, 0)))
    L = LinearDepth2Circuit(two, GF2Matrix(2, ()), GF2Matrix(1, (0, 0)))
    assert L.operator().rows == two.rows
    assert all(L.evaluate(x) == x for x in range(4))


def test_metrics_match_size():
    # two outputs fighting over wire 0, third matched on wire 1
    F = Depth2Circuit(
        3,
        (),
        (
            OutputGate((0,), (), 0b10),
            OutputGate((0,), (), 0b10),
            OutputGate((0, 1), (), parity_table(2, 0b11)),
        ),
    )
    got = metrics(F)
    assert got == {"width": 0, "degree": 2, "match_size": 2}


def brute_rigidity(M, r):
    if rank(M) <= r:
        return 0
    cells = [(i, 1 << j) for i in range(M.m) for j in range(M.n)]
    for k in range(1, len(cells) + 1):
        for combo in combinations(cells, k):
            rows = list(M.rows)
            for i, bit in combo:
                rows[i] ^= bit
            if len(rref(rows)) <= r:
                return k
    return len(cells)


def test_rigidity_identity_and_random():
    I4 = GF2Matrix(4, (1, 2, 4, 8))
    for r in range(5):
        assert rigidity(I4, r) == 4 - r
    rng = random.Random(89)
    for _ in range(25):
        M = GF2Matrix(3, tuple(rng.getrandbits(3) for _ in range(3)))
        for r in range(4):
            assert rigidity(M, r) == brute_rigidity(M, r)
    with pytest.raises(LimitError):
        rigidity(GF2Matrix(6, (0,) * 6), 0)
    assert rigidity(I4, 0) == 4
    # the all-ones 3 x 3 matrix needs 9 flips to reach rank 0
    with pytest.raises(LimitError, match="rigidity exceeds the flip cap of 8"):
        rigidity(GF2Matrix(3, (7, 7, 7)), 0)


def test_rigidity_refuses_a_negative_rank_before_searching(monkeypatch):
    # no matrix has rank below 0, so no flip set is tried
    calls = []
    monkeypatch.setattr(circuits, "rref", lambda rows: calls.append(rows) or rref(rows))
    for M in (GF2Matrix(4, (1, 2, 4, 8)), GF2Matrix(6, (0,) * 6)):
        with pytest.raises(ValueError, match="rank below 0"):
            rigidity(M, -1)
    assert calls == []


def test_gate_validation():
    with pytest.raises(ValueError, match="need at least one input"):
        Depth2Circuit(0, (), ())
    with pytest.raises(ValueError):
        Depth2Circuit(2, (MiddleGate((0, 0), 0b0110),), ())
    with pytest.raises(ValueError):
        Depth2Circuit(2, (MiddleGate((0, 2), 0b0110),), ())
    with pytest.raises(ValueError):
        Depth2Circuit(2, (MiddleGate((0,), 0b100),), ())
    with pytest.raises(ValueError):
        Depth2Circuit(2, (), (OutputGate((), (0,), 0b10),))
    Depth2Circuit(17, (MiddleGate(tuple(range(16)), 0),), ())
    with pytest.raises(LimitError):
        Depth2Circuit(17, (MiddleGate(tuple(range(17)), 0),), ())


def test_ckt_round_trip():
    rng = random.Random(97)
    for _ in range(30):
        F, _ = build_circuit(rng)
        assert parse_ckt(emit_ckt(F)) == F


def test_ckt_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_ckt("inputs 2\nmiddle wires 0,q table 6\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_ckt("middle wires 0 table 2\n")
    with pytest.raises(ParseError):
        parse_ckt("inputs 2\noutput direct 0 middle - table 2\nmiddle wires 0 table 2\n")
    # the column is the offending token's own, not the first place its
    # text appears on the line
    for line, message, column in (
        ("middle wires i table 1", "bad wire list", 14),
        ("output direct - middle e table 1", "bad wire list", 24),
        ("middle wires 1 wires 1", "expected 'table'", 16),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_ckt(f"inputs 2\n{line}\n")
        assert (err.value.line, err.value.column) == (2, column)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("inputs 2\ninputs 2\n", "duplicate inputs line", 2, 1),
        ("inputs two\n", "expected 'inputs <count>'", 1, 1),
        ("inputs 2 3\n", "expected 'inputs <count>'", 1, 1),
        (
            "inputs 2\nmiddle wires 0 table 1 2\n",
            "expected 'middle wires <list> table <hex>'",
            2,
            1,
        ),
        ("inputs 2\nmiddle wires 0 table 1g\n", "bad table hex", 2, 22),
        (
            "inputs 2\noutput direct 0 middle - table 2 x\n",
            "expected 'output direct <list> middle <list> table <hex>'",
            2,
            1,
        ),
        ("inputs 2\n  output direct 0 middle - table z\n", "bad table hex", 2, 34),
        ("inputs 2\nmiddle wires 0 table 2\nout 1\n", "unknown directive 'out'", 3, 1),
        (
            "inputs 2\noutput direct 0 middle - table 2\nmiddle wires 0 table 2\n",
            "middle gates must come before outputs",
            3,
            1,
        ),
        ("middle wires 0 table 2\n", "missing inputs line", 1, 1),
        # the circuit's own refusals name the inputs count, or the gate's
        # line and its wire list or table
        ("inputs 0\n", "need at least one input", 1, 8),
        ("# none\ninputs   0\n", "need at least one input", 2, 10),
        ("inputs 2\nmiddle wires 0,5 table 2\n", "middle gate 0 wire 5 out of range", 2, 14),
        (
            "inputs 2\nmiddle wires 0 table 7\n",
            "middle gate 0 truth table does not fit 1 wires",
            2,
            22,
        ),
        # the inputs line may come last; the gates are checked against it
        ("middle wires 0,1 table 6\ninputs 1\n", "middle gate 0 wire 1 out of range", 1, 14),
        (
            "inputs 2\noutput direct 0,0 middle - table 2\n",
            "output gate 0 (direct) lists a wire twice",
            2,
            15,
        ),
        (
            "inputs 2\nmiddle wires 0 table 2\noutput direct 1 middle 0,3 table 2\n",
            "output gate 0 (middle) wire 3 out of range",
            3,
            24,
        ),
        (
            "inputs 2\noutput direct 0 middle - table ff\n",
            "output gate 0 truth table does not fit 1 wires",
            2,
            32,
        ),
    ],
)
def test_ckt_refusals_name_their_line_and_column(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_ckt(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_ckt_comments_and_blanks():
    text = "# a circuit\ninputs 2\n\nmiddle wires 0,1 table 6  # xor\noutput direct - middle 0 table 2\n"
    F = parse_ckt(text)
    assert F.n == 2 and F.width == 1 and F.m == 1
