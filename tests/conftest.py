"""Shared fixture builders for the test suite."""

import random

import pytest

from minrank.circuits import Depth2Circuit, MiddleGate, OutputGate
from minrank.partial import PartialMatrix


@pytest.fixture
def fresh():
    """Equal copies of a matrix.  A copy holds no completion record, so
    its first min_rank_completion searches, whatever was completed
    before."""
    return lambda A: PartialMatrix(A.n, A.ones, A.stars)


@pytest.fixture
def tall_matrix():
    """1,100 distinct seeded rows over 14 columns, each entry a star with
    probability 0.1: a worklist deeper than the default recursion limit.
    Its min rank is 14."""
    rng = random.Random(0)
    rows: dict = {}
    while len(rows) < 1100:
        s = sum(1 << j for j in range(14) if rng.random() < 0.1)
        rows.setdefault((rng.getrandbits(14) & ~s, s), None)
    return PartialMatrix(14, tuple(a for a, _ in rows), tuple(s for _, s in rows))


def parity_table(arity, subset):
    """Truth table of the parity of the wires selected by subset."""
    t = 0
    for a in range(1 << arity):
        t |= ((a & subset).bit_count() & 1) << a
    return t


def build_circuit(rng):
    """A seeded depth-2 circuit computing a linear operator.

    The map is fixed first (direct wires plus a parity combination of
    middle rows), then the gate tables are dressed up: sometimes a
    constant-one middle gate whose unreachable half of every output
    table is filled with garbage, sometimes a middle row split into two
    non-linear gates whose junk cancels.  Either way the computed
    operator stays the linear target, so the circuit exercises the
    wire-based matrix extraction rather than anything semantic.
    Returns the circuit and the target operator rows.
    """
    n = rng.randint(2, 8)
    m = rng.randint(1, 3)
    w = rng.randint(0, 2)
    mids_rows = [rng.getrandbits(n) for _ in range(w)]
    stars = [rng.getrandbits(n) for _ in range(m)]
    direct_rows = [rng.getrandbits(n) & stars[i] for i in range(m)]
    comb = [rng.getrandbits(w) if w else 0 for _ in range(m)]
    target = []
    for i in range(m):
        r = direct_rows[i]
        for k in range(w):
            if (comb[i] >> k) & 1:
                r ^= mids_rows[k]
        target.append(r)

    gates = [MiddleGate(tuple(range(n)), parity_table(n, b)) for b in mids_rows]
    trick = rng.random()
    const_wire = -1
    if trick < 0.4 and len(gates) < 3:
        const_wire = len(gates)
        gates.append(MiddleGate((), 1))
    elif trick < 0.7 and w >= 1 and len(gates) < 3:
        junk = rng.getrandbits(1 << n)
        t2 = 0
        for a in range(1 << n):
            t2 |= (((junk >> a) & 1) ^ ((a & mids_rows[0]).bit_count() & 1)) << a
        gates[0] = MiddleGate(tuple(range(n)), junk)
        gates.append(MiddleGate(tuple(range(n)), t2))
        for i in range(m):
            if (comb[i] >> 0) & 1:
                comb[i] |= 1 << (len(gates) - 1)

    outs = []
    for i in range(m):
        dw = tuple(j for j in range(n) if (stars[i] >> j) & 1)
        mw = tuple(range(len(gates)))
        arity = len(dw) + len(mw)
        subset = 0
        for pos, j in enumerate(dw):
            if (direct_rows[i] >> j) & 1:
                subset |= 1 << pos
        for pos, k in enumerate(mw):
            if k < 8 and (comb[i] >> k) & 1:
                subset |= 1 << (len(dw) + pos)
        t = parity_table(arity, subset)
        if const_wire >= 0:
            # garbage on the half where the constant gate reads 0,
            # which no real input ever reaches
            cpos = len(dw) + const_wire
            for a in range(1 << arity):
                if not (a >> cpos) & 1:
                    t = (t & ~(1 << a)) | (rng.getrandbits(1) << a)
        outs.append(OutputGate(dw, mw, t))
    return Depth2Circuit(n, tuple(gates), tuple(outs)), tuple(target)
