from __future__ import annotations

import random
from fractions import Fraction

from nilrad import linalg
from oracles import dense_rref, densified_nullspace, in_span, nullspace, rank


def test_rref_and_rank():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    red, pivots = linalg.rref(a)
    assert pivots == [0]
    assert rank(a) == 1


def test_solve_and_nullspace():
    """`solve` on seeded random systems (ints, `Fraction`s, zero rows) against the dense
    oracle, which runs its own Fraction elimination, not `integer_rref`: the solution of
    [a | b] read off its reduced rows with each free unknown 0, or None when the last
    column is a pivot.  Nonsingular, singular consistent and inconsistent systems all occur."""
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    x = linalg.solve(a, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    assert linalg.solve([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
                        [Fraction(0), Fraction(1)]) is None
    assert linalg.solve([], []) == []
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        ncols = rng.randint(1, 6)
        a = []
        for _ in range(rng.randint(1, 7)):
            cols = rng.sample(range(ncols), rng.randint(0, ncols))  # 0: a zero row
            a.append([Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) if c in cols else 0 for c in range(ncols)])
        if rng.random() < 0.5:  # consistent by construction
            x0 = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(ncols)]
            b = [sum(v * w for v, w in zip(row, x0)) for row in a]
        else:
            b = [Fraction(rng.randint(-3, 3), rng.choice((1, 4))) for _ in a]
        red, pivots = dense_rref([[Fraction(v) for v in row] + [Fraction(bv)] for row, bv in zip(a, b)])
        got = linalg.solve(a, b)
        if ncols in pivots:
            seen.add("inconsistent")
            assert got is None, (a, b)
            continue
        want = [Fraction(0)] * ncols
        for r, c in enumerate(pivots):
            want[c] = red[r][ncols]
        assert got == want, (a, b)
        assert [sum(v * w for v, w in zip(row, got)) for row in a] == b
        seen.add("nonsingular" if len(a) == ncols == len(pivots) else "singular" if len(pivots) < ncols else "overdetermined")
    assert seen >= {"nonsingular", "singular", "inconsistent"}
    ns = nullspace([[Fraction(1), Fraction(1), Fraction(0)]])
    assert len(ns) == 2
    for v in ns:
        assert v[0] + v[1] == 0


def test_hnf_canonical_for_lattice():
    # two bases of the same lattice give the same HNF
    b1 = [[2, 0, 1], [0, 3, 1]]
    b2 = [[2, 3, 2], [2, 6, 3]]  # row ops of b1
    assert linalg.hnf(b1) == linalg.hnf(b2)


def test_kernel_lattice_hnf_sees_only_kernel_rows(monkeypatch):
    """One `hnf` per kernel, and it gets the n-wide kernel rows, never the n + m wide rows of [M^T | I]."""
    calls = []
    hnf = linalg.hnf
    monkeypatch.setattr(linalg, "hnf", lambda mat: calls.append(mat) or hnf(mat))
    assert linalg.kernel_lattice([]) == [] and calls == []
    assert linalg.kernel_lattice([[1, 1, 0]]) == [[1, -1, 0], [0, 0, 1]]
    assert linalg.kernel_lattice([[1, 2], [3, 4]]) == []
    assert linalg.kernel_lattice([[2, 4, 6, 0], [0, 0, 0, 0]]) == [[1, 1, -1, 0], [0, 3, -2, 0], [0, 0, 0, 1]]
    assert [len(mat) for mat in calls] == [2, 0, 3]
    assert all(len(row) == n for mat, n in zip(calls, (3, 2, 4)) for row in mat)


def test_kernel_lattice_membership():
    rng = random.Random(5)
    for _ in range(25):
        mat = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(2)]
        basis = linalg.kernel_lattice(mat)
        for row in basis:
            assert all(sum(m * x for m, x in zip(mrow, row)) == 0 for mrow in mat)
        # saturation: a random integer kernel vector must be an integer
        # combination of the basis (solve exactly and check integrality)
        ns = nullspace([[Fraction(v) for v in row] for row in mat], ncols=6)
        if not ns or not basis:
            continue
        v = ns[0]
        den = 1
        for x in v:
            den = den * x.denominator // __import__("math").gcd(den, x.denominator)
        v_int = [int(x * den) for x in v]
        coeffs = linalg.solve(
            [[Fraction(basis[r][c]) for r in range(len(basis))] for c in range(6)],
            [Fraction(x) for x in v_int],
        )
        assert coeffs is not None
        assert all(c.denominator == 1 for c in coeffs)


def test_sparse_nullspace_matches_dense():
    """The `Kernel` of seeded sparse systems (no rows, empty rows, one-entry rows, zero and
    non-integral `Fraction` entries) against the dense oracle, which runs on its own Fraction
    elimination, not on `integer_echelon`: its length is ncols - rank, `annihilates` agrees with
    `in_span` on random functionals and the zero one and holds on random combinations of the
    rows, and its vectors are the dense nullspace."""
    rng = random.Random(9)
    seen = set()
    for _ in range(120):
        ncols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, 7)):
            cols = rng.sample(range(ncols), min(ncols, rng.choice((0, 1, 1, 2, 3, 3, 4))))
            rows.append({c: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for c in cols})
        dense = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]
        kernel = linalg.sparse_nullspace(rows, ncols)
        assert len(kernel) == ncols - rank(dense)
        weights = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in rows] for _ in range(3)]
        combos = [{c: sum((w * row.get(c, 0) for w, row in zip(ws, rows)), Fraction(0)) for c in range(ncols)} for ws in weights]
        randoms = [{c: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for c in rng.sample(range(ncols), rng.randint(1, ncols))}
                   for _ in range(3)]
        for f in [{}, *combos, *randoms]:
            member = in_span(dense, [f.get(c, 0) for c in range(ncols)])
            assert kernel.annihilates(f) == member, (rows, f)
            seen.add(member)
        assert all(kernel.annihilates(f) for f in combos)
        assert densified_nullspace(rows, ncols) == nullspace(dense, ncols=ncols)
        for v in densified_nullspace(rows, ncols):
            assert all(sum(row.get(c, Fraction(0)) * v[c] for c in range(ncols)) == 0 for row in rows)
    assert seen == {True, False}


def test_in_span():
    vs = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(1)]]
    assert in_span(vs, [Fraction(2), Fraction(3), Fraction(5)])
    assert not in_span(vs, [Fraction(0), Fraction(0), Fraction(1)])
