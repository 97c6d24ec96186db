"""Exact linear algebra over the rationals, plus integer lattice routines.

Matrices are plain nested lists.  There is one rational eliminator,
`sparse_rref`, on rows {column: coeff}: it touches only nonzero entries,
which is what the structure-constant systems (derivation equations in n^2
unknowns, series subspaces) are made of; the dense `rref`, `solve`, `inv`
and `nullspace` are views of it.  Rational entries are `fractions.Fraction`;
lattice routines work on Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*a)]


def matvec(a: Matrix, v: Vector) -> Vector:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices).

    A dense view of `sparse_rref`: the pivot rows in order, then zero rows.
    """
    ncols = len(a[0]) if a else 0
    reduced = sparse_rref([{c: x for c, x in enumerate(row) if x} for row in a])
    pivots = sorted(reduced)
    rows = [[reduced[p].get(c, Fraction(0)) for c in range(ncols)] for p in pivots]
    return rows + [[Fraction(0)] * ncols for _ in range(len(a) - len(pivots))], pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None when inconsistent."""
    ncols = len(a[0]) if a else 0
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def nullspace(a: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of the kernel of a (rows may be empty; then pass ncols)."""
    if a:
        ncols = len(a[0])
    assert ncols is not None
    return sparse_nullspace([{c: x for c, x in enumerate(row) if x} for row in a], ncols)


def inv(a: Matrix) -> Matrix | None:
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def sparse_rref(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of sparse rows {col: coeff}, keyed by pivot column.

    Each returned row has a 1 at its pivot and no entry in any other pivot
    column, so the result depends only on the row space, not on row order.
    """
    work = [dict(r) for r in rows if r]
    pivot_of_col: dict[int, dict[int, Fraction]] = {}
    while work:
        row = work.pop()
        while row:
            c = min(row)
            if c in pivot_of_col:
                piv = pivot_of_col[c]
                f = row[c]
                for pc, pv in piv.items():
                    nv = row.get(pc, Fraction(0)) - f * pv
                    if nv:
                        row[pc] = nv
                    else:
                        row.pop(pc, None)
            else:
                inv_p = Fraction(1) / row[c]
                row = {k: v * inv_p for k, v in row.items()}
                pivot_of_col[c] = row
                break
    # back-substitute so each pivot row is reduced against later pivots
    for c in sorted(pivot_of_col, reverse=True):
        row = pivot_of_col[c]
        for c2 in sorted(k for k in row if k != c and k in pivot_of_col):
            piv = pivot_of_col[c2]
            f = row.get(c2)
            if not f:
                continue
            for pc, pv in piv.items():
                nv = row.get(pc, Fraction(0)) - f * pv
                if nv:
                    row[pc] = nv
                else:
                    row.pop(pc, None)
    return pivot_of_col


def sparse_nullspace(rows: list[dict[int, Fraction]], ncols: int) -> list[Vector]:
    """Kernel basis for a sparse system; rows are {col: coeff} dicts.

    Used for the derivation equations, where each row touches only a
    handful of the n^2 unknowns.
    """
    pivot_of_col = sparse_rref(rows)
    free = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, row in pivot_of_col.items():
            if f in row:
                v[c] = -row[f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# integer lattices


def hnf_with_transform(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form: returns (h, u) with u unimodular, u*mat = h."""
    h = [list(map(int, row)) for row in mat]
    nrows = len(h)
    ncols = len(h[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, nrows) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            h[r], h[i0] = h[i0], h[r]
            u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, nrows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < nrows and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == nrows:
                break
    return h, u


def hnf(mat: list[list[int]]) -> list[list[int]]:
    """Nonzero rows of the row Hermite normal form (canonical lattice basis)."""
    h, _ = hnf_with_transform(mat)
    return [row for row in h if any(row)]


def kernel_lattice(mat: list[list[int]]) -> list[list[int]]:
    """HNF basis of the lattice {x in Z^n : mat @ x = 0} (mat is m x n)."""
    if not mat:
        return []
    mt = transpose(mat)
    h, u = hnf_with_transform(mt)
    kernel_rows = [u[i] for i in range(len(h)) if not any(h[i])]
    if not kernel_rows:
        return []
    return hnf(kernel_rows)
