"""Exact linear algebra over the rationals, plus integer lattice routines.

Matrices are plain nested lists.  There is one eliminator on sparse rows
{column: coeff}, touching only nonzero entries (derivation equations in n^2
unknowns, series subspaces).  It clears each row's denominators once and
eliminates fraction-free on Python ints.  A row with one entry is already a
reduced pivot row {c: 1}: those are taken first and their columns dropped
from the other rows (most rows of a derivation system are of this kind).
`integer_echelon` is its forward half and `integer_rref` adds
back-substitution.  `sparse_nullspace` keeps the echelon form as a
`Kernel`, read through its rank and one membership test per functional
(dim Der, the phi check), and back-substitutes only if its reduced rows or
vectors are read.  This module owns the reduced-row format: `solve` is the one
exact solve (phi's Gram system, U x = [1]), `Kernel.reduced` the rows Der's
vectors are read back from, and outside it only `algebra` calls
`integer_rref`: its span readers, and `act` for g^{-1} from [g | I].
`rref`, a dense view, has no caller in the library; the benchmark traces it.
There is one echelon routine on Python ints, `_echelon`: `hnf` reduces above
its pivots, and `kernel_lattice` echelons [M^T | I] on the M^T columns only
and takes the `hnf` of the kernel rows it leaves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices).

    The dense view of `integer_rref`: the pivot rows, each divided by its
    pivot entry, in order, then zero rows.
    """
    ncols = len(a[0]) if a else 0
    reduced = integer_rref([{c: x for c, x in enumerate(row) if x} for row in a])
    pivots = sorted(reduced)
    rows = [[Fraction(reduced[p].get(c, 0), reduced[p][p]) for c in range(ncols)] for p in pivots]
    return rows + [[Fraction(0)] * ncols for _ in range(len(a) - len(pivots))], pivots


def solve(a: Matrix, b: Vector) -> Vector | None:
    """The solution of a x = b with each free unknown 0, or None when the system is inconsistent.

    One `integer_rref` of the sparse rows of [a | b]: pivot row c reads
    row[c] x_c + (free terms) = row[n], so x_c = row[n] / row[c].
    """
    n = len(a[0]) if a else 0
    reduced = integer_rref([{c: x for c, x in enumerate([*row, bv]) if x} for row, bv in zip(a, b)])
    if n in reduced:
        return None
    return [Fraction(reduced[c].get(n, 0), reduced[c][c]) if c in reduced else Fraction(0) for c in range(n)]


def _primitive(row: dict) -> dict[int, int]:
    """A rational row {col: coeff} with no zero entry, scaled to coprime integers.

    A row of ints (most Der and series rows) has no denominators to clear:
    `math.gcd` takes it as it is and refuses a `Fraction`.
    """
    try:
        g = math.gcd(*row.values())
    except TypeError:
        d = math.lcm(*(v.denominator for v in row.values()))
        row = {k: v.numerator * (d // v.denominator) for k, v in row.items()}
        g = math.gcd(*row.values())
    return row if g <= 1 else {k: v // g for k, v in row.items()}


def _eliminate(row: dict[int, int], piv: dict[int, int], c: int) -> dict[int, int]:
    """a.row - b.piv with a, b the smallest integers that cancel column c; content divided out."""
    g = math.gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    if a != 1:
        row = {k: a * v for k, v in row.items()}
    for k, v in piv.items():
        nv = row.get(k, 0) - b * v
        if nv:
            row[k] = nv
        else:
            row.pop(k, None)
    g = math.gcd(*row.values())
    return row if g <= 1 else {k: v // g for k, v in row.items()}


def integer_echelon(rows: list[dict]) -> dict[int, dict[int, int]]:
    """Fraction-free forward echelon form of sparse rational rows {col: coeff}, keyed by pivot column.

    Each row is primitive, positive at its pivot, its least column.  A
    nonzero one-entry row is already the pivot {c: 1}, and {c: 0} is no row.
    The unit columns are collected once, as a set, and every longer row is read
    once: its zero entries and its entries in those columns are dropped and its
    denominators cleared.  Elimination is row <- a.row - b.piv on Python ints,
    the content gcd taken out each step.
    """
    units = {c for r in rows if len(r) == 1 for c, v in r.items() if v}
    longer = (_primitive({k: v for k, v in r.items() if v and k not in units}) for r in rows if len(r) > 1)
    work = [r for r in longer if r]
    pivot_of_col: dict[int, dict[int, int]] = {}
    while work:
        row = work.pop()
        while row:
            c = min(row)
            piv = pivot_of_col.get(c)
            if piv is None:
                pivot_of_col[c] = row if row[c] > 0 else {k: -v for k, v in row.items()}
                break
            row = _eliminate(row, piv, c)
    pivot_of_col.update({c: {c: 1} for c in units})
    return pivot_of_col


def integer_rref(rows: list[dict]) -> dict[int, dict[int, int]]:
    """`integer_echelon`, then each pivot row reduced against the later pivots, from the right:
    the rows / row[pivot] are the unique reduced row echelon form, keyed by pivot column."""
    reduced = integer_echelon(rows)
    for c in sorted(reduced, reverse=True):
        row = reduced[c]
        for c2 in sorted(k for k in row if k != c and k in reduced):
            row = _eliminate(row, reduced[c2], c2)
        reduced[c] = row
    return reduced


class Kernel:
    """The kernel of sparse rows in `ncols` unknowns, kept as their forward echelon form.

    `len` and `annihilates` read the echelon rows; `reduced` back-substitutes them once.
    Iterating yields one integer vector per free column f of the reduced rows: p at f and
    -row[f] * (p / row[c]) at each pivot c whose reduced row meets f, p the lcm of those
    pivot entries (divided by p, the basis vector with 1 at f); its keys increase (a pivot
    row lies right of its pivot) to f.
    """

    def __init__(self, echelon: dict[int, dict[int, int]], ncols: int):
        self.echelon, self.ncols = echelon, ncols

    def __len__(self) -> int:
        return self.ncols - len(self.echelon)

    def annihilates(self, row: dict) -> bool:
        """Does the functional {col: coeff} vanish on the kernel, that is, lie in the row space?

        Each echelon row's pivot is its least column, so eliminating the functional's least
        column leaves larger ones: it reaches zero exactly when it is a combination of the rows.
        """
        row = _primitive({k: v for k, v in row.items() if v})
        while row:
            if (piv := self.echelon.get(c := min(row))) is None:
                return False
            row = _eliminate(row, piv, c)
        return True

    def __iter__(self):
        return iter(self._vectors)

    @cached_property
    def reduced(self) -> dict[int, dict[int, int]]:
        """The unique reduced form of the rows, as `integer_rref` keys it: the echelon rows need
        no elimination, only back-substitution."""
        return integer_rref(list(self.echelon.values()))

    @cached_property
    def _vectors(self) -> list[dict[int, int]]:
        reduced = self.reduced
        touching: dict[int, list[int]] = {f: [] for f in range(self.ncols) if f not in reduced}
        for c, f in sorted((c, f) for c, row in reduced.items() for f in row if f != c):
            touching[f].append(c)
        vectors = []
        for f, cols in touching.items():
            p = math.lcm(*(reduced[c][c] for c in cols))
            vectors.append({**{c: -reduced[c][f] * (p // reduced[c][c]) for c in cols}, f: p})
        return vectors


def sparse_nullspace(rows: list[dict], ncols: int) -> Kernel:
    """The kernel of sparse rows {col: coeff} in ncols unknowns: the derivation equations."""
    return Kernel(integer_echelon(rows), ncols)


# ---------------------------------------------------------------------------
# integer lattices


def _echelon(h: list[list[int]], ncols: int) -> list[int]:
    """Bring the int rows h to echelon form on their first ncols columns, in place.

    Only unimodular steps: swaps, and adding an integer multiple of the
    pivot row to a row below it (Euclid on each column), so the rows span
    the same lattice.  Each pivot is made positive, and nothing above a
    pivot is reduced.  Returns the pivot columns, one per leading row; the
    rows after them are zero on the first ncols columns.
    """
    nrows, pivots = len(h), []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        while True:
            i0, least, count = r, 0, 0  # the first row of least |entry| in column c, and how many are nonzero
            for i in range(r, nrows):
                if x := abs(h[i][c]):
                    count += 1
                    if not least or x < least:
                        i0, least = i, x
            h[r], h[i0] = h[i0], h[r]
            if count <= 1:
                break
            done = True
            for i in range(r + 1, nrows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            pivots.append(c)
    return pivots


def hnf(mat: list[list[int]]) -> list[list[int]]:
    """Nonzero rows of the row Hermite normal form (canonical lattice basis).

    `_echelon`, then each entry above a pivot reduced into [0, pivot), pivot
    by pivot from the left: a pivot row is zero left of its pivot, so no
    later step undoes an earlier one.
    """
    h = [list(map(int, row)) for row in mat]
    pivots = _echelon(h, len(h[0]) if h else 0)
    for r, c in enumerate(pivots):
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
    return h[: len(pivots)]


def kernel_lattice(mat: list[list[int]]) -> list[list[int]]:
    """HNF basis of the lattice {x in Z^n : mat @ x = 0} (mat is m x n).

    The rows of [mat^T | I] span {(mat x, x) : x in Z^n}.  `_echelon` on
    their first m columns only, by unimodular steps, leaves rows that vanish
    there: cut to their last n entries, they are a basis of the kernel, and
    `hnf` of those n-wide rows alone is its (unique) HNF.
    """
    if not mat:
        return []
    m, n = len(mat), len(mat[0])
    rows = [[*col, *[0] * i, 1, *[0] * (n - 1 - i)] for i, col in enumerate(zip(*mat))]
    r = len(_echelon(rows, m))
    return hnf([row[m:] for row in rows[r:]])
