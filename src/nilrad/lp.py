"""Exact simplex (two-phase, Bland's rule) on a fraction-free integer tableau.

Sized for this project's systems (a dozen rows); no scaling tricks and no
tolerances.  The data are integers.  The tableau holds Python ints over one
common denominator d > 0, which is the previous pivot (Edmonds' integer
pivoting, the simplex form of Bareiss elimination): pivoting on p = T[r][c]
sets T[i][j] <- (p.T[i][j] - T[i][c].T[r][j]) / d for i != r, a division
that is always exact, and then d <- p.  Reduced costs c_j.d - sum and ratio
tests are integer comparisons, so the pivots are those of a rational
tableau; `Fraction`s are made only for the returned x and value.

Every LP the pipeline builds is feasible and bounded by construction: the
Gram system Ux = [1] is consistent since [1] = Y.1 lies in the column
space of U = Y Y^T, the Stiemke and relative-interior systems are solved
by zero, and a cap row bounds each objective.  So there is no status to
return: an infeasible or unbounded LP is a program fault and fails an
assertion.
"""

from __future__ import annotations

from fractions import Fraction


class _Tableau:
    """Integer rows [A | b] over the common denominator d; T / d is the rational tableau."""

    def __init__(self, rows: list[list[int]]):
        self.rows = rows
        self.d = 1

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        p, d = prow[c], self.d
        for i, row in enumerate(self.rows):
            f = row[c]
            if i == r:
                continue
            if f:
                self.rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                self.rows[i] = [p * x // d for x in row]
        if p < 0:  # only when a leftover artificial is driven out; keep d > 0
            self.rows = [[-x for x in row] for row in self.rows]
            p = -p
        self.d = p


def _simplex(t: _Tableau, c: list[int], basis: list[int], ncols: int) -> None:
    """Minimise c.x in place from a canonical tableau; Bland's rule.  Only columns < ncols may enter."""
    while True:
        d = t.d
        y = [(row, c[b]) for row, b in zip(t.rows, basis) if c[b]]
        enter = next(
            (j for j in range(ncols) if c[j] * d - sum(cb * row[j] for row, cb in y if row[j]) < 0),
            None,
        )
        if enter is None:
            return
        # min over rows with a positive entry of (b_r / a_r, basis[r]), by cross-multiplication
        leave = None
        for r, row in enumerate(t.rows):
            a = row[enter]
            if a > 0:
                if leave is not None:
                    lhs, rhs = row[-1] * den, num * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                        continue
                leave, num, den = r, row[-1], a
        assert leave is not None, "unbounded LP: every objective the pipeline builds is capped"
        t.pivot(leave, enter)
        basis[leave] = enter


def solve_standard(a: list[list[int]], b: list[int], c: list[int]):
    """Two-phase simplex for min c.x s.t. Ax = b, x >= 0, on integer data.

    Returns (x, value), an optimal vertex and its value, as Fractions.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    rows = []
    for r, (row, br) in enumerate(zip(a, b)):
        s = -1 if br < 0 else 1
        rows.append([s * v for v in row] + [int(rr == r) for rr in range(m)] + [s * br])
    t = _Tableau(rows)
    basis = [n + r for r in range(m)]
    _simplex(t, [0] * n + [1] * m, basis, n + m)  # phase 1 is bounded below by 0
    infeasible = any(row[-1] for row, bv in zip(t.rows, basis) if bv >= n)  # an artificial left above 0
    assert not infeasible, "infeasible LP: every system the pipeline builds is consistent"
    # drive leftover artificials out of the basis; the rows where that is
    # impossible are zero on the original columns, hence redundant
    for r in range(len(t.rows)):
        if basis[r] >= n:
            j = next((jj for jj in range(n) if t.rows[r][jj]), None)
            if j is not None:
                t.pivot(r, j)
                basis[r] = j
    keep = [r for r, bv in enumerate(basis) if bv < n]
    t.rows = [t.rows[r][:n] + t.rows[r][-1:] for r in keep]
    basis = [basis[r] for r in keep]
    _simplex(t, c, basis, n)
    x = [Fraction(0)] * n
    for row, bv in zip(t.rows, basis):
        x[bv] = Fraction(row[-1], t.d)
    return x, Fraction(sum(c[bv] * row[-1] for row, bv in zip(t.rows, basis)), t.d)


def max_min_component(u: list[list[int]], rhs: list[int]):
    """max t s.t. exists x with u x = rhs and x >= t.1, t capped at 1; u, rhs integer.

    Returns (t, x): t is the capped optimum and x a witness attaining it;
    u x = rhs must be consistent.  Capping keeps the LP bounded without
    changing the sign of the optimum, which is all the positivity decision
    needs.
    """
    k = len(u[0]) if u else 0
    # u.(y + (tp - tm).1) = rhs with y >= 0, and tp - tm + s = 1
    a = [list(row) + [sum(row), -sum(row), 0] for row in u] + [[0] * k + [1, -1, 1]]
    x, val = solve_standard(a, list(rhs) + [1], [0] * k + [-1, 1, 0])
    t = -val
    return t, [xi + t for xi in x[:k]]
