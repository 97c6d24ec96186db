"""Exact simplex (two-phase, Bland's rule) on a fraction-free integer tableau.

Sized for this project's systems (a dozen rows); no scaling tricks and no
tolerances.  The data are integers.  The tableau holds Python ints over one
common denominator d > 0, which is the previous pivot (Edmonds' integer
pivoting, the simplex form of Bareiss elimination): pivoting on p = T[r][c]
sets T[i][j] <- (p.T[i][j] - T[i][c].T[r][j]) / d for i != r, a division
that is always exact, and then d <- p.  When p = d, as on most pivots of
the walk's LPs, only the columns where row r is nonzero change.  The
objective is the tableau's last row, the reduced costs c_j.d - c_B.T_j and
-d times the value, pivoted with the others, so pricing reads that one
row.  Pricing and ratio tests are integer comparisons, so the pivots are
those of a rational tableau; `Fraction`s are made only for the returned x
and value.

`solve_standard` starts phase 1 from one artificial per row, or, given a
`basis` (one column per row, nonsingular and feasible), pivots those
columns in and starts phase 2 there.  Where phase 1 is known to end at
that basis, as on the cone walk's relative-interior LP, the start gives
the same tableau and so the same phase 2 pivots and the same x.

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
    """Integer rows [A | b], then the objective row once appended, over d; T / d is the rational tableau."""

    def __init__(self, rows: list[list[int]]):
        self.rows = rows
        self.d = 1

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        p, d = prow[c], self.d
        nz = [(j, y) for j, y in enumerate(prow) if y] if p == d else None
        for i, row in enumerate(self.rows):
            f = row[c]
            if i == r:
                continue
            if f and p == d:  # (d.x - f.y) / d = x - f.y / d: only the pivot row's nonzero columns move
                for j, y in nz:
                    row[j] -= f * y // d
            elif f:
                self.rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                self.rows[i] = [p * x // d for x in row]
        if p < 0:  # only when a leftover artificial is driven out or a start basis goes in; keep d > 0
            self.rows = [[-x for x in row] for row in self.rows]
            p = -p
        self.d = p


def _append_cost(t: _Tableau, c: list[int], basis: list[int]) -> None:
    """Append the objective row of min c.x at `basis`: reduced costs c_j.d - c_B.T_j, then -c_B.b = -d.value."""
    cost = [cj * t.d for cj in c] + [0]
    for row, bv in zip(t.rows, basis):
        if c[bv]:
            cost = [x - c[bv] * y for x, y in zip(cost, row)]
    t.rows.append(cost)


def _simplex(t: _Tableau, basis: list[int], ncols: int) -> None:
    """Minimise in place from a canonical tableau whose last row is the objective; Bland's rule.

    Only columns < ncols may enter.
    """
    *rows, cost = t.rows
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return
        # min over rows with a positive entry of (b_r / a_r, basis[r]), by cross-multiplication
        leave = None
        for r, row in enumerate(rows):
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
        *rows, cost = t.rows


def solve_standard(a: list[list[int]], b: list[int], c: list[int], basis: list[int] | None = None):
    """Two-phase simplex for min c.x s.t. Ax = b, x >= 0, on integer data.

    With `basis`, column basis[r] for row r, a feasible basis of A, those
    columns are pivoted in and phase 2 starts there: phase 1 is skipped.
    Returns (x, value), an optimal vertex and its value, as Fractions.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    if basis is None:
        rows = []
        for r, (row, br) in enumerate(zip(a, b)):
            s = -1 if br < 0 else 1
            rows.append([s * v for v in row] + [int(rr == r) for rr in range(m)] + [s * br])
        t = _Tableau(rows)
        basis = [n + r for r in range(m)]
        _append_cost(t, [0] * n + [1] * m, basis)
        _simplex(t, basis, n + m)  # phase 1 is bounded below by 0
        assert not t.rows.pop()[-1], "infeasible LP: every system the pipeline builds is consistent"
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
    else:
        assert len(basis) == m, "a start basis has one column per row"
        t = _Tableau([list(row) + [br] for row, br in zip(a, b)])
        basis = list(basis)
        for r, j in enumerate(basis):
            assert t.rows[r][j], "singular start basis"
            t.pivot(r, j)
        assert all(row[-1] >= 0 for row in t.rows), "infeasible start basis"
    _append_cost(t, c, basis)
    _simplex(t, basis, n)
    x = [Fraction(0)] * n
    for row, bv in zip(t.rows, basis):
        x[bv] = Fraction(row[-1], t.d)
    return x, Fraction(-t.rows[-1][-1], t.d)


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
