"""Exact rational simplex (two-phase, Bland's rule).

Sized for this project's systems (a dozen rows); no scaling tricks, no
tolerances, just Fractions.  Gram tableaux are mostly zeros, so pivots and
reduced costs touch only nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Tableau:
    def __init__(self, a: list[list[Fraction]], b: list[Fraction]):
        self.a = [row[:] for row in a]
        self.b = b[:]
        self.m = len(a)
        self.n = len(a[0]) if a else 0

    def pivot(self, row: int, col: int) -> None:
        inv_p = _ONE / self.a[row][col]
        prow = self.a[row] = [x * inv_p for x in self.a[row]]
        self.b[row] *= inv_p
        support = [(j, y) for j, y in enumerate(prow) if y]
        for r in range(self.m):
            f = self.a[r][col]
            if r != row and f:
                ar = self.a[r]
                for j, y in support:
                    ar[j] -= f * y
                self.b[r] -= f * self.b[row]


def _simplex(t: _Tableau, c: list[Fraction], basis: list[int], ncols: int):
    """Minimise c.x in place from a canonical tableau; Bland's rule.

    Only columns < ncols may enter.  Returns (status, x, value).
    """
    while True:
        y = [(t.a[r], c[basis[r]]) for r in range(t.m) if c[basis[r]]]
        enter = None
        for j in range(ncols):
            rj = c[j] - sum(yr * ar[j] for ar, yr in y if ar[j])
            if rj < 0:
                enter = j
                break
        if enter is None:
            x = [_ZERO] * t.n
            for r in range(t.m):
                x[basis[r]] = t.b[r]
            return "optimal", x, sum(ci * xi for ci, xi in zip(c, x[: len(c)]))
        ratios = [
            (t.b[r] / t.a[r][enter], basis[r], r)
            for r in range(t.m)
            if t.a[r][enter] > 0
        ]
        if not ratios:
            return "unbounded", None, None
        _, _, leave_row = min(ratios)
        t.pivot(leave_row, enter)
        basis[leave_row] = enter


def solve_standard(a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]):
    """Two-phase simplex for min c.x s.t. Ax = b, x >= 0.

    Returns (status, x, value) with status in {'optimal', 'infeasible',
    'unbounded'}.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    a1 = [row[:] for row in a]
    b1 = [bv for bv in b]
    for r in range(m):
        if b1[r] < 0:
            a1[r] = [-x for x in a1[r]]
            b1[r] = -b1[r]
    for r in range(m):
        a1[r] = a1[r] + [_ONE if rr == r else _ZERO for rr in range(m)]
    t = _Tableau(a1, b1)
    basis = [n + r for r in range(m)]
    c_p1 = [_ZERO] * n + [_ONE] * m
    status, _, val = _simplex(t, c_p1, basis, n + m)
    assert status == "optimal"
    if val > 0:
        return "infeasible", None, None
    # drive leftover artificials out of the basis; all-zero rows are redundant
    redundant = []
    for r in range(t.m):
        if basis[r] >= n:
            j = next((jj for jj in range(n) if t.a[r][jj] != 0), None)
            if j is None:
                redundant.append(r)
            else:
                t.pivot(r, j)
                basis[r] = j
    if redundant:
        keep = [r for r in range(t.m) if r not in redundant]
        t.a = [t.a[r] for r in keep]
        t.b = [t.b[r] for r in keep]
        t.m = len(keep)
        basis = [basis[r] for r in keep]
    c_p2 = list(c) + [_ZERO] * m
    status, x, val = _simplex(t, c_p2, basis, n)
    if status != "optimal":
        return status, None, None
    return "optimal", x[:n], val


def max_min_component(u: list[list[Fraction]], rhs: list[Fraction]):
    """max t s.t. exists x with u x = rhs and x >= t.1, t capped at 1.

    Returns (status, t, x): status 'optimal' (t is the capped optimum, x a
    witness attaining it) or 'infeasible' (u x = rhs has no solution).
    Capping keeps the LP bounded without changing the sign of the optimum,
    which is all the positivity decision needs.
    """
    m = len(u)
    k = len(u[0]) if u else 0
    urow_sum = [sum(row) for row in u]
    a = []
    b = []
    for r in range(m):
        # u.(y + (tp - tm).1) = rhs with y >= 0
        a.append([Fraction(v) for v in u[r]] + [urow_sum[r], -urow_sum[r], _ZERO])
        b.append(Fraction(rhs[r]))
    a.append([_ZERO] * k + [_ONE, -_ONE, _ONE])  # tp - tm + s = 1
    b.append(_ONE)
    c = [_ZERO] * k + [-_ONE, _ONE, _ZERO]
    status, x, val = solve_standard(a, b, c)
    if status == "infeasible":
        return "infeasible", None, None
    assert status == "optimal"  # the cap row forbids unboundedness
    t = -val
    witness = [xi + t for xi in x[:k]]
    return "optimal", t, witness
