"""Reference checks used only by the test suite.

Each one decides a question the library answers by other means (an
exponential enumeration, a dense recomputation), so a test can compare the
two.  They are deliberately simple and slow, and nilrad itself never calls
them.  The float basis change (`to_float`, `act_float`) lives here too: the
library acts by rational matrices only, and the orthogonal rotations of the
moment-map equivariance tests need floats and numpy.  Float laws are built
as `LieLaw(n, {triple: float})`; the library's kernels compare exactly, so
the float helpers carry their own tolerance, `FLOAT_TOL`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from nilrad import linalg
from nilrad.algebra import LawError, LieLaw, Surd, jacobi_violations
from nilrad.degeneration import LimitResult
from nilrad.ricci import MomentValue


FLOAT_TOL = 1e-9


def _rounded(c) -> float:
    terms = c.terms if isinstance(c, Surd) else {1: c}
    return sum(float(q) * math.sqrt(m) for m, q in terms.items())


def to_float(law: LieLaw) -> LieLaw:
    """The law with every coefficient, rational or `Surd`, rounded to a float."""
    return LieLaw(law.dim, {t: _rounded(c) for t, c in law.brackets.items()})


def act_float(g: list[list], law: LieLaw) -> LieLaw:
    """(g . mu)(x, y) = g mu(g^{-1} x, g^{-1} y) in floating point, for a real g."""
    import numpy as np

    n = law.dim
    gm = np.array([[float(x) for x in row] for row in g], dtype=float)
    if abs(float(np.linalg.det(gm))) < 1e-14:
        raise LawError("singular matrix in act_float()")
    ginv = np.linalg.inv(gm)
    lawf = to_float(law)
    cols = [[ginv[a][b] for a in range(n)] for b in range(n)]  # ginv columns
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = lawf.bracket_vectors(cols[i - 1], cols[j - 1])
            img = [sum(gm[a][b] * w[b] for b in range(n)) for a in range(n)]
            for k in range(1, n + 1):
                c = img[k - 1]
                if abs(c) > FLOAT_TOL:
                    brackets[(i, j, k)] = c
    return LieLaw(n, brackets)


def bracket(law: LieLaw, i: int, j: int) -> list:
    """Coordinates of [e_i, e_j] (any i, j; antisymmetry applied)."""
    v = [Fraction(0)] * law.dim
    for k, c in law.images.get((i, j), {}).items():
        v[k - 1] = c
    return v


def ad(law: LieLaw, p: int) -> list[list]:
    """Matrix of ad(e_p) = [e_p, .] in the standard basis."""
    return linalg.transpose([bracket(law, p, j) for j in range(1, law.dim + 1)])


def dense_moment_map(law: LieLaw) -> MomentValue:
    """m(mu) = 4 Ric_mu from the dense ad matrices, summing every entry."""
    n = law.dim
    ads = [ad(law, p) for p in range(1, n + 1)]
    zero = Fraction(0)
    by_pair: dict[tuple[int, int], dict[int, object]] = {}
    for (a, b, k), c in law.brackets.items():
        by_pair.setdefault((a, b), {})[k - 1] = c
    m = [[zero] * n for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            t1 = zero
            for i in range(n):
                for j in range(n):
                    t1 += ads[p][j][i] * ads[q][j][i]
            t2 = zero
            for comps in by_pair.values():
                cp, cq = comps.get(p, zero), comps.get(q, zero)
                if cp and cq:
                    t2 += 2 * cp * cq
            m[p][q] = -2 * t1 + t2
            m[q][p] = m[p][q]
    return MomentValue(tuple(tuple(row) for row in m))


def alphas_gram(law: LieLaw) -> list[list[int]]:
    """Gram matrix of the weight vectors f_k - f_i - f_j, in sorted triple order."""
    alphas = []
    for (i, j, k) in sorted(law.brackets):
        a = [0] * law.dim
        a[i - 1] -= 1
        a[j - 1] -= 1
        a[k - 1] += 1
        alphas.append(a)
    return [[sum(x * y for x, y in zip(a, b)) for b in alphas] for a in alphas]


def matmul(a, b):
    bt = linalg.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def in_span(vectors: Sequence, v) -> bool:
    """Is v in the rational span of `vectors`?"""
    if not vectors:
        return all(x == 0 for x in v)
    base = [list(map(Fraction, w)) for w in vectors]
    return linalg.rank(base) == linalg.rank(base + [list(map(Fraction, v))])


def is_derivation(law: LieLaw, d: list[list]) -> bool:
    """Check D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] on all basis pairs."""
    n = law.dim
    cols = [[d[a][b] for a in range(n)] for b in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = bracket(law, i, j)
            lhs = [sum(d[k][l] * v[l] for l in range(n)) for k in range(n)]
            rhs1 = law.bracket_vectors(cols[i - 1], [Fraction(int(a == j - 1)) for a in range(n)])
            rhs2 = law.bracket_vectors([Fraction(int(a == i - 1)) for a in range(n)], cols[j - 1])
            for k in range(n):
                if lhs[k] - rhs1[k] - rhs2[k] != 0:
                    return False
    return True


def norm_squared(law: LieLaw):
    """||mu||^2 = sum of squared structure constants over stored brackets."""
    return sum((c * c for c in law.brackets.values()), Fraction(0))


def limit_is_lie(res: LimitResult) -> bool:
    """Limits of Lie laws are Lie laws."""
    if res.kind != "limit":
        return True
    return not jacobi_violations(res.law)


def trivial_cone_certificate_holds(law: LieLaw, phi: Sequence, y: Sequence) -> bool:
    """Does y certify that no diagonal X in g_phi moves the law to another limit?

    y needs one positive entry per stored triple, in sorted order, and
    sum_t y_t (f_i + f_j - f_k) in span(1, phi): then every X with
    tr X = tr(X phi) = 0 has sum_t y_t w_t(X) = 0, so no weight is positive
    unless another is negative.  Checked from the weight vectors alone.
    """
    y = [Fraction(v) for v in y]
    triples = sorted(law.brackets)
    if len(y) != len(triples) or any(v <= 0 for v in y):
        return False
    v = [Fraction(0)] * law.dim
    for yt, (i, j, k) in zip(y, triples):
        v[i - 1] += yt
        v[j - 1] += yt
        v[k - 1] -= yt
    return in_span([[1] * law.dim, list(phi)], v)


def positive_solution_oracle(u: list[list[int]]) -> bool:
    """Brute-force reference decision for small U (vertex/ray enumeration).

    P = {x >= 0 : Ux = 1} is pointed, so it is nonempty iff it has a vertex,
    and by convexity a strictly positive point exists iff every coordinate
    is positive somewhere on P (vertices) or can be pushed up along a
    recession ray.  Exponential in the number of weights; use for m <= 6.
    """
    m = len(u)
    frac = [[Fraction(v) for v in row] for row in u]
    one = [Fraction(1)] * m
    zero = [Fraction(0)] * m

    def subset_rows(zset):
        rows = [row[:] for row in frac]
        for a in zset:
            r = [Fraction(0)] * m
            r[a] = Fraction(1)
            rows.append(r)
        return rows

    vertices = []
    rays = []
    for mask in range(1 << m):
        zset = [a for a in range(m) if mask >> a & 1]
        rows = subset_rows(zset)
        b = one + zero[: len(zset)]
        aug = [row + [bv] for row, bv in zip(rows, b)]
        red, pivots = linalg.rref(aug)
        if m not in pivots and len(pivots) == m:
            x = [Fraction(0)] * m
            for r, cpos in enumerate(pivots):
                x[cpos] = red[r][m]
            if all(v >= 0 for v in x):
                vertices.append(x)
        # extreme rays of the recession cone {d >= 0 : Ud = 0}
        ns = linalg.nullspace(rows, ncols=m)
        if len(ns) == 1:
            d = ns[0]
            if all(v >= 0 for v in d):
                rays.append(d)
            elif all(v <= 0 for v in d):
                rays.append([-v for v in d])

    if not vertices:
        return False
    for a in range(m):
        if any(v[a] > 0 for v in vertices):
            continue
        if any(r[a] > 0 for r in rays):
            continue
        return False
    return True
