"""The sparse structure-constant kernels against the dense reference kernels.

The dense functions below are the straightforward O(n^3)-O(n^4) versions
of Jacobi, the two series, the derivation equations, row reduction and the
simplex pivot.  They scan every bracket (or every matrix entry) with
Fraction arithmetic and are kept here only as oracles: the library's sparse
kernels must give exactly the same residuals, series dimensions, equation
rows, Der bases, reduced matrices and LP solutions.  The integer weight
rows of the degeneration cone must flag exactly the X whose limit diverges.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from nilrad import linalg, lp
from nilrad.algebra import act, jacobi_violations, parse_law, series_signature
from nilrad.degeneration import g_phi_lattice, lattice_weight_rows, one_param_limit
from nilrad.derivations import _derivation_rows, derivation_space, pre_einstein
from nilrad.nicebasis import gram_matrix, is_nice
from nilrad.ricci import moment_map
from oracles import alphas_gram, dense_moment_map

PROBES = (
    "dim 3; [1,2]=3; [1,3]=1",  # fails Jacobi
    "dim 3; [1,2]=2",  # solvable, not nilpotent
    "dim 4; [1,2]=3; [1,3]=4; [2,3]=4",
    "dim 3; [1,2]=2*2; [1,3]=3*-2; [2,3]=1",  # sl2: not solvable
    "dim 1",
    "dim 2",
)


# ---------------------------------------------------------------------------
# dense reference kernels


def dense_bracket(law, i, j):
    zero = Fraction(0)
    v = [zero] * law.dim
    if i == j:
        return v
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    for (a, b, k), c in law.brackets.items():
        if a == i and b == j:
            v[k - 1] = sign * c
    return v


def dense_bracket_vectors(law, u, v):
    zero = Fraction(0)
    out = [zero] * law.dim
    for (a, b, k), c in law.brackets.items():
        coef = u[a - 1] * v[b - 1] - u[b - 1] * v[a - 1]
        if coef:
            out[k - 1] += coef * c
    return out


def dense_jacobi_violations(law):
    n = law.dim
    out = []
    one, zero = Fraction(1), Fraction(0)
    basis = [[one if a == i else zero for a in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vij = dense_bracket(law, i, j)
            for k in range(j + 1, n + 1):
                r1 = dense_bracket_vectors(law, basis[i - 1], dense_bracket(law, j, k))
                r2 = dense_bracket_vectors(law, basis[j - 1], dense_bracket(law, i, k))
                r3 = dense_bracket_vectors(law, basis[k - 1], vij)
                res = [a - b + c for a, b, c in zip(r1, r2, r3)]
                if any(x != 0 for x in res):
                    out.append((i, j, k, res))
    return out


def dense_rref(a):
    m = [row[:] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv_p = Fraction(1) / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def dense_rref_and_nullspace(rows, ncols):
    """The reduced rows {pivot: {col: x}} of `dense_rref` on sparse rows, and the
    kernel basis read from them: one vector per free column f, -red[r][f] at pivot r."""
    a = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    red, pivots = dense_rref(a) if a else ([], [])
    reduced = {c: {k: x for k, x in enumerate(red[r]) if x} for r, c in enumerate(pivots)}
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        out.append(v)
    return reduced, out


def dense_subspace_bracket(law, a, b):
    prods = [dense_bracket_vectors(law, u, v) for u in a for v in b]
    prods = [p for p in prods if any(p)]
    if not prods:
        return []
    red, pivots = dense_rref(prods)
    return red[: len(pivots)]


def dense_series_signature(law):
    n = law.dim
    full = [[Fraction(int(a == i)) for a in range(n)] for i in range(n)]
    out = []
    for step in (lambda cur: dense_subspace_bracket(law, cur, cur), lambda cur: dense_subspace_bracket(law, full, cur)):
        dims, cur = [n], full
        while dims[-1] != 0:
            nxt = step(cur)
            if len(nxt) == dims[-1]:
                break
            dims.append(len(nxt))
            cur = nxt
        out.append(tuple(dims))
    return tuple(out)


def dense_derivation_rows(law):
    n = law.dim
    mu = {}
    for (a, b, k), c in law.brackets.items():
        mu.setdefault((a, b), {})[k] = c

    def mu_comp(a, b, k):
        if a == b:
            return Fraction(0)
        if a < b:
            return mu.get((a, b), {}).get(k, Fraction(0))
        return -mu.get((b, a), {}).get(k, Fraction(0))

    rows = []
    col = lambda k, l: (k - 1) * n + (l - 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            img = mu.get((i, j), {})
            for k in range(1, n + 1):
                row = {}

                def add(c_idx, val):
                    if val:
                        row[c_idx] = row.get(c_idx, Fraction(0)) + val
                        if not row[c_idx]:
                            del row[c_idx]

                for l, c in img.items():
                    add(col(k, l), c)
                for l in range(1, n + 1):
                    add(col(l, i), -mu_comp(l, j, k))
                    add(col(l, j), -mu_comp(i, l, k))
                if row:
                    rows.append(row)
    return rows


class DenseTableau:
    def __init__(self, a, b):
        self.a = [row[:] for row in a]
        self.b = b[:]
        self.m = len(a)
        self.n = len(a[0]) if a else 0

    def pivot(self, row, col):
        inv_p = Fraction(1) / self.a[row][col]
        self.a[row] = [x * inv_p for x in self.a[row]]
        self.b[row] *= inv_p
        for r in range(self.m):
            if r != row and self.a[r][col] != 0:
                f = self.a[r][col]
                self.a[r] = [x - f * y for x, y in zip(self.a[r], self.a[row])]
                self.b[r] -= f * self.b[row]


def dense_simplex(t, c, basis, ncols):
    while True:
        y = [c[basis[r]] for r in range(t.m)]
        enter = None
        for j in range(ncols):
            if c[j] - sum(y[r] * t.a[r][j] for r in range(t.m)) < 0:
                enter = j
                break
        if enter is None:
            x = [Fraction(0)] * t.n
            for r in range(t.m):
                x[basis[r]] = t.b[r]
            return "optimal", x, sum(ci * xi for ci, xi in zip(c, x[: len(c)]))
        ratios = [(t.b[r] / t.a[r][enter], basis[r], r) for r in range(t.m) if t.a[r][enter] > 0]
        if not ratios:
            return "unbounded", None, None
        _, _, leave_row = min(ratios)
        t.pivot(leave_row, enter)
        basis[leave_row] = enter


def dense_solve_standard(a, b, c):
    """Two-phase simplex on a Fraction tableau with dense pivots and Bland's rule."""
    m = len(a)
    n = len(a[0]) if a else 0
    a1 = [[Fraction(v) for v in row] for row in a]
    b1 = [Fraction(v) for v in b]
    for r in range(m):
        if b1[r] < 0:
            a1[r], b1[r] = [-x for x in a1[r]], -b1[r]
        a1[r] += [Fraction(int(rr == r)) for rr in range(m)]
    t = DenseTableau(a1, b1)
    basis = [n + r for r in range(m)]
    _, _, val = dense_simplex(t, [Fraction(0)] * n + [Fraction(1)] * m, basis, n + m)
    if val > 0:
        return "infeasible", None, None
    redundant = []
    for r in range(t.m):
        if basis[r] >= n:
            j = next((jj for jj in range(n) if t.a[r][jj] != 0), None)
            if j is None:
                redundant.append(r)
            else:
                t.pivot(r, j)
                basis[r] = j
    keep = [r for r in range(t.m) if r not in redundant]
    t.a, t.b, t.m = [t.a[r] for r in keep], [t.b[r] for r in keep], len(keep)
    basis = [basis[r] for r in keep]
    status, x, val = dense_simplex(t, [Fraction(v) for v in c] + [Fraction(0)] * m, basis, n)
    if status != "optimal":
        return status, None, None
    return "optimal", x[:n], val


def _max_min_system(u, rhs):
    """The LP of `lp.max_min_component`: u.(y + (tp - tm).1) = rhs, tp - tm + s = 1, min tm - tp."""
    k = len(u[0]) if u else 0
    a = [list(row) + [sum(row), -sum(row), 0] for row in u] + [[0] * k + [1, -1, 1]]
    return a, list(rhs) + [1], [0] * k + [-1, 1, 0]


def dense_max_min_component(u, rhs):
    k = len(u[0]) if u else 0
    status, x, val = dense_solve_standard(*_max_min_system(u, rhs))
    if status == "infeasible":
        return "infeasible", None, None
    t = -val
    return "optimal", t, [xi + t for xi in x[:k]]


# ---------------------------------------------------------------------------
# laws to compare on


def _random_g(rng, n):
    while True:
        g = linalg.identity(n)
        for _ in range(2):
            a, b = rng.sample(range(n), 2)
            g[a][b] = Fraction(rng.randint(-2, 2))
        if linalg.inv(g) is not None:
            return g


@pytest.fixture(scope="module")
def exact_laws(entries):
    """Catalog laws, every fourth one moved by a seeded rational g, the probes."""
    rng = random.Random(4493)
    laws = {e.id: e.law() for e in entries}
    for e in entries[::4]:
        laws[f"g.{e.id}"] = act(_random_g(rng, 7), laws[e.id])
    for text in PROBES:
        laws[text] = parse_law(text)
    return laws


def _broken(law, rng):
    """The law with one structure constant tripled: Jacobi often fails."""
    brackets = dict(law.brackets)
    t = rng.choice(sorted(brackets))
    brackets[t] = brackets[t] * 3
    return type(law)(law.dim, brackets)


def _rows_key(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


# ---------------------------------------------------------------------------
# equivalence


def test_jacobi_matches_dense(exact_laws):
    rng = random.Random(17)
    nonzero = 0
    for name, law in exact_laws.items():
        assert jacobi_violations(law) == dense_jacobi_violations(law), name
        if law.brackets:
            broken = _broken(law, rng)
            got = jacobi_violations(broken)
            assert got == dense_jacobi_violations(broken), name
            nonzero += bool(got)
    assert nonzero > 50  # the broken laws really exercise the residuals


def test_jacobi_matches_dense_on_surd_witnesses(entries):
    rng = random.Random(23)
    witnesses = {e.expected.witness_law for e in entries if e.expected.witness_law}
    surds = [parse_law(w) for w in sorted(witnesses)]
    surds = [w for w in surds if not w.is_rational]
    assert len(surds) >= 10
    for w in surds:
        assert jacobi_violations(w) == dense_jacobi_violations(w) == []
        broken = _broken(w, rng)
        assert jacobi_violations(broken) == dense_jacobi_violations(broken)


def test_series_matches_dense(exact_laws):
    for name, law in exact_laws.items():
        sig = series_signature(law)
        assert (sig.derived_dims, sig.lcs_dims) == dense_series_signature(law), name


def test_derivation_rows_and_basis_match_dense(exact_laws):
    for name, law in exact_laws.items():
        rows = dense_derivation_rows(law)
        assert _rows_key(_derivation_rows(law)) == _rows_key(rows), name
        dense_basis = linalg.sparse_nullspace(rows, law.dim**2)
        n = law.dim
        assert derivation_space(law).basis == tuple(
            tuple(tuple(v[k * n + l] for l in range(n)) for k in range(n)) for v in dense_basis
        ), name


def test_rref_matches_dense():
    rng = random.Random(5)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        a = [[Fraction(rng.choice((0, 0, 0, 1, -1, 2, 3)), rng.randint(1, 3)) for _ in range(ncols)] for _ in range(nrows)]
        assert linalg.rref(a) == dense_rref(a), a


def _rational_rows(rng):
    """Sparse rows with non-integer entries, some rational multiples of others, in random order."""
    ncols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(1, 5)):
        cols = rng.sample(range(ncols), rng.randint(1, ncols))
        rows.append({c: Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 6, 35))) for c in cols})
    for row in list(rows):
        if rng.random() < 0.5:
            f = Fraction(rng.choice((-5, -2, 3, 7)), rng.choice((1, 4, 9)))
            rows.append({c: f * v for c, v in row.items()})
    rng.shuffle(rows)
    return rows, ncols


def test_integer_eliminator_on_rational_rows():
    """Non-integer entries, rows that are rational multiples of one another and
    negative leading entries: the fraction-free kernel gives the dense rational
    reduced form and kernel."""
    rng = random.Random(1307)
    negative_lead = multiples = 0
    for _ in range(400):
        rows, ncols = _rational_rows(rng)
        reduced, kernel = dense_rref_and_nullspace(rows, ncols)
        assert linalg.sparse_rref(rows) == reduced, rows
        assert linalg.sparse_nullspace(rows, ncols) == kernel, rows
        assert all(row[c] > 0 and math.gcd(*row.values()) == 1 for c, row in linalg.integer_rref(rows).items())
        negative_lead += any(row[min(row)] < 0 for row in rows)
        multiples += len(reduced) < len(rows)
    assert negative_lead > 100 and multiples > 100


def test_derivation_basis_matches_dense_on_rational_laws(entries, exact_laws):
    """Der from the integer kernel against the dense Fraction kernel on 1.3(ii),
    whose law has a non-integer constant, the seeded basis changes, and laws
    moved by a seeded g with non-integer entries."""
    assert any(c.denominator != 1 for c in exact_laws["1.3(ii)"].brackets.values())
    laws = {name: law for name, law in exact_laws.items() if name == "1.3(ii)" or name.startswith("g.")}
    rng = random.Random(611)
    for e in entries[1::12]:
        g = linalg.identity(7)
        for a, b in rng.sample([(a, b) for a in range(7) for b in range(7) if a != b], 3):
            g[a][b] = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((2, 3, 5)))
        laws[f"q.{e.id}"] = act(g, e.law())
    rational = sum(any(c.denominator != 1 for c in law.brackets.values()) for law in laws.values())
    assert len(laws) > 40 and rational > 10
    for name, law in laws.items():
        n = law.dim
        reduced, kernel = dense_rref_and_nullspace(dense_derivation_rows(law), n * n)
        assert linalg.sparse_rref(_derivation_rows(law)) == reduced, name
        assert derivation_space(law).basis == tuple(
            tuple(tuple(v[k * n + l] for l in range(n)) for k in range(n)) for v in kernel
        ), name


def test_solve_standard_redundant_rows_and_negative_cleanup(by_id, monkeypatch):
    """Equal status, x and value to the dense rational simplex when an equality
    row is redundant and when driving out a leftover artificial pivots on a
    negative entry (the only pivot that can be negative)."""
    negative = []
    pivot = lp._Tableau.pivot

    def spy(self, r, c):
        negative.append(self.rows[r][c] < 0)
        pivot(self, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", spy)
    u = gram_matrix(by_id["1.4"].law())
    a, b, c = _max_min_system(u + [u[1]], [1] * (len(u) + 1))  # a duplicated U row
    got = lp.solve_standard(a, b, c)
    assert got == dense_solve_standard(a, b, c) and got[0] == "optimal"
    assert lp.max_min_component(u + [u[1]], [1] * (len(u) + 1)) == lp.max_min_component(u, [1] * len(u))
    negative.clear()
    a, b, c = [[0, 1, -2, -2], [-1, 0, -2, 0], [-1, 3, 0, 0]], [0, 0, 2], [2, 2, -2, 0]
    got = lp.solve_standard(a, b, c)
    assert got == dense_solve_standard(a, b, c)
    assert got == ("optimal", [0, Fraction(2, 3), 0, Fraction(1, 3)], Fraction(4, 3))
    assert any(negative)
    # a seeded sweep of small systems, with redundant rows and b of both signs
    rng = random.Random(88)
    statuses, negatives = set(), 0
    for _ in range(600):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = [[rng.choice((-2, -1, 0, 0, 1, 3)) for _ in range(n)] for _ in range(m)]
        b = [rng.choice((-3, 0, 0, 2, 5)) for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            a[1], b[1] = [-2 * x for x in a[0]], -2 * b[0]
        c = [rng.randint(-2, 2) for _ in range(n)]
        negative.clear()
        got = lp.solve_standard(a, b, c)
        assert got == dense_solve_standard(a, b, c), (a, b, c)
        statuses.add(got[0])
        negatives += any(negative)
    assert statuses == {"optimal", "infeasible", "unbounded"} and negatives > 20


def _c7_random_us():
    rng = random.Random(20240)
    for _ in range(1000):
        m = rng.randint(1, 4)
        u = [[0] * m for _ in range(m)]
        for a in range(m):
            u[a][a] = rng.randint(-1, 4)
            for b in range(a + 1, m):
                u[a][b] = u[b][a] = rng.randint(-2, 3)
        yield u


def test_simplex_matches_dense(entries):
    us = {tuple(map(tuple, e.expected.u)) for e in entries if e.expected.u}
    for e in entries:
        if e.expected.witness_law:
            w = parse_law(e.expected.witness_law)
            if w.is_rational and is_nice(w).nice:
                us.add(tuple(map(tuple, gram_matrix(w))))
    assert len(us) > 50
    for u in [list(map(list, u)) for u in sorted(us)] + list(_c7_random_us()):
        rhs = [1] * len(u)
        assert lp.max_min_component(u, rhs) == dense_max_min_component(u, rhs), u


@pytest.fixture(scope="module")
def search_laws(entries):
    """(entry, law, phi, known) for every catalog law that is not nice and has rank > 0."""
    out = []
    for e in entries:
        law = e.law()
        space = derivation_space(law)
        if space.diag_basis and not is_nice(law).nice:
            out.append((e, law, pre_einstein(law, space), (series_signature(law), space)))
    return out


def test_weight_map_and_moment_map_match_dense_oracles(entries, exact_laws):
    """U from `law.weight_rows` and the moment map from `law.images` equal the
    old dense versions: the Gram matrix of the weight vectors f_k - f_i - f_j
    and the moment map summed over every entry of the ad matrices, on the
    surd witnesses too."""
    assert {e.id for e in entries} <= set(exact_laws) and any(name.startswith("g.") for name in exact_laws)
    for name, law in exact_laws.items():
        assert gram_matrix(law) == alphas_gram(law), name
        assert moment_map(law) == dense_moment_map(law), name
    witnesses = {e.expected.witness_law for e in entries if e.expected.witness_law}
    assert len(witnesses) == 14
    for text in sorted(witnesses):
        w = parse_law(text)
        m, dense = moment_map(w), dense_moment_map(w)
        assert m == dense and repr(m) == repr(dense), text
        assert gram_matrix(w) == alphas_gram(w), text


def test_weight_rows_flag_exactly_the_divergent_x(search_laws):
    rng = random.Random(1105)
    divergent = 0
    for entry, law, phi, _ in search_laws:
        lattice = g_phi_lattice(phi, law.dim)
        rows = lattice_weight_rows(law, lattice)
        assert all(any(row) for row in rows) and len(set(rows)) == len(rows)
        by_hand = {tuple(v[i - 1] + v[j - 1] - v[k - 1] for v in lattice) for i, j, k in law.brackets}
        assert set(rows) == by_hand - {(0,) * len(lattice)}, entry.id
        for _ in range(200):
            bound = rng.choice((1, 2, 4, 16))
            coeffs = [rng.randint(-bound, bound) for _ in lattice]
            x = [sum(c * v[i] for c, v in zip(coeffs, lattice)) for i in range(law.dim)]
            flagged = any(sum(c * w for c, w in zip(coeffs, row)) < 0 for row in rows)
            assert flagged == (one_param_limit(law, x).kind == "divergent"), (entry.id, coeffs)
            divergent += flagged
    assert 0 < divergent < 27 * 200
