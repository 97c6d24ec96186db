"""The sparse structure-constant kernels against the dense reference kernels.

The dense functions below are the straightforward O(n^3)-O(n^4) versions
of Jacobi, the two series, the derivation equations, row reduction and the
simplex pivot.  They scan every bracket (or every matrix entry) with
Fraction arithmetic and are kept here only as oracles: the library's sparse
kernels must give exactly the same residuals, series dimensions, equation
rows, Der bases, reduced matrices and LP solutions.  The degeneration
search's oracle builds every sampled X and runs `in_g_phi` and
`one_param_limit` on it; the library's integer weight-row filter must find
the same witness for every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nilrad import linalg, lp
from nilrad.algebra import act, jacobi_violations, parse_law, series_signature
from nilrad.degeneration import (
    DegenerationWitness,
    distinguish,
    g_phi_lattice,
    in_g_phi,
    lattice_weight_rows,
    one_param_limit,
    search_degeneration,
)
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
    zero = Fraction(0) if law.is_exact else 0.0
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
    zero = Fraction(0) if law.is_exact else 0.0
    out = [zero] * law.dim
    for (a, b, k), c in law.brackets.items():
        coef = u[a - 1] * v[b - 1] - u[b - 1] * v[a - 1]
        if coef:
            out[k - 1] += coef * c
    return out


def dense_jacobi_violations(law):
    n = law.dim
    out = []
    one, zero = (Fraction(1), Fraction(0)) if law.is_exact else (1.0, 0.0)
    basis = [[one if a == i else zero for a in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vij = dense_bracket(law, i, j)
            for k in range(j + 1, n + 1):
                r1 = dense_bracket_vectors(law, basis[i - 1], dense_bracket(law, j, k))
                r2 = dense_bracket_vectors(law, basis[j - 1], dense_bracket(law, i, k))
                r3 = dense_bracket_vectors(law, basis[k - 1], vij)
                res = [a - b + c for a, b, c in zip(r1, r2, r3)]
                if law.is_exact:
                    bad = any(x != 0 for x in res)
                else:
                    bad = any(abs(x) > law.tol for x in res)
                if bad:
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


class DenseTableau(lp._Tableau):
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


def dense_max_min_component(u, rhs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_Tableau", DenseTableau)
        mp.setattr(lp, "_simplex", dense_simplex)
        return lp.max_min_component(u, rhs)


def dense_search_degeneration(law, phi, trials, seed, extra_pool=(), coeff_bound=4, known=None):
    """The unfiltered sampling loop: build every X, then in_g_phi and one_param_limit."""
    lattice = g_phi_lattice(phi, law.dim)
    rng = random.Random(seed)
    seen = set()
    checked_limits = {}

    def consider(xvec):
        nonlocal known
        key = tuple(xvec)
        if key in seen or not any(xvec):
            return None
        seen.add(key)
        if not in_g_phi(xvec, phi):
            return None
        res = one_param_limit(law, xvec)
        if res.kind == "divergent":
            return None
        if res.kind == "zero":
            return DegenerationWitness(tuple(Fraction(v) for v in xvec), res, None)
        if res.law == law:
            return None
        lim_key = tuple(sorted(res.law.brackets.items()))
        if lim_key in checked_limits:
            dist = checked_limits[lim_key]
        else:
            if known is None:
                known = (series_signature(law), derivation_space(law))
            dist = distinguish(law, res.law, known)
            checked_limits[lim_key] = dist
        if dist is not None:
            return DegenerationWitness(tuple(Fraction(v) for v in xvec), res, dist)
        return None

    for cand in extra_pool:
        hit = consider(list(cand))
        if hit is not None:
            return hit
    if not lattice:
        return None
    r = len(lattice)
    for trial in range(trials):
        bound = coeff_bound * (1 + trial % 4)
        coeffs = [rng.randint(-bound, bound) for _ in range(r)]
        xvec = [sum(coeffs[p] * lattice[p][i] for p in range(r)) for i in range(law.dim)]
        hit = consider(xvec)
        if hit is not None:
            return hit
    return None


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
    return type(law)(law.dim, brackets, law.scalar_kind, law.tol)


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


def test_jacobi_matches_dense_on_float_witnesses(entries):
    rng = random.Random(23)
    witnesses = {e.expected.witness_law for e in entries if e.expected.witness_law}
    floats = [parse_law(w) for w in sorted(witnesses)]
    floats = [w for w in floats if not w.is_exact]
    assert len(floats) >= 10
    for w in floats:
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
            if w.is_exact and is_nice(w).nice:
                us.add(tuple(map(tuple, gram_matrix(w))))
    assert len(us) > 50
    for u in [list(map(list, u)) for u in sorted(us)] + list(_c7_random_us()):
        frac = [[Fraction(v) for v in row] for row in u]
        rhs = [Fraction(1)] * len(u)
        assert lp.max_min_component(frac, rhs) == dense_max_min_component(frac, rhs), u


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


def test_search_matches_unfiltered_loop(search_laws):
    assert len(search_laws) == 27
    hits = 0
    for entry, law, phi, known in search_laws:
        degen = entry.expected.degeneration
        pools = [()]
        if degen is not None and degen.x is not None:
            pools.append((degen.x,))
        for pool in pools:
            for seed in range(5):
                got = search_degeneration(law, phi, 400, seed, extra_pool=pool, known=known)
                assert got == dense_search_degeneration(law, phi, 400, seed, extra_pool=pool, known=known), (
                    entry.id, seed, pool,
                )
                hits += got is not None
    assert hits > 10  # the comparison covers witnesses, not only misses


def test_weight_map_and_moment_map_match_dense_oracles(entries, exact_laws):
    """U from `law.weight_rows` and the moment map from `law.images` equal the
    old dense versions: the Gram matrix of the weight vectors f_k - f_i - f_j
    and the moment map summed over every entry of the ad matrices.  On the
    float witnesses the moment maps agree bit for bit."""
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
