"""The sparse structure-constant kernels against the dense reference kernels.

The dense functions below (and `oracles.dense_rref`) are the straightforward
O(n^3)-O(n^4) versions of Jacobi, the two series, the derivation equations,
row reduction and the simplex pivot.  They scan every bracket (or every
matrix entry) with Fraction arithmetic and are kept only as oracles: the
library's sparse kernels must give exactly the same residuals, series
dimensions, equation rows, Der bases, reduced matrices and LP optima, on
the LPs that have one (the series also on
seeded monomial tables, whose index-set path runs no elimination), the integer
pre-Einstein outcome the same phi (or the same reason for none) as the
Fraction one in `oracles.fraction_pre_einstein`, and phi = 0 pass at rank 0
exactly where the Engel series of `oracles.fraction_engel_flag` reaches 0.  The
kernel lattice (an echelon of [M^T | I], then the HNF of its kernel rows)
must equal the two-pass one of
`oracles.two_pass_kernel_lattice`, and the sparse basis change the dense
`oracles.dense_act`.  The integer weight rows of the degeneration cone must
flag exactly the X whose limit diverges.  On the moved catalog (each law
under three seeded shears) no law gets the opposite of its catalog verdict.
Beyond dimension 7, the filiform laws m0(n) and m2(n) (n = 8..10) match the
dense series and Der, and Der of seeded dense 2-step laws of dims 16 and 20
keeps its rank and a bounded fill.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from nilrad import linalg, lp
from nilrad.algebra import LawError, LieLaw, act, format_law, jacobi_violations, parse_law, series_signature
from nilrad.catalog import INCONCLUSIVE, CatalogEntry, classify
from nilrad.degeneration import (
    _relative_interior,
    g_phi_lattice,
    lattice_weight_rows,
    one_param_limit,
    search_degeneration,
)
from nilrad.derivations import Invariants, _columns, _derivation_rows, derivation_space
from nilrad.nicebasis import gram_matrix, is_nice
from nilrad.ricci import moment_map
from oracles import (
    alphas_gram,
    bracket_vectors,
    dense_act,
    dense_inv,
    dense_moment_map,
    dense_rref,
    densified_nullspace,
    fraction_engel_flag,
    fraction_pre_einstein,
    identity,
    is_derivation,
    moved_catalog,
    random_shears,
    rank,
    rref_kernel,
    sparse_rref,
    two_pass_kernel_lattice,
)

PROBES = (
    "dim 3; [1,2]=3; [1,3]=1",  # fails Jacobi
    "dim 3; [1,2]=2",  # solvable, not nilpotent
    "dim 4; [1,2]=3; [1,3]=4; [2,3]=4",
    "dim 3; [1,2]=2*2; [1,3]=3*-2; [2,3]=1",  # sl2: not solvable
    "dim 1",
    "dim 2",
    "dim 3; [1,2]=2*2/3+3*4/3; [1,3]=2*-1/3+3*-2/3",  # h3 in a basis whose diagonal torus is not maximal
    "dim 3; [1,2]=1*-2+2+3; [1,3]=1*2+2*-1+3*-1; [2,3]=1*4+2*-2+3*-2",  # h3 with diagonal rank 0
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


def dense_jacobi_violations(law):
    n = law.dim
    out = []
    one, zero = Fraction(1), Fraction(0)
    basis = [[one if a == i else zero for a in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vij = dense_bracket(law, i, j)
            for k in range(j + 1, n + 1):
                r1 = bracket_vectors(law, basis[i - 1], dense_bracket(law, j, k))
                r2 = bracket_vectors(law, basis[j - 1], dense_bracket(law, i, k))
                r3 = bracket_vectors(law, basis[k - 1], vij)
                res = [a - b + c for a, b, c in zip(r1, r2, r3)]
                if any(x != 0 for x in res):
                    out.append((i, j, k, res))
    return out


def dense_rref_and_nullspace(rows, ncols):
    """The reduced rows {pivot: {col: x}} of `dense_rref` on sparse rows, and the kernel basis read from them."""
    a = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    red, pivots = dense_rref(a)
    reduced = {c: {k: x for k, x in enumerate(red[r]) if x} for r, c in enumerate(pivots)}
    return reduced, rref_kernel(red, pivots, ncols)


def dense_subspace_bracket(law, a, b):
    prods = [bracket_vectors(law, u, v) for u in a for v in b]
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


@pytest.fixture(scope="module")
def exact_laws(entries):
    """Catalog laws, every fourth one moved by a seeded rational g, the probes."""
    rng = random.Random(4493)
    laws = {e.id: e.law() for e in entries}
    for e in entries[::4]:
        laws[f"g.{e.id}"] = act(random_shears(rng, 7), laws[e.id])
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


def _d_kl_rows(law):
    """`_derivation_rows` with each column read back through `_columns` to its D_kl index (k-1)*n + (l-1)."""
    col = _columns(law.dim)
    return [{col[c]: v for c, v in row.items()} for row in _derivation_rows(law)]


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
    witnesses = {e.expected.witness_law for e in entries if e.expected.witness_law is not None}
    surds = [w for w in sorted(witnesses, key=format_law) if not w.is_rational]
    assert len(surds) >= 10
    for w in surds:
        assert jacobi_violations(w) == dense_jacobi_violations(w) == []
        broken = _broken(w, rng)
        assert jacobi_violations(broken) == dense_jacobi_violations(broken)


def test_series_matches_dense(exact_laws):
    for name, law in exact_laws.items():
        sig = series_signature(law)
        assert (sig.derived_dims, sig.lcs_dims) == dense_series_signature(law), name


def _monomial_law(rng, n):
    """A seeded bracket table on n basis vectors with each image one basis vector, Jacobi not required.

    A fifth of the tables are abelian, a fifth solvable and not nilpotent
    ([e_1, e_j] = c e_j), a fifth nilpotent (each image above its pair), a
    fifth neither (so(3) on e_1, e_2, e_3 when n >= 3), each with random
    index-raising brackets on top; the rest are random.
    """
    kind = rng.randrange(5)
    so3 = kind == 3 and n >= 3
    brackets = {(1, 2, 3): Fraction(1), (1, 3, 2): Fraction(-1), (2, 3, 1): Fraction(1)} if so3 else {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if kind == 0 or (so3 and j <= 3) or rng.random() < 0.6:
                continue
            if kind == 1 and i == 1:
                k = j
            elif kind < 4 or rng.random() < 0.5:
                if j == n:
                    continue
                k = rng.randint(j + 1, n)
            else:
                k = rng.randint(1, n)
            brackets[(i, j, k)] = Fraction(rng.choice((-3, -1, 1, 2, 7)), rng.choice((1, 1, 2, 5)))
    return LieLaw(n, brackets)


def test_series_on_monomial_laws_is_index_sets(monkeypatch):
    """On seeded monomial bracket tables of dims 1-9 (abelian, nilpotent,
    solvable and not nilpotent, neither) the series dimensions are those of
    the dense oracle, and computing them runs no elimination.  A monomial law
    with a `sqrt` constant is refused before either path runs."""
    rng = random.Random(2718)
    laws = [_monomial_law(rng, rng.randint(1, 9)) for _ in range(600)]
    with monkeypatch.context() as mp:
        for name in ("integer_rref", "integer_echelon"):
            mp.setattr(linalg, name, lambda rows: pytest.fail("a monomial law was row-reduced"))
        sigs = [series_signature(law) for law in laws]
        with pytest.raises(LawError, match="requires a rational law"):
            series_signature(parse_law("dim 3; [1,2]=3*sqrt(2)"))
    kinds = Counter()
    for law, sig in zip(laws, sigs):
        assert (sig.derived_dims, sig.lcs_dims) == dense_series_signature(law), format_law(law)
        solvable = sig.derived_dims[-1] == 0
        kind = "nilpotent" if sig.nilpotent else "solvable" if solvable else "neither"
        kinds["abelian" if not law.brackets else kind] += 1
    assert min(kinds.values()) > 60 and len(kinds) == 4, kinds


def test_derivation_rows_and_basis_match_dense(exact_laws):
    for name, law in exact_laws.items():
        rows = dense_derivation_rows(law)
        assert _rows_key(_d_kl_rows(law)) == _rows_key(rows), name
        dense_basis = densified_nullspace(rows, law.dim**2)
        n = law.dim
        assert derivation_space(law).basis == tuple(
            tuple(tuple(v[k * n + l] for l in range(n)) for k in range(n)) for v in dense_basis
        ), name


def _free_entries(law: LieLaw, basis) -> list[int]:
    """The free entry (k-1)*n + (l-1) of each Der basis matrix, its last nonzero entry; asserts that
    it holds 1, that every other free entry holds 0, and that there are n^2 - rank of them."""
    n = law.dim
    cells = [{k * n + l: x for k, row in enumerate(d) for l, x in enumerate(row) if x} for d in basis]
    free = [max(cell) for cell in cells]
    assert len(set(free)) == len(free) == n * n - len(linalg.integer_rref(_derivation_rows(law)))
    assert all(cell[f] == 1 and not (cell.keys() - {f}) & set(free) for cell, f in zip(cells, free))
    return free


def test_der_vectors_are_integral_derivations(exact_laws):
    """Each Der basis matrix has 1 at its own free entry and 0 at every other free entry, there
    are n^2 - rank of them, and each, cleared of its denominators, is an integral derivation:
    on the catalog laws, the seeded basis changes and the probes."""
    for name, law in exact_laws.items():
        basis = derivation_space(law).basis
        _free_entries(law, basis)
        for d in basis:
            den = math.lcm(*(x.denominator for row in d for x in row))
            assert is_derivation(law, [[int(x * den) for x in row] for row in d]), name


def test_pre_einstein_matches_fraction_oracle(exact_laws):
    """phi from the fraction-free Gram solve and the integer-weight trace check,
    or the reason for none, equals the Fraction oracle's: on the catalog, the
    seeded basis changes and the probes, three of which are not adapted."""
    outcomes = {}
    for name, law in exact_laws.items():
        got = outcomes[name] = Invariants(law).phi
        assert got == fraction_pre_einstein(Invariants(law)), name
        assert isinstance(got, str) or all(type(v) is Fraction for v in got), name
    assert [name for name in PROBES if outcomes[name] == "basis_not_adapted"] == [PROBES[2], PROBES[6], PROBES[7]]
    kinds = Counter(got if isinstance(got, str) else tuple for got in outcomes.values())
    assert kinds["rank_zero"] >= 8 and kinds["basis_not_adapted"] > 2 and kinds[tuple] >= 128


def _dense_two_step(rng, gens: int, n: int) -> LieLaw:
    """A 2-step law: each pair of the first `gens` basis vectors brackets to a combination
    of every other basis vector, with seeded nonzero integer constants."""
    pairs = [(i, j) for i in range(1, gens + 1) for j in range(i + 1, gens + 1)]
    return LieLaw(n, {(i, j, k): Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for i, j in pairs for k in range(gens + 1, n + 1)})


def test_der_of_dense_two_step_laws_matches_dense():
    """On seeded dense 2-step laws of dims 8 and 9, dim Der is n^2 minus the dense oracle's
    rank of the derivation equations, and phi, or the reason for none, is the Fraction
    oracle's: with 4 or 5 generators phi is a multiple of the grading (1 on V, 2 on [V, V]);
    with 3 generators and a 5-dim centre, 2 of it outside [g, g], the diagonal torus is
    not maximal."""
    rng = random.Random(1105)
    outcomes = []
    for gens, n in ((4, 8), (5, 9), (3, 8)):
        law = _dense_two_step(rng, gens, n)
        dense = [[row.get(c, Fraction(0)) for c in range(n * n)] for row in dense_derivation_rows(law)]
        inv = Invariants(law)
        assert inv.dim_der == n * n - rank(dense), (gens, n)
        assert inv.phi == fraction_pre_einstein(Invariants(law)), (gens, n)
        outcomes.append(inv.phi if isinstance(inv.phi, str) else (len(set(inv.phi)), inv.phi[-1] / inv.phi[0]))
    assert outcomes == [(2, 2), (2, 2), "basis_not_adapted"]


def _seeded_two_step(n: int, seed: int) -> LieLaw:
    """A dense 2-step law: each pair of the first n // 2 basis vectors brackets to every other
    basis vector, with the constants of `random.Random(seed).randint(-3, 3)` (a 0 drops the term)."""
    rng, gens = random.Random(seed), n // 2
    brackets = {}
    for i in range(1, gens + 1):
        for j in range(i + 1, gens + 1):
            for k in range(gens + 1, n + 1):
                if c := rng.randint(-3, 3):
                    brackets[(i, j, k)] = Fraction(c)
    return LieLaw(n, brackets)


def test_der_scales_on_dense_two_step_laws():
    """The Der equations pivot from the top of the filtration, counted, not timed: on the
    seeded dense 2-step laws of dim 16 (seeds 1, 2), dim Der is 65, n^2 minus the rank of
    the same rows eliminated in D_kl order; on that of dim 20 (seed 1), dim Der is 101 and
    the echelon form holds at most 9,000 nonzeros (14,453 in D_kl order)."""
    for seed in (1, 2):
        law = _seeded_two_step(16, seed)
        assert len(derivation_space(law).kernel) == 65 == 16 * 16 - len(linalg.integer_echelon(_d_kl_rows(law))), seed
    kernel = derivation_space(_seeded_two_step(20, 1)).kernel
    assert len(kernel) == 101
    assert sum(map(len, kernel.echelon.values())) <= 9000


def _filiform(n: int, second: bool) -> LieLaw:
    """m0(n), [e_1, e_i] = e_{i+1}; with `second`, m2(n), which adds [e_2, e_i] = e_{i+2}."""
    terms = [f"[1,{i}]={i + 1}" for i in range(2, n)]
    if second:
        terms += [f"[2,{i}]={i + 2}" for i in range(3, n - 1)]
    return parse_law(f"dim {n}; " + "; ".join(terms))


@pytest.mark.parametrize("n", (8, 9, 10))
@pytest.mark.parametrize("family", ("m0", "m2"))
def test_filiform_families_beyond_dim_7_match_dense(family, n):
    """m0(n) and m2(n) for n = 8..10 satisfy Jacobi, their series and dim Der are those of
    the dense oracles, and every Der basis matrix is a derivation with 1 at its own free entry
    and 0 at every other.  No verdict is asserted."""
    law = _filiform(n, family == "m2")
    assert jacobi_violations(law) == []
    sig = series_signature(law)
    assert (sig.derived_dims, sig.lcs_dims) == dense_series_signature(law)
    dense = [[row.get(c, Fraction(0)) for c in range(n * n)] for row in dense_derivation_rows(law)]
    space = derivation_space(law)
    assert len(space.kernel) == len(space.basis) == len(_free_entries(law, space.basis)) == n * n - rank(dense)
    for d in space.basis:
        assert is_derivation(law, d), d


def test_rank_zero_matches_engel_oracle(exact_laws, entries):
    """phi = 0 passes the check against Der (route `rank_zero`) on exactly the
    laws whose dense Engel series of Der reaches 0, and those are the catalog
    laws recorded at rank 0 (Der nilpotent), whatever the basis."""
    flags = {}
    for name, law in exact_laws.items():
        flags[name] = fraction_engel_flag(derivation_space(law))
        assert list(flags[name]) == sorted(set(flags[name]), reverse=True) and flags[name][0] == law.dim, name
        assert (Invariants(law).phi == "rank_zero") == (flags[name][-1] == 0), name
    rank_zero = {e.id for e in entries if e.expected.rank == 0}
    assert len(rank_zero) == 8
    nilpotent = {name.removeprefix("g.") for name, flag in flags.items() if flag[-1] == 0 and name not in PROBES}
    assert nilpotent == rank_zero and any(f"g.{eid}" in flags for eid in rank_zero)
    assert flags[PROBES[7]] == (3,)  # h3 of diagonal rank 0: Der is not nilpotent, the series stalls at once


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


def _unit_rows(rows, ncols, rng):
    """One-entry rows to add to `rows`: on columns of longer rows, every column
    of some row (which they empty), and repeats with other nonzero values."""
    units = []
    for row in rows:
        cols = sorted(row)
        pick = rng.random()
        if pick < 0.3:
            units += [{c: Fraction(rng.choice((-3, 1, 2)), rng.choice((1, 4)))} for c in cols]
        elif pick < 0.7:
            units.append({rng.choice(cols): Fraction(rng.choice((-2, -1, 3)), rng.choice((1, 5)))})
    units += [{c: -2 * v} for u in units[:2] for c, v in u.items()]
    if rng.random() < 0.3:
        units.append({rng.randrange(ncols): Fraction(7, 3)})
    return units


def test_integer_eliminator_on_rational_rows():
    """Non-integer entries, rows that are rational multiples of one another and
    negative leading entries: the fraction-free kernel gives the dense rational
    reduced form and kernel."""
    rng = random.Random(1307)
    negative_lead = multiples = 0
    for _ in range(400):
        rows, ncols = _rational_rows(rng)
        reduced, kernel = dense_rref_and_nullspace(rows, ncols)
        assert sparse_rref(rows) == reduced, rows
        assert densified_nullspace(rows, ncols) == kernel, rows
        assert all(row[c] > 0 and math.gcd(*row.values()) == 1 for c, row in linalg.integer_rref(rows).items())
        negative_lead += any(row[min(row)] < 0 for row in rows)
        multiples += len(reduced) < len(rows)
    assert negative_lead > 100 and multiples > 100
    # one-entry rows are taken as pivots {c: 1} before elimination: repeated
    # ones, ones on columns of longer rows, and ones that empty another row
    repeated = shared = emptied = 0
    for _ in range(400):
        rows, ncols = _rational_rows(rng)
        units = _unit_rows(rows, ncols, rng)
        unit_cols = [c for u in units for c in u]
        rows = rows + units
        rng.shuffle(rows)
        reduced, kernel = dense_rref_and_nullspace(rows, ncols)
        assert sparse_rref(rows) == reduced, rows
        assert densified_nullspace(rows, ncols) == kernel, rows
        assert all(row[c] > 0 and math.gcd(*row.values()) == 1 for c, row in linalg.integer_rref(rows).items())
        repeated += len(set(unit_cols)) < len(unit_cols)
        shared += any(len(r) > 1 and set(r) & set(unit_cols) for r in rows)
        emptied += any(len(r) > 1 and set(r) <= set(unit_cols) for r in rows)
    assert repeated > 100 and shared > 100 and emptied > 50
    # explicit zeros, as the Gram system can hand over:
    # zero entries in longer rows, one-entry zero rows {c: 0} (also on the
    # two columns that no row names with a nonzero) and all-zero rows; a zero
    # is never a pivot, nor an entry of a reduced row
    padded = zero_units = all_zero = 0
    for _ in range(400):
        rows, ncols = _rational_rows(rng)
        rows = rows + _unit_rows(rows, ncols, rng)
        ncols += 2
        zeros = ({c: rng.choice((0, Fraction(0))) for c in rng.sample(range(ncols), 2)} for _ in rows)
        rows = [{**zero, **row} for zero, row in zip(zeros, rows)]
        rows += [{c: 0} for c in rng.sample(range(ncols), rng.randint(0, 3))] + [{ncols - 1: Fraction(0)}]
        rows += [{c: 0 for c in rng.sample(range(ncols), k)} for k in rng.sample(range(4), rng.randint(0, 2))]
        rng.shuffle(rows)
        reduced, kernel = dense_rref_and_nullspace(rows, ncols)
        assert sparse_rref(rows) == reduced, rows
        assert densified_nullspace(rows, ncols) == kernel, rows
        got, live = linalg.integer_rref(rows), {c for r in rows for c, v in r.items() if v}
        assert all(row[c] > 0 and all(row.values()) and math.gcd(*row.values()) == 1 for c, row in got.items())
        assert got.keys() <= live, rows
        padded += any(len(r) > 1 and 0 in r.values() and any(r.values()) for r in rows)
        zero_units += any(len(r) == 1 and not any(r.values()) and r.keys() <= live for r in rows)
        all_zero += any(len(r) > 1 and not any(r.values()) for r in rows)
    assert padded > 300 and zero_units > 100 and all_zero > 100


def test_derivation_basis_matches_dense_on_rational_laws(entries, exact_laws):
    """Der from the integer kernel against the dense Fraction kernel on 1.3(ii),
    whose law has a non-integer constant, the seeded basis changes, and laws
    moved by a seeded g with non-integer entries."""
    assert any(c.denominator != 1 for c in exact_laws["1.3(ii)"].brackets.values())
    laws = {name: law for name, law in exact_laws.items() if name == "1.3(ii)" or name.startswith("g.")}
    rng = random.Random(611)
    for e in entries[1::12]:
        g = identity(7)
        for a, b in rng.sample([(a, b) for a in range(7) for b in range(7) if a != b], 3):
            g[a][b] = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((2, 3, 5)))
        laws[f"q.{e.id}"] = act(g, e.law())
    rational = sum(any(c.denominator != 1 for c in law.brackets.values()) for law in laws.values())
    assert len(laws) > 40 and rational > 10
    for name, law in laws.items():
        n = law.dim
        reduced, kernel = dense_rref_and_nullspace(dense_derivation_rows(law), n * n)
        assert sparse_rref(_d_kl_rows(law)) == reduced, name
        assert derivation_space(law).basis == tuple(
            tuple(tuple(v[k * n + l] for l in range(n)) for k in range(n)) for v in kernel
        ), name


def test_solve_standard_redundant_rows_and_negative_cleanup(by_id, monkeypatch):
    """Equal x and value to the dense rational simplex when an equality row is
    redundant and when driving out a leftover artificial pivots on a negative
    entry (the only pivot that can be negative).  The LP's guards fail on the
    draws the dense simplex finds infeasible or unbounded."""
    negative = []
    pivot = lp._Tableau.pivot

    def spy(self, r, c):
        negative.append(self.rows[r][c] < 0)
        pivot(self, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", spy)
    u = gram_matrix(by_id["1.4"].law())
    a, b, c = _max_min_system(u + [u[1]], [1] * (len(u) + 1))  # a duplicated U row
    assert ("optimal", *lp.solve_standard(a, b, c)) == dense_solve_standard(a, b, c)
    assert lp.max_min_component(u + [u[1]], [1] * (len(u) + 1)) == lp.max_min_component(u, [1] * len(u))
    negative.clear()
    a, b, c = [[0, 1, -2, -2], [-1, 0, -2, 0], [-1, 3, 0, 0]], [0, 0, 2], [2, 2, -2, 0]
    got = lp.solve_standard(a, b, c)
    assert ("optimal", *got) == dense_solve_standard(a, b, c)
    assert got == ([0, Fraction(2, 3), 0, Fraction(1, 3)], Fraction(4, 3))
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
        dense = dense_solve_standard(a, b, c)
        if dense[0] == "optimal":
            assert ("optimal", *lp.solve_standard(a, b, c)) == dense, (a, b, c)
        else:
            with pytest.raises(AssertionError, match=dense[0]):
                lp.solve_standard(a, b, c)
        statuses.add(dense[0])
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
        w = e.expected.witness_law
        if w is not None and w.is_rational and is_nice(w).nice:
            us.add(tuple(map(tuple, gram_matrix(w))))
    assert len(us) > 50
    infeasible = 0
    for u in [list(map(list, u)) for u in sorted(us)] + list(_c7_random_us()):
        rhs = [1] * len(u)
        dense = dense_max_min_component(u, rhs)
        if dense[0] == "infeasible":  # the U of no weight map
            with pytest.raises(AssertionError, match="infeasible"):
                lp.max_min_component(u, rhs)
            infeasible += 1
        else:
            assert ("optimal", *lp.max_min_component(u, rhs)) == dense, u
    assert infeasible == 74


def test_solve_standard_start_basis_guards():
    """A start basis has one column per row, is nonsingular in that row order and is feasible."""
    a, b, c = [[1, 1, 1, 0], [2, 2, 0, 1]], [2, 3], [1, 0, 0, 0]
    assert lp.solve_standard(a, b, c, [2, 3]) == ([0, 0, 2, 3], 0)  # already optimal: no phase 2 pivot
    assert lp.solve_standard(a, b, c, [1, 2]) == ([0, Fraction(3, 2), Fraction(1, 2), 0], 0)  # a pivot of -2
    with pytest.raises(AssertionError, match="one column per row"):
        lp.solve_standard(a, b, c, [2])
    with pytest.raises(AssertionError, match="singular start basis"):
        lp.solve_standard(a, b, c, [0, 1])  # column 1 is column 0 again
    with pytest.raises(AssertionError, match="infeasible start basis"):
        lp.solve_standard(a, b, c, [0, 3])  # x_0 = 2 leaves x_3 = -1


def _relative_interior_lps(monkeypatch, run):
    """(a, b, c, basis) of every LP that run() solves from a start basis: the walk's relative-interior LPs."""
    lps, solve = [], lp.solve_standard

    def record(a, b, c, basis=None):
        if basis is not None:
            lps.append((a, b, c, basis))
        return solve(a, b, c, basis)

    with monkeypatch.context() as mp:
        mp.setattr(lp, "solve_standard", record)
        run()
    return lps


def _assert_forced_phase_1(monkeypatch, a, b, c, basis):
    """Bland's phase 1 pivots w_0..w_{m-1}, then s_0..s_{m-1}, then v_0..v_{m-1}, each on a pivot of 1.

    Started from `basis` instead, the solve pivots s and v in and then makes
    the same phase 2 pivots, to the same (x, value) as the dense simplex.
    """
    m = len(a) // 2
    pivots, pivot = [], lp._Tableau.pivot

    def spy(self, r, col):
        pivots.append((r, col, self.rows[r][col]))
        pivot(self, r, col)

    with monkeypatch.context() as mp:
        mp.setattr(lp._Tableau, "pivot", spy)
        two_phase = lp.solve_standard(a, b, c)
        phase_1, phase_2 = pivots[: 3 * m], pivots[3 * m :]
        pivots.clear()
        started = lp.solve_standard(a, b, c, basis)
    w = [(i, i, 1) for i in range(m)]
    s = [(i, m + i, 1) for i in range(m)]
    v = [(m + i, 2 * m + i, 1) for i in range(m)]
    assert phase_1 == w + s + v, a
    assert basis == [*range(m, 3 * m)] and pivots == s + v + phase_2, a
    assert two_phase == started and ("optimal", *started) == dense_solve_standard(a, b, c), a


def _random_nilpotent_law(rng):
    """A seeded law [i,j] = c e_k with k > j on 3 <= n <= 8 basis vectors, Jacobi not required."""
    n = rng.randint(3, 8)
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                brackets[(i, j, rng.randint(j + 1, n))] = Fraction(rng.choice((-2, -1, 1, 1, 2)))
    return LieLaw(n, brackets)


def test_relative_interior_phase_1_is_forced(search_laws, monkeypatch):
    """On the catalog's relative-interior LPs, on those of seeded random nilpotent laws and on
    seeded random R, phase 1 ends at the start basis the walk passes: phase 2 is unchanged."""

    def catalog():
        for _, law, _ in search_laws:
            search_degeneration(Invariants(law))

    def random_laws():
        rng = random.Random(3301)
        for _ in range(800):
            law = _random_nilpotent_law(rng)
            if not jacobi_violations(law):
                inv = Invariants(law)
                if inv.rank and not inv.nice.nice and not isinstance(inv.phi, str):
                    search_degeneration(inv)

    def random_rows():
        rng = random.Random(5209)
        for _ in range(60):
            r = rng.randint(1, 4)
            rows = {tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(1, 7))}
            rows.discard((0,) * r)
            if rows:
                _relative_interior(sorted(rows))

    counts = []
    for run in (catalog, random_laws, random_rows):
        lps = _relative_interior_lps(monkeypatch, run)
        for a, b, c, basis in lps:
            _assert_forced_phase_1(monkeypatch, a, b, c, basis)
        counts.append(len(lps))
    assert counts == [10, 31, 60], counts


@pytest.fixture(scope="module")
def search_laws(entries):
    """(entry, law, phi) for every catalog law that is not nice and has rank > 0."""
    out = []
    for e in entries:
        inv = Invariants(e.law())
        if inv.rank and not inv.nice.nice:
            out.append((e, inv.law, inv.phi))
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
    witnesses = {e.expected.witness_law for e in entries if e.expected.witness_law is not None}
    assert len(witnesses) == 14
    for w in sorted(witnesses, key=format_law):
        m, dense = moment_map(w), dense_moment_map(w)
        assert m == dense and repr(m) == repr(dense), format_law(w)
        assert gram_matrix(w) == alphas_gram(w), format_law(w)


def test_weight_rows_flag_exactly_the_divergent_x(search_laws):
    rng = random.Random(1105)
    divergent = 0
    for entry, law, phi in search_laws:
        lattice = g_phi_lattice(phi, law.dim)
        rows = lattice_weight_rows([law.weights(v) for v in lattice])
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


def test_kernel_lattice_matches_two_pass_oracle(entries):
    """The echelon of [M^T | I] and the HNF of the kernel rows it leaves give
    the lattice of the HNF-with-transform pass and the HNF of its kernel rows:
    on every catalog weight map, every g_phi lattice and seeded random integer
    matrices, empty kernels included."""
    mats = []
    for e in entries:
        inv = Invariants(e.law())
        mats.append(inv.law.weight_rows)
        phi = inv.phi
        if not isinstance(phi, str):
            den = math.lcm(*(v.denominator for v in phi))
            mats.append([[1] * inv.law.dim, [int(v * den) for v in phi]])
            assert g_phi_lattice(phi, inv.law.dim) == two_pass_kernel_lattice(mats[-1]), e.id
    assert len(mats) == 264  # 136 weight maps, 128 g_phi lattices
    rng = random.Random(12)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 8)
        bound = rng.choice((1, 3, 9))
        mats.append([[rng.choice((0, 0, rng.randint(-bound, bound))) for _ in range(n)] for _ in range(m)])
    sizes = Counter()
    for mat in mats:
        got = linalg.kernel_lattice(mat)
        assert got == two_pass_kernel_lattice(mat), mat
        sizes[min(len(got), 2)] += 1
    assert sizes[0] > 20 and sizes[1] > 20 and sizes[2] > 200


def test_act_matches_dense_oracle(entries):
    """The sparse basis change gives the dense one's law, bracket order and
    Fraction coefficients, for seeded integer and Fraction g; a singular g
    raises LawError."""
    rng = random.Random(407)
    moved = singular = 0
    for e in entries[::3]:
        law = e.law()
        for denominators in ((1,), (1, 2, 3, 5)):  # ints only, then Fractions among them
            g = [[int(a == b) for b in range(law.dim)] for a in range(law.dim)]
            for a, b in rng.sample([(a, b) for a in range(law.dim) for b in range(law.dim)], 5):
                v, d = rng.choice((-3, -1, 0, 1, 2)), rng.choice(denominators)
                g[a][b] = v if d == 1 else Fraction(v, d)
            if dense_inv(g) is None:
                singular += 1
                with pytest.raises(LawError, match="singular"):
                    act(g, law)
                continue
            got, want = act(g, law), dense_act(g, law)
            assert list(got.brackets.items()) == list(want.brackets.items()), (e.id, g)
            assert all(type(c) is Fraction for c in got.brackets.values()), e.id
            moved += got != law
    assert moved > 60 and singular > 0
    singular = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
    with pytest.raises(LawError, match="singular"):
        act(singular, parse_law("dim 3; [1,2]=3"))


@pytest.mark.parametrize("seed", [None, 7, 11, 13])
def test_nonsingular_gate_is_full_rank_of_u_and_one(entries, seed):
    """The gate of the nice route's exact solve, dim - rank stored triples, holds
    exactly when [U | 1] has full row rank, on the catalog (seed None) and on
    the moved catalog of `test_moved_catalog_never_gets_the_opposite_verdict`."""
    laws = [e.law() for e in entries] if seed is None else [law for _, law in moved_catalog(entries, seed)]
    gated = 0
    for law in laws:
        u = gram_matrix(law)
        s = len(u)
        full = len(linalg.integer_rref([{**dict(enumerate(row)), s: 1} for row in u])) == s
        gate = s == law.dim - Invariants(law).rank
        assert gate == full, format_law(law)
        gated += gate
    assert gated > (60 if seed is None else 3), gated  # 63 catalog laws; 4, 20 and 8 moved ones


@pytest.mark.parametrize("seed", [7, 11, 13])
def test_moved_catalog_never_gets_the_opposite_verdict(entries, seed):
    """Each catalog law moved by three seeded shears gets its catalog verdict or
    INCONCLUSIVE, never the opposite one, and classify raises nothing.  Der is
    nilpotent, hence traceless, in every basis, so exactly the catalog's
    rank-zero laws keep their certified NOT_EN via `rank_zero` (phi = 0);
    every other law of diagonal rank 0 is `basis_not_adapted`."""
    routes = {}
    for e, law in moved_catalog(entries, seed):
        rep = classify(CatalogEntry(e.id, {}, format_law(law), None, parsed=law))
        assert rep.verdict in (e.expected.verdict, INCONCLUSIVE), (e.id, rep.route)
        routes[e.id] = rep.route
    assert {eid for eid, route in routes.items() if route == "rank_zero"} == {
        e.id for e in entries if e.expected.rank == 0
    }
    assert sum(route == "basis_not_adapted" for route in routes.values()) > 100
