"""Reference checks used only by the test suite.

Each one decides a question the library answers by other means (an
exponential enumeration, a dense recomputation), so a test can compare the
two.  They are deliberately simple and slow, and nilrad itself never calls
them.  The dense basis change (`dense_act`, on `bracket_vectors`) lives here
too, and so do the exact rational rotations of the moment-map equivariance
tests (`cayley_rotation`): every check compares with ==, never within a
tolerance.
The token-scanner law parser (`scanner_parse_law`) is the reference that
`algebra.parse_law`, which matches statements with patterns, is compared with.
The linear-algebra oracles (`rank`, `in_span`, `nullspace`, `dense_solve`,
`dense_inv` and everything built on them) run on `dense_rref`, a textbook
Fraction elimination, never on `linalg.integer_rref`, the one eliminator
of the library they check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence

from nilrad import linalg
from nilrad.algebra import LawError, LieLaw, Surd, Triple, jacobi_violations
from nilrad.degeneration import LimitResult
from nilrad.derivations import DerivationSpace, Invariants


def bracket_vectors(law: LieLaw, u: Sequence, v: Sequence) -> list:
    """[u, v] for dense coordinate vectors u, v: the bilinear extension over every stored bracket, in sorted order."""
    out = [Fraction(0)] * law.dim
    for (a, b, k), c in sorted(law.brackets.items()):
        coef = u[a - 1] * v[b - 1] - u[b - 1] * v[a - 1]
        if coef:
            out[k - 1] += coef * c
    return out


def dense_act(g: list[list], law: LieLaw) -> LieLaw:
    """(g . mu)(x, y) = g mu(g^{-1} x, g^{-1} y) over Q, dense: the reference for `algebra.act`.

    g^{-1} e_i and g^{-1} e_j are bracketed by `bracket_vectors`, and g is applied by a matrix product.
    """
    gm = [[Fraction(x) for x in row] for row in g]
    ginv = dense_inv(gm)
    if ginv is None:
        raise LawError("singular matrix in dense_act()")
    n = law.dim
    cols = transpose(ginv)
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = bracket_vectors(law, cols[i - 1], cols[j - 1])
            img = [sum(gm[a][b] * w[b] for b in range(n)) for a in range(n)]
            brackets.update(((i, j, k), c) for k, c in enumerate(img, 1) if c)
    return LieLaw(n, brackets)


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def cayley_rotation(rng, n: int, flip: bool = False) -> list[list[Fraction]]:
    """An exact orthogonal q: the Cayley transform (I - A)(I + A)^{-1} of a seeded skew-symmetric
    rational A (I + A is never singular), times diag(-1, 1, ..., 1) when `flip`, so det q = -1."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            a[j][i] = -a[i][j]
    i_minus, i_plus = ([[e + s * x for e, x in zip(er, ar)] for er, ar in zip(identity(n), a)] for s in (-1, 1))
    q = matmul(i_minus, dense_inv(i_plus))
    return [[-x for x in q[0]], *q[1:]] if flip else q


def bracket(law: LieLaw, i: int, j: int) -> list:
    """Coordinates of [e_i, e_j] (any i, j; antisymmetry applied)."""
    v = [Fraction(0)] * law.dim
    for k, c in law.images.get((i, j), {}).items():
        v[k - 1] = c
    return v


def ad(law: LieLaw, p: int) -> list[list]:
    """Matrix of ad(e_p) = [e_p, .] in the standard basis."""
    return transpose([bracket(law, p, j) for j in range(1, law.dim + 1)])


def dense_moment_map(law: LieLaw) -> tuple[tuple, ...]:
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
    return tuple(tuple(row) for row in m)


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


def dense_rref(a: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by dense Fraction row operations; returns (rows, pivot columns)."""
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


def rref_kernel(red: list[list], pivots: list[int], ncols: int) -> list[list[Fraction]]:
    """The kernel basis read from a reduced form: one vector per free column f, 1 at f and -red[r][f] at pivot r."""
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        out.append(v)
    return out


def dense_solve(a: list[list], b: Sequence) -> list[Fraction] | None:
    """One solution of a x = b from `dense_rref` of [a | b], free columns 0; None when inconsistent."""
    n = len(a[0]) if a else 0
    red, pivots = dense_rref([[*map(Fraction, row), Fraction(v)] for row, v in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = red[r][n]
    return x


def dense_inv(a: list[list]) -> list[list[Fraction]] | None:
    """The inverse from `dense_rref` of [a | I], or None when a is singular."""
    n = len(a)
    aug = [[*map(Fraction, row), *(Fraction(int(i == j)) for j in range(n))] for i, row in enumerate(a)]
    red, pivots = dense_rref(aug)
    return [row[n:] for row in red] if pivots == list(range(n)) else None


def rank(a: list[list]) -> int:
    return len(dense_rref(a)[1])


def densified_nullspace(rows: list[dict], ncols: int) -> list[list[Fraction]]:
    """`linalg.sparse_nullspace` of sparse rows as dense rational vectors, each with 1 at its free
    column, its largest key (a reduced row has entries only right of its pivot)."""
    return [[Fraction(v.get(c, 0), v[max(v)]) for c in range(ncols)] for v in linalg.sparse_nullspace(rows, ncols)]


def nullspace(a: list[list], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the kernel of a dense matrix by `dense_rref` (rows may be empty; then pass ncols)."""
    if a:
        ncols = len(a[0])
    assert ncols is not None
    return rref_kernel(*dense_rref([list(map(Fraction, row)) for row in a]), ncols)


def scale(law: LieLaw, s) -> LieLaw:
    """s . mu: every structure constant multiplied by the rational s."""
    s = Fraction(s)
    return LieLaw(law.dim, {t: c * s for t, c in law.brackets.items()} if s else {})


def transpose(a: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def in_span(vectors: Sequence, v) -> bool:
    """Is v in the rational span of `vectors`?"""
    if not vectors:
        return all(x == 0 for x in v)
    base = [list(map(Fraction, w)) for w in vectors]
    return rank(base) == rank(base + [list(map(Fraction, v))])


def is_derivation(law: LieLaw, d: list[list]) -> bool:
    """Check D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] on all basis pairs."""
    n = law.dim
    cols = [[d[a][b] for a in range(n)] for b in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = bracket(law, i, j)
            lhs = [sum(d[k][l] * v[l] for l in range(n) if v[l]) for k in range(n)]
            rhs1 = bracket_vectors(law, cols[i - 1], [int(a == j - 1) for a in range(n)])
            rhs2 = bracket_vectors(law, [int(a == i - 1) for a in range(n)], cols[j - 1])
            for k in range(n):
                if lhs[k] - rhs1[k] - rhs2[k] != 0:
                    return False
    return True


def sparse_rref(rows: list[dict]) -> dict[int, dict[int, Fraction]]:
    """`linalg.integer_rref` as rationals: each row divided by its pivot entry, keyed by pivot column in order.

    The reduced form of the row space, so it does not depend on row order.
    """
    return {
        c: {k: Fraction(v, row[c]) for k, v in row.items()}
        for c, row in sorted(linalg.integer_rref(rows).items())
    }


def hnf_with_transform(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form with its transform: (h, u) with u unimodular and u.mat = h."""
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


def two_pass_kernel_lattice(mat: list[list[int]]) -> list[list[int]]:
    """The kernel lattice by two HNFs: the rows of u with h = u.mat^T zero, then the HNF of those rows."""
    if not mat:
        return []
    h, u = hnf_with_transform(transpose(mat))
    kernel_rows = [u[i] for i in range(len(h)) if not any(h[i])]
    return [row for row in hnf_with_transform(kernel_rows)[0] if any(row)] if kernel_rows else []


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<punct>[\[\],;=+\-*/()]))"
)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._at = -1  # the position `_match` was found at
        self._match: re.Match | None = None

    def peek(self) -> tuple[str, str] | None:
        if self._at != self.pos:
            m = _TOKEN.match(self.text, self.pos)
            if m is None and self.text[self.pos :].strip():
                raise LawError(f"syntax error at position {self.pos}: {self.text[self.pos:self.pos+10]!r}")
            self._at, self._match = self.pos, m
        m = self._match
        return None if m is None else (m.lastgroup, m.group(m.lastgroup))

    def next(self) -> tuple[str, str] | None:
        tok = self.peek()
        if tok is not None:
            self.pos = self._match.end()
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok is None or tok[1] != value:
            got = "end of input" if tok is None else repr(tok[1])
            raise LawError(f"expected {value!r} at position {self.pos}, got {got}")


def _parse_atom(sc: _Scanner, params: Mapping[str, Fraction]):
    tok = sc.peek()
    if tok is None:
        raise LawError("unexpected end of coefficient")
    kind, val = tok
    if val == "-":
        sc.next()
        return -_parse_atom(sc, params)
    if val == "(":
        sc.next()
        v = _parse_expr(sc, params)
        sc.expect(")")
        return v
    if kind == "num":
        sc.next()
        return Fraction(int(val))
    if kind == "name":
        sc.next()
        if val == "sqrt":
            sc.expect("(")
            inner = _parse_expr(sc, params)
            sc.expect(")")
            if isinstance(inner, Surd):
                raise LawError(f"sqrt of an irrational value {inner}")
            return Surd.sqrt(inner)
        if val not in params:
            raise LawError(f"unknown parameter {val!r}")
        return params[val]
    raise LawError(f"syntax error in coefficient near {val!r}")


def _parse_factor(sc: _Scanner, params):
    v = _parse_atom(sc, params)
    while True:
        tok = sc.peek()
        if tok is None:
            return v
        val = tok[1]
        if val == "/":
            sc.next()
            den = _parse_atom(sc, params)
            if isinstance(den, Surd) or den == 0:
                raise LawError(f"division by {den}: a coefficient divides by nonzero rationals only")
            v = v / den
        elif val == "*" or tok[0] in ("num", "name") or val == "(":
            # implicit product, e.g. "7/1767 sqrt(1767)" or "2*sqrt(3)"
            if val == "*":
                sc.next()
            v = v * _parse_atom(sc, params)
        else:
            return v


def _parse_expr(sc: _Scanner, params):
    v = _parse_factor(sc, params)
    while True:
        tok = sc.peek()
        if tok is None or tok[1] not in "+-":
            return v
        sc.next()
        w = _parse_factor(sc, params)
        v = v + w if tok[1] == "+" else v - w


def scanner_parse_law(text: str, params: Mapping[str, object] | None = None) -> LieLaw:
    """The token-scanner parser that `algebra.parse_law` replaced: the reference for the differential tests.

    Parse the law text format.

    Grammar: ``dim <n>; [i,j]=image; ...`` where an image is a '+'-separated
    list of components ``k`` or ``k*<coeff>``.  Coefficients are rational
    expressions (``p/q``, parameter names, parenthesised arithmetic) with an
    optional ``sqrt(m)`` factor, held exactly as a `Surd`.
    """
    p = {name: Fraction(value) for name, value in (params or {}).items()}
    sc = _Scanner(text)
    tok = sc.next()
    if tok is None or tok[1] != "dim":
        raise LawError("law text must start with 'dim <n>;'")
    tok = sc.next()
    if tok is None or tok[0] != "num":
        raise LawError("missing dimension after 'dim'")
    dim = int(tok[1])
    if sc.peek() is not None:
        sc.expect(";")
    brackets: dict[Triple, object] = {}
    while True:
        tok = sc.peek()
        if tok is None:
            break
        if tok[1] == ";":
            sc.next()
            continue
        sc.expect("[")
        ti = sc.next()
        if ti is None or ti[0] != "num":
            raise LawError(f"expected index at position {sc.pos}")
        sc.expect(",")
        tj = sc.next()
        if tj is None or tj[0] != "num":
            raise LawError(f"expected index at position {sc.pos}")
        sc.expect("]")
        sc.expect("=")
        i, j = int(ti[1]), int(tj[1])
        if not (1 <= i < j <= dim):
            raise LawError(f"index out of range in bracket [{i},{j}] (need 1 <= i < j <= {dim})")
        while True:
            tk = sc.next()
            if tk is None or tk[0] != "num":
                raise LawError(f"expected image basis index at position {sc.pos}")
            k = int(tk[1])
            if not (1 <= k <= dim):
                raise LawError(f"image index {k} out of range in bracket [{i},{j}]")
            coeff: object = Fraction(1)
            tok = sc.peek()
            if tok is not None and tok[1] == "*":
                sc.next()
                coeff = _parse_factor(sc, p)  # '+'/'-' only inside parens
            if coeff == 0:
                raise LawError(f"zero coefficient in bracket [{i},{j}]={k}")
            if (i, j, k) in brackets:
                raise LawError(f"duplicate bracket component [{i},{j}]={k}")
            brackets[(i, j, k)] = coeff
            tok = sc.peek()
            if tok is not None and tok[1] == "+":
                sc.next()
                continue
            break
        tok = sc.peek()
        if tok is not None:
            sc.expect(";")
    return LieLaw(dim, brackets)


def fraction_engel_flag(space: DerivationSpace) -> tuple[int, ...]:
    """The dimensions of Der's Engel series W_{k+1} = span{D w}, from W_0 = Q^n until it stops,
    by dense rational products of the dense Der basis and a dense rref of each step."""
    n = space.dim
    w = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    dims = [n]
    while w:
        images = [[sum(d[k][l] * v[l] for l in range(n)) for k in range(n)] for d in space.basis for v in w]
        red, pivots = dense_rref(images)
        w = red[: len(pivots)]
        if len(w) == dims[-1]:
            break
        dims.append(len(w))
    return tuple(dims)


def fraction_pre_einstein(inv: Invariants) -> tuple[Fraction, ...] | str:
    """`Invariants.phi` in Fractions: phi from a rational solve of the Gram system, with
    tr(phi psi) = tr(psi) checked on the dense Der basis, and at rank 0 the dense Engel flag."""
    law, space, gens = inv.law, inv.der, inv.torus
    if not gens:
        return "basis_not_adapted" if fraction_engel_flag(space)[-1] else "rank_zero"
    r = len(gens)
    gram = [[sum(a * b for a, b in zip(gens[p], gens[q])) for q in range(r)] for p in range(r)]
    rhs = [sum(gens[p]) for p in range(r)]
    coeffs = dense_solve(gram, rhs)
    assert coeffs is not None  # gram of independent generators is definite
    phi = tuple(sum((coeffs[p] * gens[p][i] for p in range(r)), Fraction(0)) for i in range(law.dim))
    n = law.dim
    for psi in space.basis:
        diag = [(phi[i], psi[i][i]) for i in range(n) if psi[i][i]]  # most are zero
        if sum(f * x for f, x in diag) != sum(x for _, x in diag):
            return "basis_not_adapted"
    return phi


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
        red, pivots = dense_rref(aug)
        if m not in pivots and len(pivots) == m:
            x = [Fraction(0)] * m
            for r, cpos in enumerate(pivots):
                x[cpos] = red[r][m]
            if all(v >= 0 for v in x):
                vertices.append(x)
        # extreme rays of the recession cone {d >= 0 : Ud = 0}; the first m columns of the
        # reduced [rows | b] are the reduced rows, and a pivot in column m is the last one
        ns = rref_kernel(red, [c for c in pivots if c < m], m)
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
