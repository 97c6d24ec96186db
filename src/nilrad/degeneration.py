"""One-parameter diagonal degenerations and non-isomorphism certificates.

A diagonal X = diag(a_1..a_n) with tr X = 0 and tr(X phi) = 0 generates a
one-parameter subgroup g_t = exp(tX) inside the stabiliser-compatible group
G_phi.  Under g_t the bracket coefficient at (i, j, k) is scaled by
exp(-t (a_i + a_j - a_k)), so the t -> oo limit keeps exactly the brackets
of weight zero, dies to the zero law when all weights are positive, and
diverges when a kept coefficient has negative weight.  A limit outside the
orbit (zero, or separated from the law by an isomorphism invariant)
certifies that the orbit is not closed, hence NOT an Einstein nilradical.

`search_degeneration` finds such an X exactly, with no sampling.  Over the
HNF basis L of the integer lattice of diagonal g_phi, X = sum c_p L[p]
gives bracket t the weight R_t . c, so the X with a limit form the cone
C = {c : R.c >= 0}.  Either some y > 0 has R^T y = 0 (Stiemke's
alternative), and then every X in C has every weight zero and leaves the
law fixed, or C has a relative-interior point c, positive on every row
that C does not force to zero.  Its limit keeps the brackets of the forced
rows and of the rows that are zero on all of g_phi; with none kept it is
the zero law.  Each case is one exact LP.  The relative-interior limit is
the only one tried: no subface of C is walked.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from fractions import Fraction

from . import linalg, lp
from .algebra import LawError, LieLaw, format_law
from .derivations import Invariants


@dataclass(frozen=True)
class LimitResult:
    kind: str  # "limit" | "zero" | "divergent"
    law: LieLaw | None = None

    def __str__(self) -> str:  # "zero", "divergent" or the limit law's text
        return self.kind if self.law is None else format_law(self.law)


@dataclass(frozen=True)
class Distinction:
    invariant: str  # "series" | "dim_der"
    left: object
    right: object

    def __str__(self) -> str:
        return f"{self.invariant} {self.left} vs {self.right}"


@dataclass(frozen=True)
class DegenerationWitness:
    x: tuple[int | Fraction, ...] | None  # None for a catalog record that names only its limit
    limit: LimitResult
    distinction: Distinction | None  # None for a zero limit, or for a limit not separated from the law


def in_g_phi(x, phi: tuple[Fraction, ...]) -> bool:
    """Membership of a diagonal X (ints or Fractions) in g_phi: tr X = 0 and tr(X phi) = 0."""
    return sum(x) == 0 and sum(e * v for e, v in zip(phi, x)) == 0


def one_param_limit(law: LieLaw, x) -> LimitResult:
    """Limit of exp(tX).law as t -> oo for diagonal exponents X (in a frame g: pass act(g, law))."""
    if not law.is_rational:
        raise LawError("one_param_limit requires a rational law")
    xs = [Fraction(v) for v in x]
    if len(xs) != law.dim:
        raise LawError(f"X must have length {law.dim}")
    weights = law.weights(xs)
    if any(w < 0 for w in weights):
        return LimitResult("divergent")
    kept = {t: c for (t, c), w in zip(law.brackets.items(), weights) if w == 0}
    if not kept and law.brackets:
        return LimitResult("zero")
    return LimitResult("limit", LieLaw(law.dim, kept))


def distinguish(a: Invariants, b: Invariants) -> Distinction | None:
    """First basis-free invariant separating the laws of a and b, or None.

    Compares series signatures, then dim Der: the one place that decides
    which invariants separate two laws.  None means "not separated by these
    invariants", not "isomorphic".  Diagonal rank is not compared: it is the
    rank of a maximal torus only when the diagonal torus of the basis is
    maximal, so it would separate a law from an isomorphic copy of itself.
    """
    if a.law.dim != b.law.dim:
        raise LawError("distinguish needs laws of equal dimension")
    if a.series != b.series:
        return Distinction("series", astuple(a.series), astuple(b.series))
    if a.dim_der != b.dim_der:
        return Distinction("dim_der", a.dim_der, b.dim_der)
    return None


def g_phi_lattice(phi: tuple[Fraction, ...], dim: int) -> list[list[int]]:
    """HNF integer basis of the diagonal part of g_phi."""
    den = math.lcm(*(e.denominator for e in phi))
    wrow = [int(e * den) for e in phi]
    return linalg.kernel_lattice([[1] * dim, wrow])


def lattice_weight_rows(weights: list[list[int]]) -> list[tuple[int, ...]]:
    """The weight of each stored bracket in lattice coordinates, from weights[p] = law.weights(L[p]).

    Column t of `weights` is the row for triple t, so X = sum c_p L[p]
    gives the bracket weights c . row.  All-zero and repeated rows are
    dropped: X diverges iff c . row < 0 for some row left.
    """
    return list(dict.fromkeys(row for row in zip(*weights) if any(row)))


@dataclass(frozen=True)
class TrivialCone:
    """No X in diagonal g_phi has a limit other than the law: the walk's INCONCLUSIVE certificate.

    y holds one positive weight per stored triple, in sorted order, with
    sum_t y_t (f_i + f_j - f_k) in span(1, phi).  So every X in diagonal
    g_phi has sum_t y_t w_t(X) = 0: no bracket weight is positive unless
    another is negative.
    """

    y: tuple[Fraction, ...]


def _relative_interior(rows: list[tuple[int, ...]]) -> list[Fraction]:
    """c in C = {c : R.c >= 0} with R.c >= 1 on every row that C does not force to 0.

    One LP: max sum s subject to R.c - s - w = 0 and s + v = 1, with s, w,
    v >= 0 and c = c+ - c-.  At its optimum s = 1 exactly on the rows that
    are not forced to 0, since C is a cone.  The columns come in the order
    w, s, v, c+, c-, and the solve starts at the basis s_i on row i of
    R.c - s - w = 0 and v_i on cap row i, which Bland's phase 1 always
    reaches, whatever R is: each w_i enters first on its own row, then
    each s_i replaces w_i (its ratio is 0 on row i and 1 on the cap row),
    then each v_i takes its cap row.  Every one of those 3m pivots is 1,
    so phase 2 starts from the same tableau either way.
    """
    m, r = len(rows), len(rows[0])
    unit = [[int(p == q) for q in range(m)] for p in range(m)]
    zero = [0] * m
    a = [[*e, *e, *zero, *(-v for v in row), *row] for row, e in zip(rows, unit)]
    a += [[*zero, *e, *e, *[0] * (2 * r)] for e in unit]
    x, _ = lp.solve_standard(a, zero + [1] * m, zero + [-1] * m + zero + [0] * (2 * r), [*range(m, 3 * m)])
    return [p - q for p, q in zip(x[3 * m : 3 * m + r], x[3 * m + r :])]


def search_degeneration(inv: Invariants) -> DegenerationWitness | TrivialCone:
    """The walk on the non-divergence cone C: a trivial-cone certificate, or the limit of a relative-interior X.

    inv.phi must be phi's eigenvalues, not the reason the basis gives
    none (`Invariants.phi`).  The witness's distinction is None for
    a zero limit, and also for a limit that distinguish() does not separate
    from the law, which certifies nothing.
    """
    law = inv.law
    lattice = g_phi_lattice(inv.phi, law.dim)
    weights = [law.weights(v) for v in lattice]
    rows = lattice_weight_rows(weights)
    if not rows:  # every bracket has weight 0 on all of g_phi
        return TrivialCone((Fraction(1),) * len(law.brackets))
    # Stiemke: R.c >= 0 forces R.c = 0 iff some y > 0 has R^T y = 0; y runs over every stored triple
    t, y = lp.max_min_component(weights, [0] * len(lattice))
    if t > 0:
        return TrivialCone(tuple(y))
    c = _relative_interior(rows)
    den = math.lcm(*(v.denominator for v in c))
    x = [sum(int(cp * den) * v[i] for cp, v in zip(c, lattice)) for i in range(law.dim)]
    g = math.gcd(*x)
    return degenerate(inv, [v // g for v in x])


def degenerate(inv: Invariants, x) -> DegenerationWitness:
    """The limit of exp(tX).law and, when it is a law, the first invariant that separates it from inv's law."""
    res = one_param_limit(inv.law, x)
    return DegenerationWitness(tuple(x), res, distinguish(inv, Invariants(res.law)) if res.kind == "limit" else None)
