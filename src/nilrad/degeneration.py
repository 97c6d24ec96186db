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
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, lp
from .algebra import LawError, LieLaw, SeriesSignature, act, series_signature
from .derivations import DerivationSpace, PreEinsteinDerivation, derivation_space


@dataclass(frozen=True)
class LimitResult:
    kind: str  # "limit" | "zero" | "divergent"
    law: LieLaw | None = None


@dataclass(frozen=True)
class Distinction:
    invariant: str  # "series" | "dim_der" | "rank"
    left: object
    right: object


@dataclass(frozen=True)
class DegenerationWitness:
    x: tuple[int, ...]
    limit: LimitResult
    distinction: Distinction | None  # None for a zero limit, or for a limit not separated from the law


def in_g_phi(x, phi: PreEinsteinDerivation | list) -> bool:
    """Membership of a diagonal X in g_phi: tr X = 0 and tr(X phi) = 0."""
    eig = phi.phi if isinstance(phi, PreEinsteinDerivation) else phi
    xs = [Fraction(v) for v in x]
    return sum(xs) == 0 and sum(e * v for e, v in zip(eig, xs)) == 0


def one_param_limit(law: LieLaw, x, frame=None) -> LimitResult:
    """Limit of exp(tX).(frame law) as t -> oo for diagonal exponents X."""
    if not law.is_rational:
        raise LawError("one_param_limit requires a rational law")
    base = act(frame, law) if frame is not None else law
    xs = [Fraction(v) for v in x]
    if len(xs) != law.dim:
        raise LawError(f"X must have length {law.dim}")
    weights = base.weights(xs)
    if any(w < 0 for w in weights):
        return LimitResult("divergent")
    kept = {t: c for (t, c), w in zip(base.triples(), weights) if w == 0}
    if not kept and base.brackets:
        return LimitResult("zero")
    return LimitResult("limit", LieLaw(law.dim, kept))


Invariants = tuple[SeriesSignature, DerivationSpace]


def distinguish(a: LieLaw, b: LieLaw, known: Invariants | None = None) -> Distinction | None:
    """First invariant separating a and b, or None.

    Compares series signatures, then dim Der, then diagonal rank.  None
    means "not separated by these invariants", not "isomorphic".  The
    first two rungs are isomorphism invariants outright; diagonal rank is
    one only when the diagonal torus is maximal on both sides, which holds
    for the catalog's degeneration pairs (their limits carry recorded
    maximal tori) but not for arbitrary basis changes.  `known` is the
    (series, Der) pair of `a` when the caller has already computed it.
    """
    if a.dim != b.dim:
        raise LawError("distinguish needs laws of equal dimension")
    sa = series_signature(a) if known is None else known[0]
    sb = series_signature(b)
    if (sa.derived_dims, sa.lcs_dims) != (sb.derived_dims, sb.lcs_dims):
        return Distinction("series", (sa.derived_dims, sa.lcs_dims), (sb.derived_dims, sb.lcs_dims))
    space_a = derivation_space(a) if known is None else known[1]
    space_b = derivation_space(b)
    if len(space_a) != len(space_b):
        return Distinction("dim_der", len(space_a), len(space_b))
    ra, rb = len(space_a.diag_basis), len(space_b.diag_basis)
    if ra != rb:
        return Distinction("rank", ra, rb)
    return None




def g_phi_lattice(phi: PreEinsteinDerivation, dim: int) -> list[list[int]]:
    """HNF integer basis of the diagonal part of g_phi."""
    eig = [Fraction(v) for v in (phi.phi if isinstance(phi, PreEinsteinDerivation) else phi)]
    den = math.lcm(*(e.denominator for e in eig))
    wrow = [int(e * den) for e in eig]
    return linalg.kernel_lattice([[1] * dim, wrow])


def lattice_weight_rows(law: LieLaw, lattice: list[list[int]]) -> list[tuple[int, ...]]:
    """The weight of each stored bracket in lattice coordinates.

    Column t of [law.weights(v) for v in lattice] is the row for triple t, so
    X = sum c_p L[p] gives the bracket weights c . row.  All-zero and
    repeated rows are dropped: X diverges iff c . row < 0 for some row left.
    """
    return list(dict.fromkeys(row for row in zip(*map(law.weights, lattice)) if any(row)))


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
    w, s, v, c+, c-: the slacks w and v then enter first, which takes the
    simplex's first phase the fewest pivots.
    """
    m, r = len(rows), len(rows[0])
    unit = [[int(p == q) for q in range(m)] for p in range(m)]
    zero = [0] * m
    a = [[*e, *e, *zero, *(-v for v in row), *row] for row, e in zip(rows, unit)]
    a += [[*zero, *e, *e, *[0] * (2 * r)] for e in unit]
    status, x, _ = lp.solve_standard(a, zero + [1] * m, zero + [-1] * m + zero + [0] * (2 * r))
    assert status == "optimal"  # c = 0, s = 0 is feasible and sum s <= m
    return [p - q for p, q in zip(x[3 * m : 3 * m + r], x[3 * m + r :])]


def search_degeneration(
    law: LieLaw, phi: PreEinsteinDerivation, known: Invariants | None = None
) -> DegenerationWitness | TrivialCone:
    """The walk on the non-divergence cone C: a trivial-cone certificate, or the limit of a relative-interior X.

    The witness's distinction is None for a zero limit, and also for a limit
    that distinguish() does not separate from the law, which certifies
    nothing.  `known` is the law's (series, Der) pair; when None it is
    computed when a limit needs it.
    """
    lattice = g_phi_lattice(phi, law.dim)
    rows = lattice_weight_rows(law, lattice)
    if not rows:  # every bracket has weight 0 on all of g_phi
        return TrivialCone((Fraction(1),) * len(law.brackets))
    # Stiemke: R.c >= 0 forces R.c = 0 iff some y > 0 has R^T y = 0; y runs over every stored triple
    _, t, y = lp.max_min_component([law.weights(v) for v in lattice], [0] * len(lattice))
    if t > 0:
        return TrivialCone(tuple(y))
    c = _relative_interior(rows)
    den = math.lcm(*(v.denominator for v in c))
    x = [sum(int(cp * den) * v[i] for cp, v in zip(c, lattice)) for i in range(law.dim)]
    g = math.gcd(*x)
    x = tuple(v // g for v in x)
    res = one_param_limit(law, x)
    if res.kind == "zero":
        return DegenerationWitness(x, res, None)
    if known is None:
        known = (series_signature(law), derivation_space(law))
    return DegenerationWitness(x, res, distinguish(law, res.law, known))
