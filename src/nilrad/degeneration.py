"""One-parameter diagonal degenerations and non-isomorphism certificates.

A diagonal X = diag(a_1..a_n) with tr X = 0 and tr(X phi) = 0 generates a
one-parameter subgroup g_t = exp(tX) inside the stabiliser-compatible group
G_phi.  Under g_t the bracket coefficient at (i, j, k) is scaled by
exp(-t (a_i + a_j - a_k)), so the t -> oo limit keeps exactly the brackets
of weight zero, dies to the zero law when all weights are positive, and
diverges when a kept coefficient has negative weight.  A limit outside the
orbit (zero, or separated from the law by an isomorphism invariant)
certifies that the orbit is not closed, hence NOT an Einstein nilradical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
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
    x: tuple[Fraction, ...]
    limit: LimitResult
    distinction: Distinction | None  # None for a zero limit


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


def _size_reduce(basis: list[list[int]]) -> list[list[int]]:
    """Greedy pairwise reduction; HNF bases are too skewed to sample from."""
    b = [list(v) for v in basis]
    changed = True
    while changed:
        changed = False
        for i in range(len(b)):
            for j in range(len(b)):
                if i == j:
                    continue
                den = sum(x * x for x in b[j])
                if den == 0:
                    continue
                q = round(Fraction(sum(x * y for x, y in zip(b[i], b[j])), den))
                if q:
                    cand = [x - q * y for x, y in zip(b[i], b[j])]
                    if sum(x * x for x in cand) < sum(x * x for x in b[i]):
                        b[i] = cand
                        changed = True
    return b


def g_phi_lattice(phi: PreEinsteinDerivation, dim: int) -> list[list[int]]:
    """Size-reduced integer basis of the diagonal part of g_phi."""
    eig = [Fraction(v) for v in (phi.phi if isinstance(phi, PreEinsteinDerivation) else phi)]
    den = math.lcm(*(e.denominator for e in eig))
    wrow = [int(e * den) for e in eig]
    return _size_reduce(linalg.kernel_lattice([[1] * dim, wrow]))


def lattice_weight_rows(law: LieLaw, lattice: list[list[int]]) -> list[tuple[int, ...]]:
    """The weight of each stored bracket in lattice coordinates.

    Column t of [law.weights(v) for v in lattice] is the row for triple t, so
    X = sum c_p L[p] gives the bracket weights c . row.  All-zero and
    repeated rows are dropped: X diverges iff c . row < 0 for some row left.
    """
    return list(dict.fromkeys(row for row in zip(*map(law.weights, lattice)) if any(row)))


def search_degeneration(
    law: LieLaw,
    phi: PreEinsteinDerivation,
    trials: int,
    seed: int,
    extra_pool: tuple = (),
    coeff_bound: int = 4,
    known: Invariants | None = None,
) -> DegenerationWitness | None:
    """Randomised hunt for a diagonal degeneration witness.

    Samples integer X in the diagonal g_phi lattice (plus any injected
    candidates, tried first) and keeps the first X whose limit is zero or
    separated from the law by distinguish().  None after `trials` attempts
    is inconclusive: it never certifies that the orbit is closed.
    Deterministic for a fixed seed.  `known` is the law's (series, Der) pair;
    when None it is computed once, at the first limit that needs it.

    A lattice sample is drawn as integer coefficients c over the lattice
    basis and first tested against `lattice_weight_rows`: if c . row < 0 for
    some row, a bracket has negative weight and X diverges, so it is
    dropped before X or any Fraction is built.  Lattice samples lie in g_phi
    by construction and skip `in_g_phi`; injected candidates do not.  The
    filter drops only samples whose limit is divergent, which never yield a
    witness, and the draws consume the same random stream, so the witness
    for a given seed is the one an unfiltered loop finds.
    """
    lattice = g_phi_lattice(phi, law.dim)
    rng = random.Random(seed)
    seen: set[tuple] = set()
    checked_limits: dict = {}

    def consider(xvec) -> DegenerationWitness | None:
        nonlocal known
        key = tuple(xvec)
        if key in seen or not any(xvec):
            return None
        seen.add(key)
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
        if in_g_phi(cand, phi):
            hit = consider(list(cand))
            if hit is not None:
                return hit
    if not lattice:
        return None
    r = len(lattice)
    rows = lattice_weight_rows(law, lattice)
    columns = list(zip(*lattice))
    draw = rng.randrange  # randrange(-b, b + 1) is the stream of randint(-b, b)
    for trial in range(trials):
        bound = coeff_bound * (1 + trial % 4)  # mix small and wider boxes
        coeffs = [draw(-bound, bound + 1) for _ in range(r)]
        for row in rows:
            if sum(map(mul, coeffs, row)) < 0:
                break
        else:
            hit = consider([sum(map(mul, coeffs, col)) for col in columns])
            if hit is not None:
                return hit
    return None
