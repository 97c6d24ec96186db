"""Moment map of a law and nilsoliton decomposition m = c.Id + D.

The moment map is four times the Ricci operator of the nilmanifold carrying
the canonical inner product:

    <Ric x, y> = -1/2 sum_{ij} <[x,e_i],e_j><[y,e_i],e_j>
                 +1/4 sum_{ij} <[e_i,e_j],x><[e_i,e_j],y>

Exact over Q for rational laws, floating point otherwise.  The constants
are pinned by reproducing a recorded witness diagonal (see the acceptance
suite), as the decomposition results are only as good as this normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import LawError, LieLaw
from .derivations import diagonal_is_derivation


@dataclass(frozen=True)
class MomentValue:
    m: tuple[tuple, ...]

    def diagonal(self) -> list:
        return [self.m[i][i] for i in range(len(self.m))]

    def is_diagonal(self, tol: float) -> bool:
        n = len(self.m)
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = self.m[i][j]
                    if isinstance(v, Fraction):
                        if v != 0:
                            return False
                    elif abs(v) > tol:
                        return False
        return True


@dataclass(frozen=True)
class SolitonDecomposition:
    c: Fraction | float
    d: tuple  # diagonal derivation, eigenvalue vector
    residual: float  # max deviation of the derivation identity over brackets


class NonDiagonalMomentError(LawError):
    """moment map is not diagonal in the given basis; no frame supplied."""


def moment_map(law: LieLaw) -> MomentValue:
    """m(mu) = 4 Ric_mu in the standard basis, read from law.images.

    Both sums skip zero products and keep the order of the dense formula
    (i-major, then j; pairs a < b ascending), so float laws get its bits.
    """
    n = law.dim
    images = law.images
    pairs = [img for (a, b), img in images.items() if a < b]
    zero = Fraction(0) if law.is_exact else 0.0
    m = [[zero] * n for _ in range(n)]
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            t1 = zero
            for i in range(1, n + 1):
                img_p, img_q = images.get((p, i)), images.get((q, i))
                if img_p and img_q:
                    for j, c in img_p.items():
                        if j in img_q:
                            t1 += c * img_q[j]
            t2 = zero
            for img in pairs:
                if p in img and q in img:
                    t2 += 2 * img[p] * img[q]
            m[p - 1][q - 1] = m[q - 1][p - 1] = -2 * t1 + t2
    return MomentValue(tuple(tuple(row) for row in m))


def soliton_check(law: LieLaw, m: MomentValue | None = None):
    """Try to write m(law) = c.Id + D with D a (diagonal) derivation.

    Each stored bracket (i,j,k) forces c = m_ii + m_jj - m_kk; all brackets
    must agree (exactly, or within the law's tolerance for float laws), and
    the resulting D is re-verified as a derivation.  Returns a
    SolitonDecomposition or None.
    """
    if m is None:
        m = moment_map(law)
    tol = law.tol
    if not m.is_diagonal(tol):
        raise NonDiagonalMomentError(
            "moment map is not diagonal with respect to the given basis"
        )
    diag = m.diagonal()
    candidates = law.weights(diag)
    if not candidates:
        return None
    c = candidates[0]
    if any(cc != c if law.is_exact else abs(cc - c) > tol for cc in candidates):
        return None
    d = tuple(v - c for v in diag)
    if not diagonal_is_derivation(law, list(d), tol):
        return None
    residual = 0.0 if law.is_exact else max(map(abs, law.weights(d)))
    return SolitonDecomposition(c, d, residual)


def cross_check(norm_from_lp, dec: SolitonDecomposition, tol: float = 1e-9) -> bool:
    """The two certification routes must agree: -c == ||S_beta||^2."""
    if isinstance(dec.c, Fraction) and isinstance(norm_from_lp, Fraction):
        return -dec.c == norm_from_lp
    return abs(float(norm_from_lp) + float(dec.c)) <= tol
