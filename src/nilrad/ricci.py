"""Moment map of a law and nilsoliton decomposition m = c.Id + D.

The moment map is four times the Ricci operator of the nilmanifold carrying
the canonical inner product:

    <Ric x, y> = -1/2 sum_{ij} <[x,e_i],e_j><[y,e_i],e_j>
                 +1/4 sum_{ij} <[e_i,e_j],x><[e_i,e_j],y>

Exact throughout, over Q or over the surds of a witness (`algebra.Surd`).
The constants are pinned by reproducing a recorded witness diagonal (see
the acceptance suite), as the decomposition results are only as good as
this normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieLaw, Surd


@dataclass(frozen=True)
class SolitonDecomposition:
    c: Fraction | Surd
    d: tuple  # diagonal derivation, eigenvalue vector


def moment_map(law: LieLaw) -> tuple[tuple, ...]:
    """m(mu) = 4 Ric_mu in the standard basis, read from law.images; both sums skip zero products."""
    n = law.dim
    images = law.images
    pairs = [img for (a, b), img in images.items() if a < b]
    zero = Fraction(0)
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
    return tuple(tuple(row) for row in m)


def soliton_check(law: LieLaw) -> SolitonDecomposition | str:
    """m(law) = c.Id + D, D a diagonal derivation; else "moment map is not diagonal" or "no decomposition".

    Each stored bracket (i,j,k) forces c = m_ii + m_jj - m_kk; all brackets
    must agree exactly.  Then every weight d_i + d_j - d_k of D = diag(m) - c
    is zero, so D is a derivation by construction.
    """
    m = moment_map(law)
    if any(v for i, row in enumerate(m) for j, v in enumerate(row) if i != j):
        return "moment map is not diagonal"
    diag = [row[i] for i, row in enumerate(m)]
    candidates = set(law.weights(diag))
    if len(candidates) != 1:
        return "no decomposition"
    c = candidates.pop()
    return SolitonDecomposition(c, tuple(v - c for v in diag))
