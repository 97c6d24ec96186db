"""Derivation algebra, diagonal torus, the pre-Einstein derivation, and a law's invariants.

Everything is exact: the derivation identity is a linear system over Q in
the n^2 matrix entries, the diagonal torus is an integer kernel lattice,
and the pre-Einstein derivation solves the integer Gram system of that
lattice's basis with `linalg.solve`.  The equations number the D_kl from the
top of the filtration down (`_columns`), so their elimination fills in little.
Der is read through its rank and one membership test on the forward echelon
form of its equations (`linalg.Kernel`): dim Der and the phi check
(`pre_einstein`), so the kernel vectors and the dense matrices
(`DerivationSpace.vectors`, `.basis`) are built only when read.
`Invariants.phi` is the one outcome of the torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from .algebra import LawError, LieLaw, SeriesSignature
from .nicebasis import NiceCheck, is_nice


@dataclass(frozen=True)
class DerivationSpace:
    """Der, the `linalg.Kernel` of its equations, with a basis built only when read.

    The kernel's columns are those of `_columns`.  Each of `vectors` is one
    kernel vector as its (index, int) pairs, index (k-1)*n + (l-1) holding D_kl,
    in increasing index order: the kernel's reduced rows, which are sparse, are
    read back to that order and reduced there by `linalg.sparse_nullspace`, so
    the vectors are those of the unique reduced form in D_kl order, whichever
    order the pivots took.  The last pair is the free entry p > 0, and the
    derivation is the vector divided by p.
    """

    dim: int
    kernel: linalg.Kernel

    @cached_property
    def vectors(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        col = _columns(self.dim)
        rows = [{col[c]: x for c, x in row.items()} for row in self.kernel.reduced.values()]
        return tuple(tuple(v.items()) for v in linalg.sparse_nullspace(rows, self.dim**2))

    @cached_property
    def basis(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """The derivations as dense n x n rational matrices, each with 1 at its free entry."""
        n = self.dim
        cells = [{k: Fraction(x, vec[-1][1]) for k, x in vec} for vec in self.vectors]
        return tuple(tuple(tuple(d.get(k * n + l, Fraction(0)) for l in range(n)) for k in range(n)) for d in cells)


def _columns(n: int) -> tuple[int, ...]:
    """The column of each unknown D_kl of the Der equations, at index (k-1)*n + (l-1): n^2 - 1 - index.

    Numbered from the last, so `linalg.integer_echelon`, which pivots each row on
    its least column, takes the D_kl with the largest k first: in a basis ordered
    along the filtration (the catalog's, and the usual written form), those whose
    output e_k lies highest in it.  On a graded law a column D_kl with e_k central
    meets only the equations of output coordinate k, so its elimination stays
    inside them.  The map is its own inverse: it also reads a column back as its
    D_kl index.
    """
    return tuple(range(n * n - 1, -1, -1))


def _derivation_rows(law: LieLaw) -> list[dict[int, int | Fraction]]:
    """Sparse equations for D[e_i,e_j] = [De_i,e_j] + [e_i,De_j], in the columns of `_columns`.

    One equation per pair i<j and output coordinate k, keyed by one int; the
    row for (j,i,k) is minus that for (i,j,k).  A stored bracket [e_a,e_b] = c e_m
    enters only the rows (a,b,.), (.,b,m) and (.,a,m), so the system is built
    in O(#brackets * n).  Each row is built once: an entry is dropped as soon as
    it cancels, so no row holds a zero and only the rows left empty are skipped.
    """
    n = law.dim
    col = _columns(n)
    rows: dict[int, dict[int, int | Fraction]] = {}  # equation (i,j,k), i<j, keyed (i*n + j)*n + k, 0-based
    # `images` holds integral constants as ints, so the system stays integer
    for (a, b), img in law.images.items():
        if a > b:
            continue  # each stored bracket once
        a, b = a - 1, b - 1
        for m, c in img.items():
            m -= 1
            # entry i of each kind: D[e_a, e_b] = c D e_m at coordinate i, through D_im (p = None);
            # at coordinate m, [D e_i, e_b] through D_ai and [D e_i, e_a] through D_bi, as
            # [e_b, e_a] = -c e_m, in the equation of the pair (i, q), or minus that of (q, i)
            for p, q, s in ((None, None, c), (a, b, -c), (b, a, c)):
                for i in range(n):
                    if p is None:
                        key, k, v = (a * n + b) * n + i, col[i * n + m], s
                    elif i < q:
                        key, k, v = (i * n + q) * n + m, col[p * n + i], s
                    elif i > q:
                        key, k, v = (q * n + i) * n + m, col[p * n + i], -s
                    else:
                        continue
                    row = rows.get(key)
                    if row is None:
                        rows[key] = {k: v}
                    elif v := row.get(k, 0) + v:
                        row[k] = v
                    else:
                        del row[k]
    return [row for row in rows.values() if row]


def derivation_space(law: LieLaw) -> DerivationSpace:
    """Exact basis of Der(mu)."""
    if not law.is_rational:
        raise LawError("derivation_space requires a rational law")
    n = law.dim
    return DerivationSpace(n, linalg.sparse_nullspace(_derivation_rows(law), n * n))


def dim_der(law: LieLaw) -> int:
    return len(derivation_space(law).kernel)


def diagonal_rank(law: LieLaw) -> list[list[int]]:
    """An HNF-canonical integer basis of the diagonal torus, the lattice ker Y: the rank is its length."""
    if not law.is_rational:
        raise LawError("diagonal_rank requires a rational law")
    if law.brackets:
        return linalg.kernel_lattice(law.weight_rows)
    return [[int(i == j) for j in range(law.dim)] for i in range(law.dim)]  # no weights: Z^n, HNF basis I


def pre_einstein(inv: Invariants) -> tuple[Fraction, ...] | None:
    """The diagonal of the derivation phi with tr(phi psi) = tr(psi) for all psi in Der, or None.

    Solved inside the diagonal torus by `linalg.solve` (phi = 0 at rank 0, where
    the check reads "every derivation is traceless"), then verified on all of Der:
    None, when that check fails, means the diagonal torus is not maximal.
    Clearing the <= rank denominators of that solution once gives phi = v / d
    with an integer vector v and d > 0, so the check reads
    sum_i (v_i - d) psi_ii = 0 on Der: one `Kernel.annihilates` test of that
    functional on the columns of the D_ii (`_columns`), with no Der basis built.
    """
    gens = inv.torus
    # phi = sum_p c_p gens[p] with G c = (sum gens[p])_p for the definite Gram matrix G
    c = linalg.solve([[sum(map(mul, gp, gq)) for gq in gens] for gp in gens], [sum(gp) for gp in gens])
    den = math.lcm(*(x.denominator for x in c))
    coeffs = [x.numerator * (den // x.denominator) for x in c]
    n = inv.law.dim
    v = [sum(map(mul, coeffs, col)) for col in zip(*gens)] if gens else [0] * n
    col = _columns(n)
    if not inv.der.kernel.annihilates({col[i * (n + 1)]: x - den for i, x in enumerate(v)}):  # D_ii: v_i - d
        return None
    return tuple(Fraction(x, den) for x in v)


def positivity_gate(phi: tuple[Fraction, ...]) -> int | None:
    """The index of the first eigenvalue <= 0, or None when every eigenvalue is positive."""
    return next((i for i, x in enumerate(phi) if x <= 0), None)


@dataclass(frozen=True)
class Invariants:
    """The invariants of one law, each computed on first use and kept.

    The one place the pipeline computes Der, the diagonal torus, phi and niceness of a law,
    and reads its series (`LieLaw.series`): classify, every route, distinguish,
    the degeneration search and the CLI commands read them here.
    """

    law: LieLaw

    @property
    def series(self) -> SeriesSignature:
        return self.law.series

    @cached_property
    def der(self) -> DerivationSpace:
        return derivation_space(self.law)

    @property
    def dim_der(self) -> int:
        return len(self.der.kernel)

    @cached_property
    def torus(self) -> tuple[tuple[int, ...], ...]:
        """The HNF integer generators of the diagonal torus of the basis."""
        return tuple(map(tuple, diagonal_rank(self.law)))

    @property
    def rank(self) -> int:
        return len(self.torus)

    @cached_property
    def phi(self) -> tuple[Fraction, ...] | str:
        """phi's eigenvalues, or why the basis has none: "rank_zero" (phi = 0, rank 0) or "basis_not_adapted"."""
        phi = pre_einstein(self)
        if phi is None:
            return "basis_not_adapted"
        return phi if self.rank else "rank_zero"

    @cached_property
    def nice(self) -> NiceCheck:
        return is_nice(self.law)
