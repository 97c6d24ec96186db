"""Nice-basis detection, weight Gram matrix, and the exact positivity test.

For a law written in a nice basis the Einstein-nilradical question reduces
to an exact feasibility problem: does U x = [1] admit a strictly positive
solution?  U = Y Y^T is the Gram matrix of the law's weight map Y, whose
rows are f_i + f_j - f_k, one per stored triple (Payne, arXiv:0809.1767).

U has the rank of Y, which is dim minus the rank of the diagonal torus
ker Y, so U is nonsingular exactly when the law has dim - rank stored
triples.  There x is unique and `linalg.solve` gives it; the LP runs only
where U is singular, and its pivot path picks which of the solutions is
the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from . import linalg, lp
from .algebra import LawError, LieLaw


@dataclass(frozen=True)
class NiceCheck:
    nice: bool
    reason: str | None = None


def is_nice(law: LieLaw) -> NiceCheck:
    """Nice-basis conditions.

    (N1) every bracket image is a single basis vector, read from `law.images`;
    (N2) two different bracket pairs hitting the same image vector share no
    index.  Both read the law's sorted bracket order, and N1 is checked first.
    """
    if not law.is_rational:
        raise LawError("is_nice requires a rational law")
    for (i, j), img in law.images.items():
        if i < j and len(img) > 1:
            return NiceCheck(False, reason=f"N1 fails at ({i},{j}): image has components {list(img)}")
    by_image: dict[int, list[tuple[int, int]]] = {}
    for (i, j, k) in law.brackets:
        by_image.setdefault(k, []).append((i, j))
    for k, pairs in by_image.items():
        for p, q in combinations(pairs, 2):
            if shared := set(p) & set(q):
                return NiceCheck(False, reason=f"N2 fails at image {k}: pairs {p} and {q} share index {min(shared)}")
    return NiceCheck(True)


def gram_matrix(law: LieLaw) -> list[list[int]]:
    """U = Y Y^T for the weight map Y of the law, rows and columns in sorted triple order."""
    rows = law.weight_rows
    return [[sum(map(mul, a, b)) for b in rows] for a in rows]


def positive_solution(u: list[list[int]], nonsingular: bool = False) -> tuple[Fraction, ...] | str:
    """An x > 0 with Ux = [1], or "no_positive_solution".

    U must be a Gram matrix Y Y^T: then Ux = [1] is consistent, since
    Y.1 = [1] puts [1] in the column space of U.  `nonsingular` is the
    caller's word that U is: then x is unique and `linalg.solve` gives it.
    Otherwise the exact integer LP finds an x.  An empty U (no weights) is solved by
    x = ().
    """
    if nonsingular:
        x = linalg.solve(u, [1] * len(u))
        if not all(v > 0 for v in x):
            return "no_positive_solution"
    else:
        t, x = lp.max_min_component(u, [1] * len(u))
        if t <= 0:
            return "no_positive_solution"
    assert solves_positively(u, x)  # re-validated independently of how x was found
    return tuple(x)


def solves_positively(u: list[list[int]], x) -> bool:
    """U x = [1] and x > 0 for a rational x of U's size, checked in integers over the common denominator of x."""
    den = math.lcm(*(v.denominator for v in x))
    xs = [v.numerator * (den // v.denominator) for v in x]
    return len(xs) == len(u) and all(sum(map(mul, row, xs)) == den for row in u) and all(v > 0 for v in xs)


def soliton_norm(x) -> Fraction:
    """1 / sum(x) for a positive solution of Ux = [1], summed in integers over the common denominator of x."""
    den = math.lcm(*(v.denominator for v in x))
    total = sum(v.numerator * (den // v.denominator) for v in x)
    if total <= 0:
        raise ValueError("soliton_norm needs a positive solution vector")
    return Fraction(den, total)
