"""Lie algebra laws as sparse structure constants over exact numbers.

A law stores only brackets [e_i, e_j] with i < j; antisymmetry is structural.
Coefficients are Fractions, or exact `Surd`s (sums of rational multiples of
square roots) in nilsoliton witnesses.  Der, the series, the torus and the
LP need a rational law (`LieLaw.is_rational`); Jacobi, the moment map and
the weight map run on surds unchanged, and nothing is ever rounded.

Two views of the structure constants are built once per law and read by
every kernel.  `LieLaw.images` is {(a, b): {k: c}} with [e_a, e_b] = sum
c e_k, for both orders of every stored pair: Jacobi, both series, Der and
the moment map walk it, so their work grows with the number of nonzero
structure constants, not with dim^3.  A rational constant that is an
integer is held there as an int, so on integral laws the products and the
series never build a Fraction.  Jacobi is a join of the stored brackets
with `images`: each c.e_m in [e_a, e_b] meets each d.e_l in [e_i, e_m] and
adds +-c.d to the residual of the triple {i, a, b}, so no index triple is
enumerated.  Both series start from [g, g], the span of the stored
images, row-reduced once.  The weight map Y has one row
f_i + f_j - f_k per stored triple, in sorted order (`weight_rows`, and
`weights(d)` = Y.d): the diagonal torus is ker Y, U = Y Y^T, a diagonal X
degenerates the law by the signs of Y.X, and a diagonal moment map m is a
nilsoliton when Y.m is constant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping

from . import linalg

Triple = tuple[int, int, int]


class LawError(ValueError):
    """Raised for malformed law text or invalid law operations."""


class Surd:
    """An exact real: the sum of q_m sqrt(m) over `terms` = {squarefree m: rational q_m != 0}.

    Surd(pairs) sums q sqrt(m) over (squarefree m, rational q) pairs.  Square
    roots of distinct squarefree integers are linearly independent over Q, so
    the form is canonical and == is exact.  A value with no irrational part
    is returned as a Fraction; only nonzero rationals divide.
    """

    __slots__ = ("terms",)

    def __new__(cls, pairs):
        terms: dict[int, Fraction] = {}
        for m, q in pairs:
            terms[m] = terms[m] + q if m in terms else q
        terms = {m: q for m, q in terms.items() if q}
        if not terms.keys() - {1}:
            return Fraction(terms.get(1, 0))
        self = super().__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def sqrt(cls, r) -> Surd | Fraction:
        """sqrt(a/b) = s/b sqrt(t) with a b = s^2 t, t squarefree, for a rational a/b >= 0."""
        r = Fraction(r)
        if r < 0:
            raise LawError("sqrt of negative value")
        n, s, t, p = r.numerator * r.denominator, 1, 1, 2
        while p * p * p <= n:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            s, t, p = s * p ** (e // 2), t * p ** (e % 2), p + 1 + (p > 2)
        root = math.isqrt(n)  # no prime p with p^3 <= n divides n: n has two prime factors at most
        s, t = (s * root, t) if root * root == n else (s, t * n)
        return cls([(t, Fraction(s, r.denominator))])

    @staticmethod
    def _pairs(x):  # the (m, q_m) of a Surd or a rational; None for any other type
        return x.terms.items() if isinstance(x, Surd) else [(1, x)] if isinstance(x, (int, Fraction)) else None

    def __add__(self, other):
        b = Surd._pairs(other)
        return NotImplemented if b is None else Surd([*self.terms.items(), *b])

    def __mul__(self, other):
        # sqrt(m) sqrt(n) = g sqrt(m n / g^2) with g = gcd(m, n), squarefree again
        b, gcd = Surd._pairs(other), math.gcd
        if b is None:
            return NotImplemented
        return Surd((m * n // gcd(m, n) ** 2, p * q * gcd(m, n)) for m, p in self.terms.items() for n, q in b)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, r):
        return self * Fraction(1, r) if isinstance(r, (int, Fraction)) else NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, Surd) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        parts = [str(q) if m == 1 else f"{q}*sqrt({m})" for m, q in sorted(self.terms.items())]
        return parts[0] if len(parts) == 1 else f"({' + '.join(parts)})"

    __repr__ = __str__


@dataclass(frozen=True)
class LieLaw:
    """Structure constants c_{ij}^k, keyed (i, j, k) with 1 <= i < j <= dim."""

    dim: int
    brackets: Mapping[Triple, Fraction | Surd]

    def __post_init__(self):
        for (i, j, k), c in self.brackets.items():
            if not (1 <= i < j <= self.dim and 1 <= k <= self.dim):
                raise LawError(f"bracket index out of range: [{i},{j}]={k}")
            if c == 0:
                raise LawError(f"zero coefficient stored at [{i},{j}]={k}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieLaw)
            and self.dim == other.dim
            and dict(self.brackets) == dict(other.brackets)
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.brackets.items())))

    @cached_property
    def is_rational(self) -> bool:
        """No surd among the structure constants: what Der, the series, the torus and the LP need."""
        return all(isinstance(c, (int, Fraction)) for c in self.brackets.values())

    def triples(self) -> Iterator[tuple[Triple, Fraction | Surd]]:
        return iter(sorted(self.brackets.items()))

    @cached_property
    def images(self) -> dict[tuple[int, int], dict[int, int | Fraction | Surd]]:
        """{(a, b): {k: c}} with [e_a, e_b] = sum c e_k, for both orders of a pair."""
        out: dict[tuple[int, int], dict[int, int | Fraction | Surd]] = {}
        for (i, j, k), c in sorted(self.brackets.items()):
            if isinstance(c, Fraction) and c.denominator == 1:
                c = c.numerator  # integral constants as ints: products and series stay integer
            out.setdefault((i, j), {})[k] = c
            out.setdefault((j, i), {})[k] = -c
        return out

    def weights(self, d) -> list:
        """d_i + d_j - d_k for each stored triple (i, j, k), in sorted order: Y.d."""
        return [d[i - 1] + d[j - 1] - d[k - 1] for i, j, k in sorted(self.brackets)]

    @cached_property
    def weight_rows(self) -> list[list[int]]:
        """The weight map Y as an integer matrix: row p is `weights` of the unit vectors at triple p."""
        units = ([int(p == q) for q in range(self.dim)] for p in range(self.dim))
        return [list(row) for row in zip(*map(self.weights, units))]


@dataclass(frozen=True)
class SeriesSignature:
    derived_dims: tuple[int, ...]
    lcs_dims: tuple[int, ...]

    @property
    def nilpotent(self) -> bool:
        return self.lcs_dims[-1] == 0


# ---------------------------------------------------------------------------
# parsing

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


def parse_law(text: str, params: Mapping[str, object] | None = None) -> LieLaw:
    """Parse the law text format.

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


def format_law(law: LieLaw) -> str:
    """Canonical text for a law; it round-trips through parse_law."""
    parts = [f"dim {law.dim}"]
    by_pair: dict[tuple[int, int], list[tuple[int, object]]] = {}
    for (i, j, k), c in law.triples():
        by_pair.setdefault((i, j), []).append((k, c))
    for (i, j), comps in sorted(by_pair.items()):
        imgs = [f"{k}" if c == 1 else f"{k}*{c}" for k, c in comps]
        parts.append(f"[{i},{j}]={'+'.join(imgs)}")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# elementary invariants

def jacobi_violations(law: LieLaw) -> list[tuple[int, int, int, list]]:
    """All (i, j, k, residual) with a nonzero Jacobi sum; empty iff Lie.

    The residual of i < j < k is [e_i,[e_j,e_k]] - [e_j,[e_i,e_k]] + [e_k,[e_i,e_j]].
    Each term is [e_i, [e_a, e_b]] for a stored a < b and i outside {a, b},
    so the sum is a join: a stored c.e_m in [e_a, e_b] meets every stored
    d.e_l in [e_i, e_m], and c.d goes to coordinate l of J(sorted(i, a, b)),
    negated when i lies between a and b (an odd permutation of the sorted triple).
    """
    n = law.dim
    images = law.images
    into: dict[int, list] = {}  # m -> [(i, [e_i, e_m])] over the stored pairs
    for (i, m), img in images.items():
        into.setdefault(m, []).append((i, img))
    sums: dict[Triple, dict[int, object]] = {}
    for (a, b), img_ab in images.items():
        if a > b:
            continue  # each stored bracket once
        for m, c in img_ab.items():
            for i, img in into.get(m, ()):
                if i == a or i == b:
                    continue
                if i < a:
                    key, f = (i, a, b), c
                elif i < b:
                    key, f = (a, i, b), -c
                else:
                    key, f = (a, b, i), c
                acc = sums.setdefault(key, {})
                for l, d in img.items():
                    acc[l] = acc.get(l, 0) + f * d
    out = []
    for key in sorted(sums):
        acc = sums[key]
        if any(acc.values()):
            out.append((*key, [acc.get(m, 0) for m in range(1, n + 1)]))
    return out


def _bracket_sparse(law: LieLaw, u: dict, v: dict) -> dict:
    """[u, v] for sparse vectors {index: coeff}; zero coordinates dropped."""
    out: dict = {}
    for a, ua in u.items():
        for b, vb in v.items():
            img = law.images.get((a, b))
            if img:
                f = ua * vb
                for k, c in img.items():
                    out[k] = out.get(k, 0) + f * c
    return {k: x for k, x in out.items() if x}


def _subspace_bracket(law: LieLaw, a: list[dict], b: list[dict] | None = None) -> list[dict]:
    """Reduced integer basis of [A, B]; b None means [A, A], from pairs u < v.

    Only the span matters, so the rows stay the primitive integer rows of
    `linalg.integer_rref`.
    """
    if b is None:
        prods = [_bracket_sparse(law, u, v) for p, u in enumerate(a) for v in a[p + 1 :]]
    else:
        prods = [_bracket_sparse(law, u, v) for u in a for v in b]
    return list(linalg.integer_rref([p for p in prods if p]).values())


def series_signature(law: LieLaw) -> SeriesSignature:
    """Dimensions of the derived series and the descending central series.

    Both series start from [g, g], the span of the stored images, which is
    row-reduced once.
    """
    if not law.is_rational:
        raise LawError("series_signature requires a rational law")
    full = [{i: 1} for i in range(1, law.dim + 1)]
    gg = list(linalg.integer_rref([img for (a, b), img in law.images.items() if a < b]).values())

    def dims(step) -> tuple[int, ...]:
        out, cur = [law.dim], gg
        while len(cur) != out[-1]:  # equal above zero: stabilised, not solvable / not nilpotent
            out.append(len(cur))
            if not cur:
                break
            cur = step(cur)
        return tuple(out)

    return SeriesSignature(
        dims(lambda cur: _subspace_bracket(law, cur)),
        dims(lambda cur: _subspace_bracket(law, full, cur)),
    )


# ---------------------------------------------------------------------------
# basis change action

def act(g: list[list], law: LieLaw) -> LieLaw:
    """(g . mu)(x, y) = g mu(g^{-1} x, g^{-1} y) for a rational law and a rational g.

    The sparse columns of g^{-1} are bracketed with `_bracket_sparse`, and g
    is applied to each sparse image through its own sparse columns.
    """
    if not (law.is_rational and all(isinstance(x, (int, Fraction)) for row in g for x in row)):
        raise LawError("act() needs exact input: a rational law and a matrix of ints or Fractions")
    n = law.dim
    gm = [[Fraction(x) for x in row] for row in g]
    ginv = linalg.inv(gm)
    if ginv is None:
        raise LawError("singular matrix in act()")
    g_cols, inv_cols = ([{a: row[b] for a, row in enumerate(m, 1) if row[b]} for b in range(n)] for m in (gm, ginv))
    brackets: dict[Triple, Fraction] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            img: dict[int, Fraction] = {}
            for b, w in _bracket_sparse(law, inv_cols[i - 1], inv_cols[j - 1]).items():
                for a, x in g_cols[b - 1].items():
                    img[a] = img.get(a, 0) + x * w
            brackets.update(((i, j, k), img[k]) for k in sorted(img) if img[k])
    return LieLaw(n, brackets)
