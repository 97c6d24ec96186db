"""Lie algebra laws as sparse structure constants over exact numbers.

A law stores only brackets [e_i, e_j] with i < j; antisymmetry is structural.
`LieLaw` keeps them in sorted triple order, whatever order they came in, so
no view of a law and no report depends on the order of its statements.
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
images: every term is an index set on a monomial law (each image one basis
vector), reduced integer rows on any other.  The weight map Y has one row
f_i + f_j - f_k per stored triple, in sorted order (`weight_rows`, and
`weights(d)` = Y.d): the diagonal torus is ker Y, U = Y Y^T, a diagonal X
degenerates the law by the signs of Y.X, and a diagonal moment map m is a
nilsoliton when Y.m is constant.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Mapping

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
        """sqrt(a/b) = s/b sqrt(t) with a b = s^2 t, t squarefree, for a rational a/b >= 0 with a b <= 10^12."""
        r = Fraction(r)
        if r < 0:
            raise LawError("sqrt of negative value")
        n, s, t, p = r.numerator * r.denominator, 1, 1, 2
        if n > 10**12:  # the trial division below runs to (a b)^(1/3): at most 10^4 steps
            raise LawError(f"sqrt of {r}: numerator times denominator is above 10^12")
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
    """Structure constants c_{ij}^k, keyed (i, j, k) with 1 <= i < j <= dim, kept as a dict in sorted
    order: the one bracket order, which `images`, `weights` and `format_law` iterate as it is."""

    dim: int
    brackets: Mapping[Triple, Fraction | Surd]

    def __post_init__(self):
        object.__setattr__(self, "brackets", dict(sorted(self.brackets.items())))
        for (i, j, k), c in self.brackets.items():
            if not (1 <= i < j <= self.dim and 1 <= k <= self.dim):
                raise LawError(f"bracket index out of range: [{i},{j}]={k}")
            if c == 0:
                raise LawError(f"zero coefficient stored at [{i},{j}]={k}")

    def __hash__(self):
        return hash((self.dim, frozenset(self.brackets.items())))

    @cached_property
    def is_rational(self) -> bool:
        """No surd among the structure constants: what Der, the series, the torus and the LP need."""
        return all(isinstance(c, (int, Fraction)) for c in self.brackets.values())

    @cached_property
    def images(self) -> dict[tuple[int, int], dict[int, int | Fraction | Surd]]:
        """{(a, b): {k: c}} with [e_a, e_b] = sum c e_k, for both orders of a pair."""
        out: dict[tuple[int, int], dict[int, int | Fraction | Surd]] = {}
        for (i, j, k), c in self.brackets.items():
            if isinstance(c, Fraction) and c.denominator == 1:
                c = c.numerator  # integral constants as ints: products and series stay integer
            out.setdefault((i, j), {})[k] = c
            out.setdefault((j, i), {})[k] = -c
        return out

    def weights(self, d) -> list:
        """d_i + d_j - d_k for each stored triple (i, j, k), in sorted order: Y.d."""
        return [d[i - 1] + d[j - 1] - d[k - 1] for i, j, k in self.brackets]

    @cached_property
    def weight_rows(self) -> list[list[int]]:
        """The weight map Y as an integer matrix: row p is `weights` of the unit vectors at triple p."""
        units = ([int(p == q) for q in range(self.dim)] for p in range(self.dim))
        return [list(row) for row in zip(*map(self.weights, units))]

    @cached_property
    def series(self) -> SeriesSignature:
        """The derived and lower central series dimensions (`series_signature`), computed once per law."""
        return series_signature(self)


@dataclass(frozen=True)
class SeriesSignature:
    derived_dims: tuple[int, ...]
    lcs_dims: tuple[int, ...]

    @property
    def nilpotent(self) -> bool:
        return self.lcs_dims[-1] == 0


# ---------------------------------------------------------------------------
# parsing

_DIM = re.compile(r"\s*dim(?![A-Za-z_0-9])\s*(\d+)\s*")  # a name ends at any other character: `dim٣3` is dim 33
_BRACKET = re.compile(r"\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=(.*)", re.S)
_COMPONENT = re.compile(r"\s*(\d+)\s*(?:\*(.*))?", re.S)
_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\S")  # a numeral, a name or any other single character


def _int(numeral: str) -> int:
    try:
        return int(numeral)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise LawError(f"numeral of {len(numeral)} digits is too long") from None


def _shown(text: str) -> str:  # stripped, cut and quoted for an error message
    return repr(text.strip()[:40])


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """The value of `-?digits(/digits)?` (a catalog value); else LawError, as for too many digits."""
    m = _RATIONAL.fullmatch(text)
    den = 0 if m is None else _int(m[2] or "1")
    if not den:
        raise LawError(f"not a rational -?digits(/digits)? of nonzero denominator: {_shown(text)}")
    return Fraction(_int(m[1]), den)


def _components(image: str) -> list[str]:
    """`image` split at each `+` outside parentheses."""
    cuts, depth = [-1], 0
    for m in re.finditer(r"[()+]", image):
        depth += {"(": 1, ")": -1}.get(m[0], 0)
        if m[0] == "+" and depth == 0:
            cuts.append(m.start())
    return [image[a + 1 : b] for a, b in zip(cuts, [*cuts[1:], len(image)])]


_MAX_TERMS = 64  # a catalog surd has one term; k factors (sqrt(p) + sqrt(q)) of distinct primes have 2^k


def _bounded(v):
    """v, unless it has more than _MAX_TERMS square-root terms, or a numerator, denominator or
    radicand of it has more digits than int() reads and str() prints."""
    if isinstance(v, Surd) and len(v.terms) > _MAX_TERMS:
        raise LawError(f"its value has more than {_MAX_TERMS} square-root terms")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    for m, q in v.terms.items() if isinstance(v, Surd) else [(1, v)]:
        n = max(m, abs(q.numerator), q.denominator)
        if limit and n.bit_length() * 100 > limit * 332 and n >= 10**limit:  # below 2^(3.32 limit), n < 10^limit
            raise LawError(f"a part of its value has more than {limit} digits")
    return v


def _take(toks: list[str], value: str) -> None:
    if not toks or toks.pop() != value:
        raise LawError(f"expected {value!r}")


def _atom(toks: list[str], params: Mapping[str, Fraction]):
    """numeral | name | -atom | (expr) | sqrt(expr), popped from the end of `toks`."""
    if not toks:
        raise LawError("unexpected end")
    tok = toks.pop()
    if tok == "-":
        return -_atom(toks, params)
    if tok == "(":
        v = _expr(toks, params)
        _take(toks, ")")
        return v
    if tok.isdecimal():
        return Fraction(_int(tok))
    if tok == "sqrt":
        _take(toks, "(")
        v = _expr(toks, params)
        _take(toks, ")")
        if isinstance(v, Surd):
            raise LawError(f"sqrt of an irrational value {v}")
        return Surd.sqrt(v)
    if tok.isascii() and tok.isidentifier():  # a name
        if tok not in params:
            raise LawError(f"unknown parameter {tok!r}")
        return params[tok]
    raise LawError(f"syntax error near {tok!r}")


def _product(toks: list[str], params: Mapping[str, Fraction]):
    """Atoms joined by `*`, `/` or juxtaposition (`7/1767 sqrt(1767)`)."""
    v = _atom(toks, params)
    while toks and toks[-1] not in (")", "+", "-"):
        op = toks.pop() if toks[-1] in ("*", "/") else "*"
        w = _atom(toks, params)
        if op == "/" and (isinstance(w, Surd) or w == 0):
            raise LawError(f"division by {w}: a coefficient divides by nonzero rationals only")
        v = _bounded(v / w if op == "/" else v * w)
    return v


def _expr(toks: list[str], params: Mapping[str, Fraction]):
    """Products joined by `+` or `-`: only inside parentheses."""
    v = _product(toks, params)
    while toks and toks[-1] in ("+", "-"):
        v = _bounded(v + _product(toks, params) if toks.pop() == "+" else v - _product(toks, params))
    return v


def _coefficient(text: str, params: Mapping[str, Fraction]) -> Fraction | Surd:
    """One coefficient, a product, by recursive descent over its tokens, reversed: the next is `toks[-1]`."""
    toks = _TOKEN.findall(text)[::-1]
    try:
        v = _product(toks, params)
        if toks:
            raise LawError(f"syntax error near {toks[-1]!r}")
        return v
    except (LawError, RecursionError) as exc:
        why = "nested too deeply" if isinstance(exc, RecursionError) else exc
        raise LawError(f"coefficient {_shown(text)}: {why}") from None


def parse_law(text: str, params: Mapping[str, object] | None = None) -> LieLaw:
    """Parse the law text format ``dim <n>; [i,j]=image; ...``.

    The grammar above the coefficients is regular, so it is matched by
    patterns: the text is split at `;`, the first statement must be ``dim
    <n>`` and every other non-blank one ``[i,j]=image``.  An image is split at
    each `+` outside parentheses into components ``k`` or ``k*<coeff>``.  Only
    a coefficient is parsed by recursive descent (`_coefficient`): rational
    arithmetic on numerals and the bound parameters, with `sqrt` held exactly
    as a `Surd`.  Every malformed text raises LawError, including a numeral too
    long for `int`, a coefficient nested too deeply to recurse and one with
    more than `_MAX_TERMS` square-root terms.
    """
    p = {name: Fraction(value) for name, value in (params or {}).items()}
    head, *statements = text.split(";")
    m = _DIM.fullmatch(head)
    if m is None:
        raise LawError(f"law text must start with 'dim <n>;', got {_shown(head)}")
    dim = _int(m[1])
    brackets: dict[Triple, object] = {}
    for statement in filter(str.strip, statements):  # blank statements are skipped
        m = _BRACKET.fullmatch(statement)
        if m is None:
            raise LawError(f"expected '[i,j]=image', got {_shown(statement)}")
        i, j = _int(m[1]), _int(m[2])
        if not (1 <= i < j <= dim):
            raise LawError(f"index out of range in bracket [{i},{j}] (need 1 <= i < j <= {dim})")
        for component in _components(m[3]):
            c = _COMPONENT.fullmatch(component)
            if c is None:
                raise LawError(f"expected 'k' or 'k*coeff' in bracket [{i},{j}], got {_shown(component)}")
            k = _int(c[1])
            if not (1 <= k <= dim):
                raise LawError(f"image index {k} out of range in bracket [{i},{j}]")
            coeff = Fraction(1) if c[2] is None else _coefficient(c[2], p)
            if coeff == 0:
                raise LawError(f"zero coefficient in bracket [{i},{j}]={k}")
            if (i, j, k) in brackets:
                raise LawError(f"duplicate bracket component [{i},{j}]={k}")
            brackets[(i, j, k)] = coeff
    return LieLaw(dim, brackets)


def format_law(law: LieLaw) -> str:
    """Canonical text for a law; it round-trips through parse_law."""
    images = (f"[{i},{j}]=" + "+".join(f"{k}" if c == 1 else f"{k}*{c}" for k, c in img.items())
              for (i, j), img in law.images.items() if i < j)
    return "; ".join([f"dim {law.dim}", *images])


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

    Both series start from [g, g], the span of the stored images.  On a
    monomial law, where every bracket image is one basis vector, every term
    is a coordinate subspace, held as its index set: [A, B] is the span of
    the images of the pairs in A x B.  Any other law gets reduced integer
    rows: [g, g] row-reduced once, then `_subspace_bracket` per step.
    """
    if not law.is_rational:
        raise LawError("series_signature requires a rational law")
    if all(len(img) == 1 for img in law.images.values()):
        pairs = [(a, b, k) for (a, b), img in law.images.items() for k in img]

        def bracket(a: set, b: set | None = None) -> set:
            return {k for x, y, k in pairs if x in a and y in (a if b is None else b)}

        full, gg = set(range(1, law.dim + 1)), {k for *_, k in pairs}
    else:
        bracket = partial(_subspace_bracket, law)
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

    return SeriesSignature(dims(bracket), dims(lambda cur: bracket(full, cur)))


# ---------------------------------------------------------------------------
# basis change action

def act(g: list[list], law: LieLaw) -> LieLaw:
    """(g . mu)(x, y) = g mu(g^{-1} x, g^{-1} y) for a rational law and a rational n x n g.

    g^{-1} is read from one `integer_rref` of the sparse rows of [g | I]: g is
    singular exactly when a pivot falls in the I half, and otherwise row a
    gives g^{-1}[a][b] = red[a][n + b] / red[a][a].  The sparse columns of
    g^{-1} are bracketed with `_bracket_sparse`, and g is applied to each
    sparse image through its own sparse columns.
    """
    n = law.dim
    if len(g) != n or any(len(row) != n for row in g):
        raise LawError(f"act() needs a g of shape {n} x {n} for a law of dim {n}")
    if not (law.is_rational and all(isinstance(x, (int, Fraction)) for row in g for x in row)):
        raise LawError("act() needs exact input: a rational law and a matrix of ints or Fractions")
    red = linalg.integer_rref([{c: x for c, x in enumerate([*row, *[0] * a, 1]) if x} for a, row in enumerate(g)])
    if any(c >= n for c in red):
        raise LawError("singular matrix in act()")
    inv_cols = [{a + 1: Fraction(red[a][n + b], red[a][a]) for a in range(n) if n + b in red[a]} for b in range(n)]
    g_cols = [{a: Fraction(row[b]) for a, row in enumerate(g, 1) if row[b]} for b in range(n)]
    brackets: dict[Triple, Fraction] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            img: dict[int, Fraction] = {}
            for b, w in _bracket_sparse(law, inv_cols[i - 1], inv_cols[j - 1]).items():
                for a, x in g_cols[b - 1].items():
                    img[a] = img.get(a, 0) + x * w
            brackets.update(((i, j, k), c) for k, c in img.items() if c)
    return LieLaw(n, brackets)
