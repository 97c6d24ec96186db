"""Reference side of the benchmark, written without importing nilrad.

The answers nilrad gives are checked against the catalog data and against
small exact computations done here: the law parser, the basis change that
generates inputs, the weight Gram matrix U and the certificate re-checks.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

Brackets = dict[tuple[int, int, int], Fraction]

EN, NOT_EN, INCONCLUSIVE = "EN", "NOT_EN", "INCONCLUSIVE"
EN_CERTS = {"positive_solution", "nilsoliton_decomposition"}
NOT_EN_CERTS = {"rank_zero", "non_positive_pre_einstein", "no_positive_solution", "non_closed_orbit"}


@dataclass(frozen=True)
class Instance:
    """One catalog instance: parametric entries expand to one per sample."""

    id: str
    dim: int
    brackets: Brackets
    expected: dict

    @property
    def constructive_en(self) -> bool:
        return isinstance(self.expected.get("x"), list) or bool(self.expected.get("witness_law"))


# ---------------------------------------------------------------------------
# law text


def _eval(node: ast.AST, params: dict[str, Fraction]) -> Fraction:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Fraction(node.value)
    if isinstance(node, ast.Name) and node.id[1:] in params:
        return params[node.id[1:]]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval(node.operand, params)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp):
        a, b = _eval(node.left, params), _eval(node.right, params)
        ops = {ast.Add: a.__add__, ast.Sub: a.__sub__, ast.Mult: a.__mul__, ast.Div: a.__truediv__}
        if type(node.op) in ops:
            return ops[type(node.op)](b)
    raise ValueError(f"unsupported coefficient syntax: {ast.dump(node)}")


def _split_top(text: str, sep: str) -> list[str]:
    """Split at `sep` outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_law_text(text: str, params: dict[str, Fraction] | None = None) -> tuple[int, Brackets]:
    """Exact laws in the catalog's text format: `dim n; [i,j]=k*coeff+...`."""
    head, *items = [s.strip() for s in text.split(";") if s.strip()]
    dim = int(head.split()[1])
    out: Brackets = {}
    for item in items:
        pair, image = item.replace(" ", "").split("=")
        i, j = (int(v) for v in pair.strip("[]").split(","))
        for comp in _split_top(image, "+"):
            k, _, coeff = comp.partition("*")
            # names get a "_" prefix so that a parameter called `lambda` is not a keyword
            expr = re.sub(r"[A-Za-z_]\w*", lambda m: "_" + m.group(), coeff)
            c = _eval(ast.parse(expr, mode="eval").body, params or {}) if coeff else Fraction(1)
            out[(i, j, int(k))] = c
    return dim, out


def format_law_text(dim: int, brackets: Brackets) -> str:
    parts = [f"dim {dim}"]
    by_pair: dict[tuple[int, int], list[str]] = {}
    for (i, j, k), c in sorted(brackets.items()):
        by_pair.setdefault((i, j), []).append(str(k) if c == 1 else f"{k}*{c}")
    parts += [f"[{i},{j}]={'+'.join(comps)}" for (i, j), comps in sorted(by_pair.items())]
    return "; ".join(parts)


def load_instances(path) -> list[Instance]:
    """The catalog's instances, ids spelled as `catalog verify` spells them."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = []
    for e in doc["entries"]:
        p = e.get("params")
        samples = [(e["id"], None)] if p is None else [
            (f"{e['id']}[{p['name']}={s}]", {p["name"]: Fraction(s)}) for s in p["samples"]
        ]
        for iid, params in samples:
            dim, br = parse_law_text(e["law"], params)
            out.append(Instance(iid, dim, br, e["expected"]))
    return out


def is_nice(brackets: Brackets) -> bool:
    """Each pair has a one-term image, and pairs with a common image share no index."""
    pairs = [(i, j) for (i, j, _) in brackets]
    if len(pairs) != len(set(pairs)):
        return False
    by_image: dict[int, list[tuple[int, int]]] = {}
    for (i, j, k) in brackets:
        by_image.setdefault(k, []).append((i, j))
    return all(
        not set(a) & set(b) for ps in by_image.values() for n, a in enumerate(ps) for b in ps[n + 1:]
    )


# ---------------------------------------------------------------------------
# basis changes


def inverse(g: list[list[Fraction]]) -> list[list[Fraction]] | None:
    n = len(g)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


_SMALL = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3)]


def random_basis_change(rng: random.Random, n: int) -> list[list[Fraction]]:
    """The identity with a third of its off-diagonal entries set to small p/q."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    while True:
        g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i, j in rng.sample(off, len(off) // 3):
            g[i][j] = rng.choice(_SMALL)
        if inverse(g) is not None:
            return g


def _bracket(brackets: Brackets, n: int, u: list, v: list) -> list[Fraction]:
    out = [Fraction(0)] * n
    for (a, b, k), c in brackets.items():
        coef = u[a - 1] * v[b - 1] - u[b - 1] * v[a - 1]
        if coef:
            out[k - 1] += coef * c
    return out


def act(g: list[list[Fraction]], n: int, brackets: Brackets) -> Brackets:
    """Structure constants of g.mu, (g.mu)(x, y) = g mu(g^-1 x, g^-1 y)."""
    ginv = inverse(g)
    cols = [[ginv[a][b] for a in range(n)] for b in range(n)]
    out: Brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = _bracket(brackets, n, cols[i], cols[j])
            for k in range(n):
                c = sum(g[k][b] * w[b] for b in range(n))
                if c:
                    out[(i + 1, j + 1, k + 1)] = c
    return out


# ---------------------------------------------------------------------------
# answer checks


def gram_rows(brackets: Brackets, n: int) -> list[list[int]]:
    """U = Gram matrix of the weights f_k - f_i - f_j, in sorted triple order."""
    alphas = []
    for (i, j, k) in sorted(brackets):
        a = [0] * n
        a[i - 1] -= 1
        a[j - 1] -= 1
        a[k - 1] += 1
        alphas.append(a)
    return [[sum(x * y for x, y in zip(a, b)) for b in alphas] for a in alphas]


def _certificate_failure(cert: dict, inst: Instance) -> str | None:
    kind = cert.get("kind")
    exp = inst.expected
    if kind == "positive_solution":
        if cert.get("on") == "witness":
            dim, br = parse_law_text(exp["witness_law"])
        else:
            dim, br = inst.dim, inst.brackets
        x = [Fraction(v) for v in cert["x"]]
        u = gram_rows(br, dim)
        if len(x) != len(u) or min(x) <= 0:
            return "positive_solution: x is not a positive vector of the right length"
        if any(sum(r * v for r, v in zip(row, x)) != 1 for row in u):
            return "positive_solution: Ux != [1]"
        if Fraction(cert["soliton_norm"]) != 1 / sum(x):
            return "positive_solution: soliton_norm != 1/sum(x)"
    elif kind == "non_positive_pre_einstein":
        if Fraction(cert["phi"][cert["index"]]) > 0:
            return "non_positive_pre_einstein: phi[index] > 0"
    elif kind == "non_closed_orbit" and cert.get("X") is not None:
        x = [Fraction(v) for v in cert["X"]]
        phi = exp.get("pre_einstein")
        if sum(x) != 0 or (phi and sum(Fraction(p) * v for p, v in zip(phi, x)) != 0):
            return "non_closed_orbit: X is not in g_phi"
        w = {t: x[t[0] - 1] + x[t[1] - 1] - x[t[2] - 1] for t in inst.brackets}
        kept = {t: inst.brackets[t] for t, v in w.items() if v == 0}
        if min(w.values()) < 0:
            return "non_closed_orbit: the limit diverges"
        if cert["limit"] == "zero" and kept:
            return "non_closed_orbit: the limit is not zero"
        if cert["limit"] != "zero" and not (kept and len(kept) < len(inst.brackets)):
            return "non_closed_orbit: X fixes the law or kills it"
        if cert["limit"] not in ("zero", "limit law") and parse_law_text(cert["limit"])[1] != kept:
            return "non_closed_orbit: recorded limit differs from the limit of X"
    return None


def report_outcome(report: dict, inst: Instance, inconclusive_ok: bool) -> tuple[bool, str | None]:
    """(decided, failure) of one report against the catalog instance.

    A verdict equal to the catalog's is decided; INCONCLUSIVE is undecided
    when `inconclusive_ok`; any other verdict, a computed invariant that
    differs from the catalog, or a certificate that fails its re-check is
    a failure.
    """
    exp = inst.expected
    if report.get("mismatches"):
        return False, f"program reports mismatches: {report['mismatches'][0]}"
    comp = report.get("computed", {})
    for key in ("dim_der", "derived", "lcs", "rank"):
        if comp.get(key) != exp[key]:
            return False, f"{key} {comp.get(key)} != reference {exp[key]}"
    verdict = report.get("verdict")
    if verdict == INCONCLUSIVE and inconclusive_ok:
        return False, None
    if verdict != exp["verdict"]:
        return False, f"verdict {verdict} != reference {exp['verdict']}"
    kinds = {c.get("kind") for c in report.get("certificates", [])}
    if not kinds & (EN_CERTS if verdict == EN else NOT_EN_CERTS):
        return False, f"{verdict} without a matching certificate"
    for cert in report["certificates"]:
        bad = _certificate_failure(cert, inst)
        if bad:
            return False, bad
    return True, None


def catalog_outcome(report: dict, inst: Instance) -> tuple[bool, str | None]:
    """`catalog verify` may leave only EN entries without a constructive certificate open."""
    open_ok = inst.expected["verdict"] == EN and not inst.constructive_en
    return report_outcome(report, inst, inconclusive_ok=open_ok)


def check_outcome(rc: int, report: dict, inst: Instance) -> tuple[bool, str | None]:
    """`nilrad check` exits 0 = EN, 1 = NOT_EN, 2 = inconclusive; 2 is allowed, other codes fail."""
    want = {0: EN, 1: NOT_EN, 2: INCONCLUSIVE}.get(rc)
    if want is None or report.get("verdict") != want:
        return False, f"exit code {rc} with verdict {report.get('verdict')}"
    return report_outcome(report, inst, inconclusive_ok=True)


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, (list, tuple)):
        return [_strip_timing(v) for v in obj]
    return obj


def digest(outputs: list) -> str:
    """SHA-256 of the program's outputs with every `timing` field removed."""
    return hashlib.sha256(json.dumps(_strip_timing(outputs), sort_keys=True).encode()).hexdigest()
