from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from importlib import resources

import pytest

from nilrad.algebra import (
    LawError,
    LieLaw,
    Surd,
    act,
    format_law,
    jacobi_violations,
    parse_law,
    parse_rational,
    series_signature,
)
from oracles import dense_inv, matmul, scale, scanner_parse_law

HEISENBERG = "dim 3; [1,2]=3"
PRIMES = [p for p in range(2, 230) if all(p % q for q in range(2, p))]  # the first 50
# 25 factors (sqrt(p) + sqrt(q)) of distinct primes: their product has 2^25 terms
MANY_SURDS = "dim 3; [1,2]=3*" + "".join(f"(sqrt({p})+sqrt({q}))" for p, q in zip(PRIMES[::2], PRIMES[1::2]))


def test_parse_heisenberg():
    law = parse_law(HEISENBERG)
    assert law.dim == 3
    assert dict(law.brackets) == {(1, 2, 3): Fraction(1)}
    assert law.is_rational


def test_parse_block_with_nine_components():
    text = ("dim 7; [1,2]=3; [1,3]=4; [1,4]=5; [1,5]=6; [1,6]=7;"
            " [2,3]=6; [2,4]=7; [2,5]=7; [3,4]=7*-1")
    law = parse_law(text)
    assert len(law.brackets) == 9
    assert law.brackets[(3, 4, 7)] == -1


def test_parse_family_substitution():
    law = parse_law("dim 7; [2,5]=7*lambda; [3,4]=7*(1-lambda)", params={"lambda": 2})
    assert law.brackets[(2, 5, 7)] == 2
    assert law.brackets[(3, 4, 7)] == -1


def test_parse_multi_component_image():
    law = parse_law("dim 7; [2,3]=5+7")
    assert law.brackets[(2, 3, 5)] == 1
    assert law.brackets[(2, 3, 7)] == 1


def test_parse_sqrt_coefficient_makes_surd_law():
    law = parse_law("dim 3; [1,2]=3*(1/2 sqrt(2))")
    assert not law.is_rational
    assert law.brackets[(1, 2, 3)] == Surd.sqrt(2) / 2 == Surd.sqrt(Fraction(1, 2))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("dim 3; [1,1]=2", "index out of range"),
        ("dim 3; [2,1]=3", "index out of range"),
        ("dim 3; [1,2]=4", "out of range"),
        ("dim 3; [1,2]=3; [1,2]=3", "duplicate"),
        ("dim 3; [1,2]=3*0", "zero coefficient"),
        ("dim 3; [1,2]=3*mu", "unknown parameter"),
        ("[1,2]=3", "must start with"),
        ("dim 3; [1,2]", "expected"),
        ("dim 3; [1,2]=3*sqrt(-2)", "negative"),
        ("dim 3; [1,2]=3*sqrt(1 sqrt(2))", "irrational"),
        ("dim 3; [1,2]=3*(1/0)", "division by 0"),
        ("dim 3; [1,2]=3*(1/sqrt(2))", "division by 1\\*sqrt\\(2\\)"),
        ("dim 3; [1,2]=3*2$", "coefficient '2\\$': syntax error near '\\$'"),
        ("dim 3; [1,2]=3*", "coefficient '': unexpected end"),
        ("dim 3; [1,2]=3*2*", "coefficient '2\\*': unexpected end"),
        ("dim ;", "must start with 'dim <n>;', got 'dim'"),
        ("dim 3; [a,2]=3", "expected '\\[i,j\\]=image', got '\\[a,2\\]=3'"),
        ("dim 3; [1,2]=3 [1,3]=2", "expected 'k' or 'k\\*coeff' in bracket \\[1,2\\], got '3 \\[1,3\\]=2'"),
        ("dim 3; [1,2]=3*(1+2", "coefficient '\\(1\\+2': expected '\\)'"),
        ("dim 3; [1,2]=3*1)", "coefficient '1\\)': syntax error near '\\)'"),
        ("dim 3; [1,2]=3*" + "(" * 3000 + "1" + ")" * 3000, "nested too deeply"),
        ("dim 3; [1,2]=3*" + "-" * 3000 + "1", "nested too deeply"),
        ("dim 3; [1,2]=3*" + "7" * 5000, "numeral of 5000 digits is too long"),
        ("dim " + "3" * 5000, "numeral of 5000 digits is too long"),
        ("dim 3; [1,2]=3*sqrt(1000000000000000000000007)", "above 10\\^12"),
        (MANY_SURDS, "more than 64 square-root terms"),
    ],
    ids=lambda v: v if len(v) <= 60 else f"{v[:30]}...{len(v)} chars",
)
def test_parse_errors(text, fragment):
    start = time.perf_counter()
    with pytest.raises(LawError, match=fragment):
        parse_law(text)
    assert time.perf_counter() - start < 1


def test_parse_errors_agree_with_scanner_oracle():
    # the error paths above are errors of the scanner too; the five refusals
    # at the end met RecursionError, ValueError or a trial division of hours there
    for text in ("dim 3; [1,2]=3*2$", "dim 3; [1,2]=3*", "dim 3; [1,2]=3*2*", "dim ;", "dim 3; [a,2]=3",
                 "dim 3; [1,2]=3 [1,3]=2", "dim 3; [1,2]=3*(1+2", "dim 3; [1,2]=3*1)"):
        with pytest.raises(LawError):
            scanner_parse_law(text)


def test_empty_statements_are_accepted():
    law = parse_law("dim 3; [1,2]=3")
    assert parse_law(" dim 3;; [1,2]=3 ;;\n;") == law == scanner_parse_law(" dim 3;; [1,2]=3 ;;\n;")
    assert parse_law("dim 3;;") == LieLaw(3, {})


# "é" is bound but is no name of the grammar: the text "2é" stays an error
PARSE_PARAMS = {"a": Fraction(2), "lam": Fraction(-1, 3), "z": Fraction(0), "é": Fraction(5)}


def _parsed(parse, text, params=None):
    """(dim, {triple: (type, value)}) of the law `parse` reads from text, or None when it raises LawError."""
    try:
        law = parse(text, params)
    except LawError:
        return None
    return law.dim, {t: (type(c), c) for t, c in law.brackets.items()}


def _catalog_texts() -> list[tuple[str, dict | None]]:
    """Every law text of the shipped catalog with its parameter binding: laws per sample, witnesses, limits."""
    doc = json.loads(resources.files("nilrad").joinpath("data/catalog7.json").read_text())
    out = []
    for e in doc["entries"]:
        params = e.get("params")
        samples = [{params["name"]: Fraction(v)} for v in params["samples"]] if params else [None]
        out += [(e["law"], bound) for bound in samples]
        exp = e["expected"]
        out += [(exp["witness_law"], None)] if exp.get("witness_law") else []
        limit = (exp.get("degeneration") or {}).get("limit")
        out += [(limit, None)] if limit not in (None, "zero") else []
    return out


def test_parser_agrees_with_scanner_oracle_on_catalog_texts():
    texts = _catalog_texts()
    assert len(texts) == 155
    for text, bound in texts:
        ours = _parsed(parse_law, text, bound)
        assert ours is not None and ours == _parsed(scanner_parse_law, text, bound), text


# the characters of law texts, and characters that no law text contains
LAW_ALPHABET = "0123456789 dimsqrtalz[],;=+-*/()"
JUNK = "$.é٣²_\t\n\u00a0"


def _random_coefficient(rng, depth):
    """A random coefficient of at most `depth` nested levels, from the grammar (`mu` is unbound)."""
    pick = rng.randrange(8 if depth else 3)
    sub = lambda: _random_coefficient(rng, depth - 1)  # noqa: E731
    return [
        lambda: str(rng.randrange(13)),
        lambda: rng.choice(("a", "lam", "z", "mu")),
        lambda: f"sqrt({rng.randrange(13)})",
        lambda: f"-{sub()}",
        lambda: f"({sub()}{rng.choice('+-')}{sub()})",
        lambda: f"{sub()}{rng.choice(('*', '/', ' ', ''))}{sub()}",
        lambda: f"sqrt({sub()})",
        lambda: f"({sub()})",
    ][pick]()


def random_law_text(rng) -> str:
    """A law text from the grammar, then up to three edits that insert, delete or repeat characters."""
    n = rng.randrange(2, 6)
    statements = [f"dim {n}"]
    for _ in range(rng.randrange(4)):
        top = n + (rng.random() < 0.1)  # n + 1 is out of range
        i, j = sorted(rng.sample(range(1, top + 1), 2))
        comps = [f"{rng.randint(1, top)}" + rng.choice(("", f"*{_random_coefficient(rng, 2)}")) for _ in range(2)]
        statements.append(f"[{i},{j}]={'+'.join(comps[: rng.randrange(1, 3)])}")
    text = rng.choice(("; ", ";", " ;\n", ";;")).join(statements)
    for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
        p = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:p] + rng.choice(LAW_ALPHABET + JUNK) + text[p:]
        elif edit == 1:
            text = text[:p] + text[p + 1 :]
        else:
            text = text[:p] + text[p : p + rng.randrange(1, 4)] + text[p:]
    return text


def test_parser_agrees_with_scanner_oracle_on_random_texts():
    # the same accept/reject, equal laws and the same coefficient types
    rng = random.Random(13)
    accepted = surds = 0
    for _ in range(20_000):
        text = random_law_text(rng)
        ours = _parsed(parse_law, text, PARSE_PARAMS)
        assert ours == _parsed(scanner_parse_law, text, PARSE_PARAMS), text
        accepted += ours is not None
        surds += ours is not None and any(t is Surd for t, _ in ours[1].values())
    assert accepted > 4_000 and surds > 400


def test_jacobi_heisenberg_empty():
    assert jacobi_violations(parse_law(HEISENBERG)) == []


def test_jacobi_violation_residual():
    bad = parse_law("dim 3; [1,2]=3; [2,3]=1; [1,3]=3")
    violations = jacobi_violations(bad)
    assert len(violations) == 1
    i, j, k, res = violations[0]
    assert (i, j, k) == (1, 2, 3)
    assert res == [Fraction(-1), Fraction(0), Fraction(0)]


def test_jacobi_all_catalog_entries(entries):
    for entry in entries:
        assert jacobi_violations(entry.law()) == [], entry.id


def test_series_abelian():
    sig = series_signature(parse_law("dim 7;"))
    assert sig.derived_dims == (7, 0)
    assert sig.lcs_dims == (7, 0)


def test_series_examples(by_id):
    sig = series_signature(by_id["2.3"].law())
    assert sig.lcs_dims == (7, 5, 4, 3, 2, 1, 0)
    assert sig.derived_dims == (7, 5, 0)
    sig = series_signature(by_id["0.4[lambda=1]"].law())
    assert sig.derived_dims == (7, 5, 1, 0)


def test_series_is_cached_on_the_law(by_id):
    law = parse_law(by_id["2.3"].law_text)
    assert law.series is law.series == series_signature(law)


@pytest.mark.parametrize("text, value", [("7", 7), ("-3/4", Fraction(-3, 4)), ("0", 0), ("4/2", 2), ("-0/5", 0)])
def test_parse_rational_reads_literals(text, value):
    assert parse_rational(text) == value


# text Fraction() also reads (an exponent of 10^6 digits took 8.3 s), and text it refuses
@pytest.mark.parametrize(
    "text", ["1e6000000", "1e5000", "1.5", "+1", " 1", "1/-2", "1/0", "--1", "", "٣", "7" * 5000, "1/" + "7" * 5000]
)
def test_parse_rational_refuses_other_text_at_once(text):
    start = time.perf_counter()
    with pytest.raises(LawError):
        parse_rational(text)
    assert time.perf_counter() - start < 0.1


def test_act_identity_and_diagonal():
    law = parse_law(HEISENBERG)
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert act(ident, law) == law
    g = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    assert dict(act(g, law).brackets) == {(1, 2, 3): Fraction(2)}


def test_act_singular_rejected():
    with pytest.raises(LawError, match="singular"):
        act([[1, 0, 0], [1, 0, 0], [0, 0, 1]], parse_law(HEISENBERG))


def _random_invertible(rng, n):
    while True:
        g = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if dense_inv(g) is not None:
            return g


def test_act_is_group_action(by_id):
    rng = random.Random(7)
    law = by_id["2.5"].law()
    for _ in range(5):
        g = _random_invertible(rng, 7)
        h = _random_invertible(rng, 7)
        assert act(g, act(h, law)) == act(matmul(g, h), law)


def test_series_and_jacobi_invariant_under_act(by_id):
    rng = random.Random(11)
    law = by_id["1.4"].law()
    sig = series_signature(law)
    for _ in range(5):
        g = _random_invertible(rng, 7)
        moved = act(g, law)
        assert series_signature(moved) == sig
        assert jacobi_violations(moved) == []


def test_scale():
    law = parse_law(HEISENBERG)
    assert scale(law, 3).brackets[(1, 2, 3)] == 3
    assert scale(law, Fraction(1, 2)).brackets[(1, 2, 3)] == Fraction(1, 2)


def test_format_parse_round_trip():
    """format_law then parse_law gives the law back, and formatting again the same text: on the
    edge cases first (no bracket, dim 2 and 5, coefficients +-9, denominators 1 and 9), then on
    seeded laws of dim 2..5 with 0..4 brackets of coefficient +-(1..9) / (1..9)."""
    laws = [
        LieLaw(2, {}),
        LieLaw(5, {}),
        LieLaw(2, {(1, 2, 1): Fraction(9), (1, 2, 2): Fraction(-9, 9)}),
        LieLaw(5, {(1, 5, 5): Fraction(-9, 1), (4, 5, 1): Fraction(9, 9), (2, 3, 4): Fraction(1, 9)}),
    ]
    rng = random.Random(80)
    for _ in range(300):
        dim = rng.randint(2, 5)
        brackets = {}
        for _ in range(rng.randint(0, 4)):
            i = rng.randint(1, dim - 1)
            t = (i, rng.randint(i + 1, dim), rng.randint(1, dim))
            brackets[t] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        laws.append(LieLaw(dim, brackets))
    for law in laws:
        text = format_law(law)
        assert parse_law(text) == law, text
        assert format_law(parse_law(text)) == text


def test_surd_values_are_canonical():
    r2, r3 = Surd.sqrt(2), Surd.sqrt(3)
    assert Surd.sqrt(8) == 2 * r2
    assert Surd.sqrt(Fraction(1, 2)) == r2 / 2
    assert Surd.sqrt(4) == 2 and type(Surd.sqrt(4)) is Fraction
    assert r2 * Surd.sqrt(6) == 2 * r3
    assert r2 * r3 == Surd.sqrt(6)
    cancelled = (1 + r2) * (1 - r2) + 1 + (r3 - r3)
    assert cancelled == 0 and type(cancelled) is Fraction
    assert r2 != Fraction(7, 5) and r2 != r3 and r2 != 2 * r2


def test_surd_hash_agrees_with_eq():
    a = Surd.sqrt(8) + Surd.sqrt(3)
    b = Surd.sqrt(12) / 2 + 2 * Surd.sqrt(2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Surd.sqrt(2)}) == 2
    # 3 * 1009^2: the cofactor left after trial division is the square 1009^2
    assert Surd.sqrt(3 * 1009**2) == 1009 * Surd.sqrt(3)
    assert Surd.sqrt(605845438) * Surd.sqrt(605845438) == 605845438  # the largest radicand, in 1.14


def test_surd_laws_round_trip(entries):
    witnesses = {e.expected.witness_law for e in entries if e.expected.witness_law is not None}
    surd_laws = [w for w in witnesses if not w.is_rational]
    assert len(surd_laws) == 13
    surd_laws.append(LieLaw(3, {(1, 2, 3): 1 - Surd.sqrt(2) / 3, (1, 3, 2): -Surd.sqrt(5)}))
    for w in surd_laws:
        assert parse_law(format_law(w)) == w


def test_act_rejects_float_input():
    # act() is exact: a float entry or a Surd law is refused
    law = parse_law(HEISENBERG)
    with pytest.raises(LawError, match="exact"):
        act([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]], law)
    with pytest.raises(LawError, match="exact"):
        act([[1, 0, 0], [0, 1, 0], [0, 0, 1]], parse_law("dim 3; [1,2]=3*sqrt(2)"))


@pytest.mark.parametrize(
    "g",
    [
        [[1, 0, 0], [0, 1, 0]],
        [[int(a == b) for b in range(4)] for a in range(4)],
        [[1, 0], [0, 1]],
        [[1, 0, 0], [0, 1], [0, 0, 1]],
    ],
    ids=["2x3", "4x4", "2x2", "ragged"],
)
def test_act_rejects_wrong_shape(g):
    # a g that is not n x n is refused before any arithmetic, not read as far as its rows reach
    with pytest.raises(LawError, match="shape 3 x 3"):
        act(g, parse_law(HEISENBERG))
