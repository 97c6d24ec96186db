from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilrad.algebra import (
    LawError,
    LieLaw,
    Surd,
    act,
    format_law,
    jacobi_violations,
    parse_law,
    series_signature,
)
from oracles import matmul, scale

HEISENBERG = "dim 3; [1,2]=3"


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
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(LawError, match=fragment):
        parse_law(text)


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
        from nilrad import linalg

        if linalg.inv(g) is not None:
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


@st.composite
def exact_laws(draw):
    dim = draw(st.integers(min_value=2, max_value=5))
    n_brackets = draw(st.integers(min_value=0, max_value=4))
    brackets = {}
    for _ in range(n_brackets):
        i = draw(st.integers(1, dim - 1))
        j = draw(st.integers(i + 1, dim))
        k = draw(st.integers(1, dim))
        num = draw(st.integers(-9, 9).filter(bool))
        den = draw(st.integers(1, 9))
        brackets[(i, j, k)] = Fraction(num, den)
    from nilrad.algebra import LieLaw

    return LieLaw(dim, brackets)


@settings(max_examples=80, deadline=None)
@given(exact_laws())
def test_format_parse_round_trip(law):
    text = format_law(law)
    assert parse_law(text) == law
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
    witnesses = {e.expected.witness for e in entries if e.expected.witness_law}
    surd_laws = [w for w in witnesses if not w.is_rational]
    assert len(surd_laws) == 13
    surd_laws.append(LieLaw(3, {(1, 2, 3): 1 - Surd.sqrt(2) / 3, (1, 3, 2): -Surd.sqrt(5)}))
    for w in surd_laws:
        assert parse_law(format_law(w)) == w


def test_act_rejects_float_input():
    # the float basis change is a test oracle (tests/oracles.py); act() is exact
    law = parse_law(HEISENBERG)
    with pytest.raises(LawError, match="exact"):
        act([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]], law)
    with pytest.raises(LawError, match="exact"):
        act([[1, 0, 0], [0, 1, 0], [0, 0, 1]], parse_law("dim 3; [1,2]=3*sqrt(2)"))
