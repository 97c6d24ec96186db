from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nilrad.algebra import parse_law
from nilrad.nicebasis import (
    gram_matrix,
    is_nice,
    positive_solution,
    soliton_norm,
    solves_positively,
)
from oracles import nullspace, positive_solution_oracle


def test_is_nice_examples(by_id):
    law = by_id["2.3"].law()
    check = is_nice(law)
    assert check.nice and len(law.brackets) == 5
    check = is_nice(by_id["0.2"].law())
    assert not check.nice
    assert "N1" in check.reason and "(2,3)" in check.reason
    law = parse_law("dim 3; [1,2]=3")
    check = is_nice(law)
    assert check.nice and len(law.brackets) == 1


def test_is_nice_n2_violation():
    check = is_nice(parse_law("dim 7; [1,2]=7; [1,3]=7"))
    assert not check.nice and "N2" in check.reason


def test_gram_single_weight():
    assert gram_matrix(parse_law("dim 3; [1,2]=3")) == [[3]]


def test_gram_42(by_id):
    assert gram_matrix(by_id["4.2"].law()) == [[3, 1, 1], [1, 3, 1], [1, 1, 3]]


def test_gram_symmetric_diag3_all_nice_entries(entries):
    for entry in entries:
        if not entry.expected.nice:
            continue
        u = gram_matrix(entry.law())
        m = len(u)
        for a in range(m):
            assert u[a][a] == 3
            for b in range(m):
                assert u[a][b] == u[b][a]
                if a != b:
                    assert u[a][b] in (-1, 0, 1, 2)


def test_positive_solution_validates_witness():
    x = positive_solution([[3]])
    assert x == (Fraction(1, 3),)
    assert soliton_norm(x) == 3


def test_solves_positively_needs_x_of_u_size(by_id):
    u = gram_matrix(by_id["2.3"].law())
    x = tuple(Fraction(v, 37) for v in (5, 8, 9, 8, 5))
    assert solves_positively(u, x)
    # an entry beyond U's columns once went unread: zip() stopped at the shorter of row and x
    assert not solves_positively(u, x + (Fraction(5),))
    assert not solves_positively(u, x[:-1])


def test_no_positive_solution_134(by_id):
    entry = by_id["1.3(iv)"]
    u = gram_matrix(entry.law())
    assert positive_solution(u) == "no_positive_solution"
    # the unique solution has a negative component
    x = [Fraction(v, 17) for v in [5, 3, 4, -1, 3, 5]]
    assert all(sum(r * xv for r, xv in zip(row, x)) == 1 for row in u)


def test_inconsistent_system():
    assert positive_solution([[0]]) == "inconsistent"


def test_soliton_norm_examples():
    assert soliton_norm([Fraction(v, 10) for v in (1, 2, 2, 2, 1, 2, 1, 2, 1)]) == Fraction(5, 7)
    assert soliton_norm([Fraction(v, 37) for v in (5, 8, 9, 8, 5)]) == Fraction(37, 35)
    assert soliton_norm([Fraction(v, 5) for v in (1, 1, 1)]) == Fraction(5, 3)


def test_soliton_norm_rejects_nonpositive():
    with pytest.raises(ValueError):
        soliton_norm([Fraction(-1)])


def test_sum_constant_on_solution_set(entries):
    """Ux=[1] consistent forces [1] orthogonal to ker U, so sum(x) is
    constant on the whole solution set; assert on every nice entry."""
    from nilrad import linalg

    for entry in entries:
        if not entry.expected.nice:
            continue
        u = gram_matrix(entry.law())
        m = len(u)
        frac = [[Fraction(v) for v in row] for row in u]
        if linalg.solve(frac, [Fraction(1)] * m) is None:
            continue
        for k in nullspace(frac, ncols=m):
            assert sum(k) == 0, entry.id


def test_lp_matches_oracle_on_catalog_small_u(entries):
    seen = set()
    checked = 0
    for entry in entries:
        u = entry.expected.u
        if u is None or len(u) > 4:
            continue
        key = tuple(map(tuple, u))
        if key in seen:
            continue
        seen.add(key)
        lp_positive = not isinstance(positive_solution([list(r) for r in u]), str)
        assert lp_positive == positive_solution_oracle([list(r) for r in u]), entry.id
        checked += 1
    assert checked >= 10


def test_lp_matches_oracle_random():
    rng = random.Random(12345)
    for trial in range(300):
        m = rng.randint(1, 4)
        u = [[0] * m for _ in range(m)]
        for a in range(m):
            u[a][a] = rng.randint(-1, 4)
            for b in range(a + 1, m):
                u[a][b] = u[b][a] = rng.randint(-2, 3)
        lp_positive = not isinstance(positive_solution(u), str)
        assert lp_positive == positive_solution_oracle(u), u


def test_verdict_invariant_under_permutation(by_id):
    rng = random.Random(99)
    u = gram_matrix(by_id["1.4"].law())
    m = len(u)

    def status(res):  # the x of a positive solution is permuted too
        return res if isinstance(res, str) else "positive"

    base = status(positive_solution(u))
    for _ in range(10):
        perm = list(range(m))
        rng.shuffle(perm)
        pu = [[u[perm[a]][perm[b]] for b in range(m)] for a in range(m)]
        assert status(positive_solution(pu)) == base
