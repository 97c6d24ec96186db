from __future__ import annotations

import random
from fractions import Fraction

import pytest

import nilrad
from nilrad import linalg, lp
from nilrad.algebra import parse_law
from nilrad.derivations import Invariants
from nilrad.nicebasis import (
    gram_matrix,
    is_nice,
    positive_solution,
    soliton_norm,
    solves_positively,
)
from oracles import dense_solve, nullspace, positive_solution_oracle


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


def test_infeasible_or_unbounded_lp_fails_an_assertion():
    """[[0]] is the U of no weight map, and Ux = [1] has no solution there: no LP the
    pipeline builds is infeasible or unbounded, so meeting one is a program fault."""
    with pytest.raises(AssertionError, match="infeasible"):
        lp.max_min_component([[0]], [1])
    with pytest.raises(AssertionError, match="infeasible"):
        positive_solution([[0]])
    with pytest.raises(AssertionError, match="unbounded"):
        lp.solve_standard([[1, -1]], [0], [-1, 0])


def test_empty_u_is_solved_by_the_empty_x():
    # the Gram matrix of a law with no brackets: x = () solves Ux = [1] vacuously
    assert nilrad.positive_solution([]) == () == positive_solution([], nonsingular=True)
    assert solves_positively([], ()) is True


def _lp_x(u):
    """The x of lp.max_min_component on Ux = [1] and whether its capped t is positive."""
    t, x = lp.max_min_component(u, [1] * len(u))
    return t > 0, tuple(x)


def test_exact_solve_matches_lp_on_nonsingular_catalog_u(entries):
    """Where a law has dim - rank stored triples, U is nonsingular and Ux = [1] has one
    solution: the reduction of [U | 1] and the LP give the same x, byte for byte."""
    nice, outcomes = 0, set()
    for e in entries:
        inv = Invariants(e.law())
        u = gram_matrix(inv.law)
        if len(u) != inv.law.dim - inv.rank:
            continue
        positive, x = _lp_x(u)
        got = positive_solution(u, nonsingular=True)
        if positive:
            assert got == x and list(map(str, got)) == list(map(str, x)), e.id
        else:
            assert got == "no_positive_solution", e.id
        assert positive_solution(u) == got, e.id
        nice += inv.nice.nice
        outcomes.add(positive)
    assert nice == 58 and outcomes == {True, False}


def _random_weight_map(rng, n, m):
    """m weight rows f_i + f_j - f_k of random triples i < j, k not in {i, j}, over n basis vectors."""
    rows = []
    for _ in range(m):
        i, j, k = rng.sample(range(n), 3)
        row = [0] * n
        row[min(i, j)] += 1
        row[max(i, j)] += 1
        row[k] -= 1
        rows.append(row)
    return rows


def test_exact_solve_matches_lp_on_random_nonsingular_weight_maps():
    rng = random.Random(2037)
    outcomes = {"positive": 0, "no_positive_solution": 0}
    for _ in range(400):
        n = rng.randint(3, 8)
        y = _random_weight_map(rng, n, rng.randint(1, n))
        if len(linalg.integer_rref([dict(enumerate(row)) for row in y])) < len(y):
            continue  # Y of lower rank: U = Y Y^T is singular
        u = [[sum(a * b for a, b in zip(ra, rb)) for rb in y] for ra in y]
        positive, x = _lp_x(u)
        got = positive_solution(u, nonsingular=True)
        assert got == (x if positive else "no_positive_solution") == positive_solution(u), y
        outcomes["positive" if positive else got] += 1
    assert min(outcomes.values()) > 50, outcomes


def _particular_solution(u):
    """One solution of Ux = [1]: the reduced form of [U | 1], free columns set to 0."""
    s = len(u)
    reduced = linalg.integer_rref([{**dict(enumerate(row)), s: 1} for row in u])
    assert s not in reduced  # consistent: [1] = Y.1 lies in the column space of Y, which is that of U
    x = [Fraction(0)] * s
    for c, row in reduced.items():
        x[c] = Fraction(row.get(s, 0), row[c])
    return x


def _one_minus_yt_x(y, x):
    return [1 - sum(yr[i] * xr for yr, xr in zip(y, x)) for i in range(len(y[0]))]


def test_phi_is_one_minus_y_transpose_x(entries, reports):
    """phi = 1 - Y^T x for every x with Ux = [1]: phi - 1 lies in the row space of Y
    (tr(phi psi) = tr(psi) on the torus ker Y) and Y phi = 0, so phi - 1 = Y^T z with
    U z = -Y.1 = -[1], and Y^T is zero on ker U.  It ties the torus kernel (phi) to
    the Gram system (U, x)."""
    checked = certified = 0
    for e in entries:
        inv = Invariants(e.law())
        if not inv.law.brackets or isinstance(inv.phi, str):
            continue
        y, u = inv.law.weight_rows, gram_matrix(inv.law)
        assert _one_minus_yt_x(y, _particular_solution(u)) == list(inv.phi), e.id
        checked += 1
        cert = reports[e.id].certificates[0]
        if reports[e.id].route == "nice_lp" and cert["kind"] == "positive_solution":
            assert _one_minus_yt_x(y, [Fraction(v) for v in cert["x"]]) == list(inv.phi), e.id
            certified += 1
    assert (checked, certified) == (128, 79)  # the laws of rank > 0; the EN ones of the nice LP route


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
    for entry in entries:
        if not entry.expected.nice:
            continue
        u = gram_matrix(entry.law())
        m = len(u)
        frac = [[Fraction(v) for v in row] for row in u]
        if dense_solve(frac, [Fraction(1)] * m) is None:
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
    """Random symmetric U: the LP against the vertex oracle where Ux = [1] is consistent;
    elsewhere U is the Gram matrix of no weight map and the LP's guard fails."""
    rng = random.Random(12345)
    inconsistent = 0
    for trial in range(300):
        m = rng.randint(1, 4)
        u = [[0] * m for _ in range(m)]
        for a in range(m):
            u[a][a] = rng.randint(-1, 4)
            for b in range(a + 1, m):
                u[a][b] = u[b][a] = rng.randint(-2, 3)
        if dense_solve(u, [1] * m) is None:
            with pytest.raises(AssertionError, match="infeasible"):
                positive_solution(u)
            inconsistent += 1
            continue
        lp_positive = not isinstance(positive_solution(u), str)
        assert lp_positive == positive_solution_oracle(u), u
    assert 0 < inconsistent < 100, inconsistent


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
