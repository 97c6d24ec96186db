from __future__ import annotations

import random
from fractions import Fraction

from nilrad.algebra import Surd, act, parse_law
from nilrad.ricci import SolitonDecomposition, moment_map, soliton_check
from oracles import bracket, bracket_vectors, cayley_rotation, identity, matmul, norm_squared, scale, transpose

HEISENBERG = parse_law("dim 3; [1,2]=3")


def test_moment_heisenberg():
    assert moment_map(HEISENBERG) == ((-2, 0, 0), (0, -2, 0), (0, 0, 2))


def test_soliton_heisenberg():
    dec = soliton_check(HEISENBERG)
    assert dec.c == Fraction(-6)
    assert dec.d == (Fraction(4), Fraction(4), Fraction(8))
    # 8 = 4 + 4: the derivation identity on the single bracket
    assert dec.d[2] == dec.d[0] + dec.d[1]


def test_trace_identity_all_entries(entries):
    # audit-resolved constant: tr m(mu) = -2 sum of squared structure
    # constants (each stored bracket counted once)
    for entry in entries:
        law = entry.law()
        m = moment_map(law)
        tr = sum(m[i][i] for i in range(law.dim))
        assert tr == -2 * norm_squared(law), entry.id


def test_scaling_quadratic(by_id):
    law = by_id["2.3"].law()
    m1 = moment_map(law)
    for s in (2, 3):
        ms = moment_map(scale(law, s))
        for i in range(7):
            for j in range(7):
                assert ms[i][j] == s * s * m1[i][j]


def test_equivariance_under_rotations(by_id):
    # m(q . mu) = q m(mu) q^T, exactly, for seeded rational rotations q of det 1 and -1
    rng = random.Random(4)
    law = by_id["2.5"].law()
    m = moment_map(law)
    for t in range(10):
        q = cayley_rotation(rng, 7, flip=t % 3 == 0)
        assert matmul(q, transpose(q)) == identity(7)
        assert [list(row) for row in moment_map(act(q, law))] == matmul(matmul(q, m), transpose(q))


def test_soliton_check_rejects_non_soliton(by_id):
    # an arbitrary exact law whose moment map is diagonal but admits no
    # decomposition: the filiform 2.3 itself (not scaled to a soliton)
    law = by_id["2.3"].law()
    m = moment_map(law)
    assert not any(v for i, row in enumerate(m) for j, v in enumerate(row) if i != j)
    assert soliton_check(law) == "no decomposition"


def test_soliton_check_non_diagonal_reported():
    law = parse_law("dim 3; [1,2]=3; [1,3]=3*2")
    assert soliton_check(law) == "moment map is not diagonal"


def test_cross_check():
    dec = soliton_check(HEISENBERG)
    assert -dec.c == Fraction(6)
    assert -dec.c != Fraction(5)


def test_witness_decompositions_match_lp_norms(by_id, moment_data):
    for eid in moment_data:
        entry = by_id[eid]
        witness = entry.expected.witness_law
        dec = soliton_check(witness)
        assert isinstance(dec, SolitonDecomposition), eid
        assert -dec.c == entry.expected.soliton_norm, eid


def test_act_reproduces_111_witness(by_id):
    """The explicit change of basis g carries 1.11 onto its recorded witness mu_w = g . mu:
    mu_w(g e_i, g e_j) = g mu(e_i, e_j) for all i < j, exactly over `Surd`s, with no inverse.
    g is invertible, so these brackets fix mu_w."""
    law, witness = by_id["1.11"].law(), by_id["1.11"].expected.witness_law
    r = Surd.sqrt
    g = [
        [1, 0, 0, 0, 0, 0, 0],
        [0, r(2170) / 155, 0, 0, 0, 0, 0],
        [0, 0, -r(3990) / 1767, 7 * r(3990) / 8835, 0, 0, 0],
        [0, 0, r(42) / 93, r(42) / 93, 0, 0, 0],
        [0, 0, 0, 0, 28 * r(5890) / 91295, 0, 0],
        [0, 0, 0, 0, 0, 56 * r(95) / 91295, 0],
        [0, 0, 0, 0, 0, 0, 28 * r(23870) / 2830145],
    ]
    block = g[2][2] * g[3][3] - g[2][3] * g[3][2]  # g is block diagonal, one 2 x 2 block at rows 3, 4
    assert g[0][0] * g[1][1] * block * g[4][4] * g[5][5] * g[6][6] != 0
    cols = transpose(g)
    for i in range(1, 8):
        for j in range(i + 1, 8):
            moved = [sum(x * y for x, y in zip(row, bracket(law, i, j))) for row in g]
            assert bracket_vectors(witness, cols[i - 1], cols[j - 1]) == moved, (i, j)
    assert witness.brackets[(1, 2, 3)] == 7 * r(1767) / 1767
