from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from nilrad.algebra import parse_law
from nilrad.ricci import SolitonDecomposition, moment_map, soliton_check
from oracles import act_float, norm_squared, scale, to_float

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
    rng = np.random.default_rng(4)
    law = to_float(by_id["2.5"].law())
    m = np.array(moment_map(law))
    for _ in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        moved = act_float(q.tolist(), law)
        m2 = np.array(moment_map(moved))
        assert np.max(np.abs(m2 - q @ m @ q.T)) < 1e-9


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
    """The explicit change of basis carries 1.11 onto its recorded witness."""
    from math import sqrt

    law = to_float(by_id["1.11"].law())
    g = [
        [1, 0, 0, 0, 0, 0, 0],
        [0, sqrt(2170) / 155, 0, 0, 0, 0, 0],
        [0, 0, -sqrt(3990) / 1767, 7 * sqrt(3990) / 8835, 0, 0, 0],
        [0, 0, sqrt(42) / 93, sqrt(42) / 93, 0, 0, 0],
        [0, 0, 0, 0, 28 * sqrt(5890) / 91295, 0, 0],
        [0, 0, 0, 0, 0, 56 * sqrt(95) / 91295, 0],
        [0, 0, 0, 0, 0, 0, 28 * sqrt(23870) / 2830145],
    ]
    moved = act_float(g, law)
    witness = to_float(by_id["1.11"].expected.witness_law)
    keys = set(moved.brackets) | set(witness.brackets)
    assert keys == set(witness.brackets)
    for k in keys:
        assert abs(moved.brackets[k] - witness.brackets[k]) < 1e-9
    assert moved.brackets[(1, 2, 3)] == pytest.approx(7 * sqrt(1767) / 1767)
