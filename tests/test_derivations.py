from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from nilrad.algebra import act, parse_law
from nilrad.derivations import (
    Invariants,
    derivation_space,
    diagonal_rank,
    dim_der,
    positivity_gate,
    pre_einstein,
)
from oracles import fraction_engel_flag, identity, in_span, is_derivation


def test_abelian_derivations():
    for n in (1, 2, 4):
        law = parse_law(f"dim {n};")
        assert dim_der(law) == n * n


def test_degenerate_dims_accepted():
    from nilrad.algebra import series_signature

    zero = parse_law("dim 0;")
    assert series_signature(zero).derived_dims == (0,)
    one = parse_law("dim 1;")
    assert series_signature(one).lcs_dims == (1, 0)
    assert dim_der(one) == 1


def test_phi_commutes_with_torus(by_id):
    # diagonal matrices commute; assert it anyway as the cheap sanity the
    # interface promises
    for eid in ("2.3", "3.8"):
        law = by_id[eid].law()
        phi = Invariants(law).phi
        for g in diagonal_rank(law):
            lhs = [p * Fraction(v) for p, v in zip(phi, g)]
            rhs = [Fraction(v) * p for p, v in zip(phi, g)]
            assert lhs == rhs


def test_basis_satisfies_derivation_identity(by_id):
    for eid in ("2.3", "1.11", "0.1", "3.24"):
        law = by_id[eid].law()
        space = derivation_space(law)
        for d in space.basis:
            assert is_derivation(law, [list(r) for r in d]), eid


def test_torus_elements_are_derivations(by_id):
    law = by_id["2.5"].law()
    for g in diagonal_rank(law):
        assert not any(law.weights(g))


def test_rank_examples(by_id):
    assert diagonal_rank(by_id["0.1"].law()) == []
    gens = diagonal_rank(by_id["2.3"].law())
    assert len(gens) == 2
    span = [[Fraction(v) for v in g] for g in gens]
    assert in_span(span, [Fraction(v) for v in [1, 0, 1, 2, 3, 4, 5]])
    assert in_span(span, [Fraction(v) for v in [0, 1, 1, 1, 1, 1, 1]])
    assert len(diagonal_rank(by_id["4.2"].law())) == 4


def test_pre_einstein_examples(by_id):
    phi = Invariants(by_id["1.1(i_l)[lambda=2]"].law()).phi
    assert list(phi) == [Fraction(k, 5) for k in range(1, 8)]
    phi = Invariants(by_id["1.2(i_0)"].law()).phi
    assert list(phi) == [Fraction(4 * v, 11) for v in [1, 1, 2, 2, 3, 3, 4]]
    phi = Invariants(by_id["1.01(i)"].law()).phi
    assert list(phi) == [Fraction(v) for v in [0, 1, 0, 1, 1, 1, 1]]


def test_pre_einstein_trace_property(by_id):
    for eid in ("2.3", "1.4", "3.8"):
        law = by_id[eid].law()
        inv = Invariants(law)
        phi = pre_einstein(inv)
        n = law.dim
        for psi in inv.der.basis:
            tr_phi_psi = sum(phi[i] * psi[i][i] for i in range(n))
            tr_psi = sum(psi[i][i] for i in range(n))
            assert tr_phi_psi == tr_psi


def test_pre_einstein_rank_zero_rejected(by_id):
    # 0.1 is characteristically nilpotent: Der's Engel series falls by one each step to 0,
    # so every derivation is traceless and phi = 0 passes the check against Der
    inv = Invariants(by_id["0.1"].law())
    assert inv.torus == () and inv.phi == "rank_zero"
    assert pre_einstein(inv) == (Fraction(0),) * 7
    assert fraction_engel_flag(inv.der) == (7, 6, 5, 4, 3, 2, 1, 0)
    assert all(sum(psi[i][i] for i in range(7)) == 0 for psi in inv.der.basis)


def test_positivity_gate():
    # the index of the first eigenvalue <= 0, None when all are positive
    assert positivity_gate(tuple(Fraction(v) for v in [1, 1, 0, 1, -1, 1, 1])) == 2
    assert positivity_gate(tuple(Fraction(k, 5) for k in range(1, 8))) is None
    assert positivity_gate((Fraction(0),) * 7) == 0


def test_dim_der_invariant_under_sparse_basis_change(by_id):
    rng = random.Random(23)
    law = by_id["2.6"].law()
    expect = dim_der(law)
    for _ in range(5):
        g = identity(7)
        a, b = rng.sample(range(7), 2)
        g[a][b] = Fraction(rng.randint(1, 3))
        assert dim_der(act(g, law)) == expect


def test_torus_generators_lie_in_span(by_id, torus_data):
    for eid, gens in torus_data.items():
        matches = [e for key, e in by_id.items() if key == eid or key.startswith(f"{eid}[")]
        assert matches, eid
        for entry in matches:
            span = [[Fraction(v) for v in g] for g in diagonal_rank(entry.law())]
            for recorded in gens:
                assert in_span(span, [Fraction(v) for v in recorded]), (entry.id, recorded)


# SHA-256 of one pass of the hand-run `basis_change` benchmark workload (seed 1),
# whose output prints the dense Der basis of seven moved catalog laws entry by entry
BASIS_CHANGE_SHA256 = "13784da3abd653fe9793dcc0af6893fb6983eae18c74139efb5c4525c543ab65"


def test_basis_change_workload_output_is_unchanged(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root))
    from perfbench.reference import digest
    from perfbench.workloads import BasisChange

    done = BasisChange(root, 1).run_pass(0, calibrated=False)
    assert len(done.answers) == 7 and [a.failure for a in done.answers if a.failure] == []
    assert digest(done.outputs) == BASIS_CHANGE_SHA256
