from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nilrad.algebra import parse_law
from nilrad.catalog import format_distinction
from nilrad.degeneration import (
    DegenerationWitness,
    TrivialCone,
    distinguish,
    g_phi_lattice,
    in_g_phi,
    one_param_limit,
    search_degeneration,
)
from nilrad.derivations import PreEinsteinDerivation, derivation_space, pre_einstein
from nilrad.nicebasis import is_nice
from oracles import limit_is_lie, trivial_cone_certificate_holds


def _phi(scale, vec):
    return PreEinsteinDerivation(tuple(Fraction(scale) * v for v in vec))


def test_in_g_phi_examples():
    phi = _phi(Fraction(4, 11), [1, 1, 2, 2, 3, 3, 4])
    assert in_g_phi([1, -1, 0, 0, 1, -1, 0], phi)
    phi = _phi(Fraction(5, 17), [1, 2, 2, 3, 3, 4, 5])
    assert in_g_phi([-1, 2, -2, 1, 1, 0, -1], phi)
    assert not in_g_phi([1] * 7, phi)


def test_limit_identity_flow(by_id):
    law = by_id["1.4"].law()
    res = one_param_limit(law, [0] * 7)
    assert res.kind == "limit" and res.law == law


def test_limit_divergent():
    law = parse_law("dim 3; [1,2]=3")
    res = one_param_limit(law, [0, 0, 1])
    assert res.kind == "divergent"


def test_limit_zero(by_id):
    entry = by_id["1.2(iv)"]
    res = one_param_limit(entry.law(), [Fraction(v) for v in entry.expected.degeneration.x])
    assert res.kind == "zero"


def test_limit_recorded_bracket_deleted(by_id):
    entry = by_id["1.2(ii)"]
    law = entry.law()
    res = one_param_limit(law, [1, -1, 0, 0, 1, -1, 0])
    assert res.kind == "limit"
    expect = dict(law.brackets)
    del expect[(1, 5, 7)]
    assert dict(res.law.brackets) == expect


def test_limits_satisfy_jacobi(entries):
    for entry in entries:
        degen = entry.expected.degeneration
        if degen is None or degen.limit == "zero" or degen.x is None:
            continue
        res = one_param_limit(entry.law(), [Fraction(v) for v in degen.x])
        assert limit_is_lie(res), entry.id


@pytest.fixture(scope="module")
def walked(entries):
    """(entry, law, phi, walk result) for every catalog law that is not nice and has rank > 0."""
    out = []
    for e in entries:
        law = e.law()
        space = derivation_space(law)
        if space.diag_basis and not is_nice(law).nice:
            phi = pre_einstein(law, space)
            out.append((e, law, phi, search_degeneration(law, phi)))
    return out


def test_searched_limits_satisfy_jacobi(walked):
    assert len(walked) == 27
    limits = [w for _, _, _, w in walked if isinstance(w, DegenerationWitness) and w.limit.kind == "limit"]
    assert len(limits) == 3  # 1.2(ii), 1.3(v), 2.2
    assert all(limit_is_lie(w.limit) for w in limits)


def test_walk_witnesses_lie_in_g_phi_and_match_their_limit(walked):
    decided = {}
    for e, law, phi, w in walked:
        if isinstance(w, DegenerationWitness):
            assert in_g_phi(w.x, phi) and any(w.x), e.id
            assert one_param_limit(law, w.x) == w.limit, e.id
            assert w.limit.kind == "zero" or w.distinction is not None, e.id
            decided[e.id] = "zero" if w.distinction is None else format_distinction(w.distinction)
    # the four laws the positivity gate decides first also walk to a zero limit
    assert decided == {
        "1.01(i)": "zero", "1.01(ii)": "zero", "1.02": "zero", "1.03": "zero",
        "1.2(ii)": "dim_der 12 vs 13", "1.2(iv)": "zero", "1.3(ii)": "zero", "1.3(v)": "dim_der 13 vs 14",
        "1.21": "zero", "2.2": "dim_der 15 vs 17",
    }


def test_trivial_cone_certificates(walked):
    trivial = [(e, law, phi, w) for e, law, phi, w in walked if isinstance(w, TrivialCone)]
    # all 16 EN laws that are not nice, and 1.3(i_0), whose recorded limit needs a basis change
    assert sorted(e.expected.verdict for e, *_ in trivial) == ["EN"] * 16 + ["NOT_EN"]
    assert [e.id for e, *_ in trivial if e.expected.verdict == "NOT_EN"] == ["1.3(i_0)"]
    for e, law, phi, w in trivial:
        assert trivial_cone_certificate_holds(law, phi.phi, w.y), e.id
        # corrupting any single weight breaks the certificate
        for t in range(len(w.y)):
            bad = list(w.y)
            bad[t] += 1
            assert not trivial_cone_certificate_holds(law, phi.phi, bad), (e.id, t)
        assert not trivial_cone_certificate_holds(law, phi.phi, w.y[:-1])


def test_distinguish_self(by_id):
    law = by_id["2.3"].law()
    assert distinguish(law, law) is None


def test_distinguish_examples(by_id):
    entry = by_id["1.3(ii)"]
    limit = parse_law(entry.expected.degeneration.limit)
    d = distinguish(entry.law(), limit)
    assert d is not None  # separated (series fires first; dim Der is 14 vs 21)

    entry = by_id["1.2(ii)"]
    limit = parse_law(entry.expected.degeneration.limit)
    d = distinguish(entry.law(), limit)
    assert d is not None


def test_distinguish_invariant_under_monomial_changes(by_id):
    # monomial basis changes preserve diagonal rank, so the whole ladder is
    # invariant for them
    from nilrad.algebra import act

    rng = random.Random(31)
    law = by_id["2.5"].law()
    for _ in range(5):
        perm = list(range(7))
        rng.shuffle(perm)
        g = [[Fraction(0)] * 7 for _ in range(7)]
        for i, p in enumerate(perm):
            g[i][p] = Fraction(rng.choice([1, 2, -1]))
        assert distinguish(law, act(g, law)) is None


def test_g_phi_lattice_members(by_id):
    law = by_id["1.21"].law()
    phi = pre_einstein(law)
    for row in g_phi_lattice(phi, 7):
        assert in_g_phi(row, phi)


def test_search_finds_injected_witness(entries):
    # every recorded X is a witness of its own: one_param_limit gives the recorded limit
    recorded = [e for e in entries if e.expected.degeneration is not None and e.expected.degeneration.x is not None]
    assert len(recorded) == 6
    for entry in recorded:
        rec = entry.expected.degeneration
        res = one_param_limit(entry.law(), rec.x)
        assert in_g_phi(rec.x, pre_einstein(entry.law())), entry.id
        if rec.limit == "zero":
            assert res.kind == "zero", entry.id
        else:
            assert (res.kind, res.law) == ("limit", rec.limit_law), entry.id


def test_search_none_on_abelian():
    law = parse_law("dim 7;")
    phi = PreEinsteinDerivation(tuple(Fraction(1) for _ in range(7)))
    assert search_degeneration(law, phi) == TrivialCone(())
