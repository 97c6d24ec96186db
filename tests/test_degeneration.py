from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from nilrad.algebra import act, format_law, parse_law
from nilrad.catalog import EN, INCONCLUSIVE, NOT_EN, CatalogEntry, _search_route, classify
from nilrad.degeneration import (
    DegenerationWitness,
    LimitResult,
    TrivialCone,
    degenerate,
    distinguish,
    g_phi_lattice,
    in_g_phi,
    one_param_limit,
    search_degeneration,
)
from nilrad.derivations import Invariants
from oracles import limit_is_lie, trivial_cone_certificate_holds


def _phi(scale, vec):
    return tuple(Fraction(scale) * v for v in vec)


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
        if degen is None or degen.limit is None or degen.x is None:
            continue
        res = one_param_limit(entry.law(), [Fraction(v) for v in degen.x])
        assert limit_is_lie(res), entry.id


@pytest.fixture(scope="module")
def walked(entries):
    """(entry, law, phi, walk result) for every catalog law that is not nice and has rank > 0."""
    out = []
    for e in entries:
        inv = Invariants(e.law())
        if inv.rank and not inv.nice.nice:
            out.append((e, inv.law, inv.phi, search_degeneration(inv)))
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
            decided[e.id] = "zero" if w.distinction is None else str(w.distinction)
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
        assert trivial_cone_certificate_holds(law, phi, w.y), e.id
        # corrupting any single weight breaks the certificate
        for t in range(len(w.y)):
            bad = list(w.y)
            bad[t] += 1
            assert not trivial_cone_certificate_holds(law, phi, bad), (e.id, t)
        assert not trivial_cone_certificate_holds(law, phi, w.y[:-1])


def test_distinguish_self(by_id):
    inv = Invariants(by_id["2.3"].law())
    assert distinguish(inv, inv) is None
    assert distinguish(inv, Invariants(by_id["2.3"].law())) is None


def test_distinguish_examples(by_id):
    entry = by_id["1.3(ii)"]
    limit = entry.expected.degeneration.limit
    d = distinguish(Invariants(entry.law()), Invariants(limit))
    assert d is not None  # separated (series fires first; dim Der is 14 vs 21)

    entry = by_id["1.2(ii)"]
    limit = entry.expected.degeneration.limit
    d = distinguish(Invariants(entry.law()), Invariants(limit))
    assert d is not None


def test_distinguish_invariant_under_monomial_changes(by_id):
    # distinguish compares only basis-free invariants, so no basis change
    # separates a law from itself
    rng = random.Random(31)
    law = by_id["2.5"].law()
    for _ in range(5):
        perm = list(range(7))
        rng.shuffle(perm)
        g = [[Fraction(0)] * 7 for _ in range(7)]
        for i, p in enumerate(perm):
            g[i][p] = Fraction(rng.choice([1, 2, -1]))
        assert distinguish(Invariants(law), Invariants(act(g, law))) is None


def test_degenerate_separates_only_a_limit_law(by_id):
    # the walk's witness is degenerate() at its X; the zero X keeps the law, which nothing separates from itself
    inv = Invariants(by_id["1.2(ii)"].law())
    found = search_degeneration(inv)
    assert degenerate(inv, found.x) == found and str(found.distinction) == "dim_der 12 vs 13"
    assert degenerate(inv, [0] * 7) == DegenerationWitness((0,) * 7, LimitResult("limit", inv.law), None)
    half = (Fraction(-1, 2),) * 7
    diverging = degenerate(inv, half)
    assert (diverging.x, diverging.limit, diverging.distinction) == (half, LimitResult("divergent"), None)
    assert [str(r) for r in (found.limit, diverging.limit)] == [format_law(found.limit.law), "divergent"]


# SHA-256 of [id, certificate] of the walk route on every catalog law with a
# phi, and of [id, X, in_g_phi, limit, distinction] of degenerate() on the X
# list below.  A change of either is a change of what the walk or a limit
# decides: update them only with a deliberate, documented change.
WALK_ROUTE_SHA256 = "6103001d1daf393f665aaa30ce7599bd560ee3bb3b441d70e630c1db7f778655"
DEGENERATE_X_SHA256 = "7df29e567dbcba36a0dd7e31a24df19e9cfb9e1a0d695edfdc29d251669ec3a7"


def _sha256(runs) -> str:
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()


def test_walk_route_on_every_law_with_a_phi(entries):
    # check reaches the walk only on laws that are not nice; on all 128 laws
    # with a phi it certifies exactly the NOT_EN laws but 1.3(i_0), whose
    # recorded limit needs a basis change, and never an EN law
    verdicts, runs = Counter(), []
    for e in sorted(entries, key=lambda e: e.id):
        inv = Invariants(e.law())
        if isinstance(inv.phi, str):
            continue
        dec = _search_route(inv)
        verdicts[e.expected.verdict, dec.verdict] += 1
        runs.append([e.id, dec.certificate])
        if e.id == "1.3(i_0)":
            assert dec.verdict == INCONCLUSIVE
    assert verdicts == Counter({(EN, INCONCLUSIVE): 95, (NOT_EN, NOT_EN): 32, (NOT_EN, INCONCLUSIVE): 1})
    assert _sha256(runs) == WALK_ROUTE_SHA256


def test_degenerate_on_the_recorded_walk_zero_and_divergent_x(entries):
    # on every law of positive rank: its recorded X, the walk's X, the zero X and X = (-1, ..., -1)
    runs = []
    for e in sorted(entries, key=lambda e: e.id):
        if e.expected.rank == 0:
            continue
        inv = Invariants(e.law())
        n, rec, found = inv.law.dim, e.expected.degeneration, search_degeneration(inv)
        xs = [] if rec is None or rec.x is None else [rec.x]
        xs += [found.x] if isinstance(found, DegenerationWitness) else []
        for x in [*xs, (0,) * n, (-1,) * n]:
            w = degenerate(inv, x)
            runs.append([e.id, list(map(str, x)), in_g_phi(x, inv.phi), str(w.limit), str(w.distinction)])
    assert len({tuple(x) for _, x, *_ in runs}) > 30
    assert _sha256(runs) == DEGENERATE_X_SHA256


def test_g_phi_lattice_members(by_id):
    phi = Invariants(by_id["1.21"].law()).phi
    for row in g_phi_lattice(phi, 7):
        assert in_g_phi(row, phi)


def test_search_finds_injected_witness(entries):
    # every recorded X is a witness of its own: one_param_limit gives the recorded limit
    recorded = [e for e in entries if e.expected.degeneration is not None and e.expected.degeneration.x is not None]
    assert len(recorded) == 6
    for entry in recorded:
        rec = entry.expected.degeneration
        res = one_param_limit(entry.law(), rec.x)
        assert in_g_phi(rec.x, Invariants(entry.law()).phi), entry.id
        if rec.limit is None:
            assert res.kind == "zero", entry.id
        else:
            assert (res.kind, res.law) == ("limit", rec.limit), entry.id


def test_search_none_on_abelian():
    inv = Invariants(parse_law("dim 7;"))
    assert inv.phi == (Fraction(1),) * 7
    assert search_degeneration(inv) == TrivialCone(())


def test_same_phi_unit_shears_get_no_false_not_en(entries):
    # A unit shear I + E_ij between two basis vectors with the same phi
    # eigenvalue moves an EN law to an isomorphic one whose diagonal torus
    # may be smaller.  Diagonal rank depends on the basis, so it must never
    # separate such a law from its limit: no shear may get NOT_EN.
    moved = []
    for e in entries:
        inv = Invariants(e.law())
        if e.expected.verdict != "EN" or not inv.rank:
            continue
        phi, n = inv.phi, inv.law.dim
        for i, j in itertools.permutations(range(n), 2):
            if phi[i] == phi[j]:
                g = [[int(a == b or (a, b) == (i, j)) for b in range(n)] for a in range(n)]
                moved.append((e.id, i, j, act(g, inv.law)))
    assert len(moved) == 272
    wrong = []
    for eid, i, j, law in moved:
        rep = classify(CatalogEntry("input", {}, format_law(law), None, parsed=law))
        distinctions = [str(c.get("distinguishing") or "") for c in rep.certificates]
        if rep.verdict == NOT_EN or any(d.startswith("rank") for d in distinctions):
            wrong.append((eid, i + 1, j + 1, rep.route, distinctions))
    assert wrong == []
