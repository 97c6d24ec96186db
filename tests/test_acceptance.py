"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; the same checks gate the default `pytest` run.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import numpy as np

from nilrad import linalg
from nilrad.algebra import act, format_law, parse_law, series_signature
from nilrad.catalog import CatalogEntry, classify, fmt_rat
from nilrad.degeneration import (
    distinguish,
    in_g_phi,
    one_param_limit,
)
from nilrad.derivations import (
    diagonal_is_derivation,
    diagonal_rank,
    dim_der,
    pre_einstein,
)
from nilrad.nicebasis import gram_matrix, is_nice, positive_solution, soliton_norm
from nilrad.ricci import moment_map, soliton_check
from oracles import (
    act_float,
    limit_is_lie,
    norm_squared,
    positive_solution_oracle,
    to_float,
    trivial_cone_certificate_holds,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


def test_c1_catalog_header_invariants(entries, reports):
    """dim Der and both series signatures match the tables exactly."""
    fields = {"dim_der", "derived", "lcs", "rank"}
    bad = [
        (r.id, m)
        for r in reports.values()
        for m in r.mismatches
        if m["field"] in fields
    ]
    spot = reports["2.3"].computed
    ok = (
        not bad
        and spot["dim_der"] == 13
        and spot["derived"] == [7, 5, 0]
        and spot["lcs"] == [7, 5, 4, 3, 2, 1, 0]
    )
    _verdict("criterion 1", ok, f"{len(entries)} entries, header mismatches: {bad or 'none'}")


def test_c2_pre_einstein_exact(entries, reports):
    bad = [(r.id, m) for r in reports.values() for m in r.mismatches if m["field"] == "pre_einstein"]
    spot_ok = (
        reports["1.1(i_l)[lambda=2]"].computed["pre_einstein"]
        == [fmt_rat(Fraction(k, 5)) for k in range(1, 8)]
        and reports["1.2(i_0)"].computed["pre_einstein"]
        == [fmt_rat(Fraction(4 * v, 11)) for v in [1, 1, 2, 2, 3, 3, 4]]
        and reports["1.01(i)"].computed["pre_einstein"] == ["0", "1", "0", "1", "1", "1", "1"]
    )
    n_checked = sum(1 for e in entries if e.expected.pre_einstein is not None)
    _verdict("criterion 2", not bad and spot_ok, f"{n_checked} recorded derivations, mismatches: {bad or 'none'}")


def test_c3_nice_basis_route(entries, reports):
    fields = {"nice", "U", "x", "soliton_norm"}
    bad = [(r.id, m) for r in reports.values() for m in r.mismatches if m["field"] in fields]
    n_nice = 0
    for entry in entries:
        exp = entry.expected
        if not exp.nice:
            continue
        n_nice += 1
        if isinstance(exp.x, tuple):
            u = exp.u
            assert u is not None, entry.id
            assert all(
                sum(Fraction(r) * x for r, x in zip(row, exp.x)) == 1 for row in u
            ), entry.id
            assert min(exp.x) > 0, entry.id
            if exp.soliton_norm is not None:
                assert soliton_norm(exp.x) == exp.soliton_norm, entry.id
    spot = {
        "1.1(i_l)[lambda=2]": Fraction(5, 7),
        "2.3": Fraction(37, 35),
        "4.2": Fraction(5, 3),
    }
    spot_ok = all(
        reports[eid].computed.get("soliton_norm") == fmt_rat(v) for eid, v in spot.items()
    )
    _verdict("criterion 3", not bad and spot_ok, f"{n_nice} nice entries, mismatches: {bad or 'none'}")


_U_237 = [
    [3, 0, 1, 1, 0, 1, 1, -1],
    [0, 3, 1, 0, 1, 1, 0, 1],
    [1, 1, 3, 1, 1, 1, -1, 1],
    [1, 0, 1, 3, 0, -1, 1, 1],
    [0, 1, 1, 0, 3, 1, 0, 1],
    [1, 1, 1, -1, 1, 3, 1, 1],
    [1, 0, -1, 1, 0, 1, 3, 1],
    [-1, 1, 1, 1, 1, 1, 1, 3],
]
_X_237 = [Fraction(v, 22) for v in (4, 4, 3, 3, 4, 1, 5, 2)]


def test_c4_moment_map_audit(by_id, moment_data):
    checked = []
    for eid, rec in sorted(moment_data.items()):
        entry = by_id[eid]
        witness = parse_law(entry.expected.witness_law)
        m = moment_map(witness)
        assert m.is_diagonal(), eid
        assert m.diagonal() == [Fraction(v) for v in rec["diag"]], eid
        dec = soliton_check(witness, m)
        assert dec is not None, eid
        assert dec.c == Fraction(rec["c"]), eid
        d_recorded = [Fraction(rec["d_scale"]) * v for v in rec["d"]]
        assert list(dec.d) == d_recorded, eid
        assert diagonal_is_derivation(witness, d_recorded), eid
        checked.append(eid)
    # 2.37's witness is exact and certified through its own nice basis
    w237 = parse_law(by_id["2.37"].expected.witness_law)
    nc = is_nice(w237)
    assert nc.nice
    assert gram_matrix(w237) == _U_237
    assert all(sum(r * x for r, x in zip(row, _X_237)) == 1 for row in _U_237)
    assert min(_X_237) > 0
    assert soliton_norm(_X_237) == Fraction(11, 13)
    checked.append("2.37")
    _verdict("criterion 4", len(checked) == 14, f"witness audits: {', '.join(checked)}")


def test_c5_degeneration_records(entries, reports):
    checked = []
    for entry in sorted(entries, key=lambda e: e.id):
        rec = entry.expected.degeneration
        if rec is None:
            continue
        law = entry.law()
        phi = pre_einstein(law)
        if rec.x is not None:
            assert in_g_phi(rec.x, phi), entry.id
            res = one_param_limit(law, rec.x)
            if rec.limit == "zero":
                assert res.kind == "zero", entry.id
            else:
                assert res.kind == "limit", entry.id
                assert res.law == parse_law(rec.limit), entry.id
        if rec.limit != "zero":
            limit_law = parse_law(rec.limit)
            assert distinguish(law, limit_law) is not None, entry.id
            parts = rec.distinguishing.split()  # e.g. "dim_der 12 vs 13"
            name, left, right = parts[0], parts[1], parts[3]
            if name == "rank":
                got = (diagonal_rank(law)[0], diagonal_rank(limit_law)[0])
            else:
                got = (dim_der(law), dim_der(limit_law))
            assert got == (int(left), int(right)), (entry.id, got)
        bad = [m for m in reports[entry.id].mismatches if m["field"].startswith("degeneration")]
        assert not bad, (entry.id, bad)
        checked.append(entry.id)
    expected_ids = {"1.2(ii)", "1.2(iv)", "1.3(i_0)", "1.3(ii)", "1.3(v)", "1.21", "2.2"}
    _verdict("criterion 5", set(checked) == expected_ids, f"records verified: {', '.join(checked)}")


def test_c6_final_verdicts(entries, reports):
    en_kinds = {"positive_solution", "nilsoliton_decomposition"}
    not_en_kinds = {"rank_zero", "non_positive_pre_einstein", "no_positive_solution", "non_closed_orbit"}
    bad = []
    inconclusive = []
    for entry in entries:
        rep = reports[entry.id]
        kinds = {c["kind"] for c in rep.certificates}
        if kinds & en_kinds and kinds & not_en_kinds:
            bad.append((entry.id, "both-certified"))
        if rep.verdict == "EN" and not kinds & en_kinds:
            bad.append((entry.id, "EN without certificate"))
        if rep.verdict == "INCONCLUSIVE":
            inconclusive.append(entry.id)
            constructive = isinstance(entry.expected.x, tuple) or entry.expected.witness_law
            if entry.expected.verdict != "EN" or constructive:
                bad.append((entry.id, "unexpected inconclusive"))
        elif rep.verdict != entry.expected.verdict:
            bad.append((entry.id, f"verdict {rep.verdict} != {entry.expected.verdict}"))
    ok = not bad and set(inconclusive) == {"1.3(i_l)[lambda=2]", "1.3(i_l)[lambda=3]"}
    _verdict(
        "criterion 6", ok,
        f"verdicts match on {len(entries) - len(inconclusive)} entries; "
        f"inconclusive (non-constructive route): {inconclusive}; problems: {bad or 'none'}",
    )


def test_c7_property_suites(entries, by_id):
    # (a) LP verdict vs brute-force oracle: catalog U with <= 4 weights
    small_u = {tuple(map(tuple, e.expected.u)) for e in entries if e.expected.u and len(e.expected.u) <= 4}
    for u in sorted(small_u):
        lp = positive_solution([list(r) for r in u]).status == "positive"
        assert lp == positive_solution_oracle([list(r) for r in u]), u
    # ... and 1000 random small symmetric integer matrices
    rng = random.Random(20240)
    for _ in range(1000):
        m = rng.randint(1, 4)
        u = [[0] * m for _ in range(m)]
        for a in range(m):
            u[a][a] = rng.randint(-1, 4)
            for b in range(a + 1, m):
                u[a][b] = u[b][a] = rng.randint(-2, 3)
        assert (positive_solution(u).status == "positive") == positive_solution_oracle(u), u

    # (b) equivariance of the moment map under 100 random rotations
    law = to_float(by_id["2.5"].law())
    m0 = np.array(moment_map(law).m)
    nrng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        q, _ = np.linalg.qr(nrng.normal(size=(7, 7)))
        m2 = np.array(moment_map(act_float(q.tolist(), law)).m)
        worst = max(worst, float(np.max(np.abs(m2 - q @ m0 @ q.T))))
    assert worst < 1e-9

    # (c) trace identity on all entries; the constant -2 is forced by the
    # m = 4.Ric convention that the criterion-4 witness audit pins down
    for entry in entries:
        law = entry.law()
        m = moment_map(law)
        assert sum(m.m[i][i] for i in range(7)) == -2 * norm_squared(law), entry.id

    # (d) dim Der and series invariance under 50 rational basis changes per
    # sampled entry (sparse invertible g keeps exact arithmetic fast)
    rng = random.Random(77)
    for eid in ("0.8", "1.11", "2.5"):
        law = by_id[eid].law()
        d0, s0 = dim_der(law), series_signature(law)
        done = 0
        while done < 50:
            g = linalg.identity(7)
            for _ in range(2):
                a, b = rng.sample(range(7), 2)
                g[a][b] = Fraction(rng.randint(-2, 2))
            if linalg.inv(g) is None:
                continue
            moved = act(g, law)
            assert dim_der(moved) == d0, eid
            assert series_signature(moved) == s0, eid
            done += 1

    # (e) degeneration limits always satisfy Jacobi
    for entry in entries:
        rec = entry.expected.degeneration
        if rec and rec.x is not None:
            assert limit_is_lie(one_param_limit(entry.law(), rec.x)), entry.id
    law = by_id["1.3(i_l)[lambda=2]"].law()
    phi = pre_einstein(law)
    from nilrad.degeneration import g_phi_lattice

    lattice = g_phi_lattice(phi, 7)
    for _ in range(100):
        coeffs = [rng.randint(-3, 3) for _ in lattice]
        x = [sum(c * g[i] for c, g in zip(coeffs, lattice)) for i in range(7)]
        assert limit_is_lie(one_param_limit(law, x))

    _verdict(
        "criterion 7", True,
        "LP==oracle (catalog + 1000 random); equivariance 100 rotations; "
        "trace identity all entries; invariance 3x50 basis changes; limits are Lie",
    )


def test_c8_search_sanity(by_id):
    # each law bare, with no recorded data: the walk alone decides or certifies a trivial cone
    found = []
    for eid in ("1.2(ii)", "1.2(iv)", "1.3(ii)", "1.3(v)", "1.21", "2.2"):
        law = by_id[eid].law()
        rep = classify(CatalogEntry(eid, {}, format_law(law), None, parsed=law))
        cert = rep.certificates[0]
        assert (rep.verdict, rep.route, cert["kind"]) == ("NOT_EN", "degeneration_search", "non_closed_orbit"), eid
        x = [Fraction(v) for v in cert["X"]]
        assert in_g_phi(x, pre_einstein(law)), eid
        res = one_param_limit(law, x)
        if cert["limit"] == "zero":
            assert res.kind == "zero" and cert["distinguishing"] is None, eid
        else:
            assert res.law == parse_law(cert["limit"]) and cert["distinguishing"].startswith("dim_der "), eid
        found.append(f"{eid} ({cert['distinguishing'] or 'zero'})")
    law = by_id["1.3(i_l)[lambda=2]"].law()
    rep = classify(CatalogEntry("1.3(i_l)", {}, format_law(law), None, parsed=law))
    cert = rep.certificates[0]
    assert (rep.verdict, rep.route, cert["reason"]) == ("INCONCLUSIVE",) + ("no_diagonal_degeneration",) * 2
    assert trivial_cone_certificate_holds(law, pre_einstein(law).phi, cert["y"])
    _verdict(
        "criterion 8", True,
        f"the cone walk decides {', '.join(found)} with no recorded data; "
        "1.3(i_l)[lambda=2] has a trivial cone, with a checked y",
    )
