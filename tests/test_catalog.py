from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest

import nilrad.catalog
from nilrad.catalog import (
    CatalogEntry,
    CatalogError,
    Report,
    classify,
    load_catalog,
    verify_catalog,
)


def test_load_counts(entries):
    assert len(entries) >= 90
    family = [e for e in entries if e.id.startswith("1.1(i_l)")]
    assert [e.param for e in family] == [("lambda", Fraction(2)), ("lambda", Fraction(3))]


def test_entry_01_shape(by_id):
    law = by_id["0.1"].law()
    assert by_id["0.1"].expected.rank == 0
    assert len(law.brackets) == 9  # nine stored triples in the 0.1 table


def test_aliases_kept_verbatim(by_id):
    assert by_id["2.36"].aliases["seeley"] == "(2, 5, 7)?"


def test_verdict_certificate_invariants(entries):
    nonconstructive = set()
    for e in entries:
        exp = e.expected
        if exp.verdict == "NOT_EN":
            assert (
                exp.rank == 0
                or (exp.pre_einstein is not None and any(Fraction(v) <= 0 for v in exp.pre_einstein))
                or exp.x == "none_positive"
                or exp.degeneration is not None
            ), e.id
        else:
            if not (isinstance(exp.x, tuple) or exp.witness_law is not None):
                nonconstructive.add(e.id)
    # the only EN entries without a constructive certificate are the
    # family whose EN status rests on the non-degeneration argument
    assert nonconstructive == {"1.3(i_l)[lambda=2]", "1.3(i_l)[lambda=3]"}


def _write_catalog(tmp_path, doc):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(doc))
    return p


def _minimal_entry(**overrides):
    entry = {
        "id": "t.1",
        "aliases": {},
        "law": "dim 3; [1,2]=3",
        "expected": {
            "dim_der": 6,
            "derived": [3, 1, 0],
            "lcs": [3, 1, 0],
            "rank": 2,
            "nice": True,
            "verdict": "EN",
        },
    }
    entry.update(overrides)
    return entry


def test_loader_schema_errors(tmp_path):
    with pytest.raises(CatalogError, match="entries"):
        load_catalog(_write_catalog(tmp_path, {"nope": []}))
    with pytest.raises(CatalogError, match="missing required field"):
        load_catalog(_write_catalog(tmp_path, {"entries": [{"id": "x", "law": "dim 1;"}]}))
    bad = _minimal_entry()
    bad["expected"]["verdict"] = "MAYBE"
    with pytest.raises(CatalogError, match="verdict"):
        load_catalog(_write_catalog(tmp_path, {"entries": [bad]}))
    bad = _minimal_entry(extra_field=1)
    with pytest.raises(CatalogError, match="unknown field"):
        load_catalog(_write_catalog(tmp_path, {"entries": [bad]}))
    dup = [_minimal_entry(), _minimal_entry()]
    with pytest.raises(CatalogError, match="duplicate id"):
        load_catalog(_write_catalog(tmp_path, {"entries": dup}))


def test_loader_rejects_non_jacobi_law(tmp_path):
    bad = _minimal_entry(law="dim 3; [1,2]=3; [2,3]=1; [1,3]=3")
    with pytest.raises(CatalogError, match="Jacobi"):
        load_catalog(_write_catalog(tmp_path, {"entries": [bad]}))


def test_loader_rejects_excluded_sample(tmp_path):
    bad = _minimal_entry(params={"name": "lambda", "samples": ["1"], "excluded": ["1"]})
    bad["law"] = "dim 3; [1,2]=3*lambda"
    with pytest.raises(CatalogError, match="excluded"):
        load_catalog(_write_catalog(tmp_path, {"entries": [bad]}))


def test_classify_detects_corrupted_expected(by_id):
    entry = by_id["2.3"]
    wrong = dataclasses.replace(entry, expected=dataclasses.replace(entry.expected, dim_der=99))
    rep = classify(wrong)
    assert any(m["field"] == "dim_der" for m in rep.mismatches)


def test_classify_negative_control_verdict(by_id):
    entry = by_id["2.3"]
    wrong = dataclasses.replace(entry, expected=dataclasses.replace(entry.expected, verdict="NOT_EN"))
    rep = classify(wrong)
    assert any(m["field"] == "verdict" for m in rep.mismatches)


def test_report_json_round_trip(by_id):
    rep = classify(by_id["1.11"])
    again = Report.from_json(rep.to_json())
    assert again.to_json() == rep.to_json()
    assert again.verdict == "EN"


def test_report_serialization_deterministic(by_id):
    a = classify(by_id["2.3"])
    b = classify(by_id["2.3"])
    da, db = a.to_dict(), b.to_dict()
    da.pop("timing")
    db.pop("timing")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_verify_only_selects_family_instances(entries):
    reports = verify_catalog(entries, only="1.1(i_l)")
    assert [r.id for r in reports] == ["1.1(i_l)[lambda=2]", "1.1(i_l)[lambda=3]"]
    with pytest.raises(CatalogError, match="no such entry"):
        verify_catalog(entries, only="9.99")


def test_classify_without_expectations():
    entry = CatalogEntry("adhoc", {}, "dim 3; [1,2]=3", None)
    rep = classify(entry)
    assert rep.verdict == "EN"
    assert rep.mismatches == []
    assert rep.computed["dim_der"] == 6


_U_117_ALT = [
    [3, 0, 1, 1, 0, 1, -1],
    [0, 3, 0, 1, 1, 0, 1],
    [1, 0, 3, 0, 0, 1, 0],
    [1, 1, 0, 3, 0, -1, 1],
    [0, 1, 0, 0, 3, 0, 0],
    [1, 0, 1, -1, 0, 3, 1],
    [-1, 1, 0, 1, 0, 1, 3],
]


def test_117_en_via_both_routes(by_id):
    """1.17 is certified twice: nilsoliton witness, and a rational basis
    change onto a nice law with a positive Gram solution."""
    from nilrad.algebra import act, parse_law
    from nilrad.nicebasis import gram_matrix, is_nice, positive_solution, soliton_norm
    from nilrad.ricci import soliton_check

    entry = by_id["1.17"]
    law = entry.law()
    # route 1: the surd witness decomposes
    dec = soliton_check(parse_law(entry.expected.witness_law))
    assert dec is not None and dec.c == Fraction(-65, 94)

    # route 2: an explicit rational change of basis makes the law nice
    g = [[Fraction(n, 8) for n in row] for row in [
        [4, 4, 0, 0, 0, 0, 0],
        [-4, 4, 0, 0, 0, 0, 0],
        [0, 0, 4, 0, 0, 0, 0],
        [0, 0, 0, 2, 2, 0, 0],
        [0, 0, 0, -2, 2, 0, 0],
        [0, 0, 0, 0, 0, 2, 0],
        [0, 0, 0, 0, 0, 0, 1],
    ]]
    alt = act(g, law)
    assert alt == parse_law("dim 7; [1,2]=3; [1,3]=4; [1,4]=6; [1,6]=7; [2,3]=5; [2,5]=6; [3,5]=7")
    check = is_nice(alt)
    assert check.nice
    u = gram_matrix(alt)
    assert u == _U_117_ALT
    x = [Fraction(v, 65) for v in (13, 5, 13, 15, 20, 13, 15)]
    assert all(sum(r * xv for r, xv in zip(row, x)) == 1 for row in u)
    assert min(x) > 0
    res = positive_solution(u)
    assert res.status == "positive"
    # both routes agree on the stratum norm
    assert soliton_norm(res.x) == Fraction(65, 94) == -Fraction(-65, 94)


def test_each_law_is_parsed_once(entries, monkeypatch):
    # load_catalog keeps the law it parsed and validated; classify reuses it
    assert all(e.parsed is not None and e.law() is e.parsed for e in entries)
    assert load_catalog(validate_laws=False)[0].parsed is None
    calls = []
    monkeypatch.setattr(nilrad.catalog, "parse_law", lambda *a, **k: calls.append(a))
    for e in entries:
        if e.expected.witness_law is None and e.expected.degeneration is None:
            classify(e)
    assert calls == []


def _degeneration(**changes):
    return lambda exp: {"degeneration": dataclasses.replace(exp.degeneration, **changes)}


def _mm(field_name, expected, computed):
    return {"field": field_name, "expected": expected, "computed": computed}


_U_23 = "[1, 1, 0, 3, 0], [1, 1, 1, 0, 3]]"
_PE_23 = "'32/37', '34/37', '36/37', '38/37', '40/37', '42/37']"
_LIMIT_12II = "dim 7; [1,2]=4; [1,4]=5; [1,6]=7; [2,3]=6; [2,4]=6; [2,5]=7"
_LAW_12II = "dim 7; [1,2]=4; [1,4]=5; [1,5]=7; [1,6]=7; [2,3]=6; [2,4]=6; [2,5]=7; [3,4]=7*-1"

# One recorded field of one entry corrupted per case: (entry id, changes to
# its Expected, the exact mismatches, verdict, route).  Every check of the
# recorded data against the computation appears at least once.
CORRUPTIONS = [
    ("2.3", lambda e: {"dim_der": 99}, [_mm("dim_der", "99", "13")], "EN", "nice_lp"),
    ("2.3", lambda e: {"derived": (7, 4, 0)}, [_mm("derived", "[7, 4, 0]", "[7, 5, 0]")], "EN", "nice_lp"),
    (
        "2.3", lambda e: {"lcs": (7, 5, 3, 1, 0)},
        [_mm("lcs", "[7, 5, 3, 1, 0]", "[7, 5, 4, 3, 2, 1, 0]")], "EN", "nice_lp",
    ),
    ("2.3", lambda e: {"rank": 3}, [_mm("rank", "3", "2")], "EN", "nice_lp"),
    (
        "2.3", lambda e: {"pre_einstein": (Fraction(1, 37),) + e.pre_einstein[1:]},
        [_mm("pre_einstein", "['1/37', " + _PE_23, "['2/37', " + _PE_23)], "EN", "nice_lp",
    ),
    ("2.3", lambda e: {"nice": False}, [_mm("nice", "False", "True")], "EN", "nice_lp"),
    (
        "2.3", lambda e: {"u": ((4,) + e.u[0][1:],) + e.u[1:]},
        [_mm(
            "U",
            "[[4, 0, 1, 1, 1], [0, 3, 0, 1, 1], [1, 0, 3, 0, 1], " + _U_23,
            "[[3, 0, 1, 1, 1], [0, 3, 0, 1, 1], [1, 0, 3, 0, 1], " + _U_23,
        )],
        "EN", "nice_lp",
    ),
    (
        "2.3", lambda e: {"x": tuple(2 * v for v in e.x)},
        [_mm("x", "recorded x solves Ux=[1], x>0", "recorded x fails re-verification")], "EN", "nice_lp",
    ),
    (
        "2.3", lambda e: {"x": "none_positive"},
        [_mm("x", "none_positive", "positive solution found")], "EN", "nice_lp",
    ),
    (
        "1.1(ii)", lambda e: {"x": (Fraction(1, 7),) * 7},
        [_mm("x", "positive solution", "no_positive_solution")], "NOT_EN", "nice_lp",
    ),
    ("2.3", lambda e: {"soliton_norm": Fraction(1)}, [_mm("soliton_norm", "1", "37/35")], "EN", "nice_lp"),
    (
        "1.11", lambda e: {"soliton_norm": Fraction(1)},
        [_mm("soliton_norm", "1", "25/31")], "EN", "witness_soliton",
    ),
    (
        "2.37", lambda e: {"soliton_norm": Fraction(1)},
        [_mm("soliton_norm", "1", "11/13")], "EN", "witness_nice_lp",
    ),
    (
        "1.11",
        lambda e: {"witness_law": e.witness_law.replace("sqrt(90706))", "sqrt(90707))", 1)},
        [
            _mm("witness_law", "Lie algebra law", "Jacobi fails at (1, 2, 4)"),
            _mm("verdict", "EN", "INCONCLUSIVE"),
        ],
        "INCONCLUSIVE", "witness_rejected",
    ),
    (
        "1.11", lambda e: {"witness_law": "dim 4; [1,2]=3*(1 sqrt(2)); [1,3]=4"},
        [
            _mm("witness_law", "m = c.Id + D with D a derivation", "no decomposition"),
            _mm("verdict", "EN", "INCONCLUSIVE"),
        ],
        "INCONCLUSIVE", "witness_rejected",
    ),
    (
        "2.37", lambda e: {"witness_law": "dim 7; [1,2]=3; [1,3]=4; [1,4]=5; [1,5]=6; [1,6]=7"},
        [
            _mm("witness_law", "isomorphic witness", "series signatures differ"),
            _mm("soliton_norm", "11/13", "37/35"),
        ],
        "EN", "witness_nice_lp",
    ),
    (
        "2.37", lambda e: {"witness_law": e.witness_law + "; [2,5]=7"},
        [
            _mm("witness_law", "Lie algebra law", "Jacobi fails at (1, 2, 3)"),
            _mm("verdict", "EN", "INCONCLUSIVE"),
        ],
        "INCONCLUSIVE", "witness_rejected",
    ),
    (
        "1.21", lambda e: _degeneration(x=tuple(v + 1 for v in e.degeneration.x))(e),
        [_mm("degeneration.X", "X in g_phi", "trace conditions fail")], "NOT_EN", "degeneration_recorded",
    ),
    (
        "1.21", _degeneration(limit="dim 7; [1,2]=4"),
        [
            _mm("degeneration.limit", "recorded limit law", "zero"),
            _mm("degeneration.distinguishing", "", "names no known invariant (rank or dim_der)"),
        ],
        "NOT_EN", "degeneration_recorded",
    ),
    (
        "1.2(ii)", _degeneration(limit="zero"),
        [_mm("degeneration.limit", "zero", "limit")], "NOT_EN", "degeneration_recorded",
    ),
    (
        "1.2(ii)", _degeneration(limit=_LIMIT_12II),
        [
            _mm("degeneration.limit", "recorded limit law", "limit"),
            _mm("degeneration.limit", "Lie algebra law", "Jacobi fails"),
        ],
        "NOT_EN", "degeneration_recorded",
    ),
    (
        "1.2(ii)", _degeneration(limit=_LAW_12II),
        [
            _mm("degeneration.limit", "recorded limit law", "limit"),
            _mm("degeneration.distinguishing", "dim_der 12 vs 13", "indistinguishable"),
        ],
        "NOT_EN", "degeneration_recorded",
    ),
    (
        "1.2(ii)", _degeneration(distinguishing="rank 1 vs 3"),
        [_mm("degeneration.distinguishing", "rank 1 vs 3", "rank (1, 2)")], "NOT_EN", "degeneration_recorded",
    ),
    ("2.3", lambda e: {"verdict": "NOT_EN"}, [_mm("verdict", "NOT_EN", "EN")], "EN", "nice_lp"),
    (
        "1.3(i_l)[lambda=2]", lambda e: {"verdict": "NOT_EN"},
        [_mm("verdict", "NOT_EN", "INCONCLUSIVE")], "INCONCLUSIVE", "no_diagonal_degeneration",
    ),
    (
        "1.11", lambda e: {"witness_law": "dim 4; [1,2]=3*(1 sqrt(2))+4"},
        [
            _mm("witness_law", "m = c.Id + D with D a derivation", "moment map is not diagonal"),
            _mm("verdict", "EN", "INCONCLUSIVE"),
        ],
        "INCONCLUSIVE", "witness_rejected",
    ),
    (
        # a nilsoliton with the recorded norm, but of the wrong dimension
        "1.11", lambda e: {"witness_law": "dim 3; [1,2]=3*(5/186 sqrt(186))"},
        [_mm("witness_law", "isomorphic witness", "dimension differs")], "EN", "witness_soliton",
    ),
]


@pytest.mark.parametrize(
    "eid, corrupt, mismatches, verdict, route",
    CORRUPTIONS,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(CORRUPTIONS)],
)
def test_classify_reports_each_corrupted_field(by_id, eid, corrupt, mismatches, verdict, route):
    entry = by_id[eid]
    exp = dataclasses.replace(entry.expected, **corrupt(entry.expected))
    rep = classify(dataclasses.replace(entry, expected=exp))
    assert (rep.mismatches, rep.verdict, rep.route) == (mismatches, verdict, route)
