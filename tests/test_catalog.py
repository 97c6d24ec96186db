from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

import nilrad.catalog
import nilrad.cli
from nilrad.algebra import parse_law
from nilrad.catalog import (
    CatalogEntry,
    CatalogError,
    Report,
    classify,
    load_catalog,
    verify_catalog,
)
from nilrad.derivations import Invariants


def test_load_counts(entries):
    assert len(entries) >= 90
    family = [e for e in entries if e.id.startswith("1.1(i_l)")]
    assert [e.id for e in family] == ["1.1(i_l)[lambda=2]", "1.1(i_l)[lambda=3]"]
    assert family[0].law_text == family[1].law_text and family[0].law() != family[1].law()


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
    # an entry id equal to an instance id of a family, in either order, is a duplicate too
    family = _minimal_entry(law="dim 3; [1,2]=3*lambda", params={"name": "lambda", "samples": ["1"]})
    plain = _minimal_entry(id="t.1[lambda=1]")
    for dup in ([family, plain], [plain, family]):
        with pytest.raises(CatalogError, match=r"entry 't\.1\[lambda=1\]', field 'id': duplicate id"):
            load_catalog(_write_catalog(tmp_path, {"entries": dup}))
    with pytest.raises(CatalogError, match="field 'params': must be an object"):
        load_catalog(_write_catalog(tmp_path, {"entries": [_minimal_entry(params=[])]}))


def test_loader_unreadable_file_is_a_catalog_error(tmp_path):
    # a missing file or a directory: CatalogError with the OS message, as any other catalog that cannot be read
    with pytest.raises(CatalogError, match="No such file"):
        load_catalog(tmp_path / "missing.json")
    with pytest.raises(CatalogError, match="directory"):
        load_catalog(tmp_path)


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
    entry = CatalogEntry("adhoc", {}, "dim 3; [1,2]=3", None, parse_law("dim 3; [1,2]=3"))
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
    dec = soliton_check(entry.expected.witness_law)
    assert not isinstance(dec, str) and dec.c == Fraction(-65, 94)

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
    found = positive_solution(u)
    assert not isinstance(found, str)
    # both routes agree on the stratum norm
    assert soliton_norm(found) == Fraction(65, 94) == -Fraction(-65, 94)


def test_each_law_is_parsed_once(entries, monkeypatch):
    # load_catalog keeps the law it parsed and validated; classify reuses it
    assert all(e.parsed is not None and e.law() is e.parsed for e in entries)
    calls = []
    monkeypatch.setattr(nilrad.catalog, "parse_law", lambda *a, **k: calls.append(a))
    for e in entries:
        if e.expected.witness_law is None and e.expected.degeneration is None:
            classify(e)
    assert calls == []


def _count_calls_per_law(monkeypatch, module: str, name: str) -> Counter:
    """Count the calls of nilrad.<module>.<name> per law argument, through every module's binding."""
    original = getattr(importlib.import_module(f"nilrad.{module}"), name)
    calls = Counter()

    def counted(law, *args, **kwargs):
        calls[law] += 1
        return original(law, *args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "nilrad" or key.startswith("nilrad."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_each_invariant_is_computed_once_per_law(monkeypatch, capsys, tmp_path):
    # laws compare by their structure constants, so a recomputation on a
    # re-parsed copy of a law counts as a second call too; pre_einstein is
    # counted per Invariants, its one argument
    kernels = [
        ("derivations", "derivation_space"), ("algebra", "series_signature"), ("algebra", "jacobi_violations"),
        ("derivations", "diagonal_rank"), ("derivations", "pre_einstein"), ("nicebasis", "is_nice"),
    ]
    calls = {name: _count_calls_per_law(monkeypatch, module, name) for module, name in kernels}
    entries = load_catalog()
    assert len(entries) == 136
    records = {id(e.expected): e.expected for e in entries}.values()  # the instances of a family share one
    recorded = [
        law for exp in records for law in (exp.witness_law, exp.degeneration and exp.degeneration.limit)
        if law is not None
    ]
    assert len(recorded) == 19  # 14 witnesses and 5 limit laws
    assert calls["jacobi_violations"] == Counter([e.law() for e in entries] + recorded)  # 155 laws, each once
    for counter in calls.values():
        counter.clear()
    verify_catalog(entries)
    assert calls["jacobi_violations"] == Counter()  # decided at load, never by a route
    for name, counter in calls.items():
        assert name == "jacobi_violations" or (counter and max(counter.values()) == 1), name
    assert sum(calls["derivation_space"].values()) == 142  # the 136 laws, the rational witness and 5 recorded limits
    assert sum(calls["diagonal_rank"].values()) == 136  # the torus of each law, not of its witness or limits
    assert sum(calls["pre_einstein"].values()) == 136  # every law, phi = 0 at rank 0
    assert sum(calls["is_nice"].values()) == 137  # the 136 laws and the rational witness
    # one `check` of each law, and the walk route on each law with a phi, nice
    # or not, computes each invariant of a law at most once
    law_file = tmp_path / "law.txt"
    walked = 0
    for e in entries:
        law_file.write_text(nilrad.format_law(e.law()))
        for counter in calls.values():
            counter.clear()
        assert nilrad.cli.main(["check", str(law_file)]) in (0, 1, 2), e.id
        capsys.readouterr()
        for name, counter in calls.items():
            assert max(counter.values(), default=0) <= 1, (e.id, "check", name)
        for counter in calls.values():
            counter.clear()
        inv = Invariants(parse_law(law_file.read_text()))
        if not isinstance(inv.phi, str):
            nilrad.catalog._search_route(inv)
            walked += 1
        for name, counter in calls.items():
            assert max(counter.values(), default=0) <= 1, (e.id, "walk", name)
    assert walked == 128


def test_lp_runs_only_where_u_is_singular(monkeypatch, entries):
    # a nice law with dim - rank stored triples has a nonsingular U, solved from [U | 1] with no LP:
    # 58 of the 101 nice laws; the LP runs on the other 43, the rational witness and 2 Stiemke steps
    lp_calls, exact_calls = [], []
    max_min_component = nilrad.lp.max_min_component
    positive_solution = nilrad.nicebasis.positive_solution

    def counted_lp(u, rhs):
        lp_calls.append(len(u))
        return max_min_component(u, rhs)

    def counted_solution(u, nonsingular=False):
        exact_calls.append(nonsingular)
        return positive_solution(u, nonsingular)

    monkeypatch.setattr(nilrad.lp, "max_min_component", counted_lp)
    monkeypatch.setattr(nilrad.nicebasis, "positive_solution", counted_solution)
    diagonal_rank = _count_calls_per_law(monkeypatch, "derivations", "diagonal_rank")
    verify_catalog(entries)
    assert len(lp_calls) == 46  # 104 when every nice system ran the LP
    assert Counter(exact_calls) == Counter({True: 58, False: 44})
    assert sum(diagonal_rank.values()) == 136  # the gate reads the torus each law computes anyway


def _degeneration(**changes):
    return lambda exp: {"degeneration": dataclasses.replace(exp.degeneration, **changes)}


def _mm(field_name, expected, computed):
    return {"field": field_name, "expected": expected, "computed": computed}


_U_23 = "[1, 1, 0, 3, 0], [1, 1, 1, 0, 3]]"
_PE_23 = "'32/37', '34/37', '36/37', '38/37', '40/37', '42/37']"
_LAW_12II = "dim 7; [1,2]=4; [1,4]=5; [1,5]=7; [1,6]=7; [2,3]=6; [2,4]=6; [2,5]=7; [3,4]=7*-1"
_LAW_13IV = "dim 7; [1,2]=4; [1,3]=5; [1,4]=6; [2,3]=6; [2,4]=7; [3,5]=7"
_LAW_11II = "dim 7; [1,2]=3; [1,3]=4; [1,4]=5; [1,5]=6; [1,6]=7; [2,5]=7; [3,4]=7*-1"
_LAW_111 = "dim 7; [1,2]=4; [1,4]=5; [1,5]=6; [1,6]=7; [2,3]=6; [2,4]=6; [2,5]=7; [3,4]=7*-1"

# One recorded field of one entry corrupted per case, numbered: (entry id,
# changes to its Expected, the exact mismatches, verdict, route).  Every check
# of the recorded data against the computation appears at least once.  Each
# corrupted record is one the loader accepts.  Numbers 13, 16, 20, 26 and 28-31
# were records the loader refuses (test_cli's MALFORMED_RECORDS runs them) and
# are not reused, so that each case keeps its test id.
CORRUPTIONS = {
    0: ("2.3", lambda e: {"dim_der": 99}, [_mm("dim_der", "99", "13")], "EN", "nice_lp"),
    1: ("2.3", lambda e: {"derived": (7, 4, 0)}, [_mm("derived", "[7, 4, 0]", "[7, 5, 0]")], "EN", "nice_lp"),
    2: (
        "2.3", lambda e: {"lcs": (7, 5, 3, 1, 0)},
        [_mm("lcs", "[7, 5, 3, 1, 0]", "[7, 5, 4, 3, 2, 1, 0]")], "EN", "nice_lp",
    ),
    3: ("2.3", lambda e: {"rank": 3}, [_mm("rank", "3", "2")], "EN", "nice_lp"),
    4: (
        "2.3", lambda e: {"pre_einstein": (Fraction(1, 37),) + e.pre_einstein[1:]},
        [_mm("pre_einstein", "['1/37', " + _PE_23, "['2/37', " + _PE_23)], "EN", "nice_lp",
    ),
    5: ("2.3", lambda e: {"nice": False}, [_mm("nice", "False", "True")], "EN", "nice_lp"),
    6: (
        "2.3", lambda e: {"u": ((4,) + e.u[0][1:],) + e.u[1:]},
        [_mm(
            "U",
            "[[4, 0, 1, 1, 1], [0, 3, 0, 1, 1], [1, 0, 3, 0, 1], " + _U_23,
            "[[3, 0, 1, 1, 1], [0, 3, 0, 1, 1], [1, 0, 3, 0, 1], " + _U_23,
        )],
        "EN", "nice_lp",
    ),
    7: (
        "2.3", lambda e: {"x": tuple(2 * v for v in e.x)},
        [_mm("x", "recorded x solves Ux=[1], x>0", "recorded x fails re-verification")], "EN", "nice_lp",
    ),
    8: (
        "2.3", lambda e: {"x": "none_positive"},
        [_mm("x", "none_positive", "positive solution found")], "EN", "nice_lp",
    ),
    9: (
        "1.1(ii)", lambda e: {"x": (Fraction(1, 7),) * 7},
        [_mm("x", "positive solution", "no_positive_solution")], "NOT_EN", "nice_lp",
    ),
    10: ("2.3", lambda e: {"soliton_norm": Fraction(1)}, [_mm("soliton_norm", "1", "37/35")], "EN", "nice_lp"),
    11: (
        "1.11", lambda e: {"soliton_norm": Fraction(1)},
        [_mm("soliton_norm", "1", "25/31")], "EN", "witness_soliton",
    ),
    12: (
        "2.37", lambda e: {"soliton_norm": Fraction(1)},
        [_mm("soliton_norm", "1", "11/13")], "EN", "witness_nice_lp",
    ),
    14: (
        "1.11", lambda e: {"witness_law": parse_law("dim 7; [1,2]=3*(1 sqrt(2)); [1,3]=4")},
        [
            _mm("witness_law", "m = c.Id + D with D a derivation", "no decomposition"),
            _mm("verdict", "EN", "INCONCLUSIVE"),
        ],
        "INCONCLUSIVE", "witness_rejected",
    ),
    15: (
        "2.37", lambda e: {"witness_law": parse_law("dim 7; [1,2]=3; [1,3]=4; [1,4]=5; [1,5]=6; [1,6]=7")},
        [
            _mm(
                "witness_law", "isomorphic witness",
                "series ((7, 5, 0), (7, 5, 4, 3, 2, 1, 0)) vs ((7, 4, 0), (7, 4, 3, 1, 0))",
            ),
            _mm("soliton_norm", "11/13", "37/35"),
        ],
        "EN", "witness_nice_lp",
    ),
    17: (
        "1.21", lambda e: _degeneration(x=tuple(v + 1 for v in e.degeneration.x))(e),
        [_mm("degeneration.X", "X in g_phi", "trace conditions fail")], "NOT_EN", "degeneration_recorded",
    ),
    18: (
        "1.21", _degeneration(limit=parse_law("dim 7; [1,2]=4"), distinguishing="dim_der 11 vs 34"),
        [_mm("degeneration.limit", "recorded limit law", "zero")], "NOT_EN", "degeneration_recorded",
    ),
    19: (
        "1.2(ii)", _degeneration(limit=None, distinguishing=""),
        [_mm("degeneration.limit", "zero", "limit")], "NOT_EN", "degeneration_recorded",
    ),
    21: (
        "1.2(ii)", _degeneration(limit=parse_law(_LAW_12II)),
        [
            _mm("degeneration.limit", "recorded limit law", "limit"),
            _mm("degeneration.distinguishing", "dim_der 12 vs 13", "indistinguishable"),
        ],
        "NOT_EN", "degeneration_recorded",
    ),
    22: (
        "1.2(ii)", _degeneration(distinguishing="dim_der 1 vs 3"),
        [_mm("degeneration.distinguishing", "dim_der 1 vs 3", "dim_der 12 vs 13")], "NOT_EN", "degeneration_recorded",
    ),
    23: ("2.3", lambda e: {"verdict": "NOT_EN"}, [_mm("verdict", "NOT_EN", "EN")], "EN", "nice_lp"),
    24: (
        "1.3(i_l)[lambda=2]", lambda e: {"verdict": "NOT_EN"},
        [_mm("verdict", "NOT_EN", "INCONCLUSIVE")], "INCONCLUSIVE", "no_diagonal_degeneration",
    ),
    25: (
        "1.11", lambda e: {"witness_law": parse_law("dim 7; [1,2]=3*(1 sqrt(2))+4")},
        [
            _mm("witness_law", "m = c.Id + D with D a derivation", "moment map is not diagonal"),
            _mm("verdict", "EN", "INCONCLUSIVE"),
        ],
        "INCONCLUSIVE", "witness_rejected",
    ),
    27: (
        # a limit that only the series separate: a record naming its equal dim Der certifies nothing
        "1.3(i_0)", _degeneration(limit=parse_law(_LAW_13IV), distinguishing="dim_der 13 vs 13"),
        [_mm("degeneration.distinguishing", "a separating dim Der", "dim_der 13 vs 13")],
        "NOT_EN", "degeneration_recorded",
    ),
    32: (
        # a rational witness that is isomorphic (the law itself) but not a nice basis
        "1.11", lambda e: {"witness_law": parse_law(_LAW_111)},
        [
            _mm("witness_law", "nice witness basis", "N2 fails at image 6: pairs (2, 3) and (2, 4) share index 2"),
            _mm("verdict", "EN", "INCONCLUSIVE"),
        ],
        "INCONCLUSIVE", "witness_rejected",
    ),
    33: (
        # an x that solves Ux = [1] with one entry too many: zip() once stopped at the shorter
        "2.3", lambda e: {"x": e.x + (Fraction(5),)},
        [_mm("x", "recorded x solves Ux=[1], x>0", "recorded x fails re-verification")], "EN", "nice_lp",
    ),
    34: (
        # a nice rational witness whose Ux = [1] has no positive solution (the law of 1.1(ii)): a witness
        # is evidence for EN only, so it is rejected, never read as NOT_EN
        "2.37", lambda e: {"witness_law": parse_law(_LAW_11II)},
        [
            _mm(
                "witness_law", "isomorphic witness",
                "series ((7, 5, 1, 0), (7, 5, 4, 3, 2, 1, 0)) vs ((7, 4, 0), (7, 4, 3, 1, 0))",
            ),
            _mm("witness_law", "a positive solution of Ux=[1]", "no_positive_solution"),
            _mm("verdict", "EN", "INCONCLUSIVE"),
        ],
        "INCONCLUSIVE", "witness_rejected",
    ),
}


@pytest.mark.parametrize(
    "eid, corrupt, mismatches, verdict, route",
    CORRUPTIONS.values(),
    ids=[f"{c[0]}-{n}" for n, c in CORRUPTIONS.items()],
)
def test_classify_reports_each_corrupted_field(by_id, eid, corrupt, mismatches, verdict, route):
    entry = by_id[eid]
    exp = dataclasses.replace(entry.expected, **corrupt(entry.expected))
    rep = classify(dataclasses.replace(entry, expected=exp))
    assert (rep.mismatches, rep.verdict, rep.route) == (mismatches, verdict, route)


def test_corruptions_cover_every_expected_field(by_id):
    # a field added to Expected must be given a corruption case, so that its check cannot go missing unseen
    corrupted = {key for eid, corrupt, *_ in CORRUPTIONS.values() for key in corrupt(by_id[eid].expected)}
    assert corrupted == {f.name for f in dataclasses.fields(nilrad.catalog.Expected)}


# the laws whose record carries a witness or a degeneration, which classify reads before the walk
_RECORD_ROUTED = {
    "1.2(ii)", "1.2(iv)", "1.3(i_0)", "1.3(ii)", "1.3(v)", "1.11", "1.12", "1.13", "1.14", "1.15", "1.16",
    "1.17", "1.18", "1.21", "2.2", "2.11", "2.24", "2.25", "2.26", "2.27", "2.37",
}


def test_check_and_catalog_verify_agree_without_a_record(entries, reports):
    # `check` classifies with no record; on a law with no witness and no degeneration recorded the
    # record must change nothing but the diff (one verdict per law)
    routed = {e.id for e in entries if e.expected.witness_law is not None or e.expected.degeneration is not None}
    assert routed == _RECORD_ROUTED and len(entries) - len(routed) == 115
    for e in entries:
        if e.id in routed:
            continue
        bare, rep = classify(dataclasses.replace(e, expected=None)), reports[e.id]
        assert (bare.verdict, bare.route, bare.certificates, bare.computed) == (
            rep.verdict, rep.route, rep.certificates, rep.computed
        ), e.id
