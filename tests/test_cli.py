from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import nilrad
import nilrad.cli
from nilrad.algebra import format_law
from nilrad.catalog import Report
from nilrad.cli import main

HEISENBERG = "dim 3; [1,2]=3\n"


@pytest.fixture()
def law_file(tmp_path):
    def write(text, name="law.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_en_exit_zero(law_file, capsys):
    code, out, _ = _run(capsys, ["check", law_file(HEISENBERG)])
    assert code == 0
    assert "verdict: EN" in out
    assert "positive_solution" in out


def test_check_not_en_exit_one(law_file, capsys, by_id):
    code, out, _ = _run(capsys, ["check", law_file(by_id["1.3(iv)"].law_text)])
    assert code == 1
    assert "no_positive_solution" in out


def test_check_rank_zero_certificate(law_file, capsys, by_id):
    code, out, _ = _run(capsys, ["check", law_file(by_id["0.1"].law_text)])
    assert code == 1
    assert "rank_zero" in out


def test_check_inconclusive_exit_two(law_file, capsys):
    text = "dim 7; [1,2]=4; [1,3]=5; [1,4]=6; [1,6]=7; [2,3]=6; [2,4]=7*2; [2,5]=7; [3,5]=7"
    code, out, _ = _run(capsys, ["check", law_file(text)])
    assert code == 2
    assert "INCONCLUSIVE" in out


def test_check_parse_error_exit_64(law_file, capsys):
    code, _, err = _run(capsys, ["check", law_file("dim 3; [1,2]=")])
    assert code == 64
    assert "expected" in err or "syntax" in err


def test_check_json_round_trips(law_file, capsys):
    code, out, _ = _run(capsys, ["check", "--json", law_file(HEISENBERG)])
    assert code == 0
    rep = Report.from_json(out)
    assert rep.verdict == "EN"


def test_usage_error_exit_64():
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing file argument
    assert exc.value.code == 64


def test_invariants(law_file, capsys):
    code, out, _ = _run(capsys, ["invariants", law_file(HEISENBERG)])
    assert code == 0
    assert "dim_der: 6" in out
    assert "rank: 2" in out
    assert "nice: True" in out


def test_catalog_verify_green(capsys, tmp_path):
    src = resources.files("nilrad").joinpath("data/catalog7.json").read_text()
    p = tmp_path / "catalog7.json"
    p.write_text(src)
    code, out, _ = _run(capsys, ["catalog", "verify", str(p), "--only", "1.11"])
    assert code == 0
    assert "1/1 match" in out


# SHA-256 of `catalog verify --json` with every `timing` removed.  Speed-ups
# must leave every verdict and certificate byte-identical; change this value
# only together with a deliberate, documented change of the report contents.
GOLDEN_VERIFY_SHA256 = "fe6204c0a0606ce523538a272c2569f76c5519b2f8b3c087e37a70da33231210"


def test_catalog_verify_json_is_golden(capsys, tmp_path):
    p = tmp_path / "catalog7.json"
    p.write_text(resources.files("nilrad").joinpath("data/catalog7.json").read_text())
    code, out, _ = _run(capsys, ["catalog", "verify", str(p), "--json"])
    assert code == 0
    reports = json.loads(out)
    for r in reports:
        del r["timing"]
    assert len(reports) == 136
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_VERIFY_SHA256


# SHA-256 of `check --json` (every `timing` removed) on the 27 catalog laws
# that are not nice and have rank > 0, seeds 0-2: the degeneration-cone walk.
# `check` accepts --seed and ignores it, so the three seeds give one output.
# Same rule as above.
GOLDEN_CHECK_SHA256 = "dc1365d59d10e0da711c50ee44aacc48f348d404924cec8f9fc3827d1794328d"


def _check_runs(capsys, tmp_path, entries) -> list:
    """[id, seed, exit code, report without timing] of `check --json` on the golden laws and seeds."""
    search = [e for e in entries if e.expected.rank > 0 and not e.expected.nice]
    assert len(search) == 27
    runs = []
    for e in search:
        p = tmp_path / "law.txt"
        p.write_text(format_law(e.law()))
        for seed in range(3):
            code, out, _ = _run(capsys, ["check", "--json", "--seed", str(seed), str(p)])
            rep = json.loads(out)
            del rep["timing"]
            runs.append([e.id, seed, code, rep])
    return runs


def test_check_json_is_golden(capsys, tmp_path, entries):
    runs = _check_runs(capsys, tmp_path, entries)
    by_law = {}
    for eid, _, code, rep in runs:
        by_law.setdefault(eid, []).append((code, rep))
    assert all(outs == [outs[0]] * 3 for outs in by_law.values())
    digest = hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_CHECK_SHA256


def test_every_inconclusive_certificate_has_a_reason(capsys, tmp_path, entries, reports):
    certs = [c for r in reports.values() for c in r.certificates]
    certs += [c for _, _, _, rep in _check_runs(capsys, tmp_path, entries) for c in rep["certificates"]]
    inconclusive = [c for c in certs if c["kind"] == "inconclusive"]
    assert len(inconclusive) > 2
    assert [c for c in inconclusive if not c.get("reason")] == []


def test_catalog_verify_detects_corruption(capsys, tmp_path):
    doc = json.loads(resources.files("nilrad").joinpath("data/catalog7.json").read_text())
    doc["entries"] = [e for e in doc["entries"] if e["id"] == "2.3"]
    doc["entries"][0]["expected"]["dim_der"] = 99
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["catalog", "verify", str(p)])
    assert code == 1
    assert "MISMATCH" in out and "dim_der" in out


MALFORMED_RECORDS = [
    pytest.param("1.2(ii)", "degeneration.distinguishing", text, id=text)
    for text in ("rank one vs 2", "dim_der 13 vs", "rank 1 vs 2 vs 3")
] + [
    pytest.param("1.11", "witness_law", "dim 7; [1,2]=3*(7/1767 sqrt(1767)", id="witness_law"),
    pytest.param("1.2(ii)", "degeneration.limit", "dim 7; [1,2]=9", id="degeneration.limit"),
]


@pytest.mark.parametrize("entry_id, field_name, value", MALFORMED_RECORDS)
def test_catalog_malformed_distinguishing_exit_65(capsys, tmp_path, entry_id, field_name, value):
    doc = json.loads(resources.files("nilrad").joinpath("data/catalog7.json").read_text())
    record = next(e for e in doc["entries"] if e["id"] == entry_id)["expected"]
    *path, key = field_name.split(".")
    for name in path:
        record = record[name]
    record[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["catalog", "verify", str(p)])
    assert code == 65 and out == ""
    assert len(err.splitlines()) == 1
    assert f"'{entry_id}'" in err and f"'{field_name}'" in err


def test_catalog_schema_error_exit_65(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{\"entries\": [{\"id\": \"x\"}]}")
    code, _, err = _run(capsys, ["catalog", "verify", str(p)])
    assert code == 65
    assert "missing required field" in err


def test_degenerate_explicit_x(capsys, tmp_path, by_id):
    entry = by_id["1.3(v)"]
    p = tmp_path / "law.txt"
    p.write_text(entry.law_text)
    code, out, _ = _run(capsys, ["degenerate", str(p), "--X", "-1,2,-2,1,1,0,-1"])
    assert code == 0
    assert "in_g_phi: True" in out
    assert "limit: dim 7" in out
    assert "[2,4]" not in out.split("limit:")[1].splitlines()[0]


def test_degenerate_zero(capsys, tmp_path, by_id):
    p = tmp_path / "law.txt"
    p.write_text(by_id["1.21"].law_text)
    code, out, _ = _run(capsys, ["degenerate", str(p), "--X", "-4,23,-28,10,-1,-8,8"])
    assert code == 0
    assert "limit: zero" in out


def test_degenerate_identity_flow(capsys, tmp_path, by_id):
    p = tmp_path / "law.txt"
    p.write_text(by_id["1.21"].law_text)
    code, out, _ = _run(capsys, ["degenerate", str(p), "--X", "0,0,0,0,0,0,0"])
    assert code == 0
    assert "limit: dim 7" in out


def test_degenerate_bad_x_length(capsys, tmp_path):
    p = tmp_path / "law.txt"
    p.write_text("dim 7; [1,2]=3")
    code, _, err = _run(capsys, ["degenerate", str(p), "--X", "1,2"])
    assert code == 64
    assert "needs 7 entries" in err


def test_degenerate_search(capsys, tmp_path, by_id):
    # with no --X, degenerate walks the cone: an X with a zero limit, or a trivial cone and exit 2
    p = tmp_path / "law.txt"
    p.write_text(by_id["1.21"].law_text)
    code, out, _ = _run(capsys, ["degenerate", str(p)])
    assert code == 0
    assert "X: ['0', '18', '-26', '5', '4', '-9', '8']" in out and "limit: zero" in out
    p.write_text(format_law(by_id["1.3(i_l)[lambda=2]"].law()))
    code, out, _ = _run(capsys, ["degenerate", str(p)])
    assert code == 2
    assert "no_diagonal_degeneration, y = ['13/5', '2', '16/5', '9/5', '1', '1', '1', '13/5']" in out


def test_report_json_format(capsys, tmp_path):
    p = tmp_path / "law.txt"
    p.write_text(HEISENBERG)
    code, out, _ = _run(capsys, ["report", str(p), "--format", "json"])
    assert code == 0
    assert Report.from_json(out).verdict == "EN"


def test_sqrt_laws_rejected_by_pipeline(capsys, tmp_path):
    p = tmp_path / "law.txt"
    p.write_text("dim 3; [1,2]=3*(1 sqrt(2))")
    code, _, err = _run(capsys, ["invariants", str(p)])
    assert code == 64
    assert "exact" in err
    code, _, err = _run(capsys, ["check", str(p)])
    assert code == 64
    assert "exact" in err


# Text that does not parse gets exit 64 and laws that are not nilpotent Lie
# algebras 65, with no verdict; laws whose diagonal torus is not maximal get
# INCONCLUSIVE, never a traceback.
GATE_PROBES = [
    ("dim 3; [1,2]=3; [1,3]=1", 65, None),  # Jacobi fails
    ("dim 3; [1,2]=2", 65, None),  # solvable, not nilpotent
    ("dim 3; [1,2]=2*2; [1,3]=3*-2; [2,3]=1", 65, None),  # sl2
    ("dim 0", 65, None),
    ("dim 3; [1,2]=3*(1/0)", 64, None),  # parse error: division by zero
    ("dim 3; [1,2]=3*(1/sqrt(2))", 64, None),  # parse error: division by a sqrt
    ("dim 4; [1,2]=3; [1,3]=4; [2,3]=4", 2, "basis_not_adapted"),
    # h3 under act([[1,1,0],[0,1,1],[1,0,2]])
    ("dim 3; [1,2]=2*2/3+3*4/3; [1,3]=2*-1/3+3*-2/3", 2, "basis_not_adapted"),
    ("dim 1", 0, "abelian"),
    ("dim 2", 0, "abelian"),
    ("dim 7", 0, "abelian"),
]


# `invariants` and `degenerate` print no report: they take the gate rows and
# the basis_not_adapted rows, answered on stderr alone
GATE_CASES = [
    (command, *probe)
    for command in ("check", "report", "invariants", "degenerate")
    for probe in GATE_PROBES
    if command in ("check", "report") or probe[2] != "abelian"
]
GATE_ARGS = {"check": ["--json"], "report": ["--format", "json"], "invariants": [], "degenerate": []}


@pytest.mark.parametrize(
    "command, text, code, route", GATE_CASES, ids=[f"{t}-{c}-{r}-{cmd}" for cmd, t, c, r in GATE_CASES]
)
def test_gate_probes(law_file, capsys, command, text, code, route):
    got, out, err = _run(capsys, [command, law_file(text), *GATE_ARGS[command]])
    if route is None or command in ("invariants", "degenerate"):
        assert (got, out) == (code, "")
        assert len(err.strip().splitlines()) == 1
        assert route is None or route in err
        return
    assert got == (code if command == "check" else 0) and err == ""
    rep = Report.from_json(out)
    assert rep.route == route
    assert rep.verdict == {0: "EN", 2: "INCONCLUSIVE"}[code]
    kinds = [c["kind"] for c in rep.certificates]
    assert kinds == (["abelian"] if route == "abelian" else ["inconclusive"])
    if route == "basis_not_adapted":
        assert rep.certificates[0]["reason"] == "basis_not_adapted"


def test_internal_error_exit_70(law_file, capsys, monkeypatch):
    def broken(entry, **kwargs):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(nilrad.cli, "classify", broken)
    code, out, err = _run(capsys, ["check", law_file(HEISENBERG)])
    assert (code, out) == (70, "")
    assert "internal error" in err and "planted" in err


def test_python_m_nilrad(law_file):
    src = str(Path(nilrad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "nilrad", "check", "--json", law_file(HEISENBERG)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert Report.from_json(proc.stdout).verdict == "EN"


@pytest.mark.parametrize(
    "argv",
    [["check", "LAW"], ["catalog", "verify", str(resources.files("nilrad").joinpath("data/catalog7.json")), "--only", "2.3"]],
    ids=["check", "catalog-verify"],
)
def test_runs_without_numpy(law_file, argv):
    # the library needs the standard library alone: numpy is blocked from import
    src = str(Path(nilrad.__file__).resolve().parent.parent)
    argv = [law_file(HEISENBERG) if a == "LAW" else a for a in argv]
    code = f"import sys; sys.modules['numpy'] = None; from nilrad.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr


def test_no_source_file_mentions_numpy():
    # numpy is a test dependency: the float basis change lives in tests/oracles.py
    root = Path(nilrad.__file__).resolve().parent
    assert [p.name for p in sorted(root.rglob("*.py")) if "numpy" in p.read_text()] == []


def test_no_random_in_src():
    # answers depend on the law alone: no module draws random numbers
    root = Path(nilrad.__file__).resolve().parent
    imports = re.compile(r"^\s*(import\s+random\b|from\s+random\s+import\b)", re.M)
    assert [p.name for p in sorted(root.rglob("*.py")) if imports.search(p.read_text())] == []


def test_no_float_or_tolerance_in_src():
    # one exact arithmetic: rationals and surds, never floats compared within a tolerance
    root = Path(nilrad.__file__).resolve().parent
    lines = [(p.name, line.strip()) for p in sorted(root.rglob("*.py")) for line in p.read_text().splitlines()]
    assert [x for x in lines if re.search(r"\b(tol|DEFAULT_TOL|scalar_kind)\b|math\.sqrt", x[1])] == []
    assert [x for x in lines if re.search(r"\bfloat\b", x[1])] == [
        ("catalog.py", "timing: float = 0.0"),
        ("catalog.py", 'timing=float(d.get("timing", 0.0)),'),
    ]
