from __future__ import annotations

import ast
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

import nilrad
import nilrad.cli
from nilrad.algebra import format_law, parse_law
from nilrad.catalog import Report, verify_catalog
from nilrad.derivations import DerivationSpace
from nilrad.cli import main

HEISENBERG = "dim 3; [1,2]=3\n"

# law texts that once reached an internal error or ran for hours: nesting
# deeper than the recursion limit, a numeral beyond int(), a radicand whose
# trial division took 22.7 s, a product too long for str() (exit 70), 50
# fractions of 4,001-digit numerals whose product took 1.5 s, 25 factors
# (sqrt(p) + sqrt(q)) whose product doubles its terms per factor, and
# dimensions whose Der basis of dim^4 entries exhausts memory
DEEP_PARENS = "dim 3; [1,2]=3*" + "(" * 3000 + "1" + ")" * 3000
DEEP_MINUS = "dim 3; [1,2]=3*" + "-" * 3000 + "1"
LONG_NUMERAL = "dim 3; [1,2]=3*" + "7" * 5000
BIG_RADICAND = "dim 3; [1,2]=3*sqrt(1000000000000000000000007)"
LONG_PRODUCT = "dim 3; [1,2]=3*" + "7" * 3000 + " " + "7" * 3000
MANY_FRACTIONS = "dim 3; [1,2]=3*" + " ".join(["1" + "0" * 4000 + "/" + "7" * 4001] * 50)
PRIMES = [p for p in range(2, 230) if all(p % q for q in range(2, p))]  # the first 50
MANY_SURDS = "dim 3; [1,2]=3*" + "".join(f"(sqrt({p})+sqrt({q}))" for p, q in zip(PRIMES[::2], PRIMES[1::2]))


def _short(text: str) -> str:
    """A test id for a law text: long texts cut to their head and length."""
    return text if len(text) <= 60 else f"{text[:20]}...{len(text)}-chars"


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


def test_check_sheared_41_is_not_separated(law_file, capsys):
    # 4.1 moved by I + E_13 (e1 and e3 share a phi eigenvalue): its walk limit is 4.1 itself,
    # which only the basis-dependent diagonal rank (3 vs 4) would separate
    text = "dim 7; [1,2]=5; [1,3]=6; [2,3]=5; [3,4]=7"
    code, out, _ = _run(capsys, ["check", "--json", law_file(text)])
    rep = Report.from_json(out)
    assert (code, rep.verdict, rep.route) == (2, "INCONCLUSIVE", "limit_not_distinguished")
    assert "distinguishing" not in rep.certificates[0]


def test_check_parse_error_exit_64(law_file, capsys):
    code, _, err = _run(capsys, ["check", law_file("dim 3; [1,2]=")])
    assert code == 64
    assert "expected" in err or "syntax" in err


def test_check_json_round_trips(law_file, capsys):
    code, out, _ = _run(capsys, ["check", "--json", law_file(HEISENBERG)])
    assert code == 0
    rep = Report.from_json(out)
    assert rep.verdict == "EN"


def _env() -> dict:
    """The environment of a subprocess that imports nilrad from this source tree."""
    src = str(Path(nilrad.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_usage_error_exit_64():
    proc = subprocess.run(
        [sys.executable, "-m", "nilrad", "check"], capture_output=True, text=True, env=_env(), timeout=120
    )
    assert (proc.returncode, proc.stdout) == (64, "")
    assert len(proc.stderr.splitlines()) == 1 and "file" in proc.stderr


# Each gets exit 64, empty stdout and one stderr line naming the program
USAGE_ERRORS = [
    [], ["chek", "LAW"], ["catalog", "LAW"], ["check"], ["check", "LAW", "LAW"], ["check", "LAW", "--bogus"],
    ["check", "LAW", "--js"], ["degenerate", "LAW", "--X"], ["report", "LAW", "--format", "xml"],
    ["check", "LAW", "--seed", "x"], ["check", "LAW", "--json=1"], ["check", "--json", "LAW", "--seed"],
    ["--version", "junk"], ["--help", "junk"], ["-h", "--json"], ["report", "LAW"], ["invariants", "LAW"],
    ["degenerate", "LAW"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[" ".join(a) or "no-command" for a in USAGE_ERRORS])
def test_usage_errors_exit_64_with_one_line(law_file, capsys, argv):
    path = law_file(HEISENBERG)
    code, out, err = _run(capsys, [path if a == "LAW" else a for a in argv])
    assert (code, out) == (64, "")
    assert len(err.splitlines()) == 1 and err.startswith("nilrad")
    assert argv != ["check"] or "file" in err


HELP_ARGVS = [["-h"], ["--help"], ["check", "-h"], ["check", "LAW", "-h"], ["catalog", "verify", "-h"]]


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_prints_the_usage(law_file, capsys, argv):
    code, out, err = _run(capsys, [law_file(HEISENBERG) if a == "LAW" else a for a in argv])
    assert (code, out, err) == (0, nilrad.cli.USAGE + "\n", "")
    assert all(" ".join(["nilrad", *words, "FILE"]) in out for words in nilrad.cli.COMMANDS)


def test_version_and_a_repeated_check(law_file, capsys):
    # no state is kept between calls: a second identical check answers as the first
    assert _run(capsys, ["--version"]) == (0, f"nilrad {nilrad.__version__}\n", "")
    path = law_file(HEISENBERG)
    first, second = (_run(capsys, ["check", path]) for _ in range(2))
    assert first == second and first[0] == 0


def test_flag_forms_and_order_give_one_answer(law_file, capsys, by_id):
    # `--seed value` and `--seed=value`, also for a value that begins with "-",
    # and flags before or after FILE, give the same output
    path = law_file(by_id["1.2(ii)"].law_text)

    def untimed(argv):
        code, out, err = _run(capsys, argv)
        return code, {**json.loads(out), "timing": None}, err

    before = untimed(["check", "--json", "--seed", "3", path])
    assert untimed(["check", path, "--seed=3", "--json"]) == before
    assert untimed(["check", "--seed", "-3", path, "--json"]) == before


def test_closed_stdout_exits_74():
    # a reader that closes stdout (`... | head -1`) gets EX_IOERR, not an internal error
    catalog = str(resources.files("nilrad").joinpath("data/catalog7.json"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilrad", "catalog", "verify", catalog],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert (proc.wait(timeout=120), err) == (74, "")


def test_invariants(law_file, capsys):
    code, out, _ = _run(capsys, ["check", "--json", law_file(HEISENBERG)])
    computed = json.loads(out)["computed"]
    assert code == 0
    assert (computed["dim_der"], computed["rank"], computed["nice"]) == (6, 2, True)


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


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_catalog_verify_is_golden_under_other_pythons(version):
    # pyproject.toml promises Python >= 3.10: every other interpreter on PATH gives the same reports.
    # PYENV_VERSION lets a pyenv shim run the version its name asks for; other interpreters ignore it
    src = str(Path(nilrad.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYENV_VERSION=version, PYTHONPATH=path)
    exe = shutil.which(f"python{version}")
    if exe is None or subprocess.run([exe, "-c", ""], env=env, capture_output=True, timeout=60).returncode:
        pytest.skip(f"no python{version} on PATH")
    catalog = str(resources.files("nilrad").joinpath("data/catalog7.json"))
    proc = subprocess.run(
        [exe, "-B", "-m", "nilrad", "catalog", "verify", "--json", catalog],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    for r in reports:
        del r["timing"]
    assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() == GOLDEN_VERIFY_SHA256


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


def test_pipeline_never_reads_the_dense_der_basis(capsys, law_file, monkeypatch, entries, reports):
    """The pipeline reads Der only through the rank and `annihilates` of its echelon
    form: with the dense `DerivationSpace.basis`, its sparse `vectors` and the iteration
    of a `linalg.Kernel` refused, `verify_catalog` on the catalog and `check` on every
    catalog law give the same reports as with them."""

    def checks():
        runs = []
        for e in entries:
            code, out, _ = _run(capsys, ["check", "--json", law_file(format_law(e.law()))])
            runs.append((e.id, code, {**json.loads(out), "timing": None}))
        return runs

    def untimed(reps):
        return [{**r.to_dict(), "timing": None} for r in reps]

    before = checks()
    for name in ("basis", "vectors"):
        monkeypatch.setattr(DerivationSpace, name, property(lambda _, name=name: pytest.fail(f"DerivationSpace.{name} read")))
    monkeypatch.setattr(nilrad.linalg.Kernel, "__iter__", lambda _: pytest.fail("a Der kernel was iterated"))
    assert untimed(verify_catalog(entries)) == untimed(reports.values())
    assert checks() == before


def test_linalg_owns_the_reduced_rows(capsys, law_file, monkeypatch, entries):
    """Only `linalg` and the span readers of `algebra` read the reduced rows of
    `integer_rref`, in `verify_catalog` and in `check` on every catalog law; every
    other exact solve is `linalg.solve`: one catalog pass makes 136 of them for phi
    and 58 for a nonsingular U."""
    callers, solves = set(), []
    rref, solve = nilrad.linalg.integer_rref, nilrad.linalg.solve

    def traced_rref(rows):
        callers.add(sys._getframe(1).f_globals["__name__"])
        return rref(rows)

    def traced_solve(a, b):
        solves.append(sys._getframe(1).f_globals["__name__"])
        return solve(a, b)

    monkeypatch.setattr(nilrad.linalg, "integer_rref", traced_rref)
    monkeypatch.setattr(nilrad.linalg, "solve", traced_solve)
    verify_catalog(entries)
    assert sorted(Counter(solves).items()) == [("nilrad.derivations", 136), ("nilrad.nicebasis", 58)]
    for e in entries:
        _run(capsys, ["check", "--json", law_file(format_law(e.law()))])
    assert callers <= {"nilrad.linalg", "nilrad.algebra"}, callers


def test_statement_order_does_not_change_a_report(capsys, law_file, entries):
    """A law is its structure constants: every catalog law with its statements reversed,
    and in one seeded shuffle, gives the `check --json` bytes (timing aside) and exit code
    of its formatted text, and `parse_law` stores the brackets in sorted triple order."""
    rng = random.Random(25)

    def check(text):
        law = parse_law(text)
        assert list(law.brackets) == sorted(law.brackets)
        code, out, _ = _run(capsys, ["check", "--json", law_file(text)])
        return code, re.sub(r'"timing": [^,}]*', '"timing": null', out)

    for e in entries:
        head, *statements = format_law(e.law()).split("; ")
        shuffled = rng.sample(statements, len(statements))
        want = check("; ".join([head, *statements]))
        for order in (statements[::-1], shuffled):
            assert check("; ".join([head, *order])) == want, (e.id, order)


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


def _recorded(entry_id: str) -> dict:
    """The expected record of a shipped catalog entry."""
    doc = json.loads(resources.files("nilrad").joinpath("data/catalog7.json").read_text())
    return next(e for e in doc["entries"] if e["id"] == entry_id)["expected"]


_LIMIT_12II = "dim 7; [1,2]=4; [1,4]=5; [1,6]=7; [2,3]=6; [2,4]=6; [2,5]=7"
_EMPTY_IFF_ZERO = "must be '' exactly when the limit is 'zero'"

# A recorded field the loader refuses: (entry, field, value, message).  A
# witness or limit that fails Jacobi or has another dimension, a limit with
# sqrt and an X of another length were once mismatches found by classify
MALFORMED_RECORDS = [
    pytest.param("1.2(ii)", "degeneration.distinguishing", text, "must be '' or read", id=text)
    for text in ("rank one vs 2", "dim_der 13 vs", "rank 1 vs 2 vs 3", "rank 1 vs 3", "series (7, 5, 0) vs (7, 4, 0)")
] + [
    pytest.param("1.11", "witness_law", "dim 7; [1,2]=3*(7/1767 sqrt(1767)", "expected ')'", id="witness_law"),
    pytest.param("1.2(ii)", "degeneration.limit", "dim 7; [1,2]=9", "out of range", id="degeneration.limit"),
    pytest.param(
        "1.11", "witness_law", _recorded("1.11")["witness_law"].replace("sqrt(90706))", "sqrt(90707))", 1),
        "the Jacobi identity fails at (1, 2, 4)", id="witness_law-jacobi",
    ),
    pytest.param(
        "2.37", "witness_law", _recorded("2.37")["witness_law"] + "; [2,5]=7",
        "the Jacobi identity fails at (1, 2, 3)", id="witness_law-jacobi-rational",
    ),
    pytest.param(
        "1.11", "witness_law", "dim 3; [1,2]=3*(5/186 sqrt(186))",
        "dimension 3 is not the law's dimension 7", id="witness_law-dim-3",
    ),
    pytest.param(
        "1.2(ii)", "degeneration.limit", _LIMIT_12II, "the Jacobi identity fails at", id="degeneration.limit-jacobi",
    ),
    pytest.param(
        "1.2(ii)", "degeneration.limit", "dim 6; [1,2]=4",
        "dimension 6 is not the law's dimension 7", id="degeneration.limit-dim-6",
    ),
    pytest.param(
        "1.3(i_0)", "degeneration.limit", "dim 8; [1,2]=4",
        "dimension 8 is not the law's dimension 7", id="degeneration.limit-dim-8",
    ),
    pytest.param(
        "1.2(ii)", "degeneration.limit", _LIMIT_12II.replace("[2,5]=7", "[2,5]=7*(2 sqrt(3))"),
        "not sqrt", id="degeneration.limit-sqrt",
    ),
    pytest.param(
        "1.21", "degeneration.X", ["1", "-1"], "dimension 2 is not the law's dimension 7", id="degeneration.X-length-2",
    ),
    # a zero limit names no distinguishing invariant, and a limit law names one
    pytest.param("1.21", "degeneration.distinguishing", "dim_der 3 vs 99", _EMPTY_IFF_ZERO, id="zero-limit-named"),
    pytest.param("1.2(ii)", "degeneration.distinguishing", "", _EMPTY_IFF_ZERO, id="limit-law-unnamed"),
]


@pytest.mark.parametrize("entry_id, field_name, value, message", MALFORMED_RECORDS)
def test_catalog_malformed_distinguishing_exit_65(capsys, tmp_path, entry_id, field_name, value, message):
    doc = json.loads(resources.files("nilrad").joinpath("data/catalog7.json").read_text())
    record = next(e for e in doc["entries"] if e["id"] == entry_id)["expected"]
    *path, key = field_name.split(".")
    for name in path:
        record = record[name]
    record[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["catalog", "verify", str(p)])
    assert time.perf_counter() - start < 1
    assert code == 65 and out == ""
    assert len(err.splitlines()) == 1
    assert f"entry '{entry_id}', field '{field_name}'" in err and message in err


# A catalog law the CLI's gate refuses, which the loader refuses too:
# (entry, law text, instance id named in the error, message)
MALFORMED_LAWS = [
    ("1.1(i_l)", "dim 7; [1,2]=3*(lambda sqrt(2))", "1.1(i_l)[lambda=2]", "not sqrt"),
    ("2.3", "dim 0", "2.3", "dimension must be at least 1"),
    ("2.3", DEEP_PARENS, "2.3", "nested too deeply"),
    ("2.3", DEEP_MINUS, "2.3", "nested too deeply"),
    ("2.3", LONG_NUMERAL, "2.3", "numeral of 5000 digits is too long"),
    ("2.3", BIG_RADICAND, "2.3", "above 10^12"),
    ("2.3", LONG_PRODUCT, "2.3", "more than 4300 digits"),
    ("2.3", MANY_FRACTIONS, "2.3", "more than 4300 digits"),
    ("2.3", MANY_SURDS, "2.3", "more than 64 square-root terms"),
    ("2.3", "dim 41", "2.3", "dimension 41 is above 40"),
    ("2.3", "dim 100000", "2.3", "dimension 100000 is above 40"),
    ("2.3", "dim 3; [1,2]=2", "2.3", "not nilpotent: the lower central series stops at [3, 1]"),
]


@pytest.mark.parametrize(
    "entry_id, law, instance_id, message", MALFORMED_LAWS, ids=[_short(m[1]) for m in MALFORMED_LAWS]
)
def test_catalog_malformed_law_exit_65(capsys, tmp_path, entry_id, law, instance_id, message):
    doc = json.loads(resources.files("nilrad").joinpath("data/catalog7.json").read_text())
    next(e for e in doc["entries"] if e["id"] == entry_id)["law"] = law
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["catalog", "verify", str(p)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (65, "")
    assert len(err.splitlines()) == 1 and "internal error" not in err
    assert f"entry '{instance_id}', field 'law'" in err and message in err


@pytest.mark.parametrize("samples", [["1", "1"], ["2", "4/2"]])
def test_catalog_repeated_sample_exit_65(capsys, tmp_path, samples):
    # two equal samples once gave two reports of one instance id, and "137/137 match"
    doc = json.loads(resources.files("nilrad").joinpath("data/catalog7.json").read_text())
    next(e for e in doc["entries"] if e["id"] == "0.4")["params"]["samples"] = samples
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["catalog", "verify", str(p)])
    assert (code, out) == (65, "")
    assert len(err.splitlines()) == 1
    assert f"entry '0.4', field 'params.samples': sample {samples[0]} is repeated" in err


def test_catalog_empty_samples_exit_65(capsys, tmp_path):
    # a family with no sample expanded to no instance: its law was never parsed, and "135/135 match"
    doc = json.loads(resources.files("nilrad").joinpath("data/catalog7.json").read_text())
    entry = next(e for e in doc["entries"] if e["id"] == "0.4")
    entry["params"]["samples"], entry["law"] = [], "dim 7; this is not a law"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["catalog", "verify", str(p)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (65, "")
    assert len(err.splitlines()) == 1
    assert "entry '0.4', field 'params.samples': must name at least one sample" in err


def test_catalog_schema_error_exit_65(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{\"entries\": [{\"id\": \"x\"}]}")
    code, _, err = _run(capsys, ["catalog", "verify", str(p)])
    assert code == 65
    assert "missing required field" in err


# A value of the wrong kind in a catalog field, or an entry that is not an
# object: (field, value) set on entry 2.3's expected record, or None to
# append a bare number to the entries.  A rational is a JSON int or
# `-?digits(/digits)?`: "1e5000" once exited 70, "1e3000000" after 1.7 s
MALFORMED_VALUES = [
    ("soliton_norm", 0.5), ("pre_einstein", ["a"]), ("dim_der", "x"), ("U", [["q"]]), ("derived", 5),
    ("nice", "no"), ("rank", 2.0), ("verdict", ["EN"]), ("x", "positive"), ("pre_einstein", ["1/0"]), (None, None),
    ("degeneration", "zero"), ("soliton_norm", "1e5000"), ("pre_einstein", ["1e5000"] * 7),
    ("soliton_norm", "1e3000000"), ("soliton_norm", True), ("pre_einstein", [True] * 7),
]


@pytest.mark.parametrize("field_name, value", MALFORMED_VALUES, ids=[f"{f}={v!r}" for f, v in MALFORMED_VALUES])
def test_catalog_malformed_value_exit_65(capsys, tmp_path, field_name, value):
    doc = json.loads(resources.files("nilrad").joinpath("data/catalog7.json").read_text())
    if field_name is None:
        doc["entries"].append(5)
    else:
        next(e for e in doc["entries"] if e["id"] == "2.3")["expected"][field_name] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["catalog", "verify", str(p)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (65, "")
    assert len(err.splitlines()) == 1 and "internal error" not in err
    assert ("entry 5 is not an object" if field_name is None else f"entry '2.3', field '{field_name}'") in err
    assert field_name != "degeneration" or "must be an object" in err


def test_files_that_are_not_utf8(capsys, tmp_path):
    # a law file exits 64 from the gate of check, a catalog 65
    p = tmp_path / "law.txt"
    p.write_bytes(b"dim 3; [1,2]=3 \xff\n")
    code, out, err = _run(capsys, ["check", str(p)])
    assert (code, out) == (64, "")
    assert "utf-8" in err and "internal error" not in err
    p = tmp_path / "catalog.json"
    p.write_bytes(b'{"entries": []} \xff')
    code, out, err = _run(capsys, ["catalog", "verify", str(p)])
    assert (code, out) == (65, "")
    assert "UTF-8" in err and "internal error" not in err


@pytest.mark.parametrize(
    "text", ['{"entries": [' + "1" * 5000 + "]}", '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["integer-of-5000-digits", "arrays-nested-100000-deep"],
)
def test_catalog_json_that_json_cannot_read(capsys, tmp_path, text):
    # json.loads raises ValueError (int conversion) or RecursionError, not JSONDecodeError
    p = tmp_path / "catalog.json"
    p.write_text(text)
    code, out, err = _run(capsys, ["catalog", "verify", str(p)])
    assert (code, out) == (65, "")
    assert len(err.splitlines()) == 1 and "UTF-8 JSON" in err and "internal error" not in err


def test_catalog_verify_missing_file_exit_65(capsys, tmp_path):
    code, out, err = _run(capsys, ["catalog", "verify", str(tmp_path / "missing.json")])
    assert (code, out) == (65, "")
    assert len(err.splitlines()) == 1 and "No such file" in err


def test_sqrt_laws_rejected_by_pipeline(capsys, tmp_path):
    p = tmp_path / "law.txt"
    p.write_text("dim 3; [1,2]=3*(1 sqrt(2))")
    code, _, err = _run(capsys, ["check", str(p)])
    assert code == 64
    assert "exact" in err


# Text that does not parse and a dimension above 40 get exit 64, and laws that
# are not nilpotent Lie algebras 65, with no verdict, within a second; laws
# whose diagonal torus is not maximal get INCONCLUSIVE, never a traceback.
GATE_PROBES = [
    ("dim 3; [1,2]=3; [1,3]=1", 65, None),  # Jacobi fails
    ("dim 3; [1,2]=2", 65, None),  # solvable, not nilpotent
    ("dim 3; [1,2]=2*2; [1,3]=3*-2; [2,3]=1", 65, None),  # sl2
    ("dim 0", 65, None),
    ("dim 3; [1,2]=3*(1/0)", 64, None),  # parse error: division by zero
    ("dim 3; [1,2]=3*(1/sqrt(2))", 64, None),  # parse error: division by a sqrt
    (DEEP_PARENS, 64, None),
    (DEEP_MINUS, 64, None),
    (LONG_NUMERAL, 64, None),
    (BIG_RADICAND, 64, None),
    (LONG_PRODUCT, 64, None),
    (MANY_FRACTIONS, 64, None),
    (MANY_SURDS, 64, None),
    ("dim 41", 64, None),
    ("dim 100000", 64, None),
    ("dim 4; [1,2]=3; [1,3]=4; [2,3]=4", 2, "basis_not_adapted"),
    # h3 under act([[1,1,0],[0,1,1],[1,0,2]])
    ("dim 3; [1,2]=2*2/3+3*4/3; [1,3]=2*-1/3+3*-2/3", 2, "basis_not_adapted"),
    # h3 in a basis of diagonal rank 0: Der is not nilpotent, so not rank_zero
    ("dim 3; [1,2]=1*-2+2+3; [1,3]=1*2+2*-1+3*-1; [2,3]=1*4+2*-2+3*-2", 2, "basis_not_adapted"),
    ("dim 1", 0, "abelian"),
    ("dim 2", 0, "abelian"),
    ("dim 7", 0, "abelian"),
]


# Each probe runs through four argv forms of `check`: the JSON report, the text
# report, the flag before the file, and the `--seed` form the benchmark passes.
# The last three are labelled with the names of the removed `report`,
# `invariants` and `degenerate` commands, whose probes they took over.
GATE_FORMS = {
    "check": ["check", "LAW", "--json"],
    "report": ["check", "LAW"],
    "invariants": ["check", "--json", "LAW"],
    "degenerate": ["check", "LAW", "--json", "--seed", "1"],
}
GATE_CASES = [(form, *probe) for form in GATE_FORMS for probe in GATE_PROBES]


@pytest.mark.parametrize(
    "form, text, code, route", GATE_CASES, ids=[f"{_short(t)}-{c}-{r}-{f}" for f, t, c, r in GATE_CASES]
)
def test_gate_probes(law_file, capsys, form, text, code, route):
    law = law_file(text)
    argv = [law if a == "LAW" else a for a in GATE_FORMS[form]]
    start = time.perf_counter()
    got, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1
    if route is None:
        assert (got, out) == (code, "")
        assert len(err.strip().splitlines()) == 1
        return
    assert got == code and err == ""
    if "--json" in argv:
        rep = Report.from_json(out)
        verdict, got_route, certs = rep.verdict, rep.route, rep.certificates
    else:
        fields = [line.split(": ", 1) for line in out.splitlines()]
        (_, verdict), (_, got_route) = fields[:2]
        certs = [json.loads(v) for k, v in fields if k == "certificate"]
    assert got_route == route
    assert verdict == {0: "EN", 2: "INCONCLUSIVE"}[code]
    kinds = [c["kind"] for c in certs]
    assert kinds == (["abelian"] if route == "abelian" else ["inconclusive"])
    if route == "basis_not_adapted":
        assert certs[0]["reason"] == "basis_not_adapted"


def test_internal_error_exit_70(law_file, capsys, monkeypatch):
    def broken(entry, **kwargs):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(nilrad.cli, "classify", broken)
    code, out, err = _run(capsys, ["check", law_file(HEISENBERG)])
    assert (code, out) == (70, "")
    assert "internal error" in err and "planted" in err


def test_python_m_nilrad(law_file):
    proc = subprocess.run(
        [sys.executable, "-m", "nilrad", "check", "--json", law_file(HEISENBERG)],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert Report.from_json(proc.stdout).verdict == "EN"


@pytest.mark.parametrize(
    "argv",
    [["check", "LAW"], ["catalog", "verify", str(resources.files("nilrad").joinpath("data/catalog7.json")), "--only", "2.3"]],
    ids=["check", "catalog-verify"],
)
def test_runs_without_numpy(law_file, argv):
    # the library needs the standard library alone: numpy is blocked from import,
    # and argparse too, whose parsers once cost each process's first answer 3-5 ms
    argv = [law_file(HEISENBERG) if a == "LAW" else a for a in argv]
    block = "sys.modules['numpy'] = sys.modules['argparse'] = None"
    code = f"import sys; {block}; from nilrad.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_env())
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_argparse_out():
    code = "import sys, nilrad.cli; print('argparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_env())
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_no_source_file_mentions_numpy():
    # the library, its tests and its benchmark are exact and need only the standard library and
    # pytest: no .py file under src/, tests/ or perfbench/ imports numpy or hypothesis (read as
    # import statements, since this file names numpy in strings)
    root = Path(__file__).resolve().parent.parent
    banned = {"numpy", "hypothesis"}
    found = [
        (str(p.relative_to(root)), node.lineno)
        for d in ("src", "tests", "perfbench")
        for p in sorted((root / d).rglob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] in banned for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in banned
    ]
    assert found == []


def test_every_top_level_name_in_src_is_read():
    # test-only helpers live under tests/: each top-level def or class of src
    # is read by another top-level statement of src, exported in
    # nilrad.__all__, or traced by name by the benchmark (perfbench.layers)
    from perfbench.layers import TRACED

    root = Path(nilrad.__file__).resolve().parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(root.rglob("*.py"))}

    def names(node):
        return {
            getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        }

    reads = [(top, names(top)) for tree in trees.values() for top in tree.body]
    unread = [
        f"{mod}.{node.name}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in read for top, read in reads if top is not node)
        and node.name not in nilrad.__all__
        and node.name not in TRACED.get(mod, ())
    ]
    assert unread == []


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
        ("catalog.py", 'return cls(**{**d, "timing": float(d.get("timing", 0.0))})'),
    ]
