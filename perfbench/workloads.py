"""The three workloads, each a closed loop with one caller.

One thread calls nilrad; each law is sent only after the previous answer
has returned and been checked.  `run_pass(number, calibrated)` makes one
complete pass, returning the time spent inside nilrad and one `Answer` per
law.  The inputs of a pass depend only on the workload seed and the pass
number.  Only check_search's `--seed` values change from pass to pass, so
that its decided_share averages over many searches.

- catalog_verify: `nilrad catalog verify --json` on the shipped catalog, the
  job the roadmap's one-second target names.  It loads every layer on sparse
  laws: parsing, Jacobi, series, Der, torus, the nice-basis LP, witnesses
  and recorded degenerations.  The seed has no effect.
- check_search: `nilrad check --json` on the 27 catalog laws that are not
  nice and have rank > 0, each with its own `--seed` drawn from the workload
  seed, fresh on every pass.  23 of them reach the randomised degeneration
  search and the LP is never called: the path a new non-nice law takes.
- basis_change: parse, Jacobi, series and Der on 7 catalog laws after
  seeded rational basis changes, checked against the catalog's
  basis-free invariants.  Dense coefficients make exact elimination
  dominate.  `classify` is left out: in a non-adapted basis its verdicts are
  not yet reliable.

BENCHMARK.json lists only catalog_verify and check_search.  Steady figures
on a host whose speed drifts need long runs, and the total time allowed for
all runs fits two workloads at that length; basis_change runs by hand.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import nilrad
import nilrad.cli

from . import reference as ref


@dataclass(frozen=True)
class Answer:
    key: str
    seconds: float
    calibration: float | None  # mean of calibrate() just before and after the law; None in traced passes
    decided: bool
    failure: str | None


@dataclass
class Pass:
    seconds: float  # time spent inside nilrad calls
    answers: list[Answer] = field(default_factory=list)
    outputs: list = field(default_factory=list)  # program outputs, for the digest


def catalog_path(root: Path) -> Path:
    return root / "src" / "nilrad" / "data" / "catalog7.json"


def calibrate() -> float:
    """Seconds taken by a fixed exact elimination over an 8x8 rational matrix.

    It measures the host's speed at this moment: pure Python with Fraction
    arithmetic like nilrad's, but no nilrad code, so no change to the
    program moves it.  It runs just before and just after each law of an
    untraced pass, and run.py divides the law's time by the mean of the
    two: the host's speed can change while a law runs.
    """
    n = 8
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) + (i == j) for j in range(n)] for i in range(n)]
    start = time.perf_counter()
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    seconds = time.perf_counter() - start
    assert all(m[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    return seconds


def _timed(calibrated: bool, fn, *args):
    """(result, error, seconds, calibration) of one call into nilrad.

    With `calibrated`, calibrate() runs just before and just after the call,
    and `calibration` is the mean of the two.  An exception, or an exit
    through SystemExit, is an answer that failed: it is counted, not fatal
    to the benchmark.
    """
    before = calibrate() if calibrated else None
    start = time.perf_counter()
    try:
        result, error = fn(*args), None
    except (Exception, SystemExit) as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return result, error, seconds, (before + calibrate()) / 2 if calibrated else None


def _cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of `nilrad <argv>`."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = nilrad.cli.main(argv)
    return rc, buf.getvalue()


def _cli_json(calibrated: bool, argv: list[str]):
    """`_timed(calibrated, _cli, argv)` with the output parsed as JSON outside the timed span."""
    result, error, seconds, calibration = _timed(calibrated, _cli, argv)
    if error is None:
        try:
            result = result[0], json.loads(result[1])
        except json.JSONDecodeError as exc:
            result, error = None, f"output is not JSON: {exc}"
    return result, error, seconds, calibration


class CatalogVerify:
    name = "catalog_verify"

    def __init__(self, root: Path, seed: int):
        self.path = catalog_path(root)
        self.instances = {inst.id: inst for inst in ref.load_instances(self.path)}
        self.inputs = [self.path]

    def run_pass(self, number: int, calibrated: bool) -> Pass:
        # per-law time is measured at the request boundary, classify(entry);
        # the calibrations run inside the CLI call and their time is taken out
        times: dict[str, tuple[float, float | None]] = {}
        aside = 0.0
        catalog = nilrad.catalog
        classify = catalog.classify

        def timed(entry, *args, **kwargs):
            nonlocal aside
            mark = time.perf_counter()
            before = calibrate() if calibrated else None
            start = time.perf_counter()
            aside += start - mark
            try:
                return classify(entry, *args, **kwargs)
            finally:
                mark = time.perf_counter()
                times[entry.id] = mark - start, (before + calibrate()) / 2 if calibrated else None
                aside += time.perf_counter() - mark

        catalog.classify = timed
        try:
            result, error, seconds, _ = _cli_json(False, ["catalog", "verify", str(self.path), "--json"])
        finally:
            catalog.classify = classify
        seconds -= aside
        reports = {} if error else {r["id"]: r for r in result[1]}
        done = Pass(seconds, outputs=sorted(reports.values(), key=lambda r: r["id"]))
        for key, inst in self.instances.items():
            if key in reports:
                decided, failure = ref.catalog_outcome(reports[key], inst)
            else:
                decided, failure = False, error or f"no report (exit code {result[0]})"
            law_seconds, calibration = times.get(key, (seconds, calibrate() if calibrated else None))
            done.answers.append(Answer(key, law_seconds, calibration, decided, failure))
        return done


class CheckSearch:
    name = "check_search"

    def __init__(self, root: Path, seed: int):
        self.laws = [
            inst for inst in ref.load_instances(catalog_path(root))
            if inst.expected["rank"] > 0 and not ref.is_nice(inst.brackets)
        ]
        workdir = root / "perfbench" / "_work" / self.name
        workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for n, inst in enumerate(self.laws):
            p = workdir / f"{n:02d}.law"
            p.write_text(ref.format_law_text(inst.dim, inst.brackets) + "\n", encoding="utf-8")
            self.inputs.append(p)
        self.seed = seed

    def pass_seeds(self, number: int) -> list[int]:
        rng = random.Random(f"{self.seed}:{number}")
        return [rng.randrange(2**31) for _ in self.laws]

    def run_pass(self, number: int, calibrated: bool) -> Pass:
        done = Pass(0.0)
        for inst, path, seed in zip(self.laws, self.inputs, self.pass_seeds(number)):
            argv = ["check", str(path), "--json", "--seed", str(seed)]
            result, error, seconds, calibration = _cli_json(calibrated, argv)
            decided, failure = (False, error) if error else ref.check_outcome(*result, inst)
            done.seconds += seconds
            done.answers.append(Answer(inst.id, seconds, calibration, decided, failure))
            done.outputs.append([inst.id, seed, result])
        return done


class BasisChange:
    name = "basis_change"

    def __init__(self, root: Path, seed: int):
        # 7 laws spread over the catalog's ranks, each after its own basis change g
        rng = random.Random(seed)
        self.items: list[tuple[ref.Instance, ref.Brackets, str]] = []
        for inst in ref.load_instances(catalog_path(root))[::20]:
            brackets = ref.act(ref.random_basis_change(rng, inst.dim), inst.dim, inst.brackets)
            self.items.append((inst, brackets, ref.format_law_text(inst.dim, brackets)))
        self.inputs = [catalog_path(root)]

    def run_pass(self, number: int, calibrated: bool) -> Pass:
        done = Pass(0.0)
        for inst, brackets, text in self.items:
            result, failure, seconds, calibration = _timed(calibrated, _invariants, text)
            got = None
            if failure is None:
                got = _invariants_output(result)
                failure = _invariants_failure(result[0], got, brackets, inst.expected)
            done.seconds += seconds
            done.answers.append(Answer(inst.id, seconds, calibration, failure is None, failure))
            done.outputs.append([inst.id, got])
        return done


def _invariants(text: str):
    law = nilrad.parse_law(text)
    return law, nilrad.jacobi_violations(law), nilrad.series_signature(law), nilrad.derivation_space(law)


def _invariants_output(result) -> dict:
    law, bad, sig, space = result
    return {
        "jacobi_violations": len(bad),
        "derived": list(sig.derived_dims),
        "lcs": list(sig.lcs_dims),
        "dim_der": len(space.basis),
        "der_basis": [[[str(v) for v in row] for row in d] for d in space.basis],
    }


def _invariants_failure(law, got: dict, brackets: ref.Brackets, exp: dict) -> str | None:
    if dict(law.brackets) != brackets:
        return "parsed structure constants differ from the generated law"
    if got["jacobi_violations"]:
        return f"Jacobi reported failing on {got['jacobi_violations']} triples"
    return next((f"{k} {got[k]} != reference {exp[k]}" for k in ("derived", "lcs", "dim_der") if got[k] != exp[k]), None)


WORKLOADS = {w.name: w for w in (CatalogVerify, CheckSearch, BasisChange)}
