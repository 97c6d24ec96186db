"""Tests of the benchmark itself: inputs, answer checks, tracing and metric names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nilrad
import nilrad.cli
from nilrad.catalog import load_catalog

from perfbench import reference as ref
from perfbench.layers import LayerTrace
from perfbench.run import END_TO_END_UNITS, REFERENCE_S, end_to_end_metrics, per_layer_metrics, tail
from perfbench.workloads import WORKLOADS, Answer, BasisChange, CheckSearch, Pass

ROOT = Path(__file__).resolve().parent.parent


def _instances():
    return {i.id: i for i in ref.load_instances(ROOT / "src" / "nilrad" / "data" / "catalog7.json")}


def test_same_seed_gives_same_inputs():
    a, b, c = BasisChange(ROOT, 7), BasisChange(ROOT, 7), BasisChange(ROOT, 8)
    texts = [[t for _, _, t in w.items] for w in (a, b, c)]
    assert texts[0] == texts[1] and texts[0] != texts[2] and len(set(texts[0])) == len(texts[0])
    s1 = CheckSearch(ROOT, 7)
    laws = [p.read_text() for p in s1.inputs]
    s2 = CheckSearch(ROOT, 7)
    assert laws == [p.read_text() for p in s2.inputs]
    assert [s1.pass_seeds(0), s1.pass_seeds(1)] == [s2.pass_seeds(0), s2.pass_seeds(1)]
    assert s1.pass_seeds(0) != s1.pass_seeds(1) and s1.pass_seeds(0) != CheckSearch(ROOT, 8).pass_seeds(0)


def test_reference_parser_agrees_with_catalog_loader():
    mine = _instances()
    for entry in load_catalog():
        assert dict(entry.law().brackets) == mine[entry.id].brackets, entry.id


def test_planted_wrong_verdict_is_a_failure(monkeypatch):
    work = CheckSearch(ROOT, 1)
    work.laws, work.inputs = work.laws[:2], work.inputs[:2]  # two NOT_EN positivity-gate laws
    classify = nilrad.cli.classify

    def planted(entry, **kwargs):
        rep = classify(entry, **kwargs)
        if work.inputs[0].read_text().strip() == entry.law_text.strip():
            rep.verdict = "EN"
        return rep

    monkeypatch.setattr(nilrad.cli, "classify", planted)
    first, second = work.run_pass(0, calibrated=True).answers
    assert first.failure and not first.decided and first.calibration > 0
    assert second.decided and second.failure is None


def test_corrupted_certificate_is_a_failure():
    inst = _instances()["2.3"]
    entry = next(e for e in load_catalog() if e.id == "2.3")
    report = nilrad.classify(entry).to_dict()
    assert ref.catalog_outcome(report, inst) == (True, None)
    cert = next(c for c in report["certificates"] if c["kind"] == "positive_solution")
    cert["x"][0] = str(Fraction(cert["x"][0]) + 1)
    decided, failure = ref.catalog_outcome(report, inst)
    assert not decided and "Ux != [1]" in failure
    report["certificates"] = [{"kind": "rank_zero"}]
    report["verdict"] = "NOT_EN"
    assert ref.catalog_outcome(report, inst)[1].startswith("verdict NOT_EN")
    assert ref.check_outcome(1, report, inst)[1].startswith("verdict NOT_EN")
    assert ref.check_outcome(70, report, inst)[1] == "exit code 70 with verdict NOT_EN"


def test_digest_ignores_timing_only():
    out = [["1.2", 5, (2, {"verdict": "INCONCLUSIVE", "timing": 0.1})]]
    same = [["1.2", 5, (2, {"verdict": "INCONCLUSIVE", "timing": 0.2})]]
    other = [["1.2", 5, (2, {"verdict": "EN", "timing": 0.1})]]
    assert ref.digest(out) == ref.digest(same) != ref.digest(other)


def test_trace_covers_from_imports_and_restores_bindings():
    modules = [m for k, m in sys.modules.items() if k == "nilrad" or k.startswith("nilrad.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    entry = next(e for e in load_catalog() if e.id == "1.2(ii)")
    with LayerTrace() as tr:
        nilrad.catalog.classify(entry)  # reaches Der and series through from-imports
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert all(after[key] is value for key, value in before.items())
    for name in ("catalog.classify", "derivations.derivation_space", "algebra.series_signature",
                 "degeneration.distinguish", "linalg.sparse_nullspace"):
        assert tr.calls[name] >= 1, name
    assert all(v >= 0 for v in tr.self_s.values())


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    answers = [Answer(str(n), n / 1000, REFERENCE_S, True, None) for n in range(1, 31)]
    metrics = end_to_end_metrics([0.2, 0.3], [Pass(1.0, answers)], 30.0)
    assert list(metrics) == list(END_TO_END_UNITS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END_UNITS.items())
    assert metrics["verdict_ms_tail"] == pytest.approx(20.0) and tail([a.seconds for a in answers])[1] == pytest.approx(200 / 3)
    with LayerTrace() as tr:
        nilrad.series_signature(nilrad.parse_law("dim 3; [1,2]=3"))
    layer = per_layer_metrics([Pass(1.0, answers)], [(Pass(1.1, answers), tr.summary())])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layer.items()]


def test_times_are_scaled_by_the_calibration_before_each_law():
    # the first pass ran on a host twice as slow as the reference, the second at its speed
    slow = [Answer(str(n), n / 500, 2 * REFERENCE_S, n != 1, None) for n in range(1, 31)]
    fast = [Answer(str(n), n / 1000, REFERENCE_S, True, None) for n in range(1, 31)]
    metrics = end_to_end_metrics([0.2, 0.4, 0.3], [Pass(2.0, slow), Pass(1.0, fast)], 30.0)
    assert metrics["wall_s"] == pytest.approx(1.0)  # 0.465 in the laws, 0.535 outside them
    assert metrics["verdict_ms_p50"] == pytest.approx(15.5) and metrics["verdict_ms_tail"] == pytest.approx(25.0)
    assert metrics["decided_share"] == pytest.approx(59 / 60) and metrics["setup_s"] == 0.3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "catalog_verify", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
