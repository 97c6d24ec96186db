"""Benchmark of nilrad: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports nilrad from the `src/` of the checkout it sits in and needs only
the standard library.  NAME is one of catalog_verify, check_search and
basis_change (see workloads.py; BENCHMARK.json lists the first two).
Passes over the same laws, each in a fresh worker process, are repeated
until S seconds are used, and every answer is checked against a reference
computed without nilrad.  The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones, all untraced.  The
host this was written on is shared, and its speed moves by up to 2x from
one moment to the next and over minutes, so a raw time is as much the
host's as the program's.  Just before and just after each law, the worker
therefore times `calibrate()` (workloads.py: a fixed exact elimination in
pure Python that runs no nilrad code), and each law's time is scaled by
REFERENCE_S over the mean of the two: the times below are those of a host
on which `calibrate()` takes REFERENCE_S.  The unscaled medians are printed
above the result line.
  setup_s         median over 15 fresh interpreters of `import nilrad` plus
                  reading the workload's input files; not scaled, as
                  starting an interpreter does not follow the calibration
  wall_s          median time of one complete pass: its laws, each scaled,
                  and the time outside them (catalog_verify: loading the
                  catalog and the diff) scaled by the pass's median
                  calibration
  verdict_ms_p50  median time to an answer for one law
  verdict_ms_tail the highest percentile of the per-law times that has 10
                  samples beyond it; the percentile is printed above
  decided_share   share of laws whose answer equals the reference
  peak_rss_mb     peak resident memory of the processes that ran the passes
With --trace 1 each pass runs untraced and then traced on the same inputs,
and the metrics are per-layer calls and unscaled self times (see
layers.py), five waste counts, `trace.overhead` (median ratio of traced to
untraced time of a pass) and `trace.glue_share` (self time of classify,
load_catalog and cli.main over traced pass time).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
SETUP_RUNS = 15
REFERENCE_S = 0.002  # calibrate() took 1.6 to 3.1 ms, median 2.4 to 2.9 ms, on the 2-vCPU Xeon host this was written on

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "decided_share": "share",
    "peak_rss_mb": "MB",
}
PER_LAW = ("algebra.parse_law", "algebra.series_signature", "derivations.derivation_space")


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With 20 samples or fewer that percentile would not be above the median,
    and the maximum is reported instead.
    """
    n = len(sorted_values)
    if n <= 20:
        return sorted_values[-1], 100.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def scaled_times(passes: list) -> tuple[list[float], list[float]]:
    """Sorted per-law times and per-pass times of `passes`, scaled to a host where calibrate() takes REFERENCE_S.

    A law's time is scaled by the calibrations run around it; the time a
    pass spent outside its laws by the median calibration of the pass.
    """
    laws, walls = [], []
    for p in passes:
        mine = [REFERENCE_S * a.seconds / a.calibration for a in p.answers]
        outside = max(p.seconds - sum(a.seconds for a in p.answers), 0.0)
        walls.append(sum(mine) + REFERENCE_S * outside / statistics.median(a.calibration for a in p.answers))
        laws += mine
    return sorted(laws), walls


def end_to_end_metrics(setup: list[float], passes: list, peak_rss_mb: float) -> dict[str, float]:
    times, walls = scaled_times(passes)
    answers = [a for p in passes for a in p.answers]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "verdict_ms_p50": 1000 * statistics.median(times),
        "verdict_ms_tail": 1000 * tail(times)[0],
        "decided_share": sum(a.decided for a in answers) / len(answers),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(plain: list, traced: list) -> dict[str, tuple[float, str]]:
    """Per-pass medians of calls and self time, and ratios over all traced passes.

    `traced` holds (pass, trace summary) pairs, the i-th on the inputs of `plain[i]`.
    """
    from perfbench.layers import GLUE, NAMES

    summaries = [tr for _, tr in traced]
    out: dict[str, tuple[float, str]] = {}
    for name in NAMES:
        out[f"{name}.calls"] = (statistics.median(tr["calls"].get(name, 0) for tr in summaries), "count")
        out[f"{name}.self_ms"] = (1000 * statistics.median(tr["self_s"].get(name, 0.0) for tr in summaries), "ms")
    calls, self_s, outcomes = Counter(), Counter(), Counter()
    for tr in summaries:
        calls.update(tr["calls"])
        self_s.update(tr["self_s"])
        outcomes.update(tr["outcomes"])
    limit, search = "degeneration.one_param_limit", "degeneration.search_degeneration"
    out[f"{limit}.divergent_share"] = (outcomes[f"{limit}:divergent"] / max(calls[limit], 1), "share")
    out[f"{search}.hit_share"] = (outcomes[f"{search}:hit"] / max(calls[search], 1), "share")
    laws = sum(len(p.answers) for p, _ in traced)
    for name in PER_LAW:
        out[f"{name}.calls_per_law"] = (calls[name] / laws, "count")
    ratios = [t.seconds / p.seconds for p, (t, _) in zip(plain, traced)]
    out["trace.overhead"] = (statistics.median(ratios), "ratio")
    out["trace.glue_share"] = (sum(self_s[g] for g in GLUE) / sum(t.seconds for t, _ in traced), "share")
    return out


def setup_seconds(inputs: list[Path]) -> list[float]:
    """Wall time of fresh interpreters importing nilrad and reading `inputs`."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), *map(str, inputs)]
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=ENV, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times[1:]  # the first run may compile bytecode


def run_pass(workload: str, seed: int, number: int, trace: bool) -> dict:
    """One pass in a fresh worker process; see worker.py."""
    from perfbench.workloads import Answer, Pass

    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, str(seed), str(number), str(int(trace))]
    done = subprocess.run(cmd, env=ENV, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["pass"] = Pass(result["seconds"], [Answer(*a) for a in result["answers"]])
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Passes until `seconds` are used; with `trace`, each plain pass is repeated traced."""
    plain, traced = [], []
    start = time.perf_counter()
    for number in itertools.count():
        step = time.perf_counter()
        plain.append(run_pass(workload, seed, number, False))
        if trace:
            traced.append(run_pass(workload, seed, number, True))
        now = time.perf_counter()
        if now - start + (now - step) > seconds:
            return plain, traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nilrad" / "__init__.py").is_file():
        print(f"perfbench: no nilrad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import nilrad

    if not Path(nilrad.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: nilrad was imported from {nilrad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed)  # writes the input files it needs
    setup = [] if args.trace else setup_seconds(workload.inputs)
    plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    passes = [r["pass"] for r in plain]
    answers = [a for r in plain + traced for a in r["pass"].answers]
    failures = [a for a in answers if a.failure]
    if args.trace:
        metrics = per_layer_metrics(passes, [(r["pass"], r["trace"]) for r in traced])
    else:
        values = end_to_end_metrics(setup, passes, max(r["rss_mb"] for r in plain))
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        raw = sorted(a.seconds for a in answers)
        print(f"verdict_ms_tail is p{tail(raw)[1]:.2f} of {len(raw)} per-law times")
        print(f"unscaled: calibration median {1000 * statistics.median(a.calibration for a in answers):.4f} ms, "
              f"wall_s {statistics.median(p.seconds for p in passes):.4f}, "
              f"verdict_ms_p50 {1000 * statistics.median(raw):.4f}, verdict_ms_tail {1000 * tail(raw)[0]:.4f}")
    print(f"{args.workload}: seed {args.seed}, {len(plain)} plain and {len(traced)} traced passes")
    print("plain pass seconds " + " ".join(f"{p.seconds:.3f}" for p in passes))
    print(f"failed_share {len(failures) / len(answers):.4f} ({len(failures)} of {len(answers)})")
    for a in failures[:5]:
        print(f"failed: {a.key}: {a.failure}")
    digests = {r["digest"] for r in plain + traced}
    print(f"outputs_sha256 {plain[0]['digest']} (timing fields removed; {len(digests)} distinct over the passes)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(answers),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
