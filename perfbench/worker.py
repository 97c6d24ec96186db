"""One pass of a workload in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED NUMBER TRACE

A fresh process per pass keeps whatever nilrad caches in memory from
carrying over to the next pass, as it cannot between two runs of the CLI.
The last line of stdout is one JSON object: the pass's time inside nilrad,
its answers (with TRACE 0 each with the calibration run around it),
the SHA-256 of its outputs, this process's peak RSS and, with TRACE 1, the
layer trace.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    name, seed, number, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import LayerTrace
    from perfbench.reference import digest
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, seed)
    tr = LayerTrace()
    if trace:
        with tr:
            done = workload.run_pass(number, calibrated=False)
    else:
        done = workload.run_pass(number, calibrated=True)
    print(json.dumps({
        "seconds": done.seconds,
        "answers": [[a.key, a.seconds, a.calibration, a.decided, a.failure] for a in done.answers],
        "digest": digest(done.outputs),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tr.summary() if trace else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
