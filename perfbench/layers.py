"""Per-layer tracing of nilrad from outside the program.

`LayerTrace` wraps the public functions of each nilrad module and records,
per function, the number of calls and the self time: the span of each call
minus the spans of the traced calls it made.  A module that did
`from .derivations import derivation_space` holds its own binding of the
function, so every binding in every `nilrad.*` module is replaced, and each
one is put back when the trace is removed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

TRACED = {
    "algebra": ("parse_law", "jacobi_violations", "series_signature"),
    "derivations": ("derivation_space", "diagonal_rank", "pre_einstein", "dim_der"),
    "linalg": ("rref", "sparse_nullspace", "kernel_lattice", "solve", "hnf"),
    "nicebasis": ("is_nice", "gram_matrix", "positive_solution"),
    "lp": ("max_min_component",),
    "ricci": ("moment_map", "soliton_check"),
    "degeneration": ("search_degeneration", "in_g_phi", "one_param_limit", "distinguish"),
    "catalog": ("load_catalog", "classify"),
    "cli": ("main",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
GLUE = ("catalog.classify", "catalog.load_catalog", "cli.main")


def _outcome(name: str, result) -> str | None:
    """Outcome labels counted for the functions whose work can be wasted."""
    if name == "degeneration.one_param_limit":
        return result.kind
    if name == "degeneration.search_degeneration":
        return "miss" if result is None else "hit"
    return None


class LayerTrace:
    """Install with `with LayerTrace() as tr:`; read the counts with `tr.summary()`."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.outcomes: Counter = Counter()  # (name, label) -> count
        self._stack: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                child = self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += span - child
                if self._stack:
                    self._stack[-1] += span
            label = _outcome(name, result)
            if label is not None:
                self.outcomes[name, label] += 1
            return result

        return traced

    def __enter__(self) -> "LayerTrace":
        for mod in TRACED:
            importlib.import_module(f"nilrad.{mod}")
        modules = [m for key, m in sorted(sys.modules.items()) if key == "nilrad" or key.startswith("nilrad.")]
        for mod, fns in TRACED.items():
            for fn in fns:
                original = getattr(sys.modules[f"nilrad.{mod}"], fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """JSON-ready counts: calls and self seconds per function, outcomes per function and label."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "outcomes": {f"{name}:{label}": n for (name, label), n in self.outcomes.items()},
        }
