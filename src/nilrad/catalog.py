"""Machine-readable catalog of the 7-dimensional algebras and the verifier.

The catalog file is JSON (see README for the schema).  Each entry carries a
law in the text format plus every expected quantity; `classify` recomputes
the lot from the structure constants alone and reports mismatches, so a
fully green catalog run cross-validates both the code and the data.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Callable

from . import degeneration as dg
from . import nicebasis as nb
from . import ricci
from .algebra import LawError, LieLaw, format_law, jacobi_violations, parse_law, parse_rational
from .derivations import Invariants, positivity_gate

EN = "EN"
NOT_EN = "NOT_EN"
INCONCLUSIVE = "INCONCLUSIVE"
MAX_DIM = 40  # the largest dimension gate_law passes: a Der basis holds up to dim^4 entries


class NotNilpotentError(ValueError):
    """Not a nilpotent Lie algebra: dimension 0, Jacobi fails, or the lower central series stops above 0."""


class CatalogError(ValueError):
    def __init__(self, entry_id: str | None, field_name: str | None, message: str):
        self.entry_id = entry_id
        self.field_name = field_name
        super().__init__(
            message if entry_id is None else f"entry {entry_id!r}, field {field_name!r}: {message}"
        )


def gate_law(law: LieLaw) -> LieLaw:
    """The law, if the pipeline decides it; else LawError (sqrt, dim > MAX_DIM) or NotNilpotentError.

    The one gate of a law from a file or a catalog, and the one place that decides "nilpotent Lie
    algebra": Jacobi, dim >= 1 and a lower central series (`LieLaw.series`, kept) that reaches 0.
    """
    if law.dim > MAX_DIM:
        raise LawError(f"dimension {law.dim} is above {MAX_DIM}, the largest the pipeline takes")
    if not law.is_rational:
        raise LawError("the decision pipeline needs exact rational structure constants, not sqrt")
    _lie_law(law)
    if law.dim < 1:
        raise NotNilpotentError("dimension must be at least 1")
    if not law.series.nilpotent:
        raise NotNilpotentError(f"not nilpotent: the lower central series stops at {list(law.series.lcs_dims)}")
    return law


def _lie_law(law: LieLaw) -> LieLaw:
    """The law, if it satisfies the Jacobi identity; else NotNilpotentError."""
    bad = jacobi_violations(law)
    if bad:
        raise NotNilpotentError(f"not a Lie algebra: the Jacobi identity fails at {bad[0][:3]}")
    return law


@dataclass(frozen=True)
class Degeneration:
    x: tuple[Fraction, ...] | None
    limit: LieLaw | None  # a rational Lie algebra law; None for "zero"
    distinguishing: str


@dataclass(frozen=True)
class Expected:
    dim_der: int
    derived: tuple[int, ...]
    lcs: tuple[int, ...]
    rank: int
    nice: bool
    verdict: str
    pre_einstein: tuple[Fraction, ...] | None = None
    u: tuple[tuple[int, ...], ...] | None = None
    x: tuple[Fraction, ...] | str | None = None  # vector or "none_positive"
    soliton_norm: Fraction | None = None
    witness_law: LieLaw | None = None  # a Lie algebra law
    degeneration: Degeneration | None = None


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    aliases: dict[str, str]
    law_text: str
    expected: Expected | None  # None: classify computes without diffing
    parsed: LieLaw = field(compare=False, repr=False)  # law_text, parsed (with its parameter bound)

    def law(self) -> LieLaw:
        return self.parsed


@dataclass
class Report:
    id: str
    verdict: str
    route: str
    certificates: list[dict[str, Any]] = field(default_factory=list)
    computed: dict[str, Any] = field(default_factory=dict)
    mismatches: list[dict[str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    timing: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "timing": round(self.timing, 6)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Report":
        return cls(**{**d, "timing": float(d.get("timing", 0.0))})

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# loading

def _x(v):
    return v if v == "none_positive" else _as([Fraction], v)


def _limit(v) -> LieLaw | None:
    if v == "zero":
        return None
    law = parse_law(_as(str, v))
    if not law.is_rational:
        raise LawError("a limit law needs exact rational structure constants, not sqrt")
    return _lie_law(law)


def _distinguishing(v) -> str:
    """'' (a zero limit) or 'dim_der <int> vs <int>': dim Der is the one invariant a record names."""
    if _as(str, v) and not re.fullmatch(r"dim_der \d+ vs \d+", v):
        raise ValueError("must be '' or read 'dim_der <int> vs <int>'")
    return v


@dataclass(frozen=True)
class _Object:
    """A JSON object of the catalog: the spec of each field, the required ones, what they build."""

    fields: dict[str, Any]
    required: tuple[str, ...]
    build: Callable = dict  # called with the converted fields, keys lower-cased


_DEGENERATION = _Object(
    {"X": lambda v: None if v is None else _as([Fraction], v), "limit": _limit, "distinguishing": _distinguishing},
    ("X", "limit", "distinguishing"),
    Degeneration,
)
_EXPECTED = _Object(
    {
        "dim_der": int, "derived": [int], "lcs": [int], "rank": int, "nice": bool, "verdict": (EN, NOT_EN),
        "pre_einstein": [Fraction], "U": [[int]], "x": _x, "soliton_norm": Fraction,
        "witness_law": lambda v: _lie_law(parse_law(_as(str, v))), "degeneration": _DEGENERATION,
    },
    ("dim_der", "derived", "lcs", "rank", "nice", "verdict"),
    Expected,
)
_PARAMS = _Object({"name": str, "samples": [Fraction], "excluded": [Fraction]}, ("name", "samples"))
_ENTRY = _Object(
    {"id": str, "aliases": dict, "params": _PARAMS, "law": str, "expected": dict}, ("id", "law", "expected")
)


def _as(spec, v):
    """v read as spec: Fraction (an int or a rational literal), a JSON type (exactly), [spec], a tuple, a converter."""
    if spec is Fraction:
        return Fraction(v) if type(v) is int else parse_rational(_as(str, v))
    if type(spec) is type:
        if type(v) is not spec:
            raise TypeError(f"not {spec.__name__}: {v!r}")
        return v
    if type(spec) is list:
        return tuple([_as(spec[0], e) for e in _as(list, v)])
    if type(spec) is tuple:
        if v not in spec:
            raise ValueError(f"must be one of {spec}, got {v!r}")
        return v
    return spec(v)


def _convert(eid: str, name: str | None, spec, value):
    """The catalog value of field `name` of entry `eid`, read as `spec`: the one place a malformed value is caught.

    A value that does not fit its spec, a field an object does not know or
    lacks, a law text that does not parse, a recorded witness or limit that
    fails Jacobi and a limit with sqrt are each a CatalogError naming the
    entry and the field.  An optional field may be null.
    """
    if not isinstance(spec, _Object):
        try:
            return _as(spec, value)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise CatalogError(eid, name, str(exc)) from exc
    if type(value) is not dict:
        raise CatalogError(eid, name, f"must be an object, got {value!r}")
    path = (lambda key: key) if name is None else (lambda key: f"{name}.{key}")
    unknown = set(value) - set(spec.fields)
    if unknown:
        raise CatalogError(eid, path(sorted(unknown)[0]), "unknown field")
    missing = [key for key in spec.required if key not in value]
    if missing:
        raise CatalogError(eid, path(missing[0]), "missing required field")
    return spec.build(**{
        key.lower(): None if v is None and key not in spec.required else _convert(eid, path(key), spec.fields[key], v)
        for key, v in value.items()
    })


def _check_fit(eid: str, exp: Expected, n: int) -> None:
    """CatalogError unless the recorded witness, limit and X fit a law of dimension n."""
    rec = exp.degeneration or Degeneration(None, None, "")
    if (rec.limit is None) != (rec.distinguishing == ""):
        raise CatalogError(eid, "degeneration.distinguishing", "must be '' exactly when the limit is 'zero'")
    for name, value in (("witness_law", exp.witness_law), ("degeneration.limit", rec.limit), ("degeneration.X", rec.x)):
        size = value.dim if isinstance(value, LieLaw) else None if value is None else len(value)
        if size not in (None, n):
            raise CatalogError(eid, name, f"dimension {size} is not the law's dimension {n}")


def load_catalog(path=None) -> list[CatalogEntry]:
    """Load and check the catalog, and parse each law once; parametric entries expand per sample."""
    source = resources.files("nilrad").joinpath("data/catalog7.json") if path is None else Path(path)
    try:
        doc = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # no file, not UTF-8, not JSON, beyond int(), too deep
        raise CatalogError(None, None, f"not readable as UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict) or type(doc.get("entries")) is not list:
        raise CatalogError(None, "entries", "top-level object must have an 'entries' list")
    out: list[CatalogEntry] = []
    seen_ids = set()
    for raw_entry in doc["entries"]:
        if type(raw_entry) is not dict:
            raise CatalogError(None, "entries", f"entry {raw_entry!r} is not an object")
        eid = raw_entry.get("id", "<missing id>")
        entry = _convert(eid, None, _ENTRY, raw_entry)
        expected = _convert(eid, None, _EXPECTED, entry["expected"])  # fields named `x`, not `expected.x`
        if eid in seen_ids:
            raise CatalogError(eid, "id", "duplicate id")
        seen_ids.add(eid)
        params = entry.get("params")
        if params is None:
            instances = [(eid, None)]
        else:
            samples = params["samples"]
            if not samples:
                raise CatalogError(eid, "params.samples", "must name at least one sample")
            for p, s in enumerate(samples):  # each sample names one instance id
                why = "repeated" if s in samples[:p] else "excluded" if s in (params.get("excluded") or ()) else None
                if why:
                    raise CatalogError(eid, "params.samples", f"sample {s} is {why}")
            instances = [(f"{eid}[{params['name']}={s}]", {params["name"]: s}) for s in samples]
        for inst_id, bound in instances:
            law = _convert(inst_id, "law", lambda text: gate_law(parse_law(text, bound)), entry["law"])
            out.append(CatalogEntry(inst_id, entry.get("aliases") or {}, entry["law"], expected, law))
        _check_fit(eid, expected, law.dim)
    return out


# ---------------------------------------------------------------------------
# classification

@dataclass
class Decision:
    """What one route decided, and what it found wrong in the recorded data it re-checked."""

    verdict: str
    route: str
    certificate: dict[str, Any]
    computed: dict[str, Any] = field(default_factory=dict)  # U and soliton_norm, where the route has them
    problems: list[tuple[str, str, str]] = field(default_factory=list)  # (field, expected, computed)


def classify(entry: CatalogEntry) -> Report:
    """Run the decision pipeline on one entry; diff it against entry.expected when that is set.

    The law must have passed `gate_law` (load_catalog and the CLI call it),
    which decides that it is nilpotent.
    """
    t0 = time.perf_counter()
    inv = Invariants(entry.law())
    sig = inv.series
    assert sig.nilpotent, entry.id
    dec = _decide(entry, inv)
    assert dec.certificate["kind"] in _CERT_KINDS[dec.verdict], entry.id
    computed = {
        "dim_der": inv.dim_der,
        "derived": list(sig.derived_dims),
        "lcs": list(sig.lcs_dims),
        "rank": inv.rank,
        "torus": [list(g) for g in inv.torus],
        "nice": inv.nice.nice,
    }
    if not isinstance(inv.phi, str):  # else the reason the basis gives no phi
        computed["pre_einstein"] = list(map(str, inv.phi))
    rep = Report(entry.id, dec.verdict, dec.route, [dec.certificate], {**computed, **dec.computed})
    if not inv.nice.nice and dec.route not in _GATES:
        rep.notes.append(f"not a nice basis: {inv.nice.reason}")
    if entry.expected is not None:
        _diff(entry.expected, rep, dec)
    rep.timing = time.perf_counter() - t0
    return rep


_CERT_KINDS = {
    EN: {"abelian", "positive_solution", "nilsoliton_decomposition"},
    NOT_EN: {"rank_zero", "non_positive_pre_einstein", "no_positive_solution", "non_closed_orbit"},
    INCONCLUSIVE: {"inconclusive"},
}
_GATES = {"rank_zero", "basis_not_adapted", "pre_einstein_positivity"}  # routes decided before the LP


def _decide(entry: CatalogEntry, inv: Invariants) -> Decision:
    """The decision of the first rung of the ladder that decides.

    The rungs: no positive phi (`Invariants.phi` names why: phi = 0 at
    diagonal rank 0, or the diagonal torus of the basis is not maximal), a
    pre-Einstein derivation that is not positive, the abelian law, the LP
    on a nice basis, then, for a law that is not nice, the entry's recorded
    witness or degeneration, else the walk on the degeneration cone.
    """
    phi = inv.phi
    if phi == "rank_zero":
        return Decision(NOT_EN, "rank_zero", {"kind": "rank_zero"})
    if phi == "basis_not_adapted":
        return Decision(INCONCLUSIVE, "basis_not_adapted", {"kind": "inconclusive", "reason": "basis_not_adapted"})
    idx = positivity_gate(phi)
    if idx is not None:
        cert = {"kind": "non_positive_pre_einstein", "phi": list(map(str, phi)), "index": idx}
        return Decision(NOT_EN, "pre_einstein_positivity", cert)
    if not inv.law.brackets:
        return Decision(EN, "abelian", {"kind": "abelian"})
    if inv.nice.nice:
        return _nice_route(inv, on="law")
    exp = entry.expected
    if exp is not None and exp.witness_law is not None:
        return _witness_route(Invariants(exp.witness_law), inv)
    if exp is not None and exp.degeneration is not None:
        return _recorded_degeneration_route(exp.degeneration, inv)
    return _search_route(inv)


def _search_route(inv: Invariants) -> Decision:
    """NOT_EN through the degeneration the cone walk finds; INCONCLUSIVE, with its reason, when it finds none.

    The reason is `no_diagonal_degeneration` (the cone is trivial, with its
    certificate y) or `limit_not_distinguished` (distinguish() does not
    separate the walk's limit from the law).
    """
    found = dg.search_degeneration(inv)
    if isinstance(found, dg.TrivialCone):
        reason = "no_diagonal_degeneration"
        return Decision(INCONCLUSIVE, reason, {"kind": "inconclusive", "reason": reason, "y": list(map(str, found.y))})
    cert = {"X": list(map(str, found.x)), "limit": str(found.limit)}
    if found.limit.kind == "limit" and found.distinction is None:
        reason = "limit_not_distinguished"
        return Decision(INCONCLUSIVE, reason, {"kind": "inconclusive", "reason": reason, **cert})
    cert["distinguishing"] = None if found.distinction is None else str(found.distinction)
    return Decision(NOT_EN, "degeneration_search", {"kind": "non_closed_orbit", **cert})


def _nice_route(inv: Invariants, on: str) -> Decision:
    """Ux=[1] with x > 0 on the Gram matrix of a nice basis: inv's law is the entry's law or its witness.

    U is nonsingular exactly when the law has dim - rank stored triples,
    rank being that of its diagonal torus; with more than dim triples it is
    singular whatever the rank, so that torus is not computed.
    """
    u, dim = nb.gram_matrix(inv.law), inv.law.dim
    x = nb.positive_solution(u, nonsingular=len(u) <= dim and len(u) == dim - inv.rank)
    computed = {"U": u} if on == "law" else {}
    if isinstance(x, str):  # "no_positive_solution"
        return Decision(NOT_EN, "nice_lp", {"kind": "no_positive_solution", "status": x, "on": on}, computed)
    norm = str(nb.soliton_norm(x))
    computed["soliton_norm"] = norm
    cert = {"kind": "positive_solution", "on": on, "x": list(map(str, x)), "soliton_norm": norm}
    return Decision(EN, "nice_lp" if on == "law" else "witness_nice_lp", cert, computed)


def _witness_route(w: Invariants, inv: Invariants) -> Decision:
    """EN through a recorded witness, a Lie algebra law of the law's dimension (the loader checks both).

    A rational one must be a nice basis that distinguish() does not separate from the law; one with
    surds a nilsoliton, whose -c is its soliton norm, which _diff compares with the recorded one.
    """
    if not w.law.is_rational:
        sd = ricci.soliton_check(w.law)
        if isinstance(sd, str):  # why there is no decomposition
            return _witness_rejected([("witness_law", "m = c.Id + D with D a derivation", sd)])
        cert = {"kind": "nilsoliton_decomposition", "on": "witness", "c": str(sd.c), "d": [str(v) for v in sd.d]}
        return Decision(EN, "witness_soliton", cert, {"soliton_norm": str(-sd.c)})
    dist = dg.distinguish(w, inv)
    problems = [] if dist is None else [("witness_law", "isomorphic witness", str(dist))]
    if not w.nice.nice:
        return _witness_rejected(problems + [("witness_law", "nice witness basis", w.nice.reason)])
    dec = _nice_route(w, on="witness")
    if dec.verdict != EN:  # a witness is evidence for EN only
        return _witness_rejected(problems + [("witness_law", "a positive solution of Ux=[1]", "no_positive_solution")])
    dec.problems = problems
    return dec


def _witness_rejected(problems: list) -> Decision:
    """INCONCLUSIVE: the recorded witness is not a nilsoliton, or (rational) not a nice basis with Ux=[1], x>0."""
    cert = {"kind": "inconclusive", "reason": "witness_rejected"}
    return Decision(INCONCLUSIVE, "witness_rejected", cert, problems=problems)


def _recorded_degeneration_route(rec: Degeneration, inv: Invariants) -> Decision:
    """NOT_EN through a recorded degeneration, with its X, limit and distinguishing invariant re-checked.

    The loader has checked that the record fits the law: X and the limit have
    its dimension, and the limit is a rational Lie algebra law (None for a
    zero limit, which alone names no distinguishing invariant).
    """
    cert = {
        "kind": "non_closed_orbit",
        "X": None if rec.x is None else list(map(str, rec.x)),
        "limit": "zero" if rec.limit is None else format_law(rec.limit),
        "distinguishing": rec.distinguishing,
    }
    decision = Decision(NOT_EN, "degeneration_recorded", cert)
    problems = decision.problems
    if rec.x is not None:
        if not dg.in_g_phi(rec.x, inv.phi):
            problems.append(("degeneration.X", "X in g_phi", "trace conditions fail"))
        res = dg.one_param_limit(inv.law, rec.x)
        want = dg.LimitResult("zero") if rec.limit is None else dg.LimitResult("limit", rec.limit)
        if res != want:
            problems.append(("degeneration.limit", "zero" if rec.limit is None else "recorded limit law", res.kind))
    if rec.limit is not None:
        limit = Invariants(rec.limit)
        if dg.distinguish(inv, limit) is None:
            problems.append(("degeneration.distinguishing", rec.distinguishing, "indistinguishable"))
        else:
            # a record names dim Der, which need not be the first invariant distinguish() reaches
            named = str(dg.Distinction("dim_der", inv.dim_der, limit.dim_der))
            if inv.dim_der == limit.dim_der:
                problems.append(("degeneration.distinguishing", "a separating dim Der", named))
            elif rec.distinguishing != named:
                problems.append(("degeneration.distinguishing", rec.distinguishing, named))
    return decision


def _reported(value):
    """A recorded value in the form a report computes it: a list for a tuple, a str for a Fraction."""
    if type(value) is tuple:
        return [_reported(v) for v in value]
    return str(value) if type(value) is Fraction else value


def _diff(exp: Expected, rep: Report, dec: Decision) -> None:
    """Compare every recorded field with the computation; append the mismatches to rep.

    One rule: a recorded value is compared with the computed one wherever both exist (U where the LP ran
    on the law, the soliton norm where a route found one: the LP's 1/sum x or a nilsoliton witness's -c).
    An EN record resting on a non-constructive argument accepts INCONCLUSIVE.
    """
    got = rep.computed

    def compared(*names):
        for name in names:
            want = _reported(getattr(exp, name.lower()))
            if want is not None and name in got and got[name] != want:
                yield name, want, got[name]

    found = [*compared("dim_der", "derived", "lcs", "rank", "pre_einstein", "nice", "U"), *dec.problems]
    found += compared("soliton_norm")
    u = got.get("U")  # present when the LP ran on the law itself
    if u is not None and isinstance(exp.x, tuple):
        if dec.verdict != EN:
            found.append(("x", "positive solution", dec.certificate["kind"]))
        elif not nb.solves_positively(u, exp.x):
            found.append(("x", "recorded x solves Ux=[1], x>0", "recorded x fails re-verification"))
    elif u is not None and exp.x == "none_positive" and dec.verdict == EN:
        found.append(("x", "none_positive", "positive solution found"))
    if rep.verdict != exp.verdict:
        constructive = isinstance(exp.x, tuple) or exp.witness_law is not None
        if rep.verdict == INCONCLUSIVE and exp.verdict == EN and not constructive:
            rep.notes.append(
                "expected EN rests on a non-constructive closedness argument; "
                "pipeline remains inconclusive by design"
            )
        else:
            found.append(("verdict", exp.verdict, rep.verdict))
    rep.mismatches += [{"field": f, "expected": str(e), "computed": str(c)} for f, e, c in found]


# ---------------------------------------------------------------------------
# driver

def verify_catalog(entries: list[CatalogEntry], only: str | None = None) -> list[Report]:
    todo = [e for e in entries if only is None or e.id == only or e.id.startswith(f"{only}[")]
    if only is not None and not todo:
        raise CatalogError(only, "id", "no such entry")
    return [classify(e) for e in sorted(todo, key=lambda e: e.id)]


def summary_lines(reports: list[Report]) -> list[str]:
    lines = []
    for r in reports:
        status = "match" if r.ok else "MISMATCH"
        norm = r.computed.get("soliton_norm")
        extra = f"  -c=norm={norm}" if norm else ""
        lines.append(f"{r.id:<24} {r.verdict:<13} {r.route:<24} {status}{extra}")
    n_ok = sum(r.ok for r in reports)
    lines.append(f"{n_ok}/{len(reports)} match")
    return lines
