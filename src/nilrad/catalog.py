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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from importlib import resources
from typing import Any

from . import degeneration as dg
from . import nicebasis as nb
from . import ricci
from .algebra import LawError, LieLaw, SeriesSignature, format_law, jacobi_violations, parse_law, series_signature
from .derivations import TorusNotMaximalError, derivation_space, diagonal_rank, positivity_gate, pre_einstein

EN = "EN"
NOT_EN = "NOT_EN"
INCONCLUSIVE = "INCONCLUSIVE"


class NotNilpotentError(LawError):
    """The law's lower central series stops above 0: no verdict applies."""


class CatalogError(ValueError):
    def __init__(self, entry_id: str | None, field_name: str | None, message: str):
        self.entry_id = entry_id
        self.field_name = field_name
        super().__init__(
            message if entry_id is None else f"entry {entry_id!r}, field {field_name!r}: {message}"
        )


def parse_rat(s) -> Fraction:
    if isinstance(s, (int, str)):
        return Fraction(s)
    raise ValueError(f"not a rational: {s!r}")


def fmt_rat(x) -> str:
    return str(Fraction(x))


@dataclass(frozen=True)
class Degeneration:
    x: tuple[Fraction, ...] | None
    limit: str  # "zero" or a law text
    distinguishing: str

    @cached_property
    def limit_law(self) -> LieLaw | None:
        """The recorded limit law, parsed once; None for a zero limit."""
        return None if self.limit == "zero" else parse_law(self.limit)


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
    witness_law: str | None = None
    degeneration: Degeneration | None = None

    @cached_property
    def witness(self) -> LieLaw | None:
        """The recorded witness law, parsed once."""
        return None if self.witness_law is None else parse_law(self.witness_law)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    aliases: dict[str, str]
    law_text: str
    expected: Expected | None  # None: classify computes without diffing
    param: tuple[str, Fraction] | None = None
    parsed: LieLaw | None = field(default=None, compare=False, repr=False)  # law_text, already parsed

    def law(self) -> LieLaw:
        if self.parsed is not None:
            return self.parsed
        params = {self.param[0]: self.param[1]} if self.param else None
        return parse_law(self.law_text, params)


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
        return {
            "id": self.id,
            "verdict": self.verdict,
            "route": self.route,
            "certificates": self.certificates,
            "computed": self.computed,
            "mismatches": self.mismatches,
            "notes": self.notes,
            "timing": round(self.timing, 6),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Report":
        return cls(
            id=d["id"],
            verdict=d["verdict"],
            route=d["route"],
            certificates=list(d.get("certificates", [])),
            computed=dict(d.get("computed", {})),
            mismatches=list(d.get("mismatches", [])),
            notes=list(d.get("notes", [])),
            timing=float(d.get("timing", 0.0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# loading

_EXPECTED_KEYS = {
    "dim_der", "derived", "lcs", "rank", "pre_einstein", "nice", "U", "x",
    "verdict", "soliton_norm", "witness_law", "degeneration",
}
_ENTRY_KEYS = {"id", "aliases", "params", "law", "expected"}


def _expected_from_json(eid: str, d: dict) -> Expected:
    unknown = set(d) - _EXPECTED_KEYS
    if unknown:
        raise CatalogError(eid, sorted(unknown)[0], "unknown field")
    for key in ("dim_der", "derived", "lcs", "rank", "nice", "verdict"):
        if key not in d:
            raise CatalogError(eid, key, "missing required field")
    if d["verdict"] not in (EN, NOT_EN):
        raise CatalogError(eid, "verdict", f"must be 'EN' or 'NOT_EN', got {d['verdict']!r}")
    x: Any = d.get("x")
    if isinstance(x, list):
        x = tuple(parse_rat(v) for v in x)
    elif x is not None and x != "none_positive":
        raise CatalogError(eid, "x", "must be a rational vector or 'none_positive'")
    degen = None
    if d.get("degeneration") is not None:
        dd = d["degeneration"]
        missing = {"X", "limit", "distinguishing"} - set(dd)
        if missing:
            raise CatalogError(eid, f"degeneration.{sorted(missing)[0]}", "missing required field")
        name = str(dd["distinguishing"]).partition(" ")[0]
        if name in ("rank", "dim_der") and not re.fullmatch(rf"{name} \d+ vs \d+", dd["distinguishing"]):
            raise CatalogError(eid, "degeneration.distinguishing", f"must read '{name} <int> vs <int>'")
        degen = Degeneration(
            None if dd["X"] is None else tuple(parse_rat(v) for v in dd["X"]),
            dd["limit"],
            dd["distinguishing"],
        )
    exp = Expected(
        dim_der=int(d["dim_der"]),
        derived=tuple(d["derived"]),
        lcs=tuple(d["lcs"]),
        rank=int(d["rank"]),
        nice=bool(d["nice"]),
        verdict=d["verdict"],
        pre_einstein=None if d.get("pre_einstein") is None else tuple(parse_rat(v) for v in d["pre_einstein"]),
        u=None if d.get("U") is None else tuple(tuple(int(v) for v in row) for row in d["U"]),
        x=x,
        soliton_norm=None if d.get("soliton_norm") is None else parse_rat(d["soliton_norm"]),
        witness_law=d.get("witness_law"),
        degeneration=degen,
    )
    # parse each recorded law text here, once (cached on the record): a malformed one is a schema error
    for name, record, attr in (("witness_law", exp, "witness"), ("degeneration.limit", degen, "limit_law")):
        try:
            getattr(record, attr, None)  # degen is None for most entries
        except LawError as exc:
            raise CatalogError(eid, name, str(exc)) from exc
    return exp


def load_catalog(path=None, validate_laws: bool = True) -> list[CatalogEntry]:
    """Load and instantiate the catalog; parametric entries expand per sample."""
    if path is None:
        raw = resources.files("nilrad").joinpath("data/catalog7.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CatalogError(None, None, f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise CatalogError(None, "entries", "top-level object must have an 'entries' list")
    out: list[CatalogEntry] = []
    seen_ids = set()
    for raw_entry in doc["entries"]:
        eid = raw_entry.get("id", "<missing id>")
        unknown = set(raw_entry) - _ENTRY_KEYS
        if unknown:
            raise CatalogError(eid, sorted(unknown)[0], "unknown field")
        for key in ("id", "law", "expected"):
            if key not in raw_entry:
                raise CatalogError(eid, key, "missing required field")
        if eid in seen_ids:
            raise CatalogError(eid, "id", "duplicate id")
        seen_ids.add(eid)
        expected = _expected_from_json(eid, raw_entry["expected"])
        aliases = raw_entry.get("aliases", {})
        params = raw_entry.get("params")
        if params is None:
            instances = [(eid, None)]
        else:
            for key in ("name", "samples"):
                if key not in params:
                    raise CatalogError(eid, f"params.{key}", "missing required field")
            excluded = {parse_rat(v) for v in params.get("excluded", [])}
            samples = [parse_rat(v) for v in params["samples"]]
            bad = [s for s in samples if s in excluded]
            if bad:
                raise CatalogError(eid, "params.samples", f"sample {fmt_rat(bad[0])} is excluded")
            instances = [
                (f"{eid}[{params['name']}={fmt_rat(s)}]", (params["name"], s)) for s in samples
            ]
        for inst_id, param in instances:
            entry = CatalogEntry(inst_id, aliases, raw_entry["law"], expected, param)
            if validate_laws:
                try:
                    law = entry.law()
                except Exception as exc:
                    raise CatalogError(inst_id, "law", str(exc)) from exc
                if jacobi_violations(law):
                    raise CatalogError(inst_id, "law", "Jacobi identity fails")
                entry = replace(entry, parsed=law)
            out.append(entry)
    return out


# ---------------------------------------------------------------------------
# classification

def _fmt_vec(v) -> list[str]:
    return [fmt_rat(x) for x in v]


def _parse_distinguishing(s: str) -> tuple[str, str, str]:
    name, _, rest = s.partition(" ")
    left, _, right = rest.partition(" vs ")
    return name, left.strip(), right.strip()


def format_distinction(d: dg.Distinction) -> str:
    return f"{d.invariant} {d.left} vs {d.right}"


def nilpotent_series(law: LieLaw) -> SeriesSignature:
    """The law's series signature; NotNilpotentError when its lower central series stops above 0."""
    sig = series_signature(law)
    if not sig.nilpotent:
        raise NotNilpotentError(f"not nilpotent: the lower central series stops at {list(sig.lcs_dims)}")
    return sig


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

    The law must satisfy Jacobi (load_catalog and the CLI check that); a law
    that is not nilpotent raises NotNilpotentError.
    """
    t0 = time.perf_counter()
    law = entry.law()
    sig = nilpotent_series(law)
    space = derivation_space(law)
    nice = nb.is_nice(law)
    computed = {
        "dim_der": len(space.basis),
        "derived": list(sig.derived_dims),
        "lcs": list(sig.lcs_dims),
        "rank": len(space.diag_basis),
        "torus": [list(g) for g in space.diag_basis],
        "nice": nice.nice,
    }
    phi = None
    if space.diag_basis:
        try:
            phi = pre_einstein(law, space)
            computed["pre_einstein"] = _fmt_vec(phi.phi)
        except TorusNotMaximalError:
            pass  # the diagonal torus of this basis is not maximal: _decide says basis_not_adapted
    dec = _decide(entry, law, sig, space, phi, nice)
    assert dec.certificate["kind"] in _CERT_KINDS[dec.verdict], entry.id
    rep = Report(entry.id, dec.verdict, dec.route, [dec.certificate], {**computed, **dec.computed})
    if not nice.nice and dec.route not in _GATES:
        rep.notes.append(f"not a nice basis: {nice.reason}")
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


def _decide(entry: CatalogEntry, law: LieLaw, sig, space, phi, nice: nb.NiceCheck) -> Decision:
    """The decision of the first rung of the ladder that decides.

    The rungs: rank zero, a diagonal torus that is not maximal (phi is None
    on both), a pre-Einstein derivation that is not positive, the abelian
    law, the LP on a nice basis, then, for a law that is not nice, the
    entry's recorded witness or degeneration, else the walk on the degeneration cone.
    """
    if not space.diag_basis:
        return Decision(NOT_EN, "rank_zero", {"kind": "rank_zero"})
    if phi is None:
        return Decision(INCONCLUSIVE, "basis_not_adapted", {"kind": "inconclusive", "reason": "basis_not_adapted"})
    passed, idx = positivity_gate(phi)
    if not passed:
        cert = {"kind": "non_positive_pre_einstein", "phi": _fmt_vec(phi.phi), "index": idx}
        return Decision(NOT_EN, "pre_einstein_positivity", cert)
    if not law.brackets:
        return Decision(EN, "abelian", {"kind": "abelian"})
    if nice.nice:
        return _nice_route(law, on="law")
    exp = entry.expected
    if exp is not None and exp.witness_law is not None:
        return _witness_route(exp.witness, law, sig, space)
    if exp is not None and exp.degeneration is not None:
        return _recorded_degeneration_route(exp.degeneration, law, sig, space, phi)
    return _search_route(law, phi, (sig, space))


def _search_route(law: LieLaw, phi, known: dg.Invariants) -> Decision:
    """NOT_EN through the degeneration the cone walk finds; INCONCLUSIVE, with its reason, when it finds none.

    The reason is `no_diagonal_degeneration` (the cone is trivial, with its
    certificate y) or `limit_not_distinguished` (the walk's limit is not
    separated from the law by series, dim Der or rank).
    """
    found = dg.search_degeneration(law, phi, known)
    if isinstance(found, dg.TrivialCone):
        reason = "no_diagonal_degeneration"
        return Decision(INCONCLUSIVE, reason, {"kind": "inconclusive", "reason": reason, "y": _fmt_vec(found.y)})
    cert = {"X": _fmt_vec(found.x), "limit": "zero" if found.limit.kind == "zero" else format_law(found.limit.law)}
    if found.limit.kind == "limit" and found.distinction is None:
        reason = "limit_not_distinguished"
        return Decision(INCONCLUSIVE, reason, {"kind": "inconclusive", "reason": reason, **cert})
    cert["distinguishing"] = None if found.distinction is None else format_distinction(found.distinction)
    return Decision(NOT_EN, "degeneration_search", {"kind": "non_closed_orbit", **cert})


def _nice_route(law: LieLaw, on: str) -> Decision:
    """Ux=[1] with x > 0 on the Gram matrix of a nice basis, of the law or of its witness."""
    u = nb.gram_matrix(law)
    res = nb.positive_solution(u)
    computed = {"U": u} if on == "law" else {}
    if res.status != "positive":
        return Decision(NOT_EN, "nice_lp", {"kind": "no_positive_solution", "status": res.status, "on": on}, computed)
    norm = fmt_rat(nb.soliton_norm(res.x))
    computed["soliton_norm"] = norm
    cert = {"kind": "positive_solution", "on": on, "x": _fmt_vec(res.x), "soliton_norm": norm}
    return Decision(EN, "nice_lp" if on == "law" else "witness_nice_lp", cert, computed)


def _witness_route(witness: LieLaw, law: LieLaw, sig, space) -> Decision:
    """EN through a recorded witness: a rational one must be a nice basis, one with surds a nilsoliton.

    A nilsoliton's -c is its soliton norm, which _diff compares with the recorded one.
    """
    bad = jacobi_violations(witness)
    if bad:
        return _witness_rejected([("witness_law", "Lie algebra law", f"Jacobi fails at {bad[0][:3]}")])
    problems = _isomorphism_problems(witness, law, sig, space)
    if not witness.is_rational:
        try:
            sd, failure = ricci.soliton_check(witness), "no decomposition"
        except ricci.NonDiagonalMomentError:
            sd, failure = None, "moment map is not diagonal"
        if sd is None:
            return _witness_rejected([("witness_law", "m = c.Id + D with D a derivation", failure)])
        cert = {"kind": "nilsoliton_decomposition", "on": "witness", "c": str(sd.c), "d": [str(v) for v in sd.d]}
        return Decision(EN, "witness_soliton", cert, {"soliton_norm": str(-sd.c)}, problems)
    wc = nb.is_nice(witness)
    if not wc.nice:
        return _witness_rejected(problems + [("witness_law", "nice witness basis", wc.reason)])
    dec = _nice_route(witness, on="witness")
    dec.problems = problems
    return dec


def _isomorphism_problems(witness: LieLaw, law: LieLaw, sig, space) -> list[tuple[str, str, str]]:
    """The first basis-independent invariant on which the witness differs from the law.

    Dimension for every witness; series and dim Der for a rational one (the
    series and Der need rational constants).  Diagonal rank depends on the
    basis, so distinguish() is too strict here.
    """
    if witness.dim != law.dim:
        return [("witness_law", "isomorphic witness", "dimension differs")]
    if not witness.is_rational:
        return []
    sw = series_signature(witness)
    if (sig.derived_dims, sig.lcs_dims) != (sw.derived_dims, sw.lcs_dims):
        return [("witness_law", "isomorphic witness", "series signatures differ")]
    if len(space.basis) != len(derivation_space(witness).basis):
        return [("witness_law", "isomorphic witness", "dim Der differs")]
    return []


def _witness_rejected(problems: list) -> Decision:
    """INCONCLUSIVE: the recorded witness fails Jacobi, is not a nilsoliton, or (rational) is not a nice basis."""
    cert = {"kind": "inconclusive", "reason": "witness_rejected"}
    return Decision(INCONCLUSIVE, "witness_rejected", cert, problems=problems)


def _recorded_degeneration_route(rec: Degeneration, law: LieLaw, sig, space, phi) -> Decision:
    """NOT_EN through a recorded degeneration, with its X, limit and distinguishing invariant re-checked."""
    problems = []
    limit_law = rec.limit_law
    if rec.x is not None:
        if not dg.in_g_phi(rec.x, phi):
            problems.append(("degeneration.X", "X in g_phi", "trace conditions fail"))
        res = dg.one_param_limit(law, rec.x)
        if rec.limit == "zero":
            if res.kind != "zero":
                problems.append(("degeneration.limit", "zero", res.kind))
        elif res.kind != "limit" or res.law != limit_law:
            problems.append(("degeneration.limit", "recorded limit law", res.kind))
    if limit_law is not None:
        if jacobi_violations(limit_law):
            problems.append(("degeneration.limit", "Lie algebra law", "Jacobi fails"))
        dist = dg.distinguish(law, limit_law, (sig, space))
        if dist is None:
            problems.append(("degeneration.distinguishing", rec.distinguishing, "indistinguishable"))
        else:
            # the record names a specific invariant, which need not be the
            # first one distinguish() reaches; evaluate the named one, read
            # from the distinction when it is that rung
            name, left, right = _parse_distinguishing(rec.distinguishing)
            if name not in ("rank", "dim_der"):
                got = None
                problems.append(
                    ("degeneration.distinguishing", rec.distinguishing, "names no known invariant (rank or dim_der)")
                )
            elif dist.invariant == name:
                got = (dist.left, dist.right)
            elif name == "rank":
                got = (len(space.diag_basis), diagonal_rank(limit_law)[0])
            else:
                got = (len(space.basis), len(derivation_space(limit_law).basis))
            if got is not None and got != (int(left), int(right)):
                problems.append(("degeneration.distinguishing", rec.distinguishing, f"{name} {got}"))
    cert = {
        "kind": "non_closed_orbit",
        "X": None if rec.x is None else _fmt_vec(rec.x),
        "limit": rec.limit,
        "distinguishing": rec.distinguishing,
    }
    return Decision(NOT_EN, "degeneration_recorded", cert, problems=problems)


def _diff(exp: Expected, rep: Report, dec: Decision) -> None:
    """Compare every recorded field with the computation; append the mismatches to rep.

    The soliton norm is compared wherever a route computed one: the LP
    (1/sum x) or a nilsoliton witness (-c).  An EN record resting on a
    non-constructive argument accepts INCONCLUSIVE.
    """
    got = rep.computed
    found = [
        (name, want, got[name])
        for name, want in (
            ("dim_der", exp.dim_der), ("derived", list(exp.derived)), ("lcs", list(exp.lcs)), ("rank", exp.rank),
        )
        if got[name] != want
    ]
    if exp.pre_einstein is not None and "pre_einstein" in got and got["pre_einstein"] != _fmt_vec(exp.pre_einstein):
        found.append(("pre_einstein", _fmt_vec(exp.pre_einstein), got["pre_einstein"]))
    if got["nice"] != exp.nice:
        found.append(("nice", exp.nice, got["nice"]))
    u = got.get("U")  # present when the LP ran on the law itself
    if exp.u is not None and u is not None and u != [list(r) for r in exp.u]:
        found.append(("U", [list(r) for r in exp.u], u))
    found += dec.problems
    if exp.soliton_norm is not None and "soliton_norm" in got and got["soliton_norm"] != fmt_rat(exp.soliton_norm):
        found.append(("soliton_norm", fmt_rat(exp.soliton_norm), got["soliton_norm"]))
    if u is not None and isinstance(exp.x, tuple):
        if dec.verdict != EN:
            found.append(("x", "positive solution", dec.certificate["status"]))
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
