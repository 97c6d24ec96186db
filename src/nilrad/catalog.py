"""Machine-readable catalog of the 7-dimensional algebras and the verifier.

The catalog file is JSON (see README for the schema).  Each entry carries a
law in the text format plus every expected quantity; `classify` recomputes
the lot from the structure constants alone and reports mismatches, so a
fully green catalog run cross-validates both the code and the data.
"""

from __future__ import annotations

import json
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from importlib import resources
from typing import Any

from . import degeneration as dg
from . import nicebasis as nb
from . import ricci
from .algebra import LawError, LieLaw, jacobi_violations, parse_law, series_signature
from .derivations import TorusNotMaximalError, derivation_space, diagonal_rank, positivity_gate, pre_einstein

EN = "EN"
NOT_EN = "NOT_EN"
INCONCLUSIVE = "INCONCLUSIVE"

_EN_CERTS = {"abelian", "positive_solution", "nilsoliton_decomposition"}
_NOT_EN_CERTS = {"rank_zero", "non_positive_pre_einstein", "no_positive_solution", "non_closed_orbit"}


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
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s)
    raise ValueError(f"not a rational: {s!r}")


def fmt_rat(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class Degeneration:
    x: tuple[Fraction, ...] | None
    limit: str  # "zero" or a law text
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
    witness_law: str | None = None
    degeneration: Degeneration | None = None


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
        degen = Degeneration(
            None if dd["X"] is None else tuple(parse_rat(v) for v in dd["X"]),
            dd["limit"],
            dd["distinguishing"],
        )
    return Expected(
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

_NO_EXPECTATIONS = Expected(
    dim_der=-1, derived=(), lcs=(), rank=-1, nice=False, verdict=EN
)


def _fmt_vec(v) -> list[str]:
    return [fmt_rat(x) for x in v]


def _parse_distinguishing(s: str) -> tuple[str, str, str]:
    name, _, rest = s.partition(" ")
    left, _, right = rest.partition(" vs ")
    return name, left.strip(), right.strip()


def _format_distinction(d: dg.Distinction) -> str:
    if d.invariant == "series":
        return f"series {d.left} vs {d.right}"
    return f"{d.invariant} {d.left} vs {d.right}"


def classify(entry: CatalogEntry, search_trials: int = 400, seed: int | None = None) -> Report:
    """Run the full decision pipeline on one entry and diff against expected.

    With entry.expected None only the computation runs (used by the CLI for
    bare law files).  The law must satisfy Jacobi (load_catalog and the CLI
    check that); a law that is not nilpotent raises NotNilpotentError.
    """
    t0 = time.perf_counter()
    exp = entry.expected if entry.expected is not None else _NO_EXPECTATIONS
    diff = entry.expected is not None
    law = entry.law()
    rep = Report(entry.id, INCONCLUSIVE, "none")

    def mismatch(field_name: str, expected_val, computed_val):
        if diff:
            rep.mismatches.append(
                {"field": field_name, "expected": str(expected_val), "computed": str(computed_val)}
            )

    sig = series_signature(law)
    if not sig.nilpotent:
        raise NotNilpotentError(f"not nilpotent: the lower central series stops at {list(sig.lcs_dims)}")
    space = derivation_space(law)
    rank, gens = len(space.diag_basis), space.diag_basis
    rep.computed["dim_der"] = len(space.basis)
    rep.computed["derived"] = list(sig.derived_dims)
    rep.computed["lcs"] = list(sig.lcs_dims)
    rep.computed["rank"] = rank
    rep.computed["torus"] = [list(g) for g in gens]

    if diff:
        if len(space.basis) != exp.dim_der:
            mismatch("dim_der", exp.dim_der, len(space.basis))
        if sig.derived_dims != exp.derived:
            mismatch("derived", list(exp.derived), list(sig.derived_dims))
        if sig.lcs_dims != exp.lcs:
            mismatch("lcs", list(exp.lcs), list(sig.lcs_dims))
        if rank != exp.rank:
            mismatch("rank", exp.rank, rank)

    phi = None
    if rank == 0:
        rep.verdict = NOT_EN
        rep.route = "rank_zero"
        rep.certificates.append({"kind": "rank_zero"})
    else:
        try:
            phi = pre_einstein(law, space)
        except TorusNotMaximalError:
            # the diagonal torus of this basis is not maximal: no gate below is sound
            rep.route = "basis_not_adapted"
            rep.certificates.append({"kind": "inconclusive", "reason": "basis_not_adapted"})
    if phi is not None:
        rep.computed["pre_einstein"] = _fmt_vec(phi.phi)
        if exp.pre_einstein is not None and tuple(phi.phi) != exp.pre_einstein:
            mismatch("pre_einstein", _fmt_vec(exp.pre_einstein), _fmt_vec(phi.phi))
        passed, idx = positivity_gate(phi)
        if not passed:
            rep.verdict = NOT_EN
            rep.route = "pre_einstein_positivity"
            rep.certificates.append(
                {"kind": "non_positive_pre_einstein", "phi": _fmt_vec(phi.phi), "index": idx}
            )

    nc = nb.is_nice(law)
    rep.computed["nice"] = nc.nice
    if diff and nc.nice != exp.nice:
        mismatch("nice", exp.nice, nc.nice)
    if rep.route == "none":
        if not law.brackets:
            rep.verdict = EN
            rep.route = "abelian"
            rep.certificates.append({"kind": "abelian"})
        elif nc.nice:
            _run_nice_route(rep, law, nc.weights, exp, mismatch, on="law")
        else:
            rep.notes.append(f"not a nice basis: {nc.reason}")
            if exp.witness_law is not None:
                _run_witness_route(rep, law, sig, space, exp, mismatch)
            elif exp.degeneration is not None:
                _run_recorded_degeneration(rep, law, sig, space, phi, exp, mismatch)
            else:
                found = dg.search_degeneration(
                    law, phi, search_trials,
                    zlib.crc32(entry.id.encode()) if seed is None else seed,
                    known=(sig, space),
                )
                if found is not None:
                    rep.verdict = NOT_EN
                    rep.route = "degeneration_search"
                    rep.certificates.append(_degeneration_cert(found))
                else:
                    rep.route = "search_exhausted"
                    rep.certificates.append({"kind": "inconclusive", "trials": search_trials})

    if diff:
        _check_verdict(rep, exp, mismatch)
    assert not (
        {c["kind"] for c in rep.certificates} & _EN_CERTS
        and {c["kind"] for c in rep.certificates} & _NOT_EN_CERTS
    ), f"entry {entry.id} is both-certified"
    rep.timing = time.perf_counter() - t0
    return rep


def _run_nice_route(rep: Report, law: LieLaw, ws, exp: Expected, mismatch, on: str):
    u = nb.gram_matrix(ws)
    if on == "law":
        rep.computed["U"] = u.rows()
        if exp.u is not None and tuple(map(tuple, u.rows())) != exp.u:
            mismatch("U", list(map(list, exp.u)), u.rows())
    res = nb.positive_solution(u)
    if res.status == "positive":
        norm = nb.soliton_norm(res.x)
        rep.verdict = EN
        rep.route = "nice_lp" if on == "law" else "witness_nice_lp"
        rep.certificates.append(
            {"kind": "positive_solution", "on": on, "x": _fmt_vec(res.x), "soliton_norm": fmt_rat(norm)}
        )
        rep.computed["soliton_norm"] = fmt_rat(norm)
        if exp.soliton_norm is not None and norm != exp.soliton_norm:
            mismatch("soliton_norm", fmt_rat(exp.soliton_norm), fmt_rat(norm))
    else:
        rep.verdict = NOT_EN
        rep.route = "nice_lp"
        rep.certificates.append({"kind": "no_positive_solution", "status": res.status, "on": on})
    if on == "law":
        if isinstance(exp.x, tuple):
            if res.status != "positive":
                mismatch("x", "positive solution", res.status)
            else:
                ok = all(
                    sum(Fraction(r) * xv for r, xv in zip(row, exp.x)) == 1 for row in u.rows()
                ) and min(exp.x) > 0
                if not ok:
                    mismatch("x", "recorded x solves Ux=[1], x>0", "recorded x fails re-verification")
        elif exp.x == "none_positive" and res.status == "positive":
            mismatch("x", "none_positive", "positive solution found")


def _run_witness_route(rep: Report, law: LieLaw, sig, space, exp: Expected, mismatch):
    witness = parse_law(exp.witness_law, tol=law.tol)
    if witness.is_exact:
        bad = jacobi_violations(witness)
        if bad:
            mismatch("witness_law", "Lie algebra law", f"Jacobi fails at {bad[0][:3]}")
            return
        # isomorphism sanity: series and dim Der are basis-independent
        # (diagonal rank is not, so distinguish() is too strict here)
        sw = series_signature(witness)
        if (sig.derived_dims, sig.lcs_dims) != (sw.derived_dims, sw.lcs_dims):
            mismatch("witness_law", "isomorphic witness", "series signatures differ")
        elif len(space.basis) != len(derivation_space(witness).basis):
            mismatch("witness_law", "isomorphic witness", "dim Der differs")
        wc = nb.is_nice(witness)
        if not wc.nice:
            mismatch("witness_law", "nice witness basis", wc.reason)
            return
        _run_nice_route(rep, witness, wc.weights, exp, mismatch, on="witness")
        return
    bad = jacobi_violations(witness)
    if bad:
        mismatch("witness_law", "Lie algebra law (within tol)", f"Jacobi fails at {bad[0][:3]}")
        return
    m = ricci.moment_map(witness)
    dec = ricci.soliton_check(witness, m)
    if dec is None:
        rep.route = "witness_soliton"
        rep.certificates.append({"kind": "inconclusive", "detail": "witness decomposition failed"})
        mismatch("witness_law", "m = c.Id + D with D a derivation", "no decomposition")
        return
    rep.verdict = EN
    rep.route = "witness_soliton"
    rep.certificates.append(
        {
            "kind": "nilsoliton_decomposition",
            "on": "witness",
            "c": repr(dec.c),
            "d": [repr(v) for v in dec.d],
            "residual": dec.residual,
        }
    )
    if exp.soliton_norm is not None:
        if not ricci.cross_check(exp.soliton_norm, dec, tol=witness.tol):
            mismatch("soliton_norm", fmt_rat(exp.soliton_norm), repr(-dec.c))
        else:
            rep.computed["soliton_norm"] = fmt_rat(exp.soliton_norm)


def _run_recorded_degeneration(rep: Report, law: LieLaw, sig, space, phi, exp: Expected, mismatch):
    rec = exp.degeneration
    rep.route = "degeneration_recorded"
    limit_law = None if rec.limit == "zero" else parse_law(rec.limit)
    if rec.x is not None:
        if not dg.in_g_phi(rec.x, phi):
            mismatch("degeneration.X", "X in g_phi", "trace conditions fail")
        res = dg.one_param_limit(law, rec.x)
        if rec.limit == "zero":
            if res.kind != "zero":
                mismatch("degeneration.limit", "zero", res.kind)
        elif res.kind != "limit" or res.law != limit_law:
            mismatch("degeneration.limit", "recorded limit law", res.kind)
    if limit_law is not None:
        if jacobi_violations(limit_law):
            mismatch("degeneration.limit", "Lie algebra law", "Jacobi fails")
        if dg.distinguish(law, limit_law, (sig, space)) is None:
            mismatch("degeneration.distinguishing", rec.distinguishing, "indistinguishable")
        else:
            # the record names a specific invariant, which need not be the
            # first one distinguish() reaches; evaluate the named one
            name, left, right = _parse_distinguishing(rec.distinguishing)
            if name == "rank":
                got = (len(space.diag_basis), diagonal_rank(limit_law)[0])
            elif name == "dim_der":
                got = (len(space.basis), len(derivation_space(limit_law).basis))
            else:
                got = None
            if got is None or got != (int(left), int(right)):
                mismatch("degeneration.distinguishing", rec.distinguishing, f"{name} {got}")
    rep.verdict = NOT_EN
    rep.certificates.append(
        {
            "kind": "non_closed_orbit",
            "X": None if rec.x is None else _fmt_vec(rec.x),
            "limit": rec.limit,
            "distinguishing": rec.distinguishing,
        }
    )


def _degeneration_cert(w: dg.DegenerationWitness) -> dict[str, Any]:
    return {
        "kind": "non_closed_orbit",
        "X": _fmt_vec(w.x),
        "limit": "zero" if w.limit.kind == "zero" else "limit law",
        "distinguishing": None if w.distinction is None else _format_distinction(w.distinction),
    }


def _check_verdict(rep: Report, exp: Expected, mismatch):
    if rep.verdict == exp.verdict:
        return
    if rep.verdict == INCONCLUSIVE:
        constructive = isinstance(exp.x, tuple) or exp.witness_law is not None
        if exp.verdict == EN and not constructive:
            rep.notes.append(
                "expected EN rests on a non-constructive closedness argument; "
                "pipeline remains inconclusive by design"
            )
            return
    mismatch("verdict", exp.verdict, rep.verdict)


# ---------------------------------------------------------------------------
# driver

def _classify_worker(entry: CatalogEntry) -> Report:
    return classify(entry)


def verify_catalog(
    entries: list[CatalogEntry],
    parallel: int | None = None,
    only: str | None = None,
) -> list[Report]:
    todo = [e for e in entries if only is None or e.id == only or e.id.startswith(f"{only}[")]
    if only is not None and not todo:
        raise CatalogError(only, "id", "no such entry")
    todo = sorted(todo, key=lambda e: e.id)
    if parallel and parallel > 1 and len(todo) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            reports = list(pool.map(_classify_worker, todo))
    else:
        reports = [classify(e) for e in todo]
    return reports


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
