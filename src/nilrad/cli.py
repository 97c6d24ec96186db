"""Command-line interface.

`check`, `report`, `invariants` and `degenerate` read the law file through
one gate.  `check` exits 0 = Einstein nilradical certified, 1 = certified
not an Einstein nilradical, 2 = inconclusive; `report` exits 0 on every
verdict.  A law whose diagonal torus is not maximal (`Invariants.phi`,
at rank 0 too) is inconclusive: an INCONCLUSIVE report (route
`basis_not_adapted`) from `check`/`report`, exit 2 with `basis_not_adapted`
on stderr from `invariants`/`degenerate`.  `degenerate` without `--X` walks
the degeneration cone and exits 2 when the walk certifies nothing; a
`rank_zero` law (phi = 0 at diagonal rank 0) has no degeneration flow, and
`degenerate` exits 2 on it with the reason on stderr.  Usage and parse
errors (and an `--X` entry not of the form `-?digits(/digits)?`) and `sqrt`
laws exit 64; catalog schema errors and laws that `gate_law` finds are not
nilpotent Lie algebras exit 65.  An internal error exits 70, never a
verdict's code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from . import degeneration as dg
from .algebra import LawError, LieLaw, parse_law, parse_rational
from .catalog import (
    EN,
    INCONCLUSIVE,
    NOT_EN,
    CatalogEntry,
    CatalogError,
    NotNilpotentError,
    classify,
    fmt_rat,
    gate_law,
    load_catalog,
    search_route,
    summary_lines,
    verify_catalog,
)
from .derivations import Invariants

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

_VERDICT_EXIT = {EN: 0, NOT_EN: 1, INCONCLUSIVE: 2}
_NO_PHI = {  # the reason of Invariants.phi for no degeneration flow, as a refusal says it
    "rank_zero": "rank-zero law: every derivation is traceless, so phi = 0 and the degeneration flow is undefined",
    "basis_not_adapted": "basis_not_adapted: the diagonal torus of this basis is not maximal",
}


class Refusal(Exception):
    """The input gets no answer: the command exits with `code` and the message on stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_gated_law(args) -> tuple[str, LieLaw]:
    """The text in args.file and its law, through `gate_law`: rational (else exit 64), nilpotent Lie (else exit 65)."""
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        return text, gate_law(parse_law(text))  # NotNilpotentError: exit 65, in main
    except (OSError, UnicodeDecodeError, LawError) as exc:
        raise Refusal(EX_USAGE, str(exc)) from exc


def _pipeline_report(args, as_json: bool):
    """Classify the gated law without expectations (certificates only); print the report and return it."""
    text, law = _read_gated_law(args)
    rep = classify(CatalogEntry("input", {}, text, None, parsed=law))
    if as_json:
        print(rep.to_json())
    else:
        _print_report(rep)
    return rep


def cmd_check(args) -> int:
    return _VERDICT_EXIT[_pipeline_report(args, args.json).verdict]


def _print_report(rep) -> None:
    print(f"verdict: {rep.verdict}")
    print(f"route: {rep.route}")
    for cert in rep.certificates:
        print(f"certificate: {json.dumps(cert, sort_keys=True)}")
    for key in ("dim_der", "derived", "lcs", "rank", "nice", "pre_einstein", "soliton_norm"):
        if key in rep.computed:
            print(f"{key}: {rep.computed[key]}")
    for note in rep.notes:
        print(f"note: {note}")


def cmd_invariants(args) -> int:
    inv = Invariants(_read_gated_law(args)[1])
    sig, phi = inv.series, inv.phi  # phi may refuse the law: before anything is printed
    if phi == "basis_not_adapted":
        raise Refusal(_VERDICT_EXIT[INCONCLUSIVE], _NO_PHI[phi])
    print(f"dim: {inv.law.dim}")
    print(f"brackets: {len(inv.law.brackets)}")
    print(f"derived: {list(sig.derived_dims)}")
    print(f"lcs: {list(sig.lcs_dims)}")
    print(f"nilpotent: {sig.nilpotent}")
    print(f"dim_der: {inv.dim_der}")
    print(f"rank: {inv.rank}")
    for g in inv.torus:
        print(f"torus_generator: {list(g)}")
    if phi != "rank_zero":
        print(f"pre_einstein: {[fmt_rat(v) for v in phi]}")
    print(f"nice: {inv.nice.nice}")
    if not inv.nice.nice:
        print(f"nice_reason: {inv.nice.reason}")
    return 0


def cmd_catalog_verify(args) -> int:
    reports = verify_catalog(load_catalog(args.file), only=args.only)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        for line in summary_lines(reports):
            print(line)
        for r in reports:
            for mm in r.mismatches:
                print(f"  {r.id}: {mm['field']}: expected {mm['expected']}, computed {mm['computed']}")
    return 0 if all(r.ok for r in reports) else 1


def cmd_degenerate(args) -> int:
    inv = Invariants(_read_gated_law(args)[1])
    xvec = None
    if args.x is not None:
        try:
            xvec = [parse_rational(tok) for tok in args.x.split(",")]
        except LawError as exc:
            raise Refusal(EX_USAGE, f"bad --X: {exc}") from exc
        if len(xvec) != inv.law.dim:
            raise Refusal(EX_USAGE, f"--X needs {inv.law.dim} entries")
    phi = inv.phi
    if isinstance(phi, str):
        raise Refusal(_VERDICT_EXIT[INCONCLUSIVE], _NO_PHI[phi])
    print(f"pre_einstein: {[fmt_rat(v) for v in phi]}")
    if xvec is not None:
        print(f"in_g_phi: {dg.in_g_phi(xvec, phi)}")
        found = dg.degenerate(inv, xvec)
        _print_limit(str(found.limit), found.distinction)
        return 0
    dec = search_route(inv)  # the walk's decision, as `check` reaches it
    cert = dec.certificate
    if "y" in cert:
        print(f"inconclusive: no_diagonal_degeneration, y = {cert['y']}")
    else:
        print(f"X: {cert['X']}")
        _print_limit(cert["limit"], cert.get("distinguishing"))
    return _VERDICT_EXIT[INCONCLUSIVE] if dec.verdict == INCONCLUSIVE else 0


def _print_limit(limit: str, distinction) -> None:
    """A degeneration's limit and, for a limit law, the invariant that separates it from the law."""
    print(f"limit: {limit}")
    if limit not in ("zero", "divergent"):
        print(f"distinguishing: {distinction or 'none (not separated by series/dim Der)'}")


def cmd_report(args) -> int:
    _pipeline_report(args, args.format == "json")
    return 0


@functools.cache  # parsing leaves the parser unchanged, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nilrad", description="Einstein nilradical verifier")
    p.add_argument("--version", action="version", version=f"nilrad {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="classify a single law file")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    # accepted and ignored: no answer depends on a seed, but perfbench's
    # check_search workload passes --seed until that workload is redefined
    sp.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_check, prog=sp.prog)

    sp = sub.add_parser("invariants", help="print invariants of a law file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_invariants, prog=sp.prog)

    sp = sub.add_parser("catalog", help="catalog operations")
    csub = sp.add_subparsers(dest="catalog_command", required=True)
    spv = csub.add_parser("verify", help="verify a catalog file")
    spv.add_argument("file")
    spv.add_argument("--only", default=None, metavar="ID")
    spv.add_argument("--json", action="store_true")
    spv.set_defaults(func=cmd_catalog_verify, prog=spv.prog)

    sp = sub.add_parser("degenerate", help="diagonal one-parameter degenerations")
    sp.add_argument("file")
    sp.add_argument("--X", dest="x", default=None, help="comma-separated diagonal exponents (default: walk the cone)")
    sp.set_defaults(func=cmd_degenerate, prog=sp.prog)

    sp = sub.add_parser("report", help="full pipeline report for a law file")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_report, prog=sp.prog)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # argparse would read "--X -1,2,..." as a dangling flag; fuse the pair
    fused, toks = [], iter(argv)
    for tok in toks:
        value = next(toks, None) if tok == "--X" else None
        fused.append(tok if value is None else f"--X={value}")
    try:
        args = parser.parse_args(fused)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; this interface uses 64
        if exc.code not in (0, None):
            raise SystemExit(EX_USAGE) from exc
        raise
    try:
        return args.func(args)
    except Refusal as exc:
        print(f"{args.prog}: {exc}", file=sys.stderr)
        return exc.code
    except (CatalogError, NotNilpotentError) as exc:
        print(f"{args.prog}: {exc}", file=sys.stderr)
        return EX_DATAERR
    except Exception as exc:
        print(f"nilrad: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
