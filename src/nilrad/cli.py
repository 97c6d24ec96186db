"""Command-line interface.

`check`, `report`, `invariants` and `degenerate` read the law file through
one gate.  `check` exits 0 = Einstein nilradical certified, 1 = certified
not an Einstein nilradical, 2 = inconclusive; `report` exits 0 on every
verdict.  A law whose diagonal torus is not maximal is inconclusive: an
INCONCLUSIVE report (route `basis_not_adapted`) from `check`/`report`, exit
2 with `basis_not_adapted` on stderr from `invariants`/`degenerate`.
`degenerate` without `--X` walks the degeneration cone and exits 2 when the
walk certifies nothing.  Usage and parse errors and laws with `sqrt`
coefficients exit 64; catalog schema errors and laws that are not nilpotent
Lie algebras (Jacobi fails, lower central series does not reach 0, dim 0)
exit 65.  An internal error exits 70, never a verdict's code.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from . import degeneration as dg
from . import nicebasis as nb
from .algebra import LawError, LieLaw, format_law, jacobi_violations, parse_law
from .catalog import (
    EN,
    INCONCLUSIVE,
    NOT_EN,
    CatalogEntry,
    CatalogError,
    NotNilpotentError,
    classify,
    fmt_rat,
    format_distinction,
    load_catalog,
    nilpotent_series,
    summary_lines,
    verify_catalog,
)
from .derivations import TorusNotMaximalError, derivation_space, pre_einstein

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

_VERDICT_EXIT = {EN: 0, NOT_EN: 1, INCONCLUSIVE: 2}


class Refusal(Exception):
    """The input gets no answer: the command exits with `code` and the message on stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_gated_law(args) -> LieLaw:
    """The law in args.file: rational (else exit 64), Lie and of dimension >= 1 (else exit 65).

    Nilpotency is checked by whatever computes the lower central series
    (NotNilpotentError, exit 65), so no command computes it twice.
    """
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            law = parse_law(fh.read())
    except (OSError, LawError) as exc:
        raise Refusal(EX_USAGE, str(exc)) from exc
    if not law.is_rational:
        raise Refusal(EX_USAGE, "the decision pipeline needs exact rational structure constants, not sqrt")
    bad = jacobi_violations(law)
    if bad:
        raise Refusal(EX_DATAERR, f"not a Lie algebra: the Jacobi identity fails at {bad[0][:3]}")
    if law.dim < 1:
        raise Refusal(EX_DATAERR, "dimension must be at least 1")
    return law


def _pipeline_report(args, as_json: bool):
    """Classify the gated law without expectations (certificates only); print the report and return it."""
    law = _read_gated_law(args)
    entry = CatalogEntry("input", {}, format_law(law), None, parsed=law)
    rep = classify(entry)
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
    law = _read_gated_law(args)
    sig = nilpotent_series(law)
    space = derivation_space(law)
    phi = pre_einstein(law, space) if space.diag_basis else None
    nice = nb.is_nice(law)
    print(f"dim: {law.dim}")
    print(f"brackets: {len(law.brackets)}")
    print(f"derived: {list(sig.derived_dims)}")
    print(f"lcs: {list(sig.lcs_dims)}")
    print(f"nilpotent: {sig.nilpotent}")
    print(f"dim_der: {len(space.basis)}")
    print(f"rank: {len(space.diag_basis)}")
    for g in space.diag_basis:
        print(f"torus_generator: {list(g)}")
    if phi is not None:
        print(f"pre_einstein: {[fmt_rat(v) for v in phi.phi]}")
    print(f"nice: {nice.nice}")
    if not nice.nice:
        print(f"nice_reason: {nice.reason}")
    return 0


def cmd_catalog_verify(args) -> int:
    try:
        entries = load_catalog(args.file)
    except OSError as exc:
        raise Refusal(EX_DATAERR, str(exc)) from exc
    reports = verify_catalog(entries, only=args.only)
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
    law = _read_gated_law(args)
    sig, space = nilpotent_series(law), derivation_space(law)
    if not space.diag_basis:
        raise Refusal(EX_USAGE, "rank-zero law: no pre-Einstein derivation, degeneration flow undefined")
    phi = pre_einstein(law, space)
    xvec = None
    if args.x is not None:
        try:
            xvec = [Fraction(tok) for tok in args.x.split(",")]
        except ValueError as exc:
            raise Refusal(EX_USAGE, f"bad --X: {exc}") from exc
        if len(xvec) != law.dim:
            raise Refusal(EX_USAGE, f"--X needs {law.dim} entries")
    print(f"pre_einstein: {[fmt_rat(v) for v in phi.phi]}")
    if xvec is not None:
        print(f"in_g_phi: {dg.in_g_phi(xvec, phi)}")
        res = dg.one_param_limit(law, xvec)
        dist = dg.distinguish(law, res.law, (sig, space)) if res.kind == "limit" else None
    else:
        found = dg.search_degeneration(law, phi, known=(sig, space))
        if isinstance(found, dg.TrivialCone):
            print(f"inconclusive: no_diagonal_degeneration, y = {[fmt_rat(v) for v in found.y]}")
            return _VERDICT_EXIT[INCONCLUSIVE]
        print(f"X: {[fmt_rat(v) for v in found.x]}")
        res, dist = found.limit, found.distinction
    if res.kind != "limit":
        print(f"limit: {res.kind}")
        return 0
    print(f"limit: {format_law(res.law)}")
    if dist is None:
        print("distinguishing: none (not separated by series/dim Der/rank)")
        return 0 if xvec is not None else _VERDICT_EXIT[INCONCLUSIVE]
    print(f"distinguishing: {format_distinction(dist)}")
    return 0


def cmd_report(args) -> int:
    _pipeline_report(args, args.format == "json")
    return 0


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
    except TorusNotMaximalError:
        print(f"{args.prog}: basis_not_adapted: the diagonal torus of this basis is not maximal", file=sys.stderr)
        return _VERDICT_EXIT[INCONCLUSIVE]
    except Exception as exc:
        print(f"nilrad: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
