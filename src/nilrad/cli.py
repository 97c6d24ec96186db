"""Command-line interface.

Exit codes for `check`: 0 = Einstein nilradical certified, 1 = certified
not an Einstein nilradical, 2 = inconclusive.  Usage and parse errors exit
64; catalog schema errors and laws that are not nilpotent Lie algebras
(Jacobi fails, lower central series does not reach 0, dim 0) exit 65.  An
internal error exits 70, never a verdict's code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from . import degeneration as dg
from . import nicebasis as nb
from .algebra import DEFAULT_TOL, LawError, format_law, jacobi_violations, parse_law, series_signature
from .catalog import (
    EN,
    INCONCLUSIVE,
    NOT_EN,
    CatalogEntry,
    CatalogError,
    NotNilpotentError,
    classify,
    fmt_rat,
    load_catalog,
    summary_lines,
    verify_catalog,
)
from .derivations import derivation_space, diagonal_rank, pre_einstein

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

_VERDICT_EXIT = {EN: 0, NOT_EN: 1, INCONCLUSIVE: 2}


def _tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("NILRAD_TOL")
    return float(env) if env else DEFAULT_TOL


def _read_law(path: str, tol: float):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_law(text, tol=tol)
    except OSError as exc:
        raise SystemExit(f"nilrad: cannot read {path}: {exc}") from exc


def _pipeline_report(args):
    """Read, gate and classify the law file: (report, None) or (None, exit code).

    classify() runs without expectations and computes certificates only, on
    the law parsed here.  A law that is not a nilpotent Lie algebra of
    dimension >= 1 gets no verdict.
    """
    tol = _tol(args)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        law = parse_law(text, tol=tol)
        if not law.is_exact:
            raise LawError("the decision pipeline needs exact structure constants")
    except (OSError, LawError) as exc:
        print(f"nilrad {args.command}: {exc}", file=sys.stderr)
        return None, EX_USAGE
    bad = jacobi_violations(law)
    if bad:
        problem = f"not a Lie algebra: the Jacobi identity fails at {bad[0][:3]}"
    elif law.dim < 1:
        problem = "dimension must be at least 1"
    else:
        try:
            entry = CatalogEntry("input", {}, text, None, parsed=law)
            return classify(entry, search_trials=args.search, seed=args.seed), None
        except NotNilpotentError as exc:
            problem = str(exc)
    print(f"nilrad {args.command}: {problem}", file=sys.stderr)
    return None, EX_DATAERR


def cmd_check(args) -> int:
    rep, code = _pipeline_report(args)
    if rep is None:
        return code
    if args.json:
        print(rep.to_json())
    else:
        _print_report(rep)
    return _VERDICT_EXIT[rep.verdict]


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
    tol = _tol(args)
    try:
        law = _read_law(args.file, tol)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return EX_USAGE
    try:
        sig = series_signature(law)
        space = derivation_space(law)
        rank, gens = len(space.diag_basis), space.diag_basis
        print(f"dim: {law.dim}")
        print(f"brackets: {len(law.brackets)}")
        print(f"derived: {list(sig.derived_dims)}")
        print(f"lcs: {list(sig.lcs_dims)}")
        print(f"nilpotent: {sig.nilpotent}")
        print(f"dim_der: {len(space.basis)}")
        print(f"rank: {rank}")
        for g in gens:
            print(f"torus_generator: {list(g)}")
        if rank > 0:
            phi = pre_einstein(law, space)
            print(f"pre_einstein: {[fmt_rat(v) for v in phi.phi]}")
        ncheck = nb.is_nice(law)
        print(f"nice: {ncheck.nice}")
        if not ncheck.nice:
            print(f"nice_reason: {ncheck.reason}")
    except LawError as exc:
        print(f"nilrad invariants: {exc}", file=sys.stderr)
        return EX_USAGE
    return 0


def cmd_catalog_verify(args) -> int:
    try:
        entries = load_catalog(args.file)
    except (OSError, CatalogError) as exc:
        print(f"nilrad catalog verify: {exc}", file=sys.stderr)
        return EX_DATAERR
    try:
        reports = verify_catalog(entries, parallel=args.parallel, only=args.only)
    except (CatalogError, NotNilpotentError) as exc:
        print(f"nilrad catalog verify: {exc}", file=sys.stderr)
        return EX_DATAERR
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
    tol = _tol(args)
    try:
        law = _read_law(args.file, tol)
        rank, _ = diagonal_rank(law)
    except (SystemExit, LawError) as exc:
        print(exc, file=sys.stderr)
        return EX_USAGE
    if rank == 0:
        print("rank-zero law: no pre-Einstein derivation, degeneration flow undefined", file=sys.stderr)
        return EX_USAGE
    phi = pre_einstein(law)
    print(f"pre_einstein: {[fmt_rat(v) for v in phi.phi]}")
    if args.x is not None:
        try:
            xvec = [Fraction(tok) for tok in args.x.split(",")]
        except ValueError as exc:
            print(f"nilrad degenerate: bad --X: {exc}", file=sys.stderr)
            return EX_USAGE
        if len(xvec) != law.dim:
            print(f"nilrad degenerate: --X needs {law.dim} entries", file=sys.stderr)
            return EX_USAGE
        print(f"in_g_phi: {dg.in_g_phi(xvec, phi)}")
        res = dg.one_param_limit(law, xvec)
        if res.kind == "zero":
            print("limit: zero")
        elif res.kind == "divergent":
            print("limit: divergent")
        else:
            print(f"limit: {format_law(res.law)}")
            dist = dg.distinguish(law, res.law)
            if dist is None:
                print("distinguishing: none (not separated by series/dim Der/rank)")
            else:
                print(f"distinguishing: {dist.invariant} {dist.left} vs {dist.right}")
        return 0
    found = dg.search_degeneration(law, phi, args.search, args.seed)
    if found is None:
        print(f"inconclusive: no witness in {args.search} trials (not a proof of closedness)")
        return 2
    print(f"X: {[fmt_rat(v) for v in found.x]}")
    if found.limit.kind == "zero":
        print("limit: zero")
    else:
        print(f"limit: {format_law(found.limit.law)}")
        d = found.distinction
        print(f"distinguishing: {d.invariant} {d.left} vs {d.right}")
    return 0


def cmd_report(args) -> int:
    rep, code = _pipeline_report(args)
    if rep is None:
        return code
    if args.format == "json":
        print(rep.to_json())
    else:
        _print_report(rep)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nilrad", description="Einstein nilradical verifier")
    p.add_argument("--version", action="version", version=f"nilrad {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_tol(sp):
        sp.add_argument("--tol", type=float, default=None, help="float tolerance (default 1e-9; env NILRAD_TOL)")

    sp = sub.add_parser("check", help="classify a single law file")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--search", type=int, default=400, help="degeneration search trials")
    sp.add_argument("--seed", type=int, default=0)
    add_tol(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("invariants", help="print invariants of a law file")
    sp.add_argument("file")
    add_tol(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("catalog", help="catalog operations")
    csub = sp.add_subparsers(dest="catalog_command", required=True)
    spv = csub.add_parser("verify", help="verify a catalog file")
    spv.add_argument("file")
    spv.add_argument("--parallel", type=int, default=None, metavar="N")
    spv.add_argument("--only", default=None, metavar="ID")
    spv.add_argument("--json", action="store_true")
    spv.set_defaults(func=cmd_catalog_verify)

    sp = sub.add_parser("degenerate", help="diagonal one-parameter degenerations")
    sp.add_argument("file")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--X", dest="x", default=None, help="comma-separated diagonal exponents")
    group.add_argument("--search", type=int, default=None, metavar="N")
    sp.add_argument("--seed", type=int, default=0, metavar="S")
    add_tol(sp)
    sp.set_defaults(func=cmd_degenerate)

    sp = sub.add_parser("report", help="full pipeline report for a law file")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--search", type=int, default=400)
    sp.add_argument("--seed", type=int, default=0)
    add_tol(sp)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # argparse would read "--X -1,2,..." as a dangling flag; fuse the pair
    fused: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--X" and i + 1 < len(argv):
            fused.append(f"--X={argv[i + 1]}")
            skip = True
        else:
            fused.append(tok)
    try:
        args = parser.parse_args(fused)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; this interface uses 64
        if exc.code not in (0, None):
            raise SystemExit(EX_USAGE) from exc
        raise
    try:
        return args.func(args)
    except Exception as exc:
        print(f"nilrad: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
