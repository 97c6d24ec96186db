"""Command-line interface: `COMMANDS` maps the command words to a handler,
its usage line and its flags.

FILE and the flags follow the command words in any order, each flag as
`--flag value` or `--flag=value` (a value may begin with `-`), never
abbreviated; `-h`/`--help` prints `USAGE`.  `check`, `report`, `invariants`
and `degenerate` read the law file through one gate.  `check` exits 0 = EN
certified, 1 = NOT_EN certified, 2 = inconclusive; `report` exits 0 on every
verdict.  A law whose diagonal torus is not maximal (`Invariants.phi`, at
rank 0 too) gets an INCONCLUSIVE report (route `basis_not_adapted`) from
`check`/`report`, and exit 2 with the reason on stderr from `invariants` and
`degenerate`, which also exits 2 on a `rank_zero` law (phi = 0 at diagonal
rank 0: no degeneration flow) and when its cone walk certifies nothing.
Usage and parse errors (a bad `--X` too) and `sqrt` laws exit 64; catalog
schema errors and laws that `gate_law` finds are not nilpotent Lie algebras
exit 65; an internal error exits 70 and a closed stdout 74, no verdict's code.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

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
EX_IOERR = 74

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
    if args.format not in (None, "text", "json"):
        raise Refusal(EX_USAGE, f"bad --format value {args.format!r}: text or json")
    _pipeline_report(args, args.format == "json")
    return 0


# command words -> (handler, usage, flags); a flag is a switch (None) or takes
# one value through its converter.  `check --seed` is accepted and ignored: no
# answer depends on a seed, but perfbench's check_search workload passes one
COMMANDS = {
    ("check",): (cmd_check, "FILE [--json]", {"--json": None, "--seed": int}),
    ("report",): (cmd_report, "FILE [--format text|json]", {"--format": str}),
    ("invariants",): (cmd_invariants, "FILE", {}),
    ("degenerate",): (cmd_degenerate, "FILE [--X a1,...,an]", {"--X": str}),
    ("catalog", "verify"): (cmd_catalog_verify, "FILE [--only ID] [--json]", {"--only": str, "--json": None}),
}
USAGE = "usage: " + "\n       ".join(
    [" ".join(["nilrad", *words, usage]) for words, (_, usage, _) in COMMANDS.items()] + ["nilrad --version"]
)


def _read_args(argv: list[str], flags: dict) -> SimpleNamespace | None:
    """FILE and the flags in any order, each as `--flag value` or `--flag=value`; None on -h/--help."""
    opts = {f[2:].lower(): False if conv is None else None for f, conv in flags.items()}
    files, toks = [], iter(argv)
    for tok in toks:
        name, eq, value = tok.partition("=")
        if name in ("-h", "--help") and not eq:
            return None
        if not tok.startswith("-") or tok == "-":
            files.append(tok)
            continue
        if name not in flags:
            raise Refusal(EX_USAGE, f"unknown option {name!r}")
        conv = flags[name]
        value = value if eq or conv is None else next(toks, None)
        if value is None or (conv is None and eq):
            raise Refusal(EX_USAGE, f"{name} needs a value" if conv else f"{name} takes no value")
        try:
            opts[name[2:].lower()] = conv(value) if conv else True
        except ValueError:
            raise Refusal(EX_USAGE, f"bad {name} value {value!r}") from None
    if len(files) != 1:
        raise Refusal(EX_USAGE, f"expected one file argument, got {len(files)}")
    return SimpleNamespace(file=files[0], **opts)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    words = next((w for w in (tuple(argv[:2]), tuple(argv[:1])) if w in COMMANDS), ())
    prog = " ".join(["nilrad", *words])
    try:
        args = _read_args(argv[len(words):], COMMANDS[words][2]) if words else None
        if not words and argv[:1] not in (["--version"], ["-h"], ["--help"]):
            commands = ", ".join(map(" ".join, COMMANDS))
            raise Refusal(EX_USAGE, f"expected a command ({commands}), got {argv[0] if argv else 'none'}")
        if args is None:
            print(f"nilrad {__version__}" if argv[:1] == ["--version"] else USAGE)
        code = 0 if args is None else COMMANDS[words][0](args)
        sys.stdout.flush()  # a reader that closed stdout is met here, not at the interpreter's exit
        return code
    except Refusal as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return exc.code
    except (CatalogError, NotNilpotentError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return EX_DATAERR
    except BrokenPipeError:  # the reader closed stdout: keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR
    except Exception as exc:
        print(f"nilrad: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
