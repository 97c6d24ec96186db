"""Command-line interface: `COMMANDS` maps the command words to a handler,
its usage line and its flags.

`check FILE` prints the report of one law, read through `gate_law`;
`catalog verify FILE` re-checks the catalog entries.  FILE and the flags
follow the command words in any order, each flag as `--flag value` or
`--flag=value` (a value may begin with `-`), never abbreviated;
`-h`/`--help` prints `USAGE`, and `--version`, `-h` or `--help` may also
stand alone.  `check` exits 0 = EN certified, 1 = NOT_EN certified, 2 =
inconclusive (route `basis_not_adapted` when the diagonal torus of the law
is not maximal); `catalog verify` exits 0 when every entry matches, 1 on a
mismatch.  Usage and parse errors and `sqrt` laws exit 64; catalog schema
errors and laws that `gate_law` finds are not nilpotent Lie algebras exit
65; an internal error exits 70 and a closed stdout 74, no verdict's code.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from .algebra import LawError, parse_law
from .catalog import (
    EN,
    INCONCLUSIVE,
    NOT_EN,
    CatalogEntry,
    CatalogError,
    NotNilpotentError,
    classify,
    gate_law,
    load_catalog,
    summary_lines,
    verify_catalog,
)

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70
EX_IOERR = 74

_VERDICT_EXIT = {EN: 0, NOT_EN: 1, INCONCLUSIVE: 2}


class Refusal(Exception):
    """The input gets no answer: the command exits with `code` and the message on stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def cmd_check(args) -> int:
    """Classify the law in args.file without expectations (certificates only) and print its report.

    The law passes `gate_law` first: rational (else exit 64), nilpotent Lie (else exit 65).
    """
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        law = gate_law(parse_law(text))  # NotNilpotentError: exit 65, in main
    except (OSError, UnicodeDecodeError, LawError) as exc:
        raise Refusal(EX_USAGE, str(exc)) from exc
    rep = classify(CatalogEntry("input", {}, text, None, parsed=law))
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


# command words -> (handler, usage, flags); a flag is a switch (None) or takes
# one value through its converter.  `check --seed` is accepted and ignored: no
# answer depends on a seed, but perfbench's check_search workload passes one
COMMANDS = {
    ("check",): (cmd_check, "FILE [--json]", {"--json": None, "--seed": int}),
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
        if not words and argv not in (["--version"], ["-h"], ["--help"]):
            commands = ", ".join(map(" ".join, COMMANDS))
            got = repr(" ".join(argv)) if argv else "none"
            raise Refusal(EX_USAGE, f"expected a command ({commands}), or --version, -h or --help alone; got {got}")
        if args is None:
            print(f"nilrad {__version__}" if argv == ["--version"] else USAGE)
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
