"""Command-line interface.

Subcommands: dualize, invariants, gkz, tautgen, catalog.  --input accepts
either a path to a nef-partition JSON file or the name of a built-in
catalog entry.  Every command is deterministic; identical inputs yield
byte-identical outputs.

The library builds each document a command prints: ``invariants`` prints
the report of ``verify_mirror_duality`` and ``dualize`` the document of
``nefpart.dualize_document``, the same ones that ``catalog`` checks its
goldens against.  This module only formats them, as sorted JSON
(``_dumps``) or as markdown (``_invariants_markdown``).

A command exits 0 on success.  An error, a usage error included, is
printed to stderr as a JSON object {"error": kind, "message": text}, with
the kind and exit code that the table ERRORS below gives its class.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import (
    catalog_run,
    check_gkz_golden,
    check_taut_golden,
    find_entry,
    load_catalog,
)
from .errors import DomainError, GoldenMismatchError, InputError, SmoothnessError
from .invariants import verify_mirror_duality
from .nefpart import dualize_document, nef_partition_from_json
from .periods import (
    gkz_data,
    gkz_matrix_text,
    gkz_to_json,
    taut_text,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_SMOOTHNESS = 3
EXIT_GOLDEN = 4

# The error kind and exit code an exception is reported with: the first
# class it is an instance of.  ConsistencyError, a failed theorem check,
# falls to the last row with every other internal error.
ERRORS = {
    InputError: ("input", EXIT_INPUT),
    DomainError: ("input", EXIT_INPUT),
    SmoothnessError: ("smoothness", EXIT_SMOOTHNESS),
    GoldenMismatchError: ("golden-mismatch", EXIT_GOLDEN),
    Exception: ("internal", EXIT_INTERNAL),
}


def _resolve_nef_partition(spec):
    """A path to a nef-partition JSON file, or a catalog entry name."""
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {spec}: {exc}") from exc
        return nef_partition_from_json(text), None
    entry = find_entry(spec)
    return entry.build(), entry


def _write(chunks, output):
    """Write the text ``chunks`` to the file ``output`` or to stdout, in
    turn as the iterable yields them."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.writelines(chunks)


def _emit(lines, output):
    """Write ``lines`` (strings without their newline), each followed by a
    newline, in one write."""
    _write(["\n".join(lines) + "\n"], output)


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dualize(args):
    np_, _entry = _resolve_nef_partition(args.input)
    _emit([_dumps(dualize_document(np_))], args.output)
    return EXIT_OK


def _invariants_markdown(doc):
    lines = [
        "# Double-cover invariants",
        "",
        f"- dimension n = {doc['n']}",
        f"- chi(X) = {doc['chi_X']}, chi(X_dual) = {doc['chi_Xdual']}",
        f"- chi(Y) = {doc['chi_Y']}, chi(Y_dual) = {doc['chi_Ydual']}",
        "- DK route chi(Y) = closed form: ok",
    ]
    if "h11_Y" in doc:
        lines.append(f"- h^(1,1)(Y) = {doc['h11_Y']}, h^(2,1)(Y) = {doc['h21_Y']}")
    lines.extend(["", "## Off-middle Hodge numbers h^(p,q)(Y) = h^(p,q)(X)", ""])
    lines.append("| (p,q) | value |")
    lines.append("|-------|-------|")
    for key in sorted(doc["hodge"]):
        lines.append(f"| ({key}) | {doc['hodge'][key]} |")
    lines.extend(["", "## Danilov-Khovanskii pyramid volumes", ""])
    lines.append("| J | vol_{n+|J|}(Lambda_J) |")
    lines.append("|---|------|")
    for term in doc["dk_terms"]:
        lines.append(f"| {term['J']} | {term['volume']} |")
    return lines


def cmd_invariants(args):
    np_, _entry = _resolve_nef_partition(args.input)
    doc = verify_mirror_duality(np_)[1]
    if args.format == "md":
        _emit(_invariants_markdown(doc), args.output)
    else:
        _emit([_dumps(doc)], args.output)
    return EXIT_OK


def cmd_gkz(args):
    np_, entry = _resolve_nef_partition(args.input)
    if args.check:
        if entry is None or args.side not in entry.expected.get("gkz", {}):
            raise InputError(
                f"no stored golden GKZ matrix for side {args.side!r} here")
        data = check_gkz_golden(np_, args.side, entry.expected["gkz"][args.side])
    else:
        data = gkz_data(np_.dual if args.side == "dual" else np_)
    if args.format == "md":
        beta = ", ".join(str(b) for b in data.beta)
        _emit(["```", gkz_matrix_text(data), "```", f"beta = ({beta})"],
              args.output)
    else:
        _emit([gkz_to_json(data)], args.output)
    return EXIT_OK


def cmd_tautgen(args):
    if args.check:
        catalog = load_catalog()
        golden = catalog.get("taut_golden") or {}
        if golden.get("degrees") != args.degrees or \
                golden.get("dim") != args.dim:
            raise InputError("no stored golden operator list for these degrees")
        # the golden degrees give a short text: check it, then write it
        chunks = list(taut_text(args.degrees, args.dim))
        check_taut_golden(chunks)
    else:
        chunks = taut_text(args.degrees, args.dim)
    _write(chunks, args.output)
    return EXIT_OK


def cmd_catalog(args):
    ok, summary = catalog_run()
    lines = []
    if not summary:
        lines.append("warning: catalog is empty")
    for name, failures in summary:
        if failures:
            lines.append(f"FAIL {name}")
            lines.extend(f"    {msg}" for msg in failures)
        else:
            lines.append(f"PASS {name}")
    lines.append(f"{'all checks passed' if ok else 'FAILURES present'} "
                 f"({len(summary)} targets)")
    _emit(lines, args.output)
    return EXIT_OK if ok else EXIT_GOLDEN


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an InputError, which main reports as JSON
    like any other error, in place of printing the usage text."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _decimal(text):
    """The integer that ``text`` writes in ASCII decimal digits, spaces
    around them allowed; ``int`` would also read "1_0", "+1" or digits of
    other scripts, and answer for a number that was not meant."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative decimal integer")
    return int(digits)


def _decimal_list(text):
    return [_decimal(item) for item in text.split(",")]


def build_parser():
    parser = _Parser(
        prog="nefmirror",
        description="Batyrev-Borisov dual nef-partitions, double-cover "
                    "invariants, and GKZ/tautological systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dualize", help="compute the dual nef-partition")
    p.add_argument("--input", required=True,
                   help="nef-partition JSON file or catalog entry name")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("invariants", help="Euler characteristics and Hodge data")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("gkz", help="GKZ A-hypergeometric data")
    p.add_argument("--input", required=True)
    p.add_argument("--side", choices=("primal", "dual"), default="primal")
    p.add_argument("--check", action="store_true",
                   help="compare against the stored golden matrix")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.set_defaults(func=cmd_gkz)

    p = sub.add_parser("tautgen", help="tautological PDE system")
    p.add_argument("--degrees", type=_decimal_list, required=True,
                   help="comma-separated bundle degrees, e.g. 1,1,1,1,2")
    p.add_argument("--dim", type=_decimal, required=True)
    p.add_argument("--check", action="store_true",
                   help="compare against the stored operator list")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_tautgen)

    p = sub.add_parser("catalog", help="run all catalog checks")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        kind, code = next(row for cls, row in ERRORS.items()
                          if isinstance(exc, cls))
        print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
