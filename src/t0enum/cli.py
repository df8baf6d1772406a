"""Command-line surface.

Exit codes are a contract for CI gating.  `main` alone maps an exception
to one, and prints it as one `error:` line (exit 5 prints its traceback):
  0 success / verified, 1 formula-vs-oracle mismatch, 2 bad arguments
  (argparse checks every value: a usage line, then the error), 3 unknown
  class (or one that has no formula where one is needed), 4 budget exceeded
  (always a BudgetExceededError: an oracle walk over the cap, a
  partition-type sum over exactmath.MAX_PARTITION_TYPE_N, a completion
  count over families.MAX_COMPLETION_TUPLES, or a verify grid whose every
  cell was over budget), 5 internal error (an uncaught exception;
  traceback on stderr).

Only `oracle` and `verify` walk the oracle and take `--max-cells`; `table`
and `sequence` meet only the formula caps.
"""

import argparse
import contextlib
import json
import sys
import traceback
from functools import cache

from . import catalog
from .catalog import OracleOnlyClassError, UnknownClassError
from .hypercore import MissingParameterError
from .oracle import BudgetExceededError, OracleBudget, count, verify_grid
from .transforms import first_egf_mismatch

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_ARGS = 2
EXIT_UNKNOWN_CLASS = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

MAX_EGF_ORDER = 6


class CliError(Exception):
    """A bad argument that argparse cannot see; exits 2."""


def _parse_range(text):
    """Inclusive integer range: '1..4' or a single number '3'."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; expected LO..HI")
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; needs 1 <= LO <= HI")
    return range(lo, hi + 1)


def _int_in(lo, hi=None):
    """An argparse type: an integer in lo..hi, or >= lo when hi is None."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < lo or (hi is not None and value > hi):
            bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


def _resolve_with_k(class_id, k):
    """The entry of class_id; one that takes k needs it before any cell
    runs, even if none would (sequence --limit 0) or it has no formula."""
    entry = catalog.resolve_class(class_id)
    if entry.needs_k and k is None:
        raise MissingParameterError(f"{class_id} needs k")
    return entry


def cmd_table(args, out):
    m_range, n_range, k = args.m, args.n, args.k
    entry = _resolve_with_k(args.class_id, k)
    grid = {}
    for m in m_range:
        for n in n_range:
            grid[(m, n)] = entry.evaluate(m, n, k=k)
    k_note = "" if k is None else f" k={k}"
    if args.format == "json":
        payload = {
            "class_id": args.class_id,
            "reference": entry.reference,
            "k": k,
            "cells": [
                {"m": m, "n": n, "value": str(grid[(m, n)])}
                for m in m_range
                for n in n_range
            ],
        }
        out.write(json.dumps(payload, indent=1) + "\n")
        return EXIT_OK
    sep = "\t" if args.format == "tsv" else ","
    out.write(f"# class {args.class_id}{k_note}: {entry.reference}\n")
    out.write(sep.join(["m\\n"] + [str(n) for n in n_range]) + "\n")
    for m in m_range:
        out.write(sep.join([str(m)] + [str(grid[(m, n)]) for n in n_range]) + "\n")
    return EXIT_OK


def cmd_oracle(args, out):
    entry = catalog.resolve_class(args.class_id)
    value = entry.oracle_count(args.m, args.n, k=args.k, budget=OracleBudget(max_cells=args.max_cells))
    out.write(f"{value}\n")
    return EXIT_OK


def _verify_one(entry, m_max, n_max, k, budget, errata_corrected, out):
    report = verify_grid(
        entry.class_id, m_max, n_max, k=k, budget=budget, errata_corrected=errata_corrected
    )
    k_note = "" if k is None else f" k={k}"
    if report.cells_checked == 0:
        out.write(f"BUDGET   {entry.class_id}{k_note}: all {len(report.skipped)} cells over budget\n")
    elif report.verified:
        skipped = f", {len(report.skipped)} skipped" if report.skipped else ""
        out.write(f"ok       {entry.class_id}{k_note}: {report.cells_checked} cells{skipped}\n")
    else:
        out.write(f"MISMATCH {entry.class_id}{k_note}: {len(report.errata)} cells differ\n")
        for rec in report.errata:
            out.write(
                f"         ({rec.m},{rec.n}"
                + ("" if rec.k is None else f",k={rec.k}")
                + f") formula={rec.formula_value} oracle={rec.oracle_value} [{rec.status}]\n"
            )
    return report


def cmd_verify(args, out):
    budget = OracleBudget(max_cells=args.max_cells)
    if args.all:
        ids = catalog.formula_class_ids()
    elif args.class_id:
        if not catalog.resolve_class(args.class_id).has_formula:
            raise OracleOnlyClassError(f"{args.class_id} is oracle-only")
        ids = [args.class_id]
    else:
        raise CliError("need --class or --all")
    # the errata file is opened before any cell runs, so a bad path costs nothing
    try:
        errata_out = open(args.emit_errata, "w") if args.emit_errata else contextlib.nullcontext()
    except OSError as exc:
        raise CliError(f"cannot write --emit-errata file: {exc}")
    all_errata = []
    unchecked_grids = []
    with errata_out:
        for cid in ids:
            entry = catalog.resolve_class(cid)
            m_max = args.m_max
            if entry.convention in (3, 4):
                m_max = args.m_max_unordered or args.m_max + (1 if args.all else 0)
            if entry.needs_k:
                ks = [args.k] if args.k is not None else [1, 2, 3]
            else:
                ks = [None]
            for k in ks:
                report = _verify_one(entry, m_max, args.n_max, k, budget, args.errata_corrected, out)
                all_errata.extend(report.errata)
                if report.cells_checked == 0:
                    unchecked_grids.append(cid if k is None else f"{cid} k={k}")
        out.write(f"# classes checked: {len(ids)}\n")
        if args.emit_errata:
            for rec in all_errata:
                errata_out.write(json.dumps(rec.as_dict(), sort_keys=True) + "\n")
    if all_errata:
        out.write(f"# discrepancies: {len(all_errata)}\n")
        return EXIT_MISMATCH
    if unchecked_grids:
        raise BudgetExceededError(f"no cell within budget for {', '.join(unchecked_grids)}")
    return EXIT_OK


def _antidiagonal_cells():
    s = 2
    while True:
        for m in range(1, s):
            yield (m, s - m)
        s += 1


def _row_cells(n_max):
    m = 1
    while True:
        for n in range(1, n_max + 1):
            yield (m, n)
        m += 1


def cmd_sequence(args, out):
    entry = _resolve_with_k(args.class_id, args.k)
    cells = _antidiagonal_cells() if args.order == "antidiagonal" else _row_cells(args.n_max)
    index = 1
    for m, n in cells:
        if index > args.limit:
            break
        value = entry.evaluate(m, n, k=args.k)
        out.write(f"{index} {value}\n")
        index += 1
    return EXIT_OK


def cmd_egf_check(args, out):
    from .catalog import families as F

    conv = args.family
    alpha_table = {
        (m, n): F.alpha(1, conv, m, n)
        for m in range(args.order_y + 1)
        for n in range(args.order_x + 1)
    }
    omega_table = {
        (m, n): F.omega_1(conv, m, n)
        for m in range(args.order_y + 1)
        for n in range(1, args.order_x + 1)
    }
    mismatch = first_egf_mismatch(alpha_table, omega_table, conv, args.order_x, args.order_y)
    if mismatch is None:
        out.write(f"ok: connected table is the series logarithm up to x^{args.order_x} y^{args.order_y}\n")
        return EXIT_OK
    out.write(f"mismatch at (m, n) = {mismatch}\n")
    return EXIT_MISMATCH


_MAX_CELLS_HELP = (
    "the oracle cap (default %(default)s): a walk takes the narrow side, with at most"
    " MAX_CELLS codes of at most MAX_CELLS bits per leaf and at most 2^MAX_CELLS multisets of it"
)


@cache
def build_parser():
    """The one parser of the process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="t0enum",
        description="Exact enumeration of labelled hypergraph classes, certified against a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit a (m, n) grid for a catalog class")
    p.add_argument("--class", dest="class_id", required=True)
    p.add_argument("--m", type=_parse_range, required=True, help="inclusive range, e.g. 1..4")
    p.add_argument("--n", type=_parse_range, required=True, help="inclusive range, e.g. 1..4")
    p.add_argument("--k", type=_int_in(0))
    p.add_argument("--format", choices=("tsv", "csv", "json"), default="tsv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("oracle", help="brute-force count of one cell")
    p.add_argument("--class", dest="class_id", required=True)
    p.add_argument("--m", type=_int_in(1), required=True)
    p.add_argument("--n", type=_int_in(1), required=True)
    p.add_argument("--k", type=_int_in(0))
    p.add_argument("--max-cells", type=_int_in(1), default=OracleBudget.max_cells, help=_MAX_CELLS_HELP)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="compare formulas against the oracle on a grid")
    p.add_argument("--class", dest="class_id")
    p.add_argument("--all", action="store_true")
    p.add_argument("--m-max", type=_int_in(1), default=4)
    p.add_argument("--n-max", type=_int_in(1), default=4)
    p.add_argument("--m-max-unordered", type=_int_in(1),
                   help="row cap for unordered conventions (default m-max + 1 with --all, else m-max)")
    p.add_argument("--k", type=_int_in(0), help="restrict size-parameterized classes to one k (default 1..3)")
    p.add_argument("--emit-errata", metavar="PATH", help="write JSONL errata records")
    p.add_argument("--errata-corrected", action="store_true", help="evaluate corrected forms of as-printed classes")
    p.add_argument("--max-cells", type=_int_in(1), default=OracleBudget.max_cells, help=_MAX_CELLS_HELP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sequence", help="emit 'index value' lines reading the table linearly")
    p.add_argument("--class", dest="class_id", required=True)
    p.add_argument("--order", choices=("antidiagonal", "row"), default="antidiagonal")
    p.add_argument("--limit", type=_int_in(0), required=True)
    p.add_argument("--n-max", type=_int_in(1), default=8, help="row width for --order row")
    p.add_argument("--k", type=_int_in(0))
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("egf-check", help="check the connected table is the series log of the plain table")
    p.add_argument("--family", type=_int_in(1, 4), required=True, help="row convention 1..4")
    p.add_argument("--order-x", type=_int_in(1, MAX_EGF_ORDER), default=5)
    p.add_argument("--order-y", type=_int_in(0, MAX_EGF_ORDER), default=5)
    p.set_defaults(func=cmd_egf_check)

    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_ARGS if exc.code not in (0, None) else EXIT_OK
    # Counts are written in full, however many digits they have; the
    # interpreter's int -> str limit is lifted for this call only.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args, out)
    except Exception as exc:
        # the exit-code table: the first row whose class matches wins
        for kind, code, message in (
            (CliError, EXIT_BAD_ARGS, "{}"),
            (UnknownClassError, EXIT_UNKNOWN_CLASS, "unknown class {}"),  # str() of a KeyError quotes it
            (OracleOnlyClassError, EXIT_UNKNOWN_CLASS, "oracle-only class; use oracle command"),
            (MissingParameterError, EXIT_BAD_ARGS, "{} (set --k)"),
            (BudgetExceededError, EXIT_BUDGET, "budget exceeded: {}"),
        ):
            if isinstance(exc, kind):
                print("error: " + message.format(exc), file=sys.stderr)
                return code
        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
