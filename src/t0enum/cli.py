"""Command-line surface.

Exit codes are a contract for CI gating:
  0 success / verified, 1 formula-vs-oracle mismatch, 2 bad arguments,
  3 unknown class (or one that has no formula where one is needed),
  4 budget exceeded (an oracle walk over the cap: more than max_cells
  codes or bits per leaf, or more than 2**max_cells leaves; a
  partition-type sum over exactmath.MAX_PARTITION_TYPE_N, a completion
  count over families.MAX_COMPLETION_TUPLES, or a verify grid whose every
  cell was over budget), 5 internal error (an uncaught
  exception; traceback on stderr).
"""

import argparse
import contextlib
import json
import os
import sys
import traceback

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
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _parse_range(text):
    """Inclusive integer range: '1..4' or a single number '3'."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise CliError(EXIT_BAD_ARGS, f"bad range {text!r}; expected LO..HI")
    if lo < 1 or hi < lo:
        raise CliError(EXIT_BAD_ARGS, f"bad range {text!r}; needs 1 <= LO <= HI")
    return range(lo, hi + 1)


def _size_parameter(text):
    """--k: an integer k >= 0 (k = 0 is exact-0 uniformity, not a no-op)."""
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {k}")
    return k


def _budget_from_args(args):
    max_cells = getattr(args, "max_cells", None)
    if max_cells is None:
        max_cells = os.environ.get("T0ENUM_BUDGET_CELLS") or OracleBudget.max_cells
    try:
        return OracleBudget(max_cells=int(max_cells))
    except ValueError as exc:
        raise CliError(EXIT_BAD_ARGS, f"bad budget: {exc}")


def _resolve(class_id):
    try:
        return catalog.resolve_class(class_id)
    except UnknownClassError:
        raise CliError(EXIT_UNKNOWN_CLASS, f"unknown class {class_id!r}")


_ORACLE_ONLY = "oracle-only class; use oracle command"


def _entry_formula_value(entry, m, n, k, errata_corrected, budget):
    try:
        return entry.evaluate(m, n, k=k, errata_corrected=errata_corrected, budget=budget)
    except OracleOnlyClassError:
        raise CliError(EXIT_UNKNOWN_CLASS, _ORACLE_ONLY)
    except MissingParameterError:
        raise CliError(EXIT_BAD_ARGS, f"class {entry.class_id} needs --k")


def cmd_table(args, out):
    m_range, n_range, k = _parse_range(args.m), _parse_range(args.n), args.k
    entry = _resolve(args.class_id)
    if entry.needs_k and k is None:
        raise CliError(EXIT_BAD_ARGS, f"class {args.class_id} needs --k")
    budget = _budget_from_args(args)
    grid = {}
    for m in m_range:
        for n in n_range:
            grid[(m, n)] = _entry_formula_value(entry, m, n, k, args.errata_corrected, budget)
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
    if min(args.m, args.n) < 1:
        raise CliError(EXIT_BAD_ARGS, "--m and --n must be >= 1")
    entry = _resolve(args.class_id)
    budget = _budget_from_args(args)
    try:
        value = entry.oracle_count(args.m, args.n, k=args.k, budget=budget)
    except MissingParameterError:
        raise CliError(EXIT_BAD_ARGS, f"class {args.class_id} needs --k")
    except BudgetExceededError as exc:
        raise CliError(EXIT_BUDGET, f"budget exceeded: {exc}")
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
    budget = _budget_from_args(args)
    if min(args.m_max, args.n_max) < 1 or (args.m_max_unordered is not None and args.m_max_unordered < 1):
        raise CliError(EXIT_BAD_ARGS, "--m-max, --n-max and --m-max-unordered must be >= 1")
    if args.all:
        ids = catalog.formula_class_ids()
    elif args.class_id:
        if not _resolve(args.class_id).has_formula:
            raise CliError(EXIT_UNKNOWN_CLASS, _ORACLE_ONLY)
        ids = [args.class_id]
    else:
        raise CliError(EXIT_BAD_ARGS, "need --class or --all")
    # the errata file is opened before any cell runs, so a bad path costs nothing
    try:
        errata_out = open(args.emit_errata, "w") if args.emit_errata else contextlib.nullcontext()
    except OSError as exc:
        raise CliError(EXIT_BAD_ARGS, f"cannot write --emit-errata file: {exc}")
    all_errata = []
    unchecked_grids = []
    classes_checked = 0
    with errata_out:
        for cid in ids:
            entry = _resolve(cid)
            m_max = args.m_max
            if args.all and entry.convention in (3, 4):
                m_max = args.m_max_unordered or args.m_max + 1
            if entry.needs_k:
                ks = [args.k] if args.k is not None else [1, 2, 3]
            else:
                ks = [None]
            for k in ks:
                report = _verify_one(entry, m_max, args.n_max, k, budget, args.errata_corrected, out)
                all_errata.extend(report.errata)
                if report.cells_checked == 0:
                    unchecked_grids.append(cid if k is None else f"{cid} k={k}")
            classes_checked += 1
        out.write(f"# classes checked: {classes_checked}\n")
        if args.emit_errata:
            for rec in all_errata:
                errata_out.write(json.dumps(rec.as_dict(), sort_keys=True) + "\n")
    if all_errata:
        out.write(f"# discrepancies: {len(all_errata)}\n")
        return EXIT_MISMATCH
    if unchecked_grids:
        raise CliError(EXIT_BUDGET, f"no cell within budget for {', '.join(unchecked_grids)}")
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
    entry = _resolve(args.class_id)
    if entry.needs_k and args.k is None:
        raise CliError(EXIT_BAD_ARGS, f"class {args.class_id} needs --k")
    if args.limit < 0:
        raise CliError(EXIT_BAD_ARGS, "limit must be >= 0")
    if args.n_max < 1:
        raise CliError(EXIT_BAD_ARGS, "--n-max must be >= 1")
    budget = _budget_from_args(args)
    cells = _antidiagonal_cells() if args.order == "antidiagonal" else _row_cells(args.n_max)
    index = 1
    for m, n in cells:
        if index > args.limit:
            break
        value = _entry_formula_value(entry, m, n, args.k, args.errata_corrected, budget)
        out.write(f"{index} {value}\n")
        index += 1
    return EXIT_OK


def cmd_egf_check(args, out):
    if not (1 <= args.family <= 4):
        raise CliError(EXIT_BAD_ARGS, "family must be 1..4")
    if not (1 <= args.order_x <= MAX_EGF_ORDER and 0 <= args.order_y <= MAX_EGF_ORDER):
        raise CliError(EXIT_BAD_ARGS, f"need 1 <= --order-x <= {MAX_EGF_ORDER} and 0 <= --order-y <= {MAX_EGF_ORDER}")
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
    "the oracle cap (default 20, or T0ENUM_BUDGET_CELLS): a walk may hold at most"
    " MAX_CELLS codes of at most MAX_CELLS bits per leaf and at most 2^MAX_CELLS leaves"
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="t0enum",
        description="Exact enumeration of labelled hypergraph classes, certified against a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit a (m, n) grid for a catalog class")
    p.add_argument("--class", dest="class_id", required=True)
    p.add_argument("--m", required=True, help="inclusive range, e.g. 1..4")
    p.add_argument("--n", required=True, help="inclusive range, e.g. 1..4")
    p.add_argument("--k", type=_size_parameter)
    p.add_argument("--format", choices=("tsv", "csv", "json"), default="tsv")
    p.add_argument("--errata-corrected", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("oracle", help="brute-force count of one cell")
    p.add_argument("--class", dest="class_id", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=_size_parameter)
    p.add_argument("--max-cells", type=int, help=_MAX_CELLS_HELP)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="compare formulas against the oracle on a grid")
    p.add_argument("--class", dest="class_id")
    p.add_argument("--all", action="store_true")
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--m-max-unordered", type=int, help="row cap for multiset conventions (default m-max + 1)")
    p.add_argument("--k", type=_size_parameter, help="restrict size-parameterized classes to one k (default 1..3)")
    p.add_argument("--emit-errata", metavar="PATH", help="write JSONL errata records")
    p.add_argument("--errata-corrected", action="store_true", help="evaluate corrected forms of as-printed classes")
    p.add_argument("--max-cells", type=int, help=_MAX_CELLS_HELP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sequence", help="emit 'index value' lines reading the table linearly")
    p.add_argument("--class", dest="class_id", required=True)
    p.add_argument("--order", choices=("antidiagonal", "row"), default="antidiagonal")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--n-max", type=int, default=8, help="row width for --order row")
    p.add_argument("--k", type=_size_parameter)
    p.add_argument("--errata-corrected", action="store_true")
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("egf-check", help="check the connected table is the series log of the plain table")
    p.add_argument("--family", type=int, required=True, help="row convention 1..4")
    p.add_argument("--order-x", type=int, default=5)
    p.add_argument("--order-y", type=int, default=5)
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
