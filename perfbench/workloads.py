"""The three workloads: which operations a pass runs, and how they are checked.

A pass is a list of `t0enum` argvs run in one fresh process.  The seed
picks the order of the operations and, in a slot whose alternatives cost
the same, which one runs; the program sees only the argv.

* certify       one cold `verify --all --m-max 4 --n-max 4 --errata-corrected`:
                enumerate each cell once, read its feature counter about
                6,200 times.  The end-to-end number the roadmap names.
* oracle_cells  five cold single-cell `oracle` calls that share no
                enumeration: ordered cells of 2^16 matrices in three shapes
                (tall 8x2, square 4x4, wide 2x8), a multiset 6x4 cell and a
                set 4x5 cell.  Every answer pays for its own enumeration.
                The class in each slot is free: the enumeration, not the
                spec, sets the cost.
* tables        cold `table`, `sequence` and `egf-check` calls on formula
                classes, no oracle work: partition-type sums, connected
                recurrences, Stirling transforms and big-integer output.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

CERTIFY = ("verify", "--all", "--m-max", "4", "--n-max", "4", "--errata-corrected")

# slot -> (m, n, equal-cost classes).  Every class's formula agrees with the
# oracle at its cell; the checks re-derive that on every run.
ORACLE_SLOTS = {
    "tall": (8, 2, ("omega_12", "beta_star_02", "omega_star_42", "bar_alpha_star_22")),
    "square": (4, 4, ("beta_01", "omega_12", "alpha_star_12", "beta_star_41")),
    "wide": (2, 8, ("omega_12", "beta_41", "mu_01", "bar_alpha_21")),
    "multiset": (6, 4, ("omega_star_04", "beta_44", "alpha_star_34", "omega_74")),
    "set": (4, 5, ("beta_star_03", "omega_13", "bar_beta_star_13", "omega_star_73")),
}


def _formats(argv):
    # Same computation, two renderings: a choice that does not change cost.
    return (argv + " --format tsv", argv + " --format csv")


# slot -> equal-cost alternatives.  Sizes are scaled so that a pass takes a
# few seconds; the partition-type sums keep their steep growth in n.  The
# slots use disjoint memoized families (their own row convention or size
# parameter), so a pass costs the same in any order; only egf-check's
# cells of at most 6x6 may already be cached by another slot.
TABLE_SLOTS = {
    "partition_type_sum": _formats("table --class theta_star_12 --m 1..3 --n 1..24 --k 2"),
    "bounded_type_sum": _formats("table --class bar_theta_star_02 --m 1..3 --n 1..20 --k 3"),
    "common_vertex": _formats("table --class theta_star_13 --m 1..3 --n 1..20 --k 2"),
    "connected": _formats("table --class omega_12 --m 1..30 --n 1..30"),
    "bounded_connected": _formats("table --class bar_omega_star_01 --m 1..8 --n 1..18 --k 3"),
    "stirling": _formats("table --class omega_star_11 --m 1..24 --n 1..24"),
    "big_integers": _formats("table --class alpha_star_02 --m 1..40 --n 1..40"),
    "sequence": (
        "sequence --class omega_33 --order antidiagonal --limit 300",
        "sequence --class omega_34 --order antidiagonal --limit 300",
    ),
    "egf": tuple(f"egf-check --family {f} --order-x 6 --order-y 6" for f in (1, 2, 3, 4)),
}

WORKLOADS = ("certify", "oracle_cells", "tables")

WORK_UNITS = {
    "certify": "cells checked",
    "oracle_cells": "matrices covered",
    "tables": "table cells emitted",
}


def _oracle_argv(class_id, m, n):
    return ["oracle", "--class", class_id, "--m", str(m), "--n", str(n)]


def pool(workload):
    """Every operation the workload can run, whatever the seed."""
    if workload == "certify":
        return [list(CERTIFY)]
    if workload == "oracle_cells":
        return [
            _oracle_argv(cid, m, n)
            for m, n, classes in ORACLE_SLOTS.values()
            for cid in classes
        ]
    if workload == "tables":
        return [argv.split() for options in TABLE_SLOTS.values() for argv in options]
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload, seed):
    """The pass a seed selects: one alternative per slot, in seeded order."""
    rng = random.Random(seed)
    if workload == "certify":
        return [list(CERTIFY)]
    if workload == "oracle_cells":
        ops = [_oracle_argv(rng.choice(classes), m, n) for m, n, classes in ORACLE_SLOTS.values()]
    elif workload == "tables":
        ops = [rng.choice(options).split() for options in TABLE_SLOTS.values()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _span(text):
    lo, _, hi = text.partition("..")
    return int(hi or lo) - int(lo) + 1


def work_units(argv, expected):
    """Units of work one operation does; see WORK_UNITS."""
    command = argv[0]
    if command == "verify":
        return expected["cells_checked"]
    if command == "oracle":
        from tracer import matrices_covered

        return matrices_covered(expected["convention"], int(_option(argv, "--m")), int(_option(argv, "--n")))
    if command == "table":
        return _span(_option(argv, "--m")) * _span(_option(argv, "--n"))
    if command == "sequence":
        return int(_option(argv, "--limit"))
    if command == "egf-check":
        # connected cells compared against the series logarithm
        return int(_option(argv, "--order-x", 5)) * (int(_option(argv, "--order-y", 5)) + 1)
    raise ValueError(f"no work units for {command!r}")


def op_key(argv):
    return " ".join(argv)


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check_op(record, expected):
    """Problems with one operation's outcome; empty when it is correct."""
    if record["error"]:
        return [record["error"]]
    if expected is None:
        return ["no expected value recorded for this operation"]
    problems = []
    if record["rc"] != expected["rc"]:
        problems.append(f"exit code {record['rc']}, expected {expected['rc']}")
    if record["out_sha256"] != expected["out_sha256"]:
        problems.append(f"output digest differs ({record['out_bytes']} bytes, expected {expected['out_bytes']})")
    if "value" in expected and (record["out_text"] or "").strip() != expected["value"]:
        problems.append(f"value {(record['out_text'] or '').strip()!r}, expected {expected['value']!r}")
    return problems


def formula_argv(oracle_argv):
    """The `table` call that evaluates the certified formula at an oracle cell."""
    class_id, m, n = _option(oracle_argv, "--class"), _option(oracle_argv, "--m"), _option(oracle_argv, "--n")
    return ["table", "--class", class_id, "--m", m, "--n", n]


def table_value(text):
    """The single cell of a one-cell `table` TSV output."""
    last = text.strip().splitlines()[-1]
    return last.split("\t")[1]
