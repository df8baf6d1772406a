"""Record the expected outcome of every operation any seed can select.

    python3 perfbench/make_expected.py        # from the repository root

Writes perfbench/expected.json: per operation the exit code, the output
digest and size, for `verify` the cells it checked, and for `oracle` calls
the count and the class's row convention.  The values are fixed from the
commit the file was made at; the benchmark fails any run whose outputs
differ.  An oracle count that disagrees with its class's formula is refused
here, not recorded.
"""

import json
import sys

import sample
import workloads


def main():
    sys.path.insert(0, sample.SRC)
    from t0enum import catalog

    expected = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.pool(workload)
        # The certify pool is the one `verify` call, so the tracer's count
        # of cells checked over the pass is that call's count.
        result = sample.spawn(ops, trace=workload == "certify")
        formulas = {}
        if workload == "oracle_cells":
            formula_ops = [workloads.formula_argv(argv) for argv in ops]
            formulas = dict(zip(map(workloads.op_key, ops), sample.spawn(formula_ops)["ops"]))
        for argv, rec in zip(ops, result["ops"]):
            if rec["error"] or rec["rc"] != 0:
                raise SystemExit(f"{argv}: {rec['error'] or rec['stderr']}")
            entry = {"rc": rec["rc"], "out_sha256": rec["out_sha256"], "out_bytes": rec["out_bytes"]}
            if argv[0] == "verify":
                entry["cells_checked"] = result["trace"]["counters"]["oracle.cells_checked"]
            if argv[0] == "oracle":
                value = rec["out_text"].strip()
                formula = workloads.table_value(formulas[workloads.op_key(argv)]["out_text"])
                if value != formula:
                    raise SystemExit(f"{argv}: oracle {value} but formula {formula}")
                entry["value"] = value
                entry["convention"] = catalog.resolve_class(argv[argv.index("--class") + 1]).convention
            expected[workloads.op_key(argv)] = entry
            print(workload, workloads.op_key(argv), f"{rec['seconds']:.3f} s", flush=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
