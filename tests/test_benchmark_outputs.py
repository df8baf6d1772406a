"""Every benchmark operation prints what `perfbench/expected.json` records.

The benchmark counts an operation whose exit code or output digest moved
as failed.  Running each operation of every workload's pool in-process
here makes such a change fail the test suite too.
"""

import hashlib
import io

import pytest
from conftest import load_perfbench

from t0enum import cli

workloads = load_perfbench("workloads")
EXPECTED = workloads.load_expected()


@pytest.mark.parametrize(
    "argv", [argv for w in workloads.WORKLOADS for argv in workloads.pool(w)], ids=workloads.op_key
)
def test_operation_matches_expected(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    expected = EXPECTED[workloads.op_key(argv)]
    assert code == expected["rc"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == expected["out_sha256"]
