"""Shared test helpers.

The brute-force ones deliberately avoid the package's own partition/transform
code so that derived expected values come from a second route.
"""

import importlib.util
from math import comb
from pathlib import Path

from t0enum.catalog import resolve_class

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The cells with m = 0 or n = 0: each holds one matrix, the empty one.
EMPTY_CELLS = [(0, n) for n in range(7)] + [(m, 0) for m in range(1, 7)]


def load_perfbench(name):
    """The benchmark's module `perfbench/{name}.py`, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def registered(name):
    """The catalog ids `{name}_{i}{conv}` as one family(i, conv, m, n)."""
    return lambda i, conv, m, n: resolve_class(f"{name}_{i}{conv}").evaluate(m, n)


def brute_set_partitions(elements):
    """All set partitions of a list, as lists of lists: the one set-partition
    generator of the repository."""
    if not elements:
        return [[]]
    first, rest = elements[0], elements[1:]
    out = []
    for smaller in brute_set_partitions(rest):
        for i in range(len(smaller)):
            out.append(smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :])
        out.append([[first]] + smaller)
    return out


def type_of_partition(blocks, n):
    tau = [0] * n
    for b in blocks:
        tau[len(b) - 1] += 1
    return tuple(tau)


def unordered_with_repeats(source, m):
    """sum_{i=1..m} C(m-1, i-1) source(i): distinct-edge-set counts ->
    edge-multiset counts (edge-partition-invariant properties only).  The
    package has no caller; the identity tests state it."""
    return sum(comb(m - 1, i - 1) * source(i) for i in range(1, m + 1))
