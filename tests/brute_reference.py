"""Brute-force oracle reference, independent of the package's fast path.

Every helper enumerates every ordered (m, n) matrix with `itertools.product`
and applies the row conventions as written: 1 pairwise-distinct rows, 2 every
row tuple, 3 strictly increasing row codes, 4 nondecreasing row codes.  The
counters test each matrix with the literal `satisfies` predicates and share
no code with `t0enum.oracle`, whose orbit-weighted multiset walk they pin.
`feature_counters` reads each matrix with `matrix_features`, so it shares
the feature truth table with the walk, but not the walk's columns, weights
or visiting order.  `partition_types_literal` is the plain recursive
builder that `exactmath.partition_types` is pinned to.
"""

from collections import Counter
from itertools import product

from t0enum.hypercore import IncidenceMatrix, matrix_features, satisfies


def in_convention(rows, convention):
    """Whether a row tuple is a representative under a row convention."""
    if convention == 1:
        return len(set(rows)) == len(rows)
    if convention == 2:
        return True
    ascending = tuple(sorted(rows))
    if convention == 3:
        return rows == ascending and len(set(rows)) == len(rows)
    return rows == ascending


def brute_counts(specs, m, n):
    """Literal counts at (m, n): for each spec, a list of its counts under
    row conventions 1..4 (the spec's own `row_convention` is not read)."""
    totals = [[0] * 4 for _ in specs]
    for rows in product(range(1 << n), repeat=m):
        conventions = [c for c in (1, 2, 3, 4) if in_convention(rows, c)]
        matrix = IncidenceMatrix(n=n, rows=rows)
        for spec, spec_totals in zip(specs, totals):
            if satisfies(matrix, spec):
                for c in conventions:
                    spec_totals[c - 1] += 1
    return totals


def feature_counters(m, n):
    """The oracle's three feature Counters at (m, n), from every ordered
    matrix: 'ordered' counts each row tuple, 'multisets' the nondecreasing
    ones and 'sets' the strictly increasing ones."""
    counters = {"ordered": Counter(), "multisets": Counter(), "sets": Counter()}
    for rows in product(range(1 << n), repeat=m):
        feats = matrix_features(IncidenceMatrix(n=n, rows=rows))
        counters["ordered"][feats] += 1
        if all(a <= b for a, b in zip(rows, rows[1:])):
            counters["multisets"][feats] += 1
        if all(a < b for a, b in zip(rows, rows[1:])):
            counters["sets"][feats] += 1
    return counters


def count_dual(spec, m, n):
    """Number of (m, n) matrices whose transpose satisfies the spec.

    The spec's row convention is applied to the columns (= rows of the
    transpose), so for conventions 1 and 2 this equals count(spec, n, m) via
    the transpose bijection; the equality is a test, not the implementation.
    """
    total = 0
    for rows in product(range(1 << n), repeat=m):
        cols = tuple(IncidenceMatrix(n=n, rows=rows).columns())
        if not in_convention(cols, spec.row_convention):
            continue
        if satisfies(IncidenceMatrix(n=m, rows=cols), spec):
            total += 1
    return total


def partition_types_literal(n):
    """Partition types of n, (a_1, ..., a_n) with sum(i * a_i) == n, sorted:
    every a_i from 0 up, the prefixes that do not sum to n dropped."""
    found = []

    def build(i, remaining, acc):
        if i > n:
            if remaining == 0:
                found.append(tuple(acc))
            return
        for a in range(remaining // i + 1):
            build(i + 1, remaining - i * a, acc + [a])

    build(1, n, [])
    found.sort()
    return found
