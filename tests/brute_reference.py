"""Brute-force oracle reference, independent of the package's fast path.

Both counters enumerate every ordered (m, n) matrix with `itertools.product`
and test it with the literal `satisfies` predicates, applying the row
conventions as written: 1 pairwise-distinct rows, 2 every row tuple,
3 strictly increasing row codes, 4 nondecreasing row codes.  They share no
code with `t0enum.oracle`, whose orbit-weighted multiset walk they pin.
"""

from itertools import product

from t0enum.hypercore import IncidenceMatrix, satisfies


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
