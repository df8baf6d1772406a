"""Brute-force references, independent of the package's fast paths.

The class properties are written here from their definitions, over row
bitmasks (vertex j on bit j), and share no code with `t0enum.hypercore`:
T0 checks every pair of vertices for a separating edge, connectivity is
reachability from vertex 0, and a minimal cover stops being a cover when any
one edge is deleted.  `literal_features` assembles them into the package's
`MatrixFeatures` record type, each side's sizes as their least and greatest,
and `satisfies` tests a spec against them directly.  `random_spec` draws the
specs that pin the package's compiled truth table to `satisfies`.

Every counter enumerates every ordered (m, n) matrix with `itertools.product`
and applies the row conventions as written: 1 pairwise-distinct rows, 2 every
row tuple, 3 strictly increasing row codes, 4 nondecreasing row codes.  They
share no code with `t0enum.oracle`, whose orbit-weighted multiset walk they
pin.  `partition_sum` is inclusion-exclusion over every set partition, and
`partition_types_literal` is the plain recursive builder that
`exactmath.partition_types` is pinned to.
"""

from collections import Counter
from itertools import combinations, product
from math import factorial, inf

from conftest import brute_set_partitions

from t0enum.hypercore import ClassSpec, MatrixFeatures


def vertex_set(n):
    return (1 << n) - 1


def union(rows):
    """The vertices lying in some edge."""
    out = 0
    for r in rows:
        out |= r
    return out


def intersection(rows, n):
    """The vertices lying in every edge: all of them when there is no edge."""
    out = vertex_set(n)
    for r in rows:
        out &= r
    return out


def degree(rows, v):
    return sum((r >> v) & 1 for r in rows)


def is_cover(rows, n):
    """Every vertex lies in some edge."""
    return union(rows) == vertex_set(n)


def has_common_vertex(rows, n):
    """Some vertex lies in every edge (vacuously, when there is no edge)."""
    return intersection(rows, n) != 0


def has_singular_vertex(rows, n):
    """Some vertex lies in every edge or in none."""
    return (intersection(rows, n) | (vertex_set(n) & ~union(rows))) != 0


def is_t0(rows, n):
    """Every two vertices are separated by an edge holding exactly one."""
    return all(
        any(((r >> u) ^ (r >> v)) & 1 for r in rows) for u, v in combinations(range(n), 2)
    )


def is_connected(rows, n):
    """Every vertex is reachable from vertex 0, stepping from a vertex to
    every vertex of an edge that holds it."""
    reached = 1
    grown = True
    while grown:
        grown = False
        for r in rows:
            if r & reached and r & ~reached:
                reached |= r
                grown = True
    return reached == vertex_set(n)


def is_minimal_cover(rows, n):
    """A cover that stops being one when any single edge is deleted."""
    return is_cover(rows, n) and all(
        not is_cover(rows[:i] + rows[i + 1 :], n) for i in range(len(rows))
    )


def literal_features(rows, n):
    """The `MatrixFeatures` of the matrix with these rows on n vertices,
    each field read off its definition."""
    return MatrixFeatures(
        rows_distinct=len(set(rows)) == len(rows),
        empty_edge=0 in rows,
        full_edge=vertex_set(n) in rows,
        cover=is_cover(rows, n),
        common_vertex=has_common_vertex(rows, n),
        t0=is_t0(rows, n),
        connected=is_connected(rows, n),
        minimal=is_minimal_cover(rows, n),
        # the empty min is +inf and the empty max -inf
        row_min=min((r.bit_count() for r in rows), default=inf),
        row_max=max((r.bit_count() for r in rows), default=-inf),
        col_min=min((degree(rows, v) for v in range(n)), default=inf),
        col_max=max((degree(rows, v) for v in range(n)), default=-inf),
    )


def satisfies(rows, n, spec):
    """Whether the matrix meets every enabled constraint of the spec (its row
    convention is not read), each property tested from its definition."""
    if spec.require_t0 and not is_t0(rows, n):
        return False
    if spec.forbid_empty_edges and 0 in rows:
        return False
    if spec.forbid_full_edges and vertex_set(n) in rows:
        return False
    if spec.forbid_singular and has_singular_vertex(rows, n):
        return False
    if spec.require_cover and not is_cover(rows, n):
        return False
    if spec.forbid_intersecting and has_common_vertex(rows, n):
        return False
    if spec.require_minimal_cover and not is_minimal_cover(rows, n):
        return False
    if spec.require_connected and not is_connected(rows, n):
        return False
    if spec.uniformity is not None:
        kind, k = spec.uniformity
        for r in rows:
            size = r.bit_count()
            if size > k or (kind == "exact" and size != k):
                return False
    if spec.vertex_degree is not None:
        kind, k = spec.vertex_degree
        for v in range(n):
            d = degree(rows, v)
            if not 1 <= d <= k or (kind == "exact_cover" and d != k):
                return False
    return True


def random_spec(rng):
    """A spec with random flags, size bounds k in 0..3 and row convention."""
    uniformity = rng.choice([None, ("exact", rng.randint(0, 3)), ("at_most", rng.randint(0, 3))])
    vertex_degree = rng.choice(
        [None, ("exact_cover", rng.randint(0, 3)), ("at_most_cover", rng.randint(0, 3))]
    )
    return ClassSpec(
        row_convention=rng.randint(1, 4),
        forbid_empty_edges=rng.random() < 0.4,
        forbid_full_edges=rng.random() < 0.4,
        require_cover=rng.random() < 0.4,
        forbid_intersecting=rng.random() < 0.3,
        forbid_singular=rng.random() < 0.2,
        require_connected=rng.random() < 0.3,
        require_minimal_cover=rng.random() < 0.2,
        require_t0=rng.random() < 0.5,
        uniformity=uniformity,
        vertex_degree=vertex_degree,
    )


def transpose(rows, n):
    """Rows of the dual hypergraph: vertex v becomes the edge holding edge i
    of the original on bit i exactly when v lies in edge i."""
    return tuple(
        sum(((r >> v) & 1) << i for i, r in enumerate(rows)) for v in range(n)
    )


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
        for spec, spec_totals in zip(specs, totals):
            if satisfies(rows, n, spec):
                for c in conventions:
                    spec_totals[c - 1] += 1
    return totals


def feature_counters(m, n):
    """The oracle's feature Counters at (m, n), from every ordered matrix:
    'ordered' counts each row tuple, 'multisets' the nondecreasing ones and
    'sets' the strictly increasing ones."""
    counters = {"ordered": Counter(), "multisets": Counter(), "sets": Counter()}
    for rows in product(range(1 << n), repeat=m):
        feats = literal_features(rows, n)
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
        cols = transpose(rows, n)
        if in_convention(cols, spec.row_convention) and satisfies(cols, m, spec):
            total += 1
    return total


def partition_sum(alpha_pi, n):
    """Inclusion-exclusion over all set partitions of an n-set.

    alpha_pi(blocks) must return the number of class members in which the
    vertices of every block are mutually unseparated; a partition weighs
    the product over its blocks b of (-1)^(|b|-1) (|b|-1)!.
    """
    total = 0
    for blocks in brute_set_partitions(list(range(n))):
        weight = 1
        for b in blocks:
            weight *= (-1) ** (len(b) - 1) * factorial(len(b) - 1)
        total += weight * alpha_pi(blocks)
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
