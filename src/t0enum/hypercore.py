"""Incidence matrices of labelled hypergraphs, class specs and the one
compiled truth table that decides class membership.

A hypergraph with m edges on n ordered vertices is stored as its m x n binary
incidence matrix: row i is edge i, column j is vertex j.  Rows are Python int
bitmasks with vertex j on bit j-1 (little-endian); this makes the multiset
row order and all table outputs bit-exact reproducible.

`_feature_record` computes a matrix's `MatrixFeatures`: 9 flags and the
least and greatest size on each side.  `compile_spec` turns a spec into a
mask over the flag bits and a size interval per side, once per spec.
`group_records` groups weighted records by their flag bits, and
`admitted_weight`, the one reader of a compiled spec, adds the weight of
the grouped records it admits.  The oracle reads a whole cell through it,
and `features_satisfy` one record, as a group of weight 1.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import inf
from typing import NamedTuple


class MissingParameterError(ValueError):
    """A size constraint was enabled without its integer parameter."""


# Row conventions (the second index of every table family):
#   1 ordered distinct rows, 2 ordered with repetition,
#   3 unordered distinct, 4 unordered multiset.
@dataclass(frozen=True)
class ClassSpec:
    """Declarative description of one hypergraph class.

    `row_convention` belongs to counting, not to a single matrix: `satisfies`
    ignores it.  Enabled flags are conjunctive.  `uniformity` is None,
    ("exact", k) or ("at_most", k); `vertex_degree` is None, ("exact_cover", k)
    or ("at_most_cover", k).
    """

    row_convention: int = 2
    forbid_empty_edges: bool = False
    forbid_full_edges: bool = False
    require_cover: bool = False
    forbid_intersecting: bool = False
    forbid_singular: bool = False
    require_connected: bool = False
    require_minimal_cover: bool = False
    require_t0: bool = False
    require_covered_t0: bool = False
    uniformity: tuple = None
    vertex_degree: tuple = None

    def __post_init__(self):
        if self.row_convention not in (1, 2, 3, 4):
            raise ValueError(f"row convention must be 1..4, got {self.row_convention}")
        for name in ("uniformity", "vertex_degree"):
            value = getattr(self, name)
            if value is None:
                continue
            kind, k = value
            valid = ("exact", "at_most") if name == "uniformity" else ("exact_cover", "at_most_cover")
            if kind not in valid:
                raise ValueError(f"bad {name} kind {kind!r}")
            if k is None:
                raise MissingParameterError(f"{name} constraint enabled without k")
        # Implied flags: no singular vertices means cover + no common vertex;
        # a minimal cover is a cover; exact k-uniformity with k >= 1 rules out
        # empty edges.
        if self.forbid_singular:
            object.__setattr__(self, "require_cover", True)
            object.__setattr__(self, "forbid_intersecting", True)
        if self.require_minimal_cover:
            object.__setattr__(self, "require_cover", True)
        if self.uniformity and self.uniformity[0] == "exact" and self.uniformity[1] >= 1:
            object.__setattr__(self, "forbid_empty_edges", True)


class MatrixFeatures(NamedTuple):
    """Per-matrix facts sufficient to evaluate any ClassSpec: the 9 flags,
    then the least and greatest size on each side.

    The oracle counts matrices per distinct record, so it can evaluate many
    specs without re-scanning bit grids.  `_feature_record` returns the
    fields as a plain tuple in this order:

    * rows_distinct: no two edges are equal;
    * empty_edge, full_edge: some edge has no vertex, or every vertex;
    * cover: no isolated vertex, so an edgeless matrix is not a cover;
    * common_vertex: some vertex lies in every edge, which holds vacuously
      for m = 0 (the intersecting property);
    * t0: every two vertices are separated by some edge;
    * connected: every two vertices are joined by a chain of pairwise
      intersecting edges.  Empty edges merge nothing, an isolated vertex
      with n >= 2 breaks it, n = 1 is connected whatever the edges, and
      n = 0 is not connected;
    * minimal: a cover that deleting any one edge uncovers;
    * covered_t0: t0 among the covered vertices, whose columns are distinct;
    * row_min, row_max, col_min, col_max: the least and greatest edge size
      and vertex degree.  A side with no member (m = 0 or n = 0) has the
      empty min +inf and max -inf, so every size bound on it holds.

    Flag i is bit i of the record's flag pattern (`group_records`).
    """

    rows_distinct: bool
    empty_edge: bool
    full_edge: bool
    cover: bool
    common_vertex: bool
    t0: bool
    connected: bool
    minimal: bool
    covered_t0: bool
    row_min: int
    row_max: int
    col_min: int
    col_max: int


# Bits of a record's flag pattern, in `MatrixFeatures` field order.
ROWS_DISTINCT, EMPTY_EDGE, FULL_EDGE, COVER, COMMON_VERTEX, T0, CONNECTED, MINIMAL, COVERED_T0 = (1 << i for i in range(9))


def matrix_features(rows, n):
    """Features of the matrix with these rows on n vertices.  Every field is
    invariant under reordering the rows."""
    cols = [sum(1 << i for i, r in enumerate(rows) if r >> j & 1) for j in range(n)]
    return MatrixFeatures(*_feature_record(rows, n, cols))


def _feature_record(rows, n, cols):
    """The `MatrixFeatures` fields of the matrix with these rows on n
    vertices, as a plain tuple in field order; `cols` are its columns,
    vertex j as an int with edge i on bit i-1.  Every column predicate is
    read off one set of the columns: t0 is distinct columns, covered_t0
    distinct nonzero columns, and minimal is a cover where every edge i has
    a private vertex, the column of edge i alone.  The oracle walk calls
    this directly, with columns it extends one row at a time."""
    m = len(rows)
    col_set = set(cols)
    cover = 0 not in col_set
    row_sizes = list(map(int.bit_count, rows))
    col_sizes = list(map(int.bit_count, cols))
    return (
        len(set(rows)) == m,  # rows_distinct
        0 in rows,  # empty_edge
        (1 << n) - 1 in rows,  # full_edge
        cover,
        # for m = 0 every column is 0, the full column: vacuously common
        (1 << m) - 1 in col_set,  # common_vertex
        len(col_set) == n,  # t0
        _connected(rows, n, cover),  # connected
        cover and all((1 << i) in col_set for i in range(m)),  # minimal
        len(col_set) - (0 in col_set) == n - cols.count(0),  # covered_t0
        min(row_sizes, default=inf),
        max(row_sizes, default=-inf),
        min(col_sizes, default=inf),
        max(col_sizes, default=-inf),
    )


def _connected(rows, n, cover):
    """Connectivity of the edges `rows` on n vertices, given whether they
    cover every vertex.

    Components are kept as vertex bitmasks; each edge merges the components
    it meets.  A cover is connected iff one component remains."""
    if n == 1:
        return True
    if not cover:
        return False
    components = []
    for r in rows:
        if not r:
            continue
        merged = r
        rest = []
        for c in components:
            if c & r:
                merged |= c
            else:
                rest.append(c)
        rest.append(merged)
        components = rest
    return len(components) == 1


# (ClassSpec flag, feature bit, the value it requires); forbid_singular is
# read through the cover and no-common-vertex flags it implies.
_SPEC_FLAGS = (
    ("require_t0", T0, True),
    ("forbid_empty_edges", EMPTY_EDGE, False),
    ("forbid_full_edges", FULL_EDGE, False),
    ("require_cover", COVER, True),
    ("forbid_intersecting", COMMON_VERTEX, False),
    ("require_minimal_cover", MINIMAL, True),
    ("require_connected", CONNECTED, True),
    ("require_covered_t0", COVERED_T0, True),
)


@cache
def compile_spec(spec):
    """The one truth table of a spec, as `(mask, want, bounds)`.

    A record meets the spec iff its flag pattern agrees with `want` on the
    bits of `mask`, and, when `bounds = (row_lo, row_hi, col_lo, col_hi)`
    is not None, every edge size lies in [row_lo, row_hi] and every vertex
    degree in [col_lo, col_hi]: row_lo <= row_min, row_max <= row_hi, and
    the same for the columns.  Exact k-uniformity is [k, k], at most k is
    [0, k]; a cover kind puts every vertex in some edge, so an exact k-cover
    is [max(k, 1), k] and an at-most k-cover [1, k]; a side with no bound is
    [0, inf].  The row convention is not read: counting adds the
    rows_distinct bit for conventions 1 and 3."""
    mask = want = 0
    for name, bit, required in _SPEC_FLAGS:
        if getattr(spec, name):
            mask |= bit
            if required:
                want |= bit
    if spec.uniformity is None and spec.vertex_degree is None:
        return mask, want, None
    bounds = ()
    for constraint in (spec.uniformity, spec.vertex_degree):
        kind, k = constraint or ("at_most", inf)
        floor = 1 if kind.endswith("_cover") else 0
        bounds += (max(k, floor) if kind.startswith("exact") else floor, k)
    return mask, want, bounds


def group_records(records):
    """Weighted feature records `{record: weight}` grouped by their flag
    pattern, bit i set iff flag i holds: `{pattern: (total weight, Counter
    of (row_min, row_max, col_min, col_max))}`."""
    groups = {}
    for record, weight in records.items():
        bits = sum(1 << i for i, flag in enumerate(record[:9]) if flag)
        groups.setdefault(bits, Counter())[record[9:]] += weight
    return {bits: (sum(sizes.values()), sizes) for bits, sizes in groups.items()}


def admitted_weight(compiled, groups):
    """The weight of the grouped records (`group_records`) that meet a
    compiled spec `(mask, want, bounds)`.  Without size bounds it adds the
    totals of the groups whose flag pattern the spec admits; with bounds it
    scans the sizes of those groups only."""
    mask, want, bounds = compiled
    if bounds is None:
        return sum(total for bits, (total, _) in groups.items() if bits & mask == want)
    row_lo, row_hi, col_lo, col_hi = bounds
    return sum(
        weight
        for bits, (_, sizes) in groups.items()
        if bits & mask == want
        for (row_min, row_max, col_min, col_max), weight in sizes.items()
        if row_lo <= row_min and row_max <= row_hi and col_lo <= col_min and col_max <= col_hi
    )


def features_satisfy(features, spec):
    """True iff a matrix with these features meets every enabled constraint
    of the spec (its row convention is not read): the record as a group of
    weight 1, read by `admitted_weight`, the reader the oracle counts with."""
    return admitted_weight(compile_spec(spec), group_records({features: 1})) == 1


def satisfies(rows, n, spec):
    """True iff the matrix with these rows on n vertices meets every enabled
    constraint of the spec."""
    return features_satisfy(matrix_features(rows, n), spec)
