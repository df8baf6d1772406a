import random
from itertools import product

import pytest

import brute_reference as literal
from t0enum.hypercore import (
    ClassSpec,
    MissingParameterError,
    features_satisfy,
    matrix_features,
    satisfies,
)


def all_matrices(m, n):
    """Every m x n matrix as its row tuple."""
    return product(range(1 << n), repeat=m)


def assert_satisfies(rows, n, spec, expected):
    # the package and the literal definitions must both give `expected`
    assert satisfies(rows, n, spec) is expected
    assert literal.satisfies(rows, n, spec) is expected


def assert_feature(rows, n, name, expected):
    assert getattr(matrix_features(rows, n), name) is expected
    assert getattr(literal.literal_features(rows, n), name) is expected


def test_satisfies_examples():
    assert_satisfies((3,), 2, ClassSpec(require_t0=True), False)
    spec = ClassSpec(require_t0=True, require_cover=True, require_connected=True)
    assert_satisfies((1, 2, 3), 2, spec, True)
    assert_satisfies((2, 1), 2, ClassSpec(require_connected=True), False)


def test_connectivity_single_vertex_convention():
    # n = 1 is connected regardless of edges, including the all-empty matrix
    assert_feature((0, 0), 1, "connected", True)
    assert_feature((), 1, "connected", True)
    assert_feature((), 2, "connected", False)


def test_empty_edge_never_contributes_to_connectivity():
    # {v1 v2}, {} , {v2 v3}: connected through the nonempty edges
    assert_feature((3, 0, 6), 3, "connected", True)
    # two components bridged by nothing: the empty edge does not help
    assert_feature((3, 0, 4), 3, "connected", False)


def test_edgeless_matrix_conventions():
    assert_feature((), 2, "common_vertex", True)  # vacuous intersection convention
    assert_feature((), 2, "cover", False)
    assert_feature((), 2, "empty_edge", False)
    assert_feature((), 2, "full_edge", False)


def test_minimal_cover_and_uniformity():
    # rows {v1}, {v2 v3}: deleting either breaks the cover
    assert_satisfies((1, 6), 3, ClassSpec(require_minimal_cover=True), True)
    # adding {v3}: {v2 v3} is still needed for v2, but {v3} can be deleted
    assert_satisfies((1, 6, 4), 3, ClassSpec(require_minimal_cover=True), False)
    assert_satisfies((1, 6), 3, ClassSpec(uniformity=("at_most", 2)), True)
    assert_satisfies((1, 6), 3, ClassSpec(uniformity=("exact", 2)), False)
    assert_satisfies((3, 6), 3, ClassSpec(uniformity=("exact", 2)), True)
    assert_satisfies((1, 2, 3), 2, ClassSpec(vertex_degree=("at_most_cover", 2)), True)
    assert_satisfies((1, 2), 2, ClassSpec(vertex_degree=("exact_cover", 1)), True)


def test_spec_invariants_normalization():
    spec = ClassSpec(forbid_singular=True)
    assert spec.require_cover and spec.forbid_intersecting
    spec = ClassSpec(require_minimal_cover=True)
    assert spec.require_cover
    spec = ClassSpec(uniformity=("exact", 2))
    assert spec.forbid_empty_edges
    with pytest.raises(MissingParameterError):
        ClassSpec(uniformity=("exact", None))
    with pytest.raises(ValueError):
        ClassSpec(row_convention=5)


def test_predicate_duality_exhaustive():
    # empty edge <-> isolated vertex; intersecting <-> full edge; T0 <->
    # distinct rows; bounded-degree cover <-> bounded-size without empty edges
    spec_pairs = [
        (
            ClassSpec(vertex_degree=("at_most_cover", k)),
            ClassSpec(uniformity=("at_most", k), forbid_empty_edges=True),
        )
        for k in (1, 2)
    ]
    for m in range(1, 5):
        for n in range(1, 5):
            for rows in all_matrices(m, n):
                f, d = matrix_features(rows, n), matrix_features(literal.transpose(rows, n), m)
                assert f.empty_edge == (not d.cover)
                assert f.common_vertex == d.full_edge
                assert f.t0 == d.rows_distinct
                assert (f.row_min, f.row_max, f.col_min, f.col_max) == (d.col_min, d.col_max, d.row_min, d.row_max)
                for degree_spec, size_spec in spec_pairs:
                    assert features_satisfy(f, degree_spec) == features_satisfy(d, size_spec)


def test_t0_has_at_most_one_zero_column():
    for m in range(1, 4):
        for n in range(1, 4):
            for rows in all_matrices(m, n):
                if matrix_features(rows, n).t0:
                    assert literal.transpose(rows, n).count(0) <= 1


def test_connected_implies_cover_and_intersecting_cover_is_connected():
    for m in range(1, 4):
        for n in range(2, 4):
            for rows in all_matrices(m, n):
                f = matrix_features(rows, n)
                if f.connected:
                    assert f.cover
                if f.cover and f.common_vertex:
                    assert f.connected


def test_features_agree_with_satisfies():
    # the package's one truth table against the literal definitions: every
    # feature field, and every spec read through it
    rng = random.Random(2024)
    specs = [literal.random_spec(rng) for _ in range(40)]
    for m in range(1, 4):
        for n in range(1, 4):
            for rows in all_matrices(m, n):
                feats = matrix_features(rows, n)
                assert feats == literal.literal_features(rows, n), rows
                for spec in specs:
                    expected = literal.satisfies(rows, n, spec)
                    assert features_satisfy(feats, spec) == expected, (rows, spec)
                    assert satisfies(rows, n, spec) == expected


def test_degree_bounds_are_vacuous_with_no_vertex():
    # at n = 0 every row is the empty edge and there is no degree to bound
    for m in range(4):
        rows = (0,) * m
        feats = matrix_features(rows, 0)
        assert feats == literal.literal_features(rows, 0)
        for kind in ("exact_cover", "at_most_cover"):
            for k in range(4):
                spec = ClassSpec(vertex_degree=(kind, k))
                assert literal.satisfies(rows, 0, spec) is True
                assert features_satisfy(feats, spec) is True, (m, spec)
