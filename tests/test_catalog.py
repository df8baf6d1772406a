import inspect
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from functools import partial
from itertools import combinations
from math import comb, factorial, perm

import pytest
from brute_reference import brute_counts
from conftest import EMPTY_CELLS, registered

from t0enum import catalog
from t0enum.catalog import families as F
from t0enum.catalog import (
    OracleOnlyClassError,
    UnknownClassError,
    manifest,
    resolve_class,
)
from t0enum.hypercore import ClassSpec
from t0enum.oracle import count, verify_grid
from t0enum.transforms import t0_transform, vertex_sieve


def test_alpha_examples():
    assert F.alpha(1, 1, 2, 2) == 6  # [3]_2
    assert F.alpha(0, 2, 2, 2) == 16  # 2^(mn)
    assert F.alpha(3, 2, 2, 2) == 4
    assert F.alpha(3, 2, 2, 2) == count(ClassSpec(row_convention=2, forbid_empty_edges=True, forbid_full_edges=True), 2, 2)


def test_alpha_star_examples():
    assert F.alpha_star(0, 2, 2, 2) == 12
    assert F.alpha_star(0, 1, 2, 2) == 10
    assert F.alpha_star(0, 1, 2, 2) == count(ClassSpec(row_convention=1, require_t0=True), 2, 2)
    for j in range(4):
        for conv in range(1, 5):
            assert F.alpha_star(j, conv, 3, 1) == F.alpha(j, conv, 3, 1)


def test_bar_alpha_one_edge_values():
    bar_alpha = registered("bar_alpha")
    for n in range(1, 6):
        assert bar_alpha(0, 1, 1, n) == 1
        assert bar_alpha(1, 1, 1, n) == 0
        assert bar_alpha(2, 1, 1, n) == 1
        assert bar_alpha(3, 1, 1, n) == 0
    frozen = count(ClassSpec(row_convention=1, forbid_intersecting=True), 2, 2)
    assert bar_alpha(0, 1, 2, 2) == frozen == 8


def test_bar_alpha_is_the_common_vertex_sieve():
    # the registry binds the no-common-vertex ids to the complemented cover
    # columns; the reference is the sieve over the set of vertices common to
    # every edge: pinning j >= 1 of them voids no-empty and keeps no-full
    bar_alpha, bar_alpha_star = registered("bar_alpha"), registered("bar_alpha_star")

    def sieve(i, conv, m, n):
        return vertex_sieve(lambda j: F.alpha(i if j == 0 else 2 * (i // 2), conv, m, n - j), n)

    for i in range(4):
        for conv in range(1, 5):
            for m in range(9):
                for n in range(13):
                    assert bar_alpha(i, conv, m, n) == sieve(i, conv, m, n), (i, conv, m, n)
                    plain = t0_transform(lambda t: sieve(i, conv, m, t), n)
                    assert bar_alpha_star(i, conv, m, n) == plain, (i, conv, m, n)


def test_beta_examples():
    assert F.beta(0, 2, 2, 2) == 9  # (2^m - 1)^n holds in convention 2
    for n in range(1, 5):
        for i in range(4, 8):
            assert F.beta(i, 1, 1, n) == 0
    assert F.beta(0, 1, 2, 2) == count(ClassSpec(row_convention=1, require_cover=True), 2, 2)


def test_beta_star_examples():
    assert F.beta_star(0, 2, 2, 2) == 6  # [2^m - 1]_n
    assert F.beta_star(1, 1, 1, 1) == 1  # only the edge {v}
    # each of the two distinct-column cover columns is symmetric in (m, n)
    for m in range(1, 5):
        for n in range(1, 5):
            assert F.beta_star(1, 1, m, n) == F.beta_star(1, 1, n, m)
            assert F.beta_star(2, 1, m, n) == F.beta_star(2, 1, n, m)
    # the naive cross-table equality fails; (3, 4) is the first witness
    assert F.beta_star(1, 1, 3, 4) == 840
    assert F.beta_star(2, 1, 4, 3) == 768


def test_beta_41_is_the_singular_column_closed_form():
    # the reference of the registered beta_41_closed, written out: choose
    # the i singular columns (all zero or all one), distinct rows on the
    # rest.  With no edge a column is all zero and all one at once, which
    # the 2^i counts twice; there only the empty vertex set has none.
    for m in range(11):
        for n in range(13):
            closed = sum((-1) ** i * comb(n, i) * 2**i * perm(2 ** (n - i), m) for i in range(n + 1))
            closed = closed if m else int(n == 0)
            assert F.beta(4, 1, m, n) == closed, (m, n)
            assert resolve_class("beta_41_closed").evaluate(m, n) == closed, (m, n)


def test_beta_is_one_flat_sieve(monkeypatch):
    # one term per pinned-vertex count, each reading alpha at most three
    # times; a sieve nested in the pinned terms makes about n^2 / 2 calls
    alpha, calls = F.alpha, []

    def counting_alpha(*args):
        calls.append(args)
        return alpha(*args)

    monkeypatch.setattr(F, "alpha", counting_alpha)
    for i in range(8):
        for conv in range(1, 5):
            for m, n in ((0, 3), (2, 0), (2, 1), (3, 5), (2, 12)):
                calls.clear()
                F.beta(i, conv, m, n)
                assert calls and len(calls) <= 3 * n + 1, (i, conv, m, n, len(calls))


def test_beta_star_filters_alpha_in_linearly_many_calls(monkeypatch):
    # the cover shifts and the excess read each of at most four alpha
    # columns once per vertex count: at most 4n + 4 calls; filtering a
    # sieve that is re-read at every t <= n makes about n^2 / 2
    alpha, calls = F.alpha, []

    def counting_alpha(*args):
        calls.append(args)
        return alpha(*args)

    monkeypatch.setattr(F, "alpha", counting_alpha)
    for i in range(8):
        for conv in range(1, 5):
            for m, n in ((0, 3), (2, 0), (2, 1), (3, 5), (2, 12), (1, 30)):
                calls.clear()
                F.beta_star(i, conv, m, n)
                assert calls and len(calls) <= 4 * n + 4, (i, conv, m, n, len(calls))


def test_dual_cross_table_identity():
    # transposing swaps no-empty-edges with cover and no-full with no-common
    bar_alpha_star = registered("bar_alpha_star")
    for m in range(1, 5):
        for n in range(1, 5):
            assert bar_alpha_star(1, 1, m, n) == F.beta_star(2, 1, n, m)
            assert bar_alpha_star(2, 1, m, n) == bar_alpha_star(2, 1, n, m)
            assert bar_alpha_star(1, 1, m, n) == bar_alpha_star(1, 1, n, m)


def test_mu_examples():
    assert F.mu_star_01(2, 3) == 6
    assert F.mu_01(2, 3) == 12
    assert F.mu_01(2, 3) == count(ClassSpec(row_convention=1, require_minimal_cover=True), 2, 3)
    for n in range(1, 6):
        assert F.mu_41(1, n) == 0
    assert F.mu_01(3, 2) == 0


def test_theta_examples():
    assert F.theta(0, 2, 3, 2, bounded=False) == 6
    assert F.theta(1, 2, 3, 2, bounded=False) == 6
    spec = ClassSpec(row_convention=1, uniformity=("exact", 2), require_cover=True)
    assert F.theta(1, 2, 3, 2, bounded=False) == count(spec, 2, 3)
    assert F.theta(0, 2, 2, 2, bounded=True) == 6  # [C(2,1) + C(2,2)]_2


def test_theta_star_examples():
    spec = ClassSpec(row_convention=2, uniformity=("exact", 2), require_t0=True)
    assert F.theta_star_0(2, 2, 2, 2, bounded=False) == count(spec, 2, 2)
    # k = n collapse: single admissible block union
    for s in range(1, 5):
        from t0enum.exactmath import selections

        assert F.theta_star_0(s, 2, 1, 1, bounded=False) == selections(s, 1, 2)
        spec_kn = ClassSpec(row_convention=s, uniformity=("exact", 2), require_t0=True)
        assert F.theta_star_0(s, 2, 2, 2, bounded=False) == count(spec_kn, 2, 2)


def test_theta_star_column_splits_past_the_oracle_grid():
    # distinct columns leave at most one zero and at most one all-one
    # column; removing it, in n ways, is the split each sieve unrolls.  The
    # no-common-vertex split also drops the edge size by one.
    for s in range(1, 5):
        for n in range(1, 15):
            for k in range(5):
                for m in range(5):
                    for bounded in (False, True):
                        cover = partial(F.theta_star_1, s, m, k=k, bounded=bounded)
                        assert F.theta_star_0(s, m, n, k, bounded=bounded) == cover(n) + n * cover(n - 1)
                    if m == 0:
                        continue
                    plain = F.theta_star_0(s, m, n, k, bounded=False)
                    assert plain == F.theta_star_3(s, m, n, k) + n * F.theta_star_3(s, m, n - 1, k - 1)
                    assert F.theta_star_3(s, m, n, k) == F.theta_star_4(s, m, n, k) + n * F.theta_star_4(s, m, n - 1, k)


def test_two_cover_examples():
    assert F.bar_theta_circ_03(1, 2) == 0
    assert F.bar_theta_circ_03(3, 3) == 1  # the triangle
    assert F.bar_beta_star_13(3, 3) == resolve_class("bar_beta_star_13").oracle_count(3, 3)


@pytest.mark.parametrize(
    "class_id", ["bar_theta_circ_03", "bbar_theta_circ_03", "bar_theta_circ_13", "bbar_theta_circ_13"]
)
def test_two_cover_against_graph_enumeration(class_id):
    # n = 5 lies beyond the verify --all grid, so the loops route is checked
    # here directly: a `_13` class against the spec oracle of its
    # distinct-column covers, a `_03` class against their sum over the sets
    # of covered vertices
    entry = resolve_class(class_id)
    for m in range(1, 6):
        for n in range(1, 6):
            assert entry.evaluate(m, n) == entry.oracle_count(m, n)


def test_omega_examples():
    for n in range(1, 7):
        assert F.omega(1, 2, 1, n) == 1
        assert F.omega(1, 2, 2, n) == 3**n - 2**n
        assert F.omega(1, 2, 3, n) == 7**n - 3 * 4**n + 2 * 3**n
        assert F.omega(1, 2, 4, n) == 15**n - 4 * 8**n - 3 * 6**n + 12 * 5**n - 6 * 4**n
    assert F.omega(1, 2, 4, 2) == 65
    assert F.omega(0, 2, 1, 1) == 2
    assert F.omega(0, 1, 1, 1) == 2 and F.omega(0, 3, 1, 1) == 2 and F.omega(0, 4, 1, 1) == 2


def test_omega_star_examples():
    spec = ClassSpec(row_convention=2, forbid_empty_edges=True, require_connected=True, require_t0=True)
    assert F.omega_star(1, 2, 2, 2) == count(spec, 2, 2) == 4
    for i in range(8):
        for conv in range(1, 5):
            assert F.omega_star(i, conv, 3, 1) == F.omega(i, conv, 3, 1)
    # only the plain connected table is symmetric; its starred version is not
    assert F.omega_star(1, 2, 2, 3) != F.omega_star(1, 2, 3, 2)


def test_omega_star_no_common_vertex_columns_by_linearity():
    # omega_star columns 4..7 split off their one all-ones column into
    # beta_star; the reference filters the plain connected columns instead: an odd column
    # (no empty edge) as it stands, [n = 1] with no edge, and an even one as
    # the odd one plus e >= 1 empty rows, which leave no common vertex, over
    # column i - 3 on the other rows
    for i in range(4, 8):
        for conv in range(1, 5):
            for m in range(1, 9):
                for n in range(1, 12):

                    def filtered(j, r):
                        return t0_transform(lambda t: F.omega(j, conv, r, t), n) if r else int(n == 1)

                    expected = filtered(i | 1, m)
                    if i % 2 == 0:
                        expected += F._row_copies(conv, m, lambda r: filtered(i - 3, r))
                    assert F.omega_star(i, conv, m, n) == expected, (i, conv, m, n)


def test_omega_12_symmetry():
    for m in range(1, 7):
        for n in range(1, 7):
            assert F.omega(1, 2, m, n) == F.omega(1, 2, n, m)


def test_omega_uniform_star_examples():
    for m in range(1, 5):
        assert F.bar_omega_star_0(2, m, 1, 1, bounded=False) == 1
    # the one-full-edge column: distinct columns force k = 1
    assert F.bar_omega_star_0(2, 1, 1, 1, bounded=False) == 1
    for k in (2, 3):
        spec = ClassSpec(row_convention=2, uniformity=("exact", k), require_connected=True, require_t0=True)
        assert F.bar_omega_star_0(2, 1, k, k, bounded=False) == count(spec, 1, k) == 0
    spec = ClassSpec(row_convention=2, uniformity=("exact", 2), require_connected=True, require_t0=True)
    assert F.bar_omega_star_0(2, 2, 3, 2, bounded=False) == count(spec, 2, 3)


def test_resolve_class():
    entry = resolve_class("alpha_02")
    assert entry.evaluate(2, 2) == 16
    assert entry.class_spec() == ClassSpec(row_convention=2)
    omega_entry = resolve_class("omega_12")
    assert omega_entry.evaluate(2, 2) == 5
    with pytest.raises(OracleOnlyClassError):
        resolve_class("theta_21").evaluate(2, 2, k=2)
    assert resolve_class("theta_21").oracle_count(2, 3, k=2) >= 0
    with pytest.raises(UnknownClassError):
        resolve_class("no_such_class")


def test_sandwich_inequalities():
    # connected <= cover <= plain, and distinct-column <= plain, cellwise
    for conv in range(1, 5):
        for m in range(1, 5):
            for n in range(1, 5):
                assert F.omega(1, conv, m, n) <= F.beta(1, conv, m, n) <= F.alpha(1, conv, m, n)
                assert F.alpha_star(1, conv, m, n) <= F.alpha(1, conv, m, n)
                assert F.beta_star(0, conv, m, n) <= F.beta(0, conv, m, n)
                assert F.omega_star(1, conv, m, n) <= F.omega(1, conv, m, n)


def test_minimal_cover_saturation():
    # degree bounds at or above n do not constrain minimal covers, and nor
    # do size bounds: the size-bounded private-vertex sieve meets the
    # unbounded closed forms far past the oracle's grid
    entry = resolve_class("mu_bar_01")
    for m in range(1, 4):
        for n in range(1, 4):
            for k in range(n, n + 2):
                assert entry.oracle_count(m, n, k=k) == F.mu_01(m, n)
    for m in range(1, 7):
        for n in range(13):
            for k in (n, n + 1):
                assert F.theta(2, m, n, k, bounded=True) == F.mu_01(m, n), (m, n, k)
                assert F.theta(5, m, n, k, bounded=True) == F.mu_41(m, n), (m, n, k)


def test_minimal_cover_columns_against_brute_force():
    # theta columns 2 and 5, both size flags, against the literal counts of
    # the registered specs, on every cell of at most 2^12 matrices
    columns = [
        (cid, column, bounded, k)
        for cid, column, bounded in (
            ("theta_21", 2, False), ("theta_51", 5, False),
            ("bar_theta_21", 2, True), ("bar_theta_51", 5, True),
        )
        for k in range(5)
    ]
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            specs = [resolve_class(cid).class_spec(k) for cid, _, _, k in columns]
            for (cid, column, bounded, k), counts in zip(columns, brute_counts(specs, m, n)):
                assert F.theta(column, m, n, k, bounded=bounded) == counts[0], (cid, m, n, k)


def test_containment_inequalities():
    # class containments restated as cellwise count inequalities (m >= 2)
    for m in range(2, 5):
        for n in range(1, 5):
            assert F.mu_41(m, n) <= F.mu_01(m, n) <= F.beta(1, 1, m, n)
            assert F.mu_01(m, n) <= F.beta(3, 1, m, n)
            assert F.beta(3, 1, m, n) <= F.beta(2, 1, m, n) <= F.beta(0, 1, m, n)
            assert F.beta(3, 1, m, n) <= F.beta(1, 1, m, n) <= F.beta(0, 1, m, n)
            assert F.beta(7, 1, m, n) <= F.beta(5, 1, m, n) <= F.beta(4, 1, m, n)
            assert F.beta(4, 1, m, n) <= F.beta(0, 1, m, n)
            assert F.beta(5, 1, m, n) <= F.beta(1, 1, m, n)


def test_registered_classes_present():
    ids = catalog.all_class_ids()
    for expected in (
        "alpha_02", "alpha_star_02", "bar_alpha_11", "beta_01", "beta_star_11",
        "mu_01", "mu_star_01", "mu_41", "theta_01", "theta_21", "bar_theta_51",
        "theta_star_01", "bar_theta_star_04", "theta_star_21", "bar_theta_circ_03",
        "bar_beta_star_13", "omega_12", "omega_star_12", "bar_omega_star_02",
        "bbar_omega_star_12", "beta_01_as_printed", "beta_41_as_printed",
        "theta_star_12_as_printed", "theta_star_32_as_printed",
    ):
        assert expected in ids
    # an errata record is classified by evaluating these, so each has a formula
    for cid in ids:
        entry = resolve_class(cid)
        for other in (entry.corrected_id, entry.convention_probe):
            assert other is None or resolve_class(other).has_formula, (cid, other)


def test_every_formula_class_evaluates():
    for cid in catalog.formula_class_ids():
        entry = resolve_class(cid)
        k = 2 if entry.needs_k else None
        value = entry.evaluate(2, 2, k=k)
        assert isinstance(value, int)


def test_manifest_matches_shipped_file():
    shipped = pathlib.Path(__file__).resolve().parents[1] / "catalog_manifest.json"
    assert shipped.exists(), (
        "regenerate with: python3 -c \"from t0enum.catalog import write_manifest;"
        " write_manifest('catalog_manifest.json')\""
    )
    assert json.loads(shipped.read_text()) == json.loads(json.dumps(manifest()))


def test_classification_statuses():
    rep = verify_grid("beta_01_as_printed", 3, 3)
    assert {r.status for r in rep.errata} == {"convention-gap"}
    rep = verify_grid("beta_41_as_printed", 3, 3)
    assert {r.status for r in rep.errata} == {"confirmed-typo"}


def test_connected_as_printed_errata_are_pinned():
    # formula values of the two literal component recurrences on the cells
    # where they leave the oracle at m, n <= 4: each keeps its weight indexed
    # by k (ordered only for k in (1, 2)), and bar_omega_star_02_as_printed
    # its zero-edge boundary of 1 on any leftover vertices
    pinned = {
        ("bar_omega_star_02_as_printed", 1): {
            (1, 3): -1, (1, 4): 2, (2, 3): -1, (2, 4): 8,
            (3, 3): -1, (3, 4): 20, (4, 3): -1, (4, 4): 44,
        },
        ("bar_omega_star_02_as_printed", 2): {},
        ("bbar_omega_star_12_as_printed", 2): {
            (1, 2): 1, (2, 2): 3, (2, 3): 18, (2, 4): 18, (3, 2): 7,
            (3, 3): 108, (3, 4): 438, (4, 2): 15, (4, 3): 546, (4, 4): 4710,
        },
        ("bbar_omega_star_12_as_printed", 3): {
            (1, 2): 1, (2, 2): 5, (2, 3): 18, (2, 4): 18, (3, 2): 19,
            (3, 3): 220, (3, 4): 1314, (4, 2): 65, (4, 3): 1942, (4, 4): 27888,
        },
    }
    for (cid, k), cells in pinned.items():
        report = verify_grid(cid, 4, 4, k=k)
        assert report.cells_checked == 16
        assert {(r.m, r.n): r.formula_value for r in report.errata} == cells


def test_connected_with_empties_spreads_empty_rows_over_the_bounded_column():
    # bbar_omega_star_12_as_printed reads the empties-allowed connected
    # column as t empty rows (C(i, t) places in convention 2) spread over the
    # bounded connected column: an empty edge touches neither connectivity
    # nor distinct columns.  The oracle referees that sum.
    for k in range(4):
        spec = ClassSpec(row_convention=2, require_connected=True, require_t0=True, uniformity=("at_most", k))
        for i in range(1, 5):
            for j in range(1, 5):
                spread = sum(
                    comb(i, t) * F.bar_omega_star_0(2, i - t, j, k, bounded=True) for t in range(i + 1)
                )
                assert spread == count(spec, i, j), (k, i, j)


def test_bounded_completion_sizes_stop_at_the_free_vertices():
    # no completion has more than the n - m free vertices; the size set once
    # held all k sizes, so a huge k built a huge set
    assert F.theta_star_21(2, 3, 10**12, bounded=True) == F.theta_star_21(2, 3, 2, bounded=True) == 6


def test_fixed_size_families_without_edges():
    # the `theta` columns no class id binds: with no edge (m = 0) only the
    # empty vertex set is a minimal cover, with or without a common vertex
    for n in range(6):
        for k in range(4):
            for bounded in (False, True):
                assert F.theta(2, 0, n, k, bounded=bounded) == (n == 0), (n, k, bounded)
            assert F.theta(5, 0, n, k, bounded=False) == (n == 0), (n, k)


_EVALUATE_IN_ORDER = """
import json, sys
from t0enum.catalog import resolve_class
values = {}
for cid, m, n, k in json.loads(sys.argv[1]):
    values[f"{cid} {m} {n} {k}"] = resolve_class(cid).evaluate(m, n, k)
print(json.dumps(values, sort_keys=True))
"""


def _evaluate_in_fresh_process(cells):
    src = pathlib.Path(catalog.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", _EVALUATE_IN_ORDER, json.dumps(cells)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_connected_rows_hold_no_order_dependent_state():
    # the connected recurrences keep rows per family, edge count, k and size
    # flag; each fresh process fills them in the opposite order
    omega_12 = [("omega_12", m, n, None) for m in range(1, 13) for n in range(1, 13)]
    bounded = [
        (cid, m, n, k)
        for k in (3, 2)
        for m in range(1, 7)
        for n in range(1, 9)
        for cid in ("bar_omega_star_01", "bbar_omega_star_11")
    ]
    forward = _evaluate_in_fresh_process(omega_12 + bounded)
    assert forward == _evaluate_in_fresh_process(omega_12[::-1] + bounded[::-1])
    assert len(forward) == len(omega_12) + len(bounded)


def test_cached_families_take_no_default_arguments():
    # functools.cache keys f(x) and f(x, flag=False) apart, so a call that
    # leaves a defaulted argument out would compute and store a value twice
    cached = [f for f in vars(F).values() if hasattr(f, "cache_info") and f.__module__ == F.__name__]
    assert len(cached) >= 5
    for f in cached:
        for p in inspect.signature(f).parameters.values():
            assert p.default is p.empty, (f.__name__, p.name)


def test_every_k_class_verifies_at_k_zero():
    # k = 0 is exact-0 uniformity: every edge is empty, and the connected
    # fixed-size classes keep only a single vertex; the as-printed classes
    # keep their literal text
    for cid in catalog.formula_class_ids():
        entry = resolve_class(cid)
        if not entry.needs_k or entry.kind == "as-printed":
            continue
        m_max = 5 if entry.convention in (3, 4) else 4
        report = verify_grid(cid, m_max, 4, k=0)
        assert report.cells_checked == m_max * 4, cid
        assert report.errata == [], cid


def _own_formula_entries():
    # entries whose value is the formula's own: not as printed and not
    # checked by a custom oracle
    for cid in catalog.formula_class_ids():
        entry = resolve_class(cid)
        if entry.kind != "as-printed" and entry.custom_oracle is None:
            yield entry


def _own_formula_entries_by_spec():
    # spec -> [(entry, k)], per k in 1..3, so a new class joins the identity
    # tests by itself
    by_spec = {}
    for entry in _own_formula_entries():
        for k in (1, 2, 3) if entry.needs_k else (None,):
            by_spec.setdefault(entry.class_spec(k), []).append((entry, k))
    return by_spec


def test_distinct_rows_ordered_is_m_factorial_times_unordered_beyond_the_grid():
    # m distinct edges have m! orders, whatever the property, so convention 1
    # is m! times convention 3 of the same spec.  Pairs are found by spec
    # equality, per k, so a new class joins by itself; m, n <= 12 reaches
    # far past the oracle's grid.
    by_spec = _own_formula_entries_by_spec()
    pairs = 0
    for spec, entries in by_spec.items():
        if spec.row_convention != 1:
            continue
        for ordered, k in entries:
            for unordered, _ in by_spec.get(replace(spec, row_convention=3), []):
                pairs += 1
                for m in range(1, 13):
                    for n in range(1, 13):
                        assert ordered.evaluate(m, n, k=k) == factorial(m) * unordered.evaluate(m, n, k=k), (
                            ordered.class_id, unordered.class_id, m, n, k
                        )
    assert pairs >= 70


def test_classes_of_one_spec_agree_beyond_the_grid():
    # two formulas registered for one spec (per k) count one class, so they
    # agree everywhere, also far past the oracle's grid
    pairs = 0
    for spec, entries in _own_formula_entries_by_spec().items():
        for (first, k), (second, other_k) in combinations(entries, 2):
            pairs += 1
            for m in range(1, 13):
                for n in range(1, 13):
                    assert first.evaluate(m, n, k=k) == second.evaluate(m, n, k=other_k), (
                        first.class_id, second.class_id, m, n, k
                    )
    assert pairs >= 3


def dual_spec(spec):
    """The spec of the transposed matrices (edges and vertices swapped), or
    None where the spec language has no dual."""
    if spec.row_convention > 2 or spec.require_minimal_cover or spec.forbid_singular:
        return None
    if any(c and c[0] in ("at_most", "at_most_cover") for c in (spec.uniformity, spec.vertex_degree)):
        return None
    # an empty edge leaves a hypergraph connected, an uncovered vertex does
    # not, and the transpose swaps the two
    if spec.require_connected and not (spec.require_cover and spec.forbid_empty_edges):
        return None
    return ClassSpec(
        # distinct rows become distinct columns, and back
        row_convention=1 if spec.require_t0 else 2,
        require_t0=spec.row_convention == 1,
        forbid_empty_edges=spec.require_cover,
        require_cover=spec.forbid_empty_edges,
        forbid_full_edges=spec.forbid_intersecting,
        forbid_intersecting=spec.forbid_full_edges,
        require_connected=spec.require_connected,
        uniformity=spec.vertex_degree and ("exact", spec.vertex_degree[1]),
        vertex_degree=spec.uniformity and ("exact_cover", spec.uniformity[1]),
    )


def test_transpose_duality_beyond_the_grid():
    # the paper's dual hypergraphs: transposing an ordered incidence matrix
    # is a bijection from the (m, n) cell of a class onto the (n, m) cell of
    # its dual
    by_spec = _own_formula_entries_by_spec()
    pairs = 0
    for spec, entries in by_spec.items():
        dual = dual_spec(spec)
        if dual is None:
            continue
        for entry, k in entries:
            for partner, dual_k in by_spec.get(dual, []):
                pairs += 1
                for m in range(1, 13):
                    for n in range(1, 13):
                        assert entry.evaluate(m, n, k=k) == partner.evaluate(n, m, k=dual_k), (
                            entry.class_id, partner.class_id, m, n, k
                        )
    assert pairs >= 30


def test_bounded_size_beyond_n_is_no_bound():
    # an edge on n vertices has at most n of them, so once k >= n the sizes
    # 1..k admit every nonempty edge: a bounded class equals the
    # no-empty-edge class of the same spec without the size bound
    by_spec = _own_formula_entries_by_spec()
    pairs = 0
    for spec, entries in by_spec.items():
        if spec.uniformity != ("at_most", 1):
            continue
        for bounded, _ in entries:
            for unbounded, no_k in by_spec.get(replace(spec, uniformity=None), []):
                assert no_k is None
                pairs += 1
                for m in range(1, 13):
                    for n in range(1, 13):
                        for k in (n, n + 2):
                            assert bounded.evaluate(m, n, k=k) == unbounded.evaluate(m, n), (
                                bounded.class_id, unbounded.class_id, m, n, k
                            )
    assert pairs >= 15


@pytest.mark.parametrize(
    "starred, sieve, columns",
    [(F.beta_star, F.beta, 8), (registered("bar_alpha_star"), registered("bar_alpha"), 4)],
    ids=["beta_star", "bar_alpha_star"],
)
def test_beta_star_is_the_filtration_of_beta_beyond_the_grid(starred, sieve, columns):
    # beta_star filters beta's vertex sieve term by term (cover shifts plus
    # the filtered excess), and the bar_alpha ids are its complemented
    # columns; the plain filtration of the sieve is the reference, for every
    # (column, convention) pair far past the oracle's grid
    for i in range(columns):
        for conv in range(1, 5):
            for m in range(1, 13):
                for n in range(1, 13):
                    plain = t0_transform(lambda t: sieve(i, conv, m, t), n)
                    assert starred(i, conv, m, n) == plain, (i, conv, m, n)
    # with no edge every vertex is isolated and common to every edge: no
    # vertex set but the empty one is covered or free of a common vertex
    for i in range(columns):
        for conv in range(1, 5):
            for n in range(1, 7):
                assert sieve(i, conv, 0, n) == starred(i, conv, 0, n) == 0, (i, conv, n)


def test_every_formula_class_is_the_oracle_on_an_empty_side():
    # with m = 0 or n = 0 the cell holds one matrix, the empty one, and the
    # oracle's count of it is the one definition there; every class with
    # its own formula reads it, the two graph classes included.  The
    # as-printed classes keep their literal text
    for cid in catalog.formula_class_ids():
        entry = resolve_class(cid)
        if entry.kind == "as-printed":
            continue
        for k in (0, 1, 2, 3) if entry.needs_k else (None,):
            for m, n in EMPTY_CELLS:
                assert entry.evaluate(m, n, k) == entry.oracle_count(m, n, k), (cid, m, n, k)
