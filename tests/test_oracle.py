import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from brute_reference import brute_counts, count_dual, feature_counters

from t0enum import oracle
from t0enum.exactmath import falling, stirling2
from t0enum.hypercore import ClassSpec, MatrixFeatures
from t0enum.oracle import BudgetExceededError, OracleBudget, count, verify_grid

T0 = ClassSpec(row_convention=2, require_t0=True)


def test_count_examples():
    assert count(T0, 2, 2) == 12  # [2^m]_n at (2,2)
    assert count(ClassSpec(row_convention=2, forbid_empty_edges=True, require_connected=True), 2, 2) == 5
    assert count(ClassSpec(row_convention=2, require_cover=True), 2, 2) == 9


# Fixed specs for the brute-force pin; each is counted under all four row
# conventions.
REFERENCE_SPECS = [
    ClassSpec(),
    ClassSpec(require_t0=True),
    ClassSpec(require_minimal_cover=True),
    ClassSpec(require_connected=True, forbid_empty_edges=True),
    ClassSpec(vertex_degree=("at_most_cover", 2)),
    ClassSpec(require_cover=True, forbid_full_edges=True),
    ClassSpec(uniformity=("exact", 2), vertex_degree=("exact_cover", 2)),
    ClassSpec(require_t0=True, forbid_singular=True, uniformity=("at_most", 2)),
]


def test_count_matches_direct_filter():
    # the orbit-weighted multiset walk must agree with a literal enumeration
    # of every ordered matrix + satisfies, on every cell with m*n <= 12
    budget = OracleBudget(max_cells=12)
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            expected = brute_counts(REFERENCE_SPECS, m, n)
            for spec, by_convention in zip(REFERENCE_SPECS, expected):
                got = [
                    count(replace(spec, row_convention=c), m, n, budget=budget)
                    for c in (1, 2, 3, 4)
                ]
                assert got == by_convention, (spec, m, n)


def _features(records):
    return Counter({MatrixFeatures(*record): c for record, c in records.items()})


def test_feature_counters_match_literal_enumeration():
    # the walks' carried codes, multiplicity runs and weights, checked record
    # by record on every cell with m*n <= 12: the row walk's 'ordered' and
    # 'multisets' Counters (convention 3 reads the multisets with distinct
    # rows) and the column walk's 'ordered' Counter
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            expected = feature_counters(m, n)
            multisets, ordered = oracle._walk_multisets(m, n, "rows")
            assert _features(ordered) == expected["ordered"], ("rows", m, n)
            assert _features(multisets) == expected["multisets"], (m, n)
            sets = Counter({f: c for f, c in _features(multisets).items() if f.rows_distinct})
            assert sets == expected["sets"], (m, n)
            _, ordered = oracle._walk_multisets(m, n, "columns")
            assert _features(ordered) == expected["ordered"], ("columns", m, n)


def test_ordered_request_walks_the_cheaper_side(monkeypatch):
    # an ordered request walks the columns exactly when n > m (strictly
    # fewer column multisets), which fills 'ordered' alone; a later
    # 'multisets' request runs the row walk and fills both
    monkeypatch.setattr(oracle, "_FEATURE_CACHE", {})
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            ordered = oracle._feature_counter("ordered", m, n)
            filled = {("ordered", m, n)} if n > m else {("ordered", m, n), ("multisets", m, n)}
            assert set(oracle._FEATURE_CACHE) == filled
            multisets = oracle._feature_counter("multisets", m, n)
            assert oracle._FEATURE_CACHE == {("ordered", m, n): ordered, ("multisets", m, n): multisets}
            oracle._FEATURE_CACHE.clear()


def test_count_conventions_3_and_4():
    # unordered: sets vs multisets of rows
    spec3 = ClassSpec(row_convention=3)
    spec4 = ClassSpec(row_convention=4)
    for m in range(1, 4):
        for n in range(1, 4):
            assert count(spec3, m, n) == math.comb(2**n, m)
            assert count(spec4, m, n) == math.comb(2**n + m - 1, m)


def test_multiplicity_consistency():
    # ordered distinct = m! x unordered distinct; ordered with repeats is the
    # block-merge transform of ordered distinct
    specs = [
        ClassSpec(require_cover=True),
        ClassSpec(require_t0=True, forbid_empty_edges=True),
        ClassSpec(require_connected=True),
    ]
    for base in specs:
        for m in range(1, 5):
            for n in range(1, 4):
                c1 = count(replace(base, row_convention=1), m, n)
                c2 = count(replace(base, row_convention=2), m, n)
                c3 = count(replace(base, row_convention=3), m, n)
                assert c1 == math.factorial(m) * c3
                # block-merge transform: positions partitioned into i groups,
                # each group assigned one of the i! orderings of a row set
                assert c2 == sum(
                    stirling2(m, i) * count(replace(base, row_convention=1), i, n)
                    for i in range(1, m + 1)
                )


def test_t0_cap_pigeonhole():
    for m in range(1, 3):
        for n in range(1, 5):
            if 2**m < n:
                assert count(T0, m, n) == 0


def test_count_dual_examples():
    no_empty = ClassSpec(row_convention=2, forbid_empty_edges=True)
    cover = ClassSpec(row_convention=2, require_cover=True)
    assert count_dual(no_empty, 2, 3) == count(cover, 2, 3)
    # dual distinct columns = distinct rows
    for m in range(1, 4):
        for n in range(1, 4):
            assert count_dual(T0, m, n) == falling(2**n, m)
    # bounded-degree cover <-> bounded-size without empty edges at (3,3), k=2
    kcov = ClassSpec(row_convention=2, vertex_degree=("at_most_cover", 2))
    kdim = ClassSpec(row_convention=2, uniformity=("at_most", 2), forbid_empty_edges=True)
    assert count_dual(kcov, 3, 3) == count(kdim, 3, 3)


def test_transpose_bijection_conventions_1_and_2():
    specs = [
        ClassSpec(row_convention=2, require_t0=True, require_cover=True),
        ClassSpec(row_convention=1, forbid_empty_edges=True),
        ClassSpec(row_convention=2, require_connected=True),
    ]
    for spec in specs:
        for m in range(1, 5):
            for n in range(1, 5):
                if m * n > 16:
                    continue
                assert count_dual(spec, m, n) == count(spec, n, m)


def test_monotone_filtering():
    rng = random.Random(99)
    flags = [
        "forbid_empty_edges",
        "forbid_full_edges",
        "require_cover",
        "forbid_intersecting",
        "require_connected",
        "require_t0",
    ]
    for _ in range(25):
        conv = rng.randint(1, 4)
        chosen = {f: True for f in rng.sample(flags, rng.randint(0, 3))}
        base = ClassSpec(row_convention=conv, **chosen)
        extra = rng.choice([f for f in flags if f not in chosen])
        stronger = replace(base, **{extra: True})
        for m in range(1, 4):
            for n in range(1, 4):
                assert count(stronger, m, n) <= count(base, m, n)


def test_budget_enforcement():
    # one rule for every convention: no code count or code width above
    # max_cells, then at most 2^max_cells leaves in the walk that runs
    tight = OracleBudget(max_cells=6)
    with pytest.raises(BudgetExceededError, match="max_cells = 6"):
        count(T0, 1, 7, budget=tight)  # 8 column multisets, 7 codes in each
    with pytest.raises(BudgetExceededError, match=r"exceed 2\*\*6"):
        count(T0, 3, 3, budget=tight)  # 120 multisets on either side
    with pytest.raises(BudgetExceededError, match=r"exceed 2\*\*5"):
        count(ClassSpec(row_convention=4), 2, 3, budget=OracleBudget(max_cells=5))  # 36 leaves
    assert count(ClassSpec(row_convention=4), 2, 3, budget=tight) == math.comb(9, 2)
    assert count(T0, 2, 3, budget=tight) == falling(4, 3)


def test_budget_bounds_multiset_walk():
    # conventions 3/4 walk C(2^n + m - 1, m) multisets; the walk may not
    # exceed 2^max_cells even when m and n are within max_cells
    with pytest.raises(BudgetExceededError):
        count(ClassSpec(row_convention=4), 9, 6)
    with pytest.raises(BudgetExceededError):
        count(ClassSpec(row_convention=3), 4, 3, budget=OracleBudget(max_cells=8))
    assert count(ClassSpec(row_convention=3), 4, 3, budget=OracleBudget(max_cells=9)) == math.comb(8, 4)


def test_verify_grid_examples():
    assert verify_grid("alpha_star_02", 4, 4).verified
    assert verify_grid("omega_12", 4, 4).verified
    report = verify_grid("beta_01_as_printed", 3, 3)
    assert not report.verified
    assert all(rec.formula_value != rec.oracle_value for rec in report.errata)
    assert all(rec.status == "convention-gap" for rec in report.errata)


def test_verify_grid_skips_on_budget():
    # (4, 4) walks 3,876 <= 2^12 multisets, (5, 5) walks 376,992
    report = verify_grid("alpha_02", 5, 5, budget=OracleBudget(max_cells=12))
    assert report.skipped and not report.errata
    assert (5, 5, None) in report.skipped
    assert (4, 4, None) not in report.skipped


def test_verify_grid_skips_formula_budget_refusal(monkeypatch):
    # a formula that refuses its budget on one cell skips that cell only
    from t0enum.catalog.registry import CatalogEntry

    evaluate = CatalogEntry.evaluate

    def refuse_2_3(self, m, n, k=None, errata_corrected=False, budget=oracle.DEFAULT_BUDGET):
        if (m, n) == (2, 3):
            raise BudgetExceededError("formula over budget", m=m, n=n)
        return evaluate(self, m, n, k=k, errata_corrected=errata_corrected, budget=budget)

    monkeypatch.setattr(CatalogEntry, "evaluate", refuse_2_3)
    report = verify_grid("alpha_02", 3, 3)
    assert report.skipped == [(2, 3, None)]
    assert report.cells_checked == 8 and report.verified


def test_verify_budget_reaches_oracle_backed_formulas(monkeypatch):
    # the formulas that read an input column from the oracle get the verify
    # budget, not the default one
    from t0enum.catalog import registry

    seen = []
    oracle_count = registry.oracle_count

    def recording(spec, m, n, budget=oracle.DEFAULT_BUDGET):
        seen.append(budget)
        return oracle_count(spec, m, n, budget)

    monkeypatch.setattr(registry, "oracle_count", recording)
    budget = OracleBudget(max_cells=12)
    registry.resolve_class("bar_theta_51").evaluate(2, 3, k=1, budget=budget)
    assert seen == [budget]
    for class_id in ("bar_theta_51", "bbar_omega_star_12_as_printed"):
        seen.clear()
        report = verify_grid(class_id, 3, 3, k=2, budget=budget)
        assert report.cells_checked == 9
        # each cell's own oracle call, and the formula's
        assert len(seen) > 9 and all(b is budget for b in seen), class_id


def test_verify_budget_above_the_default_checks_oracle_backed_cells():
    # n = 21 exceeds the default max_cells = 20; a raised cap reaches the
    # oracle calls of bar_theta_51's formula as well as the cell's own
    assert verify_grid("bar_theta_51", 2, 21, k=1).skipped == [(1, 21, 1), (2, 21, 1)]
    report = verify_grid("bar_theta_51", 2, 21, k=1, budget=OracleBudget(max_cells=21))
    assert report.cells_checked == 42 and not report.skipped and report.verified


@pytest.mark.parametrize(
    "conventions, m, n",
    [
        ((1, 2), 1, 20),
        ((1, 2), 20, 1),
        ((1, 2), 4, 5),
        ((1, 2), 2, 10),
        ((3, 4), 4, 6),
        ((3, 4), 20, 1),
    ],
)
def test_default_budget_accepts_the_cells_of_the_former_caps(conventions, m, n):
    # cells within the former m*n <= 20 (ordered) and 2^n <= 64 (unordered)
    # caps; the check runs no walk
    for conv in conventions:
        oracle.DEFAULT_BUDGET.check(conv, m, n)


@pytest.mark.parametrize(
    "class_id", ["bar_theta_circ_03", "bbar_theta_circ_03", "bar_theta_circ_13", "bbar_theta_circ_13"]
)
def test_default_budget_accepts_graph_cells_on_six_vertices(class_id, monkeypatch):
    # the graph oracle once took any m at n <= 6: the largest walk there is
    # C(21, 10) = 352,716 edge subsets, and m = 21 edges is the one subset of
    # all 21 (with loops).  No subset is walked here.
    from t0enum.catalog import registry

    monkeypatch.setattr(registry, "combinations", lambda edges, m: iter(()))
    entry = registry.resolve_class(class_id)
    assert all(entry.oracle_count(m, 6) == 0 for m in range(1, 25))
    with pytest.raises(BudgetExceededError, match="n = 21"):
        entry.oracle_count(1, 21)
    # 171 edges: C(171, 168) = 818,805 subsets of 168 edges each, a walk of
    # about 69 s on a 2-core host
    n = 18 if class_id.startswith("bbar") else 19
    with pytest.raises(BudgetExceededError, match="m = 168"):
        entry.oracle_count(168, n)


def test_verify_grid_errata_corrected():
    report = verify_grid("beta_41_as_printed", 3, 3, errata_corrected=True)
    assert report.verified
