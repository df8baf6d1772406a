import io
import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from brute_reference import brute_counts, count_dual, feature_counters, random_spec
from conftest import EMPTY_CELLS

from t0enum import oracle
from t0enum.exactmath import falling, stirling2
from t0enum.hypercore import ClassSpec, MatrixFeatures, _feature_record
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
    # a cover kind puts every vertex in some edge: no matrix has degree 0
    ClassSpec(vertex_degree=("exact_cover", 0)),
]


def _cells(area):
    """EMPTY_CELLS, then every cell with m, n >= 1 and m * n <= area."""
    return EMPTY_CELLS + [(m, n) for m in range(1, area + 1) for n in range(1, area // m + 1)]


def test_count_matches_direct_filter():
    # the orbit-weighted multiset walk must agree with a literal enumeration
    # of every ordered matrix + satisfies, on every cell with m*n <= 12 and
    # on the empty cells
    budget = OracleBudget(max_cells=12)
    for m, n in _cells(12):
        expected = brute_counts(REFERENCE_SPECS, m, n)
        for spec, by_convention in zip(REFERENCE_SPECS, expected):
            got = [count(replace(spec, row_convention=c), m, n, budget=budget) for c in (1, 2, 3, 4)]
            assert got == by_convention, (spec, m, n)


def test_count_matches_direct_filter_for_random_specs():
    # the compiled spec (flag mask, size intervals, the rows_distinct bit of
    # conventions 1 and 3) against a literal enumeration, for random specs
    # in every convention, on every cell with m*n <= 9 and on the empty cells
    rng = random.Random(2770)
    specs = [random_spec(rng) for _ in range(40)]
    for m, n in _cells(9):
        expected = brute_counts(specs, m, n)
        for spec, by_convention in zip(specs, expected):
            got = [count(replace(spec, row_convention=c), m, n) for c in (1, 2, 3, 4)]
            assert got == by_convention, (spec, m, n)


def _features(records):
    return Counter({MatrixFeatures(*record): c for record, c in records.items()})


def test_feature_counters_match_literal_enumeration():
    # the walk's canonical prefixes, carried codes, multiplicity runs and
    # orbit weights, checked record by record on every cell with m*n <= 12
    # and on the empty cells: both Counters of the narrow side's walk
    # (convention 3 reads the multisets with distinct rows), and of both
    # sides where m, n <= 4 (the wide side of (12, 1) would test 12!
    # permutations per step)
    for m, n in _cells(12):
        expected = feature_counters(m, n)
        sides = ("rows", "columns") if max(m, n) <= 4 else ("rows" if n <= m else "columns",)
        for side in sides:
            multisets, ordered = oracle._walk_multisets(m, n, side)
            assert _features(ordered) == expected["ordered"], (side, m, n)
            assert _features(multisets) == expected["multisets"], (side, m, n)
            sets = Counter({f: c for f, c in _features(multisets).items() if f.rows_distinct})
            assert sets == expected["sets"], (side, m, n)


def test_ordered_request_walks_the_cheaper_side(monkeypatch):
    # a request of either kind walks the narrow side, the rows iff n <= m,
    # and fills both kinds of the cell, so the other request walks nothing
    walk = oracle._walk_multisets
    for first, second in (("ordered", "multisets"), ("multisets", "ordered")):
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                monkeypatch.setattr(oracle, "_FEATURE_CACHE", {})
                sides = []

                def recorded(m, n, side):
                    sides.append(side)
                    return walk(m, n, side)

                monkeypatch.setattr(oracle, "_walk_multisets", recorded)
                groups = oracle._feature_groups(first, m, n)
                assert sides == ["rows" if n <= m else "columns"]
                assert set(oracle._FEATURE_CACHE) == {("ordered", m, n), ("multisets", m, n)}

                def no_walk(*args):
                    raise AssertionError("walked twice")

                monkeypatch.setattr(oracle, "_walk_multisets", no_walk)
                other = oracle._feature_groups(second, m, n)
                assert oracle._FEATURE_CACHE == {(first, m, n): groups, (second, m, n): other}


def _burnside_orbits(k, width):
    # multisets of k codes of `width` bits up to permutations of the bits:
    # (1/width!) sum over p of [t^k] prod over the cycles c of p on the
    # 2**width codes of 1/(1 - t^|c|)
    total = 0
    for perm in itertools.permutations(range(width)):
        image = [sum(1 << p for i, p in enumerate(perm) if code >> i & 1) for code in range(1 << width)]
        series = [1] + [0] * k  # power series in t, truncated above t^k
        seen = set()
        for start in range(1 << width):
            if start in seen:
                continue
            length, code = 0, start
            while code not in seen:
                seen.add(code)
                code, length = image[code], length + 1
            for power in range(length, k + 1):
                series[power] += series[power - length]
        total += series[k]
    assert total % math.factorial(width) == 0
    return total // math.factorial(width)


def _check_orbit_walk(monkeypatch, m, n):
    # one leaf per orbit of the narrow side's multisets (Burnside's count),
    # and weights summing to all 2**(m*n) matrices and all
    # C(2**n + m - 1, m) row multisets
    leaves = [0]

    def counted(*args):
        leaves[0] += 1
        return _feature_record(*args)

    monkeypatch.setattr(oracle, "_feature_record", counted)
    multisets, ordered = oracle._walk_multisets(m, n, "rows" if n <= m else "columns")
    assert leaves[0] == _burnside_orbits(max(m, n), min(m, n)), (m, n)
    assert sum(ordered.values()) == 2 ** (m * n), (m, n)
    assert sum(multisets.values()) == math.comb(2**n + m - 1, m), (m, n)
    return leaves[0]


def test_orbit_walk_visits_one_leaf_per_orbit_with_the_full_weight(monkeypatch):
    # every cell the default budget admits with max(m, n) <= 6
    cells = 0
    for m in range(1, 7):
        for n in range(1, 7):
            try:
                oracle.DEFAULT_BUDGET.check(m, n)
            except BudgetExceededError:
                continue
            cells += 1
            _check_orbit_walk(monkeypatch, m, n)
    assert cells == 33


@pytest.mark.parametrize("m, n, orbits", [(3, 8, 1324), (4, 7, 9343)])
def test_wide_cells_walk_their_columns_for_every_convention(monkeypatch, m, n, orbits):
    # the budget prices the walked side whatever the convention, so these
    # cells are admitted for the unordered conventions too, though their
    # C(2**n + m - 1, m) row multisets exceed 2**20
    assert math.comb(2**n + m - 1, m) > 2**20
    oracle.DEFAULT_BUDGET.check(m, n)
    assert _check_orbit_walk(monkeypatch, m, n) == orbits


def _pack(fields, field_bits):
    return sum(value << field_bits * p for p, value in enumerate(fields))


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_packed_gaps_read_like_their_fields(width, s):
    # each permutation's key gap sits in a field of L + 1 bits plus the
    # bias 2**L - 1, L = s * 2**width: the masks and the step table against
    # a plain packing of the fields, and the walk's two reads (some gap
    # positive; at a canonical leaf, the gaps at 0) against a plain decode,
    # with every field position at each extreme value over each background
    steps, bias, positive, unit = oracle._packed_steps(width, s)
    key_bits = s << width
    field_bits = key_bits + 1
    low = (1 << key_bits) - 1
    perms = list(itertools.permutations(range(width)))

    def decode(packed):
        return [packed >> field_bits * p & (1 << field_bits) - 1 for p in range(len(perms))]

    assert (unit, bias, positive) == tuple(_pack([v] * len(perms), field_bits) for v in (1, low, low + 1))
    top = (1 << width) - 1
    for code in range(top + 1):
        images = [sum(1 << perm[i] for i in range(width) if code >> i & 1) for perm in perms]
        gaps = [(1 << s * (top - image)) - (1 << s * (top - code)) for image in images]
        assert decode(bias + steps[code]) == [low + gap for gap in gaps], code
    extremes = (0, low - 1, low, low + 1, 2 * low)  # 2 * low = 2**(L + 1) - 2
    for background in extremes:
        for p in range(len(perms)):
            for value in extremes:
                fields = [background] * len(perms)
                fields[p] = value
                child = _pack(fields, field_bits)
                assert bool(child & positive) == any(f > low for f in fields)
                if not child & positive:
                    assert oracle._fixed_fields(child, positive, unit) == fields.count(low)


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
    # max_cells, then at most 2^max_cells multisets of the side the walk takes
    tight = OracleBudget(max_cells=6)
    with pytest.raises(BudgetExceededError, match="max_cells = 6"):
        count(T0, 1, 7, budget=tight)  # 8 column multisets, 7 codes in each
    with pytest.raises(BudgetExceededError, match=r"exceed 2\*\*6"):
        count(T0, 3, 3, budget=tight)  # 120 multisets on either side
    with pytest.raises(BudgetExceededError, match=r"exceed 2\*\*4"):
        count(ClassSpec(row_convention=4), 3, 2, budget=OracleBudget(max_cells=4))  # 20 row multisets
    # whatever the convention, (2, 3) walks its 3 columns: 20 <= 2^5 column
    # multisets, though it has 36 row multisets
    assert count(ClassSpec(row_convention=4), 2, 3, budget=OracleBudget(max_cells=5)) == math.comb(9, 2)
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
    # (4, 4) is priced at 3,876 <= 2^12 multisets, (5, 5) at 376,992
    report = verify_grid("alpha_02", 5, 5, budget=OracleBudget(max_cells=12))
    assert report.skipped and not report.errata
    assert (5, 5, None) in report.skipped
    assert (4, 4, None) not in report.skipped


def test_verify_grid_skips_formula_budget_refusal(monkeypatch):
    # a formula that refuses its budget on one cell skips that cell only
    from t0enum.catalog.registry import CatalogEntry

    evaluate = CatalogEntry.evaluate

    def refuse_2_3(self, m, n, k=None):
        if (m, n) == (2, 3):
            raise BudgetExceededError("formula over budget")
        return evaluate(self, m, n, k=k)

    monkeypatch.setattr(CatalogEntry, "evaluate", refuse_2_3)
    report = verify_grid("alpha_02", 3, 3)
    assert report.skipped == [(2, 3, None)]
    assert report.cells_checked == 8 and report.verified


def test_verify_budget_above_the_default_checks_wider_cells():
    # n = 21 exceeds the default max_cells = 20, so only the oracle side
    # refuses those cells; a raised cap checks them
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
    # caps, the conventions naming the cap; the check reads no convention
    # and runs no walk
    oracle.DEFAULT_BUDGET.check(m, n)


@pytest.mark.parametrize(
    "class_id", ["bar_theta_circ_03", "bbar_theta_circ_03", "bar_theta_circ_13", "bbar_theta_circ_13"]
)
def test_graph_classes_take_the_spec_budget(class_id, monkeypatch):
    # the graph classes count through the spec oracle, so they take its
    # budget: the unordered (6, 5) cell is priced at C(37, 6) > 2^20 row
    # multisets, and m = 21 exceeds max_cells.  Both exit 4 before any walk
    # runs.
    from t0enum.cli import main

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(oracle, "_FEATURE_CACHE", {})
    monkeypatch.setattr(oracle, "_walk_multisets", no_walk)
    for m, n in ((6, 5), (21, 2)):
        out = io.StringIO()
        assert main(["oracle", "--class", class_id, "--m", str(m), "--n", str(n)], out=out) == 4
        assert out.getvalue() == ""


def test_verify_grid_errata_corrected():
    report = verify_grid("beta_41_as_printed", 3, 3, errata_corrected=True)
    assert report.verified
