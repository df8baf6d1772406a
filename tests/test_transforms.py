import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t0enum.exactmath import binom, falling, selections, stirling1, stirling2
from t0enum.hypercore import ClassSpec
from t0enum.oracle import count
from t0enum.transforms import (
    InsufficientTableDepthError,
    connected_count,
    cover_transform,
    egf_log_check,
    first_egf_mismatch,
    kept_row,
    order_factor,
    ordered_with_repeats,
    partition_type_sum,
    t0_transform,
    t0_inverse,
    t0_transform_sets,
    unordered_with_repeats,
    vertex_sieve,
)
from t0enum.catalog import families as F

from brute_reference import partition_sum


def test_t0_transform_examples():
    # sum (2^i)^m s(n,i) = [2^m]_n
    assert t0_transform(lambda i: (2**i) ** 2, 2) == 12
    assert t0_transform(lambda i: 1000 + i, 1) == 1001
    # distinct-row no-empty-edge distinct-column count at (2,2) vs oracle
    value = t0_transform(lambda i: F.alpha(1, 1, 2, i), 2)
    spec = ClassSpec(row_convention=1, forbid_empty_edges=True, require_t0=True)
    assert value == count(spec, 2, 2)


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("n", range(7))
def test_vertex_sieve_counts_covers_among_all_ordered_matrices(m, n):
    # pinning i isolated vertices leaves 2^(m(n-i)) matrices; every column of
    # a cover is nonzero, (2^m - 1)^n of them
    assert vertex_sieve(lambda i: 2 ** (m * (n - i)), n) == (2**m - 1) ** n


def test_vertex_sieve_on_no_vertices_is_the_unpinned_term():
    assert vertex_sieve(lambda i: 1000 + i, 0) == 1000


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_t0_roundtrip_both_ways(values):
    table = dict(enumerate(values, start=1))
    n_max = len(values)
    starred = {n: t0_transform(lambda i: table[i], n) for n in range(1, n_max + 1)}
    back = {n: t0_inverse(lambda i: starred[i], n) for n in range(1, n_max + 1)}
    assert back == table
    # and the other composition order
    plain = {n: t0_inverse(lambda i: table[i], n) for n in range(1, n_max + 1)}
    again = {n: t0_transform(lambda i: plain[i], n) for n in range(1, n_max + 1)}
    assert again == table


def test_t0_inverse_examples():
    assert t0_inverse(lambda i: falling(2**2, i), 2) == 2 ** (2 * 2)
    assert t0_inverse(lambda i: 77 * i, 1) == 77


def test_t0_transform_sets():
    assert t0_transform_sets(lambda i: 2 ** (2**i), 2) == 2**4 - 2**2
    assert t0_transform_sets(lambda i: 42, 0) == 42
    assert t0_transform_sets(lambda i: [9, 13][i], 1) == 13


def test_ordered_with_repeats():
    for m in range(1, 5):
        for n in range(1, 5):
            assert ordered_with_repeats(lambda i: falling(2**n, i), m) == (2**n) ** m
    assert ordered_with_repeats(lambda i: 5 + i, 1) == 6
    # distinct-row distinct-column counts to repeats-allowed at (2,2)
    spec1 = ClassSpec(row_convention=1, require_t0=True)
    spec2 = ClassSpec(row_convention=2, require_t0=True)
    value = ordered_with_repeats(lambda i: count(spec1, i, 2), 2)
    assert value == count(spec2, 2, 2) == 12


def test_order_factor():
    assert order_factor(12, 2, "to_unordered") == 6
    assert order_factor(6, 2, "to_ordered") == 12
    with pytest.raises(ValueError):
        order_factor(7, 2, "to_unordered")
    cover1 = ClassSpec(row_convention=1, require_cover=True)
    cover3 = ClassSpec(row_convention=3, require_cover=True)
    assert order_factor(count(cover1, 2, 2), 2, "to_unordered") == count(cover3, 2, 2)


def test_unordered_with_repeats():
    assert unordered_with_repeats(lambda i: binom(2**1, i), 2) == 3 == selections(4, 2, 2)
    assert unordered_with_repeats(lambda i: 9 - i, 1) == 8
    spec3 = ClassSpec(row_convention=3, require_connected=True)
    spec4 = ClassSpec(row_convention=4, require_connected=True)
    value = unordered_with_repeats(lambda i: count(spec3, i, 2), 3)
    assert value == count(spec4, 3, 2)


def _solve_unitriangular(transform_row, image, m_max):
    # invert y(m) = sum_i w(m, i) x(i) with w(m, m) = 1 by back substitution
    x = {}
    for m in range(1, m_max + 1):
        acc = image[m]
        for i in range(1, m):
            acc -= transform_row(m, i) * x[i]
        x[m] = acc
    return x


@settings(max_examples=25)
@given(st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=7))
def test_multiplicity_transforms_invert_triangularly(values):
    table = dict(enumerate(values, start=1))
    m_max = len(values)
    g1_image = {m: ordered_with_repeats(lambda i: table[i], m) for m in range(1, m_max + 1)}
    assert _solve_unitriangular(stirling2, g1_image, m_max) == table
    g3_image = {m: unordered_with_repeats(lambda i: table[i], m) for m in range(1, m_max + 1)}
    assert _solve_unitriangular(lambda m, i: binom(m - 1, i - 1), g3_image, m_max) == table


def test_partition_sum_examples():
    assert partition_sum(lambda blocks: 31, 1) == 31
    # callback 2^(m * blocks) at (m, n) = (2, 2) equals [2^m]_n
    assert partition_sum(lambda blocks: 2 ** (2 * len(blocks)), 2) == 12
    # n = 2: the one-block partition of a pair carries weight -1
    assert partition_sum(lambda blocks: 1 if len(blocks) == 1 else 0, 2) == -1


def test_partition_type_sum_reduces_to_stirling_sum():
    rng = random.Random(5)
    for n in range(1, 8):
        values = {k: rng.randint(-9, 9) for k in range(1, n + 1)}
        from t0enum.exactmath import num_blocks

        lhs = partition_type_sum(lambda tau: values[num_blocks(tau)], n)
        rhs = t0_transform(lambda i: values[i], n)
        assert lhs == rhs


def test_partition_type_sum_uniform_class_vs_oracle():
    # distinct-column 2-edge-size counts, ordered distinct rows, vs oracle
    from t0enum.exactmath import block_union_ksets

    k = 2
    for m in range(1, 4):
        for n in range(1, 4):
            value = partition_type_sum(
                lambda tau: selections(1, block_union_ksets(tau, k), m), n
            )
            spec = ClassSpec(row_convention=1, uniformity=("exact", k), require_t0=True)
            assert value == count(spec, m, n)


def test_partition_sum_agrees_with_type_sum():
    from t0enum.exactmath import num_blocks

    for n in range(1, 7):
        lhs = partition_sum(lambda blocks: 3 ** len(blocks) - len(blocks), n)
        rhs = partition_type_sum(lambda tau: 3 ** num_blocks(tau) - num_blocks(tau), n)
        assert lhs == rhs


def test_partition_type_sum_callbacks_share_no_state():
    from t0enum.exactmath import block_union_ksets, num_blocks

    from conftest import type_of_partition

    def uniform(tau):
        return selections(2, block_union_ksets(tau, 2), 3)

    def mixed(tau):
        return 5 ** num_blocks(tau) - tau[0]

    for n in range(1, 8):
        first = partition_type_sum(uniform, n)
        second = partition_type_sum(mixed, n)
        assert first == partition_sum(lambda blocks: uniform(type_of_partition(blocks, n)), n)
        assert second == partition_sum(lambda blocks: mixed(type_of_partition(blocks, n)), n)
        assert partition_type_sum(uniform, n) == first


def test_partition_type_sum_over_cap_calls_no_callback():
    from t0enum.exactmath import MAX_PARTITION_TYPE_N, BudgetExceededError

    def never(tau):
        raise AssertionError("callback reached")

    with pytest.raises(BudgetExceededError):
        partition_type_sum(never, MAX_PARTITION_TYPE_N + 1)


def test_cover_transform():
    for m in range(1, 5):
        for n in range(1, 7):
            assert cover_transform(lambda i, m=m: 2 ** (m * i), n) == falling(2**m - 1, n)
    assert cover_transform(lambda i: 2 ** (2 * i), 2) == 6
    spec = ClassSpec(row_convention=2, require_cover=True, require_t0=True)
    assert count(spec, 2, 2) == 6
    # distinct-row source gives the distinct-row distinct-column covers
    for m in range(1, 4):
        for n in range(1, 4):
            value = cover_transform(lambda i, m=m: falling(2**i, m), n)
            spec1 = ClassSpec(row_convention=1, require_cover=True, require_t0=True)
            assert value == count(spec1, m, n)


def _omega12_cell(m, n, memo):
    # one omega_12 cell whose smaller connected values are read from a dict,
    # passed as rows: entry t is the value on t vertices, entry 0 unread
    return connected_count(
        head=selections(2, 2**n - 1, m) - selections(2, 2 ** (n - 1) - 1, m),
        inner=lambda mm, nn: [None] + [selections(2, 2**t - 1, mm) for t in range(1, nn)],
        connected=lambda i, nn: [None] + [memo[(i, t)] for t in range(1, nn)],
        ordered=True,
        m=m,
        n=n,
    )


def _omega12_via_connected_count(m_max, n_max):
    memo = {}
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            memo[(m, n)] = 1 if n == 1 else _omega12_cell(m, n, memo)
    return memo


def test_connected_count_examples():
    memo = _omega12_via_connected_count(4, 4)
    assert memo[(2, 2)] == 5
    assert memo[(3, 2)] == 19
    # the dict-driven recurrence is the memoized family on every cell it fills
    assert memo == {(m, n): F.omega_1(2, m, n) for m in range(1, 5) for n in range(1, 5)}
    spec = ClassSpec(row_convention=1, forbid_empty_edges=True, require_connected=True)
    assert F.omega_1(1, 2, 3) == count(spec, 2, 3)


def test_connected_count_memo_order_independent():
    # same memo contents, different fill history: the cell value is a pure
    # function of the smaller connected values
    memo = _omega12_via_connected_count(3, 3)
    shuffled = dict(reversed(list(memo.items())))
    assert _omega12_cell(3, 3, shuffled) == F.omega_1(2, 3, 3)


def test_kept_row_reentrant_family_keeps_indices():
    # triangular(t) reads its own row at t - 1, and fails once at t = 5
    key, calls, fail_at = ("triangular", object()), [], {5}

    def triangular(t):
        calls.append(t)
        if t in fail_at:
            raise ArithmeticError(t)
        return t + (kept_row(key, triangular, t)[t - 1] if t > 1 else 0)

    with pytest.raises(ArithmeticError):
        kept_row(key, triangular, 9)
    assert kept_row(key, triangular, 5) == [None, 1, 3, 6, 10]
    fail_at.clear()
    assert kept_row(key, triangular, 9) == [None] + [t * (t + 1) // 2 for t in range(1, 9)]
    assert calls == [1, 2, 3, 4, 5, 5, 6, 7, 8]
    # a nested call that extends the row past t: the outer value is not
    # appended a second time
    key, nested = ("squares", object()), []

    def squares(t):
        if t == 3 and not nested:
            nested.append(t)
            kept_row(key, squares, 5)
        return t * t

    assert kept_row(key, squares, 7) == [None, 1, 4, 9, 16, 25, 36]


def test_component_sum_reconstructs_plain_table():
    # plain count = connected + isolated-first-vertex + component splits
    for conv in (1, 2, 3, 4):
        nu_ordered = conv in (1, 2)
        for m in range(1, 4):
            for n in range(2, 5):
                split = 0
                for i in range(1, m + 1):
                    nu = binom(m, i) if nu_ordered else 1
                    for j in range(1, n):
                        split += (
                            nu
                            * binom(n - 1, j - 1)
                            * selections(conv, 2 ** (n - j) - 1, m - i)
                            * F.omega_1(conv, i, j)
                        )
                assert (
                    selections(conv, 2**n - 1, m)
                    == F.omega_1(conv, m, n)
                    + selections(conv, 2 ** (n - 1) - 1, m)
                    + split
                )


def test_egf_log_check_all_conventions():
    # the exp-log reference shares nothing with connected_count, so it checks
    # the connected rows past the oracle's grid
    for conv in (1, 2, 3, 4):
        alpha_table = {(m, n): F.alpha(1, conv, m, n) for m in range(13) for n in range(13)}
        omega_table = {(m, n): F.omega_1(conv, m, n) for m in range(13) for n in range(1, 13)}
        assert egf_log_check(alpha_table, omega_table, conv, 12, 12)


def test_egf_log_check_negative_control_and_depth():
    alpha_table = {(m, n): F.alpha(1, 2, m, n) for m in range(6) for n in range(6)}
    omega_table = {(m, n): F.omega_1(2, m, n) for m in range(6) for n in range(1, 6)}
    omega_table[(3, 2)] += 1
    assert first_egf_mismatch(alpha_table, omega_table, 2, 5, 5) == (3, 2)
    with pytest.raises(InsufficientTableDepthError):
        egf_log_check({(0, 0): 1}, omega_table, 2, 5, 5)
    # a complete plain table whose constant column is not the unit
    alpha_table[(1, 0)] = 1
    with pytest.raises(InsufficientTableDepthError, match="not the series unit"):
        egf_log_check(alpha_table, omega_table, 2, 5, 5)


def test_transform_commutation_on_regular_tables():
    # distinct-column transform then multiplicity transforms equals the other
    # order, on the arbitrary/no-empty/no-full table and the cover table
    for fam, j in [(F.alpha, 0), (F.alpha, 1), (F.alpha, 3), (F.bar_alpha, 2), (F.beta, 1)]:
        for m in range(1, 5):
            for n in range(1, 5):
                # ordered-with-repeats after t0_transform
                a = ordered_with_repeats(
                    lambda i: t0_transform(lambda t: fam(j, 1, i, t), n), m
                )
                # t0_transform after ordered-with-repeats
                b = t0_transform(
                    lambda t: ordered_with_repeats(lambda i: fam(j, 1, i, t), m), n
                )
                assert a == b
                # unordered pair: multiset transform vs filtration
                c = unordered_with_repeats(
                    lambda i: t0_transform(lambda t: fam(j, 3, i, t), n), m
                )
                d = t0_transform(
                    lambda t: unordered_with_repeats(lambda i: fam(j, 3, i, t), m), n
                )
                assert c == d
