import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t0enum.exactmath import (
    MAX_PARTITION_TYPE_N,
    BudgetExceededError,
    _sub_type_polynomial,
    binom,
    block_union_ksets,
    block_union_upto,
    falling,
    num_blocks,
    partition_types,
    permutations_with_cycle_type,
    selections,
    sigma,
    stirling1,
    stirling2,
)

from brute_reference import partition_types_literal


def test_binom_examples():
    assert binom(4, 2) == 6
    assert binom(5, 0) == 1
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0


def test_falling_examples():
    assert falling(4, 2) == 12
    assert falling(7, 0) == 1
    assert falling(2, 3) == 0


def test_falling_negative_argument_is_polynomial():
    # [-1]_2 = (-1)(-2); transform sums may pass below zero formally
    assert falling(-1, 2) == 2
    assert falling(-2, 3) == -24


def test_stirling1_examples():
    assert stirling1(3, 2) == -3
    assert all(stirling1(n, n) == 1 for n in range(10))
    assert stirling1(4, 1) == -6
    assert stirling1(0, 0) == 1
    assert stirling1(3, 5) == 0


def test_stirling1_is_falling_factorial_expansion():
    # [x]_n = sum_i s(n,i) x^i at several integer points
    for n in range(7):
        for x in range(-3, 6):
            assert falling(x, n) == sum(stirling1(n, i) * x**i for i in range(n + 1))


def test_stirling2_examples():
    assert stirling2(3, 2) == 3
    assert all(stirling2(n, 1) == 1 for n in range(1, 10))
    assert stirling2(4, 2) == 7


def test_stirling_orthogonality_up_to_30():
    for n in range(31):
        for m in range(31):
            total = sum(stirling1(n, k) * stirling2(k, m) for k in range(max(n, m) + 1))
            assert total == (1 if n == m else 0)


def test_partition_types_counts_and_order():
    types4 = list(partition_types(4, 4))
    assert len(types4) == 5
    assert types4 == sorted(types4)
    assert list(partition_types(1, 1)) == [(1,)]
    types3 = list(partition_types(3, 3))
    assert (3, 0, 0) in types3 and (1, 1, 0) in types3 and (0, 0, 1) in types3
    for n in range(1, 9):
        for tau in partition_types(n, n):
            assert len(tau) == n
            assert sigma(tau) == n
            assert 1 <= num_blocks(tau) <= n


def _euler_partition_counts(n_max):
    # p(n) = sum_{k >= 1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    p[n] += sign * p[n - g]
            k += 1
    return p


def test_partition_types_match_literal_builder():
    for n in range(16):
        assert list(partition_types(n, n)) == partition_types_literal(n)


def test_truncated_partition_types_are_the_truncated_whole_types():
    # the vertices past the first k sizes lie in blocks longer than k, so
    # they number 0 or more than k, and every such truncation extends to a
    # whole type by one block
    for n in range(1, 12):
        whole = partition_types_literal(n)
        for k in range(n + 2):
            types = partition_types(n, k)
            assert list(types) == sorted({tau[:k] for tau in whole}), (n, k)
            assert all(n - sigma(tau) == 0 or n - sigma(tau) > k for tau in types)
    assert partition_types(24, 2)[:3] == ((0, 0), (0, 1), (0, 2))
    counts = [len(partition_types(n, k)) for n, k in ((24, 2), (20, 3), (40, 2))]
    assert counts == [145, 248, 401]


def test_partition_types_refuse_negative_arguments():
    for n, k in ((-1, 0), (3, -1)):
        with pytest.raises(ValueError):
            partition_types(n, k)


def test_partition_types_up_to_cap():
    p = _euler_partition_counts(MAX_PARTITION_TYPE_N)
    assert p[0] == 1 and p[40] == 37338
    for n in range(MAX_PARTITION_TYPE_N + 1):
        types = partition_types(n, n)
        assert isinstance(types, tuple)
        assert len(types) == p[n]
        assert all(a < b for a, b in zip(types, types[1:]))
        assert all(len(tau) == n and sigma(tau) == n for tau in types)
        # hold one table at a time: all 40 together take about 65 MB
        partition_types.cache_clear()


def test_partition_types_over_cap_refused_before_building():
    with pytest.raises(BudgetExceededError, match="exceed the cap"):
        partition_types(MAX_PARTITION_TYPE_N + 1, MAX_PARTITION_TYPE_N + 1)
    with pytest.raises(BudgetExceededError):
        partition_types(10**6, 10**6)
    # the cap is on n, whatever k
    with pytest.raises(BudgetExceededError):
        partition_types(MAX_PARTITION_TYPE_N + 1, 2)
    assert partition_types(9, 9) is partition_types(9, 9)


def test_cycle_type_weights():
    assert permutations_with_cycle_type((0, 0, 1)) == 2
    assert permutations_with_cycle_type((1, 1, 0)) == 3
    assert permutations_with_cycle_type((3, 0, 0)) == 1


def test_signed_cycle_type_sum_is_stirling1():
    for n in range(1, 13):
        for k in range(1, n + 1):
            total = sum(
                (-1) ** (n - k) * permutations_with_cycle_type(t)
                for t in partition_types(n, n)
                if num_blocks(t) == k
            )
            assert total == stirling1(n, k)


def _brute_block_unions(blocks, universe_size):
    from itertools import combinations

    seen = set()
    for r in range(1, len(blocks) + 1):
        for combo in combinations(blocks, r):
            union = frozenset(x for b in combo for x in b)
            seen.add(union)
    return seen


def test_block_union_ksets_derived():
    # partition {a},{b,c}: the only block-union 2-set is {b,c}
    unions = _brute_block_unions([[0], [1, 2]], 3)
    assert block_union_ksets((1, 1, 0), 2) == sum(1 for u in unions if len(u) == 2) == 1
    assert block_union_ksets((4, 0, 0, 0), 2) == binom(4, 2)
    assert block_union_ksets((0, 0, 0, 1), 2) == 0
    assert block_union_ksets((0, 0, 0, 1), 4) == 1


def test_block_union_upto_examples():
    assert block_union_upto((1, 1, 0), 2) == 2
    n = 5
    assert block_union_upto(tuple([n] + [0] * (n - 1)), n) == 2**n - 1
    for tau in partition_types(6, 6):
        assert block_union_upto(tau, 6) == 2 ** num_blocks(tau) - 1


def test_block_unions_against_brute_force_small():
    from itertools import combinations

    # fixed partitions of a 5-set for a second route
    cases = [
        ([[0], [1], [2, 3, 4]], (2, 0, 1, 0, 0)),
        ([[0, 1], [2, 3], [4]], (1, 2, 0, 0, 0)),
    ]
    for blocks, tau in cases:
        unions = _brute_block_unions(blocks, 5)
        for k in range(1, 6):
            assert block_union_ksets(tau, k) == sum(1 for u in unions if len(u) == k)
            assert block_union_upto(tau, k) == sum(1 for u in unions if len(u) <= k)


def _blocks_of_type(tau):
    blocks, start = [], 0
    for size, a in enumerate(tau, start=1):
        for _ in range(a):
            blocks.append(list(range(start, start + size)))
            start += size
    return blocks


def test_block_unions_after_larger_kmax_filled_the_cache():
    for n in range(1, 9):
        for tau in partition_types(n, n):
            block_union_upto(tau, n + 3)
            block_union_ksets(tau, n + 2)
            sizes = [len(u) for u in _brute_block_unions(_blocks_of_type(tau), n)]
            for k in range(n + 1):
                assert block_union_ksets(tau, k) == sizes.count(k) + (k == 0)
                assert block_union_upto(tau, k) == sum(1 for size in sizes if size <= k)


def test_sub_type_polynomial_is_an_immutable_tuple_of_bounded_length():
    coeffs = _sub_type_polynomial((2, 1, 0, 0), 4)
    assert coeffs == (1, 2, 2, 2, 1)
    assert isinstance(coeffs, tuple)
    # no sub-type is larger than tau: a huge size bound stores nothing more
    assert _sub_type_polynomial((2, 1, 0, 0), 10**12) == coeffs
    assert block_union_ksets((2, 1, 0, 0), 10**12) == 0
    assert block_union_upto((2, 1, 0, 0), 10**12) == 2**3 - 1


def test_selections_examples():
    assert selections(2, 3, 2) == 9
    assert selections(1, 4, 2) == 12
    assert selections(4, 3, 2) == 6
    assert selections(3, 4, 2) == 6
    assert selections(4, 0, 0) == 1


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=8))
def test_selection_mode_inequalities(i, j):
    assert selections(1, i, j) <= selections(2, i, j)
    assert selections(3, i, j) <= selections(4, i, j)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=6))
def test_selections_ordered_unordered_factor(i, j):
    assert selections(1, i, j) == selections(3, i, j) * math.factorial(j)
