"""Exact integer kernels used throughout the package.

Everything here is pure big-integer arithmetic (Python ints); no floating
point is used anywhere.  Stirling numbers are memoized by whole rows because
every consumer (the Stirling transforms, the partition-type sums) reads whole
rows at a time.  The table of partition types of n and the sub-type
polynomial of each (type, kmax) are memoized too, as tuples, since no
partition-type sum depends on more than n (and kmax).  Partition types are
capped at n <= MAX_PARTITION_TYPE_N: p(n) grows like exp(pi sqrt(2n/3)), and
a larger n is refused with BudgetExceededError before anything is built.
"""

import math
from functools import cache

# p(40) = 37,338 types, about 13 MB as tuples; p(n) more than doubles with
# every five steps of n beyond it.
MAX_PARTITION_TYPE_N = 40


class BudgetExceededError(RuntimeError):
    """A requested computation is outside its budget: an oracle walk over
    `oracle.OracleBudget`, a partition-type sum over MAX_PARTITION_TYPE_N,
    or a completion count over `catalog.families.MAX_COMPLETION_TUPLES`."""

    def __init__(self, message, m=None, n=None):
        super().__init__(message)
        self.m = m
        self.n = n


def binom(i, j):
    """C(i, j); zero when j < 0 or j > i."""
    if j < 0 or j > i:
        return 0
    return math.comb(i, j)


def falling(x, j):
    """Falling factorial x (x-1) ... (x-j+1), with [x]_0 = 1.

    Accepts negative x (polynomial semantics): transform sums may formally
    evaluate the falling factorial below zero and the closed forms still
    cancel correctly.
    """
    if j < 0:
        raise ValueError("falling factorial needs j >= 0")
    result = 1
    for t in range(j):
        result *= x - t
    return result


_S1_ROWS = [[1]]  # signed Stirling, first kind
_S2_ROWS = [[1]]  # Stirling, second kind


def _extend_triangle(rows, n, step):
    # Rows are appended only when complete, so concurrent readers never see
    # a partial row.
    while len(rows) <= n:
        prev = rows[-1]
        i = len(rows)
        row = [0] * (i + 1)
        for k in range(1, i + 1):
            row[k] = step(i, k, prev[k - 1], prev[k] if k < i else 0)
        rows.append(row)


def stirling1(n, i):
    """Signed Stirling number of the first kind s(n, i).

    Defined by [x]_n = sum_i s(n, i) x^i; s(0, 0) = 1, s(n, i) = 0 for i > n.
    """
    if n < 0 or i < 0:
        return 0
    _extend_triangle(_S1_ROWS, n, lambda m, k, a, b: a - (m - 1) * b)
    return _S1_ROWS[n][i] if i <= n else 0


def stirling2(n, i):
    """Stirling number of the second kind S(n, i): i-block partitions of an n-set."""
    if n < 0 or i < 0:
        return 0
    _extend_triangle(_S2_ROWS, n, lambda m, k, a, b: a + k * b)
    return _S2_ROWS[n][i] if i <= n else 0


@cache
def partition_types(n):
    """Every partition type of n exactly once, as a memoized tuple.

    Types are fixed-length n-tuples (a_1, ..., a_n) with sum(i * a_i) == n,
    trailing zeros kept so that componentwise comparison is positional.
    Order: lexicographic on the tuple.  The parts are filled from the
    largest size down and parts of size 1 take the remainder, so every
    branch ends in a type; the p(n) types are then sorted once.  n above
    MAX_PARTITION_TYPE_N raises BudgetExceededError.
    """
    if n < 1:
        raise ValueError("partition types need n >= 1")
    if n > MAX_PARTITION_TYPE_N:
        raise BudgetExceededError(
            f"partition types of n = {n} exceed the cap n <= {MAX_PARTITION_TYPE_N}", n=n
        )
    found = []
    acc = [0] * n

    def fill(i, remaining):
        # sizes above i are fixed; no part of size > remaining fits
        i = min(i, remaining)
        if i <= 1:
            acc[0] = remaining
            found.append(tuple(acc))
            return
        for a in range(remaining // i + 1):
            acc[i - 1] = a
            fill(i - 1, remaining - i * a)
        acc[i - 1] = 0

    fill(n, n)
    found.sort()
    return tuple(found)


def sigma(tau):
    """sum(i * a_i): the size of the underlying set."""
    return sum(i * a for i, a in enumerate(tau, start=1))


def num_blocks(tau):
    """|tau| = total number of blocks."""
    return sum(tau)


def permutations_with_cycle_type(tau):
    """Number of permutations of an n-set whose cycle type is tau."""
    n = sigma(tau)
    result = math.factorial(n)
    for i, a in enumerate(tau, start=1):
        result //= math.factorial(a) * i**a
    return result


@cache
def _sub_type_polynomial(tau, kmax):
    # coefficient j = number of sub-tuples beta <= tau with sigma(beta) == j,
    # weighted by prod C(a_i, b_i); plain polynomial convolution.  A tuple,
    # since the memoized entry is shared by every caller.  Coefficients past
    # sigma(tau) are 0 and not stored, so a huge kmax costs no memory.
    kmax = min(kmax, sigma(tau))
    coeffs = [0] * (kmax + 1)
    coeffs[0] = 1
    for i, a in enumerate(tau, start=1):
        if a == 0:
            continue
        nxt = [0] * (kmax + 1)
        for j in range(kmax + 1):
            if coeffs[j] == 0:
                continue
            for b in range(a + 1):
                size = j + i * b
                if size > kmax:
                    break
                nxt[size] += coeffs[j] * binom(a, b)
        coeffs = nxt
    return tuple(coeffs)


def block_union_ksets(tau, k):
    """Number of k-subsets of the ground set expressible as a union of blocks.

    For a partition with type tau, this counts sub-collections of blocks whose
    sizes sum to exactly k; the result depends on the type only.
    """
    if k < 0:
        return 0
    coeffs = _sub_type_polynomial(tau, k)
    return coeffs[k] if k < len(coeffs) else 0


def block_union_upto(tau, k):
    """Number of nonempty block unions of total size at most k."""
    if k < 1:
        return 0
    coeffs = _sub_type_polynomial(tau, k)
    return sum(coeffs[1:])


def selections(convention, i, j):
    """Ways to pick j rows from i candidate row patterns under a row convention.

    convention 1: ordered, distinct   -> [i]_j
    convention 2: ordered, repeats    -> i**j
    convention 3: unordered, distinct -> C(i, j)
    convention 4: multiset            -> C(i+j-1, j)
    """
    if j < 0:
        raise ValueError("selections needs j >= 0")
    if convention == 1:
        return falling(i, j)
    if convention == 2:
        return i**j
    if convention == 3:
        return binom(i, j)
    if convention == 4:
        if i == 0:
            return 1 if j == 0 else 0
        return binom(i + j - 1, j)
    raise ValueError(f"unknown row convention {convention!r}")
