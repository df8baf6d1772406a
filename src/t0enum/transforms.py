"""The transform calculus connecting the catalog families.

All transforms take callables or tables rather than hard-wired classes: the
same few transforms apply to dozens of classes and the catalog composes
them.  Callbacks close over every variable except the one being summed.

Vocabulary (used across the package):
  * vertex_sieve        - inclusion-exclusion over i pinned vertices,
                          sum (-1)^i C(n,i) pinned(i);
  * t0_transform        - signed-Stirling filtration turning plain counts
                          into distinct-column counts, sum s(n,i) a(i);
  * t0_inverse          - its Stirling-second-kind inverse;
  * t0_transform_sets   - the same filtration for edge-set counts summed
                          over all m (index from 0);
  * ordered_with_repeats / unordered_with_repeats / order_factor -
                          edge-multiplicity transforms between the four row
                          conventions;
  * partition_type_sum  - inclusion-exclusion over vertex set partitions;
  * cover_transform     - the shift producing distinct-column cover counts
                          from plain counts of an isolated-vertex-stable
                          property;
  * connected_count     - the connected-component recurrence, the one
                          double sum of every connected family; it reads
                          rows, not cells (entry t of a row is the value on
                          t vertices, entry 0 is unread);
  * kept_row            - the rows connected_count reads, one list per key
                          (family and every fixed argument), kept for the
                          process and extended on demand;
  * first_egf_mismatch / egf_log_check - the series-logarithm reference.
"""

from functools import cache
from math import factorial
from operator import mul

from .exactmath import (
    binom,
    partition_types,
    permutations_with_cycle_type,
    num_blocks,
    stirling1,
    stirling2,
)


class InsufficientTableDepthError(ValueError):
    """A series check was asked for orders the tables do not cover."""


def vertex_sieve(pinned, n):
    """sum_{i=0..n} (-1)^i C(n, i) pinned(i), pinned(i) counting the
    structures with i given vertices isolated (the sieve counts covers) or
    common to every edge (it counts no-common-vertex classes).  Every term is
    summed: a pinned count that vanishes says so itself."""
    total, weight = 0, 1  # weight is (-1)^i C(n, i)
    for i in range(n + 1):
        total += weight * pinned(i)
        weight = -weight * (n - i) // (i + 1)
    return total


def t0_transform(source, n):
    """sum_{i=1..n} s(n, i) source(i): plain counts -> distinct-column counts."""
    return sum(stirling1(n, i) * source(i) for i in range(1, n + 1))


def t0_inverse(source_star, n):
    """sum_{i=1..n} S(n, i) source_star(i); inverse of t0_transform on tables."""
    return sum(stirling2(n, i) * source_star(i) for i in range(1, n + 1))


def t0_transform_sets(source, n):
    """sum_{i=0..n} s(n, i) source(i): the filtration for counts summed over
    all edge multisets (no multiple edges, any number of edges)."""
    return sum(stirling1(n, i) * source(i) for i in range(0, n + 1))


def ordered_with_repeats(source, m):
    """sum_{i=1..m} S(m, i) source(i): distinct-row counts -> ordered counts
    with repeated rows allowed (edge-partition-invariant properties only)."""
    return sum(stirling2(m, i) * source(i) for i in range(1, m + 1))


def unordered_with_repeats(source, m):
    """sum_{i=1..m} C(m-1, i-1) source(i): distinct-edge-set counts ->
    edge-multiset counts (edge-partition-invariant properties only)."""
    return sum(binom(m - 1, i - 1) * source(i) for i in range(1, m + 1))


def order_factor(value, m, direction):
    """Divide or multiply by m! between ordered and unordered distinct rows."""
    if direction == "to_unordered":
        q, r = divmod(value, factorial(m))
        if r:
            raise ValueError(f"{value} not divisible by {m}! - upstream classification bug")
        return q
    if direction == "to_ordered":
        return value * factorial(m)
    raise ValueError(f"unknown direction {direction!r}")


@cache
def _signed_cycle_types(n):
    # (tau, (-1)^(n-|tau|) c(tau)) for every type of n, in type order
    return tuple(
        (tau, (-1) ** (n - num_blocks(tau)) * permutations_with_cycle_type(tau))
        for tau in partition_types(n)
    )


def partition_type_sum(alpha_tau, n):
    """Inclusion-exclusion over the set partitions of an n-set, for a
    callback that reads only a partition's type.

    A partition weighs the product over its blocks b of
    (-1)^(|b|-1) (|b|-1)!, so the partitions of type tau weigh
    (-1)^(n-|tau|) c(tau) together, c(tau) being the number of permutations
    of cycle type tau (Cauchy's formula).  The sum is therefore
    sum over types tau of (-1)^(n-|tau|) c(tau) alpha_tau(tau).

    The signed weights are built once per n and memoized; only alpha_tau is
    called per sum.  n above exactmath.MAX_PARTITION_TYPE_N raises
    BudgetExceededError before any type is built.
    """
    return sum(c * alpha_tau(tau) for tau, c in _signed_cycle_types(n))


def cover_transform(source, n):
    """sum_{i=1..n+1} s(n+1, i) source(i-1).

    For an isolated-vertex-stable property with plain counts source(i) at i
    vertices, returns the distinct-column cover count at n vertices.
    """
    return sum(stirling1(n + 1, i) * source(i - 1) for i in range(1, n + 2))


# key -> [None, family(1), family(2), ...]; see kept_row
_KEPT_ROWS = {}


def kept_row(key, family, n):
    """The row [None, family(1), ..., family(n-1)] kept under key, which
    names the family and every argument it fixes.

    The list is kept for the process and extended on demand, so it may be
    longer than n; entry 0 is a placeholder, never computed.  As in
    `exactmath._extend_triangle`, family(t) is appended only once it has
    returned, and only if the row is still t long: a family that reads its
    own row at t - 1 extends nothing twice, and one that raises leaves the
    row t long.  Callers only read the returned list.
    """
    row = _KEPT_ROWS.setdefault(key, [None])
    while len(row) < n:
        t = len(row)
        value = family(t)
        if len(row) == t:
            row.append(value)
    return row


def connected_count(head, inner, connected, ordered, m, n):
    """One cell of the connected-component recurrence (the exp-log identity).

    connected(m, n) = head - sum_{i=1..m} sum_{j=1..n-1}
                      nu(m, i) C(n-1, j-1) inner(m-i, n-j) connected(i, j)

    head counts every structure less those whose first vertex lies in no
    edge.  The sum removes those whose first-vertex component has i edges on
    j < n vertices: C(n-1, j-1) picks its other vertices and inner counts
    the other m - i edges on the other n - j vertices.  nu(m, i) is C(m, i)
    for ordered rows (which i rows form the component) and 1 otherwise.

    inner(mm, n) and connected(i, n) return rows, not values: sequences
    whose entry t is the value on t vertices for 1 <= t < n (entry 0 is
    never read, and entries past n - 1 are ignored).  The catalog passes
    `kept_row` rows, keyed by the family, its convention, its edge count
    and any size parameter and flag.  A cell builds the binomials C(n-1, .)
    once, reads 2m rows and sums over j in one pass per row pair.
    """
    weights = [1] * (n - 1)  # C(n-1, j-1) for j = 1..n-1, one Pascal row
    for j in range(1, n - 1):
        weights[j] = weights[j - 1] * (n - j) // j
    total = head
    for i in range(1, m + 1):
        nu = binom(m, i) if ordered else 1
        rest = inner(m - i, n)
        total -= nu * sum(map(mul, map(mul, weights, connected(i, n)[1:n]), rest[n - 1 : 0 : -1]))
    return total


def egf_log_check(alpha_table, omega_table, convention, order_x, order_y):
    """True iff the connected table is the series logarithm of the plain
    table, coefficientwise, under the convention's normalization.

    alpha_table must be dense for 0 <= m <= order_y, 0 <= n <= order_x and
    omega_table for 0 <= m <= order_y, 1 <= n <= order_x.
    """
    mismatch = first_egf_mismatch(alpha_table, omega_table, convention, order_x, order_y)
    return mismatch is None


def first_egf_mismatch(alpha_table, omega_table, convention, order_x, order_y):
    """First cell (m, n), scanning n then m, where the log identity fails,
    or None if it holds.

    Both tables are read as series, exponential in the vertex variable and,
    in the edge variable, exponential for conventions 1-2 but ordinary for
    conventions 3-4.  The logarithm l of the plain table a along the vertex
    variable is then, in integers only,

        l(m, n) = a(m, n) - sum_{j=1..n-1} C(n-1, j-1)
                  sum_{i=0..m} w(m, i) l(i, j) a(m-i, n-j)

    with w(m, i) = C(m, i) for conventions 1-2 and 1 for 3-4.  This is the
    reference the connected tables are checked against, so it is written
    out here and shares nothing with `connected_count`.  The constant
    column a(., 0) must be the series unit (1 at m = 0, else 0).
    """
    rows = range(order_y + 1)
    for m in rows:
        for n in range(order_x + 1):
            if (m, n) not in alpha_table:
                raise InsufficientTableDepthError(f"alpha table missing ({m}, {n})")
    a = [[alpha_table[(m, n)] for m in rows] for n in range(order_x + 1)]
    if a[0][0] != 1 or any(a[0][1:]):
        raise InsufficientTableDepthError("constant column is not the series unit")
    weights = [[binom(m, i) if convention in (1, 2) else 1 for i in range(m + 1)] for m in rows]
    log = [None]
    for n in range(1, order_x + 1):
        log.append([])
        for m in rows:
            value = a[n][m]
            for j in range(1, n):
                l_j, a_rest = log[j], a[n - j]
                value -= binom(n - 1, j - 1) * sum(
                    w * l_j[i] * a_rest[m - i] for i, w in enumerate(weights[m])
                )
            log[n].append(value)
            if (m, n) not in omega_table:
                raise InsufficientTableDepthError(f"omega table missing ({m}, {n})")
            if value != omega_table[(m, n)]:
                return (m, n)
    return None
