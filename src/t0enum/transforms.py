"""The transform calculus connecting the catalog families.

All transforms take callables or tables rather than hard-wired classes: the
same few transforms apply to dozens of classes and the catalog composes
them.  Callbacks close over every variable except the one being summed.

Vocabulary (used across the package):
  * vertex_sieve        - inclusion-exclusion over i pinned vertices,
                          sum (-1)^i C(n,i) pinned(i);
  * t0_transform        - signed-Stirling filtration turning plain counts
                          into distinct-column counts, sum s(n,i) a(i),
                          which keeps the source's value with no vertex;
  * t0_inverse          - its Stirling-second-kind inverse;
  * t0_transform_sets   - the same filtration, reading i = 0 at every n;
  * ordered_with_repeats / order_factor - edge-multiplicity transforms
                          between the row conventions;
  * partition_type_sum  - inclusion-exclusion over vertex set partitions,
                          grouped by the blocks no longer than k;
  * cover_transform     - the shift producing distinct-column cover counts
                          from plain counts of an isolated-vertex-stable
                          property;
  * connected_count     - the connected-component recurrence, the one
                          double sum of every connected family; it keeps
                          the values it reads as rows, one list per caller's
                          key and edge count, kept for the process;
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
    sigma,
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
    if n < 0:
        raise ValueError("the vertex sieve needs n >= 0")
    total, weight = 0, 1  # weight is (-1)^i C(n, i)
    for i in range(n + 1):
        total += weight * pinned(i)
        weight = -weight * (n - i) // (i + 1)
    return total


def t0_transform(source, n):
    """sum_{i=0..n} s(n, i) source(i): plain counts -> distinct-column counts.
    s(n, 0) = [n = 0], so i = 0 is read at n = 0 only, and n < 0 reads none."""
    return sum(stirling1(n, i) * source(i) for i in range(0 if n == 0 else 1, n + 1))


def t0_inverse(source_star, n):
    """sum_{i=1..n} S(n, i) source_star(i); inverse of t0_transform on tables."""
    return sum(stirling2(n, i) * source_star(i) for i in range(1, n + 1))


def t0_transform_sets(source, n):
    """sum_{i=0..n} s(n, i) source(i): `t0_transform`, reading i = 0 at every n."""
    return sum(stirling1(n, i) * source(i) for i in range(0, n + 1))


def ordered_with_repeats(source, m):
    """sum_{i=1..m} S(m, i) source(i): distinct-row counts -> ordered counts
    with repeated rows allowed (edge-partition-invariant properties only)."""
    return sum(stirling2(m, i) * source(i) for i in range(1, m + 1))


def order_factor(value, m):
    """value / m!: ordered distinct-row counts -> unordered distinct rows."""
    q, r = divmod(value, factorial(m))
    if r:
        raise ValueError(f"{value} not divisible by {m}! - upstream classification bug")
    return q


def _long_cycle_signs(n, k):
    # g[r] for r = 0..n: permutations of an r-set whose cycles are all longer
    # than k, each signed (-1)^(r - cycles).  The cycle through one element
    # has some length c > k: g(r) = sum_c (-1)^(c-1) (c-1)! C(r-1, c-1) g(r-c).
    g = [1] + [0] * n
    for r in range(k + 1, n + 1):
        g[r] = sum(
            (-1) ** (c - 1) * factorial(c - 1) * binom(r - 1, c - 1) * g[r - c]
            for c in range(k + 1, r + 1)
        )
    return g


@cache
def _signed_cycle_types(n, k):
    # (tau, weight) for every type of n truncated at k, in type order
    types = partition_types(n, k)  # refuses n < 0 or over the cap first
    g = _long_cycle_signs(n, k)
    weights = []
    for tau in types:
        size = sigma(tau)
        c = (-1) ** (size - num_blocks(tau)) * permutations_with_cycle_type(tau)
        weights.append((tau, c * binom(n, size) * g[n - size]))
    return tuple(weights)


def partition_type_sum(alpha_tau, n, k):
    """Inclusion-exclusion over the set partitions of an n-set, for a
    callback that reads only how many blocks of each size 1..k a partition
    has: k is the largest block size it reads (n for whole types).

    A partition weighs the product over its blocks b of
    (-1)^(|b|-1) (|b|-1)!, the signed count of the cyclic orders of its
    blocks.  The partitions of a whole type tau weigh (-1)^(n-|tau|) c(tau)
    together, c(tau) being the number of permutations of cycle type tau
    (Cauchy's formula).  For a type tau = (a_1, ..., a_k) truncated at k,
    with sigma = sum(i * a_i) vertices in its short blocks and r = n - sigma
    in blocks longer than k, the weights add up to

        (-1)^(sigma-|tau|) c(tau) C(n, r) g_k(r),

    where g_k(r) = r! [x^r] (1 + x) exp(-sum_{i<=k} (-1)^(i-1) x^i / i) is
    the signed count of permutations of an r-set with every cycle longer
    than k (the exponential formula, Stanley, EC2 5.1).  g_k(r) is 0 for
    1 <= r <= k, so only r = 0 or r > k is listed; with k >= n that is the
    plain sum over whole types.

    The weights are built once per (n, k) and memoized; only alpha_tau is
    called per sum.  n = 0 has one partition, with no block.  n < 0 raises
    ValueError, and n above exactmath.MAX_PARTITION_TYPE_N raises
    BudgetExceededError before any type is built.
    """
    return sum(c * alpha_tau(tau) for tau, c in _signed_cycle_types(n, k))


def cover_transform(source, n):
    """sum_{i=1..n+1} s(n+1, i) source(i-1).

    For an isolated-vertex-stable property with plain counts source(i) at i
    vertices, returns the distinct-column cover count at n vertices.
    """
    return sum(stirling1(n + 1, i) * source(i - 1) for i in range(1, n + 2))


# key -> [None, family(1), family(2), ...]; see _kept_row
_KEPT_ROWS = {}


def _kept_row(key, family, n):
    """The row [None, family(1), ..., family(n-1)] kept under key.

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


def connected_count(key, head, inner, connected, ordered, m, n):
    """One cell of the connected-component recurrence (the exp-log identity).

    connected(m, n) = head - sum_{i=1..m} sum_{j=1..n-1}
                      nu(m, i) C(n-1, j-1) inner(m-i, n-j) connected(i, j)

    head counts every structure less those whose first vertex lies in no
    edge.  The sum removes those whose first-vertex component has i edges on
    j < n vertices: C(n-1, j-1) picks its other vertices and inner counts
    the other m - i edges on the other n - j vertices.  nu(m, i) is C(m, i)
    for ordered rows (which i rows form the component) and 1 otherwise.

    inner(mm, t) and connected(i, t) return values on t >= 1 vertices.  The
    recurrence keeps them for the process as rows, entry t the value on t
    vertices: inner rows under (key, "inner", mm) and connected rows under
    (key, i).  So key must name the family and every argument its callbacks
    fix: its convention and any size parameter and flag.  A cell builds the
    binomials C(n-1, .) once, reads 2m rows and sums over j in one pass per
    row pair.
    """
    weights = [1] * (n - 1)  # C(n-1, j-1) for j = 1..n-1, one Pascal row
    for j in range(1, n - 1):
        weights[j] = weights[j - 1] * (n - j) // j
    total = head
    for i in range(1, m + 1):
        nu = binom(m, i) if ordered else 1
        rest = _kept_row((key, "inner", m - i), lambda t: inner(m - i, t), n)
        row = _kept_row((key, i), lambda t: connected(i, t), n)
        total -= nu * sum(map(mul, map(mul, weights, row[1:n]), rest[n - 1 : 0 : -1]))
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
