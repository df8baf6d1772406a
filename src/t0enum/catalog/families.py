"""Closed forms and recurrences for every named counting family.

Family naming: a two-digit suffix `ij` means column i of the family's
property table and row convention j (1 ordered distinct rows, 2 ordered,
3 unordered distinct, 4 multiset).  A `star` family is the distinct-column
(separated-vertex) variant of the same class.

The fixed-size families take a keyword-only `bounded` flag: False admits
edges of size exactly k, True the sizes 1..k of the `bar_`/`bbar_` ids, as
in `registry._uniform_spec`.  It has no default, so a value has one cache key.

No family reads the oracle, so the oracle checks every count independently.

Boundary cells at n = 0 or m = 0 are taken from the natural closed forms:
at n = 0 the one row is both the empty and the full edge, so `alpha` column
3 admits none.  The oracle counts them too, from the one empty matrix.  No
base value is stipulated: one a recurrence needs is derived from first
principles in the docstring of the function using it.
"""

from functools import cache
from itertools import accumulate, combinations, product
from math import factorial

from ..exactmath import (
    BudgetExceededError,
    binom,
    block_union_ksets,
    block_union_upto,
    falling,
    selections,
)
from ..transforms import (
    connected_count,
    cover_transform,
    order_factor,
    partition_type_sum,
    t0_transform,
    vertex_sieve,
)

# Row tuples `_completion_count` may list.  Every cell of the test suite and
# of `verify --all` at 5 x 5 lists at most 64; 2^16 tuples take about 0.6 s
# on a 2-core host, and the time grows with the tuple count.
MAX_COMPLETION_TUPLES = 1 << 16


# ---------------------------------------------------------------------------
# arbitrary / no-empty / no-full families

def alpha(j, conv, m, n):
    """Hypergraph counts with empty/full-edge constraints only.

    j = 0 arbitrary, 1 without empty edges, 2 without full edges, 3 without
    either; the admissible row universe has 2^n - floor((j+1)/2) patterns,
    and is empty in column 3 at n = 0.
    """
    return selections(conv, 2**n - (j + 1) // 2 if n or j < 3 else 0, m)


def alpha_star(j, conv, m, n):
    """Distinct-column counterpart of `alpha` via the signed-Stirling sum."""
    return t0_transform(lambda i: alpha(j, conv, m, i), n)


# ---------------------------------------------------------------------------
# covers, and by complement (`registry`) the no-common-vertex classes

def _pinned_columns(i, m):
    """`beta` column i reads `alpha` column c = i mod 4 unpinned, c mod 2 on
    pinned isolated vertices and, in 4..7, 2 (c // 2) on pinned common ones
    (else None).  With no edge a vertex is both, so 4..7 read as 0..3."""
    c = i % 4
    return c, c % 2, (2 * (c // 2) if i > 3 and m else None)


def beta(i, conv, m, n):
    """Covers (columns 0..3) and covers with no common vertex, that is with
    no singular vertex (4..7), by one sieve over s pinned vertices.

    Pinned isolated vertices keep the no-empty constraint and dissolve
    no-full.  In columns 4..7 each pinned vertex may also be common: all
    common keep no-full, and the 2^s - 2 mixes dissolve both."""
    c, h, k = _pinned_columns(i, m)

    def pinned(s):
        if s == 0:
            return alpha(c, conv, m, n)
        common = 0 if k is None else alpha(k, conv, m, n - s) + (2**s - 2) * alpha(0, conv, m, n - s)
        return alpha(h, conv, m, n - s) + common

    return vertex_sieve(pinned, n)


def beta_star(i, conv, m, n):
    """Distinct-column covers: `beta`'s sieve filtered term by term.

    With h and k from `_pinned_columns`, its term at s >= 1 pinned vertices
    and t = n - s others is g(t) + 2^s a(t): g = alpha(h), a = 0 in columns
    0..3, and g = alpha(h) + alpha(k) - 2 alpha(0), a = alpha(0) in 4..7.
    Filtering sum_s (-r)^s C(t, s) f(t - s) gives sum_u f(u) [x^u] [x-r]_n: at
    r = 1 the cover shift of f, as [x]_(n+1) = x [x-1]_n, and at r = 2, as
    [x-1]_(n+1) = (x-1) [x-2]_n, the cover shift one vertex wider of f's
    running sums.  The unpinned term's excess is filtered from t = 0."""
    c, h, k = _pinned_columns(i, m)
    a = {j: [alpha(j, conv, m, t) for t in range(n + 1)] for j in ({c, h} if k is None else {0, c, h, k})}
    if k is None:
        return cover_transform(a[h].__getitem__, n) + t0_transform(lambda t: a[c][t] - a[h][t], n)
    sums = list(accumulate(a[0], initial=0))
    return (
        cover_transform(lambda t: a[h][t] + a[k][t] - 2 * a[0][t], n)
        + cover_transform(sums.__getitem__, n + 1)
        + t0_transform(lambda t: a[c][t] - a[h][t] - a[k][t] + a[0][t], n)
    )


# ---------------------------------------------------------------------------
# minimal covers (ordered distinct rows only)

def mu_01(m, n):
    """Minimal covers: every edge has a private vertex, so the rows are
    distinct and the matrix is a sequence of n nonzero column codes that
    hits each singleton e_1..e_m.  Sieve over the s singletons missed."""
    return vertex_sieve(lambda s: (2**m - 1 - s) ** n, m)


def mu_star_01(m, n):
    """Distinct-column minimal covers: n! C(2^m - m - 1, n - m)."""
    if n < m:
        return 0
    return factorial(n) * binom(2**m - m - 1, n - m)


def mu_41(m, n):
    """Minimal covers without a common vertex: `mu_01`'s sieve without the
    all-ones code, which for two or more edges is not a singleton.  One edge
    is the full edge, which always has a common vertex, and with no edge
    only the empty vertex set is covered."""
    if m < 2:
        return int(m == n == 0)
    return vertex_sieve(lambda s: (2**m - 2 - s) ** n, m)


# ---------------------------------------------------------------------------
# fixed edge size k (ordered distinct rows)

def _edges(i, t, k, bounded):
    """Admissible edges through i pinned vertices and any of t free ones:
    size exactly k, or 1..k when bounded (none is larger than i + t).  Edges
    on no vertex (i = t = 0) exist only at exact size 0."""
    return sum(binom(t, size - i) for size in (range(1, min(k, i + t) + 1) if bounded else (k,)))


def _singleton_rows(i, t, m, k, bounded):
    """Ordered m-tuples of edges through i pinned vertices and any of t free
    ones whose free columns hit each singleton e_1..e_m: `mu_01`'s sieve
    over the s singletons missed, and within it over the l free columns
    pinned to one of them.  Such a column is one more pinned vertex of its
    row: a row with e of them has r(e) = _edges(i + e, t - l) choices, and
    the s rows share the l columns in l! [z^l] R(z)^s ways, where
    R(z) = sum_e r(e) z^e / e!.  By the binomial theorem the sum over s,
    with r(0) for each other row, is (-1)^m l! [z^l] (R(z) - r(0))^m: every
    row holds one to k - i of the l columns."""
    total, most = 0, k - i  # most: the pinned columns one row can hold
    for l in range(m, min(m * most, t) + 1):
        r = [_edges(i + e, t - l, k, bounded) for e in range(min(l, most) + 1)]
        power = [1] + [0] * l  # j! [z^j] (R(z) - r(0))^s for j <= l, from s = 0
        for _ in range(m):
            power = [
                sum(binom(j, e) * power[j - e] * r[e] for e in range(1, min(j, most) + 1))
                for j in range(l + 1)
            ]
        total += (-1) ** (l + m) * binom(t, l) * power[l]
    return total


def theta(j, m, n, k, *, bounded):
    """Column j of the fixed-size classes: 0 all, 1 covers, 2 minimal
    covers, and 3, 4, 5 the same without a common vertex.  The
    no-common-vertex columns pin i common vertices, which every edge holds;
    the cover columns sieve the other vertices for isolated ones.  With no
    edge (m = 0) a pinned vertex is not covered, and with one the all-ones
    column is e_1 itself: the one-edge minimal cover has a common vertex."""

    def rows(i, t):  # distinct rows through i pinned vertices, t others
        if j in (0, 3):
            return falling(_edges(i, t, k, bounded), m)
        if i and not m:
            return 0
        if j in (1, 4):
            return vertex_sieve(lambda l: falling(_edges(i, t - l, k, bounded), m), t)
        if i > k:  # every row would hold more than k vertices
            return 0
        # rows that hit every singleton are distinct, as in `mu_01`
        return vertex_sieve(lambda l: _singleton_rows(i, t - l, m, k, bounded), t)

    if j < 3:
        return rows(0, n)
    if j == 5 and m == 1:
        return 0
    return vertex_sieve(lambda i: rows(i, n - i), n)


# ---------------------------------------------------------------------------
# fixed edge size, distinct columns: the partition-type sums and their column
# sieves

@cache
def theta_star_0(s, m, n, k, *, bounded):
    """Distinct-column counts with edges of size k (sizes 1..k when
    bounded) via the partition-type sum.

    The callback counts edges as block unions of total size k (at most k),
    so it reads only the blocks of at most k vertices; at m = 0 the sum
    collapses to [n <= 1], the right boundary.  At n = 0 its one partition
    has no block, and the rows choose among the edges on no vertex.
    """
    unions = block_union_upto if bounded else block_union_ksets
    return partition_type_sum(
        lambda tau: selections(s, unions(tau, k), m), n, max(0, min(k, n))
    )


def theta_star_1(s, m, n, k, *, bounded):
    """Cover column: a distinct-column hypergraph has at most one isolated
    vertex, so theta_star_0(n) = theta_star_1(n) + n * theta_star_1(n-1).
    Unrolled, j nested splits weigh theta_star_0(n - j) by [n]_j =
    C(n, j) j!: the vertex sieve of j! theta_star_0.  The empty-width matrix
    is vacuously a cover (n = 0)."""
    return vertex_sieve(lambda j: factorial(j) * theta_star_0(s, m, n - j, k, bounded=bounded), n)


@cache
def theta_star_3(s, m, n, k):
    """No-common-vertex column: a distinct-column k-uniform hypergraph has at
    most one all-one column; deleting it leaves the (k-1)-uniform class on
    n - 1 vertices, so theta_star_0(n, k) = theta_star_3(n, k) +
    n * theta_star_3(n-1, k-1).  Unrolled, the sieve of `theta_star_1` with
    the size dropping by one per pinned vertex; a negative size admits no
    edge.  With no edge (m = 0) every vertex is common, and the sieve counts
    only the empty vertex set."""
    return vertex_sieve(lambda j: factorial(j) * theta_star_0(s, m, n - j, k - j, bounded=False), n)


def theta_star_4(s, m, n, k):
    """Cover and no common vertex: the sieve of `theta_star_1` over the
    no-common-vertex column.  With no edge (m = 0) its split does not hold,
    since one vertex would be isolated and common at once: the sieve would
    read (-1)^n n!, and only the empty vertex set counts."""
    if m == 0:
        return int(n == 0)
    return vertex_sieve(lambda j: factorial(j) * theta_star_3(s, m, n - j, k), n)


def _completion_count(m, t, size_set):
    """Ordered m-tuples of subsets of a t-set with sizes in size_set whose
    incidence matrix has pairwise-distinct columns, every column with at
    least two ones.  Exhaustive but only ever called with t <= n - m; at
    t = 0 it lists the one tuple of empty rows, if size 0 is admitted.

    None exists, and no pattern is listed, when t exceeds the 2^m - m - 1
    columns with two or more ones, or when those 2t or more ones exceed the
    m * max(size_set) the rows can hold.  More than MAX_COMPLETION_TUPLES
    row tuples raise BudgetExceededError before any pattern is listed."""
    if t > 2**m - m - 1 or 2 * t > m * max(size_set):
        return 0
    # The patterns are counted only until they pass the cap: a wide size
    # set would sum many large binomials.
    n_patterns = 0
    for s in sorted(size_set):
        n_patterns += binom(t, s)
        if n_patterns > MAX_COMPLETION_TUPLES:
            break
    if n_patterns > MAX_COMPLETION_TUPLES or n_patterns**m > MAX_COMPLETION_TUPLES:
        raise BudgetExceededError(
            f"completions of {m} rows over {t} vertices exceed {MAX_COMPLETION_TUPLES} row tuples"
        )
    patterns = [sum(1 << j for j in c) for s in size_set for c in combinations(range(t), s)]
    total = 0
    for rows in product(patterns, repeat=m):
        cols = [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(t)]
        if len(set(cols)) == t and all(c.bit_count() >= 2 for c in cols):
            total += 1
    return total


def theta_star_21(m, n, k, *, bounded):
    """Minimal distinct-column covers with edges of size k (1..k when bounded).

    Distinct columns force exactly one private vertex per edge; place the m
    private vertices ([n]_m ways), then complete each edge with k-1 vertices
    (0..k-1 when bounded) among the rest so that every remaining vertex is
    covered at least twice and columns stay distinct.
    """
    if m == 0:
        return int(n == 0)  # with no edge only the empty vertex set is covered
    if n < m or k < 1:
        return 0
    # no completion has more than the n - m free vertices
    sizes = set(range(min(k, n - m + 1))) if bounded else {k - 1}
    return falling(n, m) * _completion_count(m, n - m, sizes)


# --- the column recurrences exactly as printed, for the errata ledger ------

def theta_star_12_cover_recurrence_as_printed(m, n, k):
    """Cover-column recurrence with the garbled inner subscript read
    literally: the subtracted term is the convention-1 value even though the
    left side is convention 2."""
    if n == 0:
        return 1 if m == 0 else 0
    return theta_star_0(2, m, n, k, bounded=False) - n * theta_star_1(1, m, n - 1, k, bounded=False)


@cache
def theta_star_32_intersection_recurrence_as_printed(m, n, k):
    """No-common-vertex recurrence with the last term keeping parameter k
    instead of k - 1, read literally."""
    if k < 0:
        return 0
    if n == 0:
        return selections(2, 1, m) if k == 0 else 0
    if k == 0:
        return selections(2, 1, m) if n == 1 else 0
    # read first, so that the partition-type sum refuses a large n before
    # any recursion
    plain = theta_star_0(2, m, n, k, bounded=False)
    return plain - n * theta_star_32_intersection_recurrence_as_printed(m, n - 1, k)


def theta_star_21_minimal_recurrence_as_printed(m, n, k):
    """Minimal column from the cover column, read literally: the completion
    factor is the cover count, which also admits once-covered vertices."""
    if m < 1 or n < m or k < 1:
        return 0
    return falling(n, m) * theta_star_1(2, m, n - m, k - 1, bounded=False)


def bar_theta_star_21_minimal_recurrence_as_printed(m, n, k):
    if m < 1 or n < m or k < 1:
        return 0
    return falling(n, m) * sum(
        binom(m, j) * theta_star_1(2, j, n - m, k - 1, bounded=True) for j in range(1, m + 1)
    )


# ---------------------------------------------------------------------------
# graphs without isolated-edge components (the fixed k = 2 worked family)

def _pairings(n, k):
    """Ways to choose k pairwise-disjoint unordered pairs from an n-set."""
    return falling(n, 2 * k) // (2**k * factorial(k))


def bar_theta_circ_03(m, n, loops=False):
    """Graphs with m edges on n labelled vertices and no component that is a
    single disjoint edge, by inclusion-exclusion on such components.  With
    loops, the n one-vertex edges are admitted too (sizes 1 and 2, no
    repeats)."""
    total = 0
    for k in range(min(n // 2, m) + 1):
        rest = n - 2 * k
        slots = binom(rest, 2) + (rest if loops else 0)
        total += (-1) ** k * _pairings(n, k) * binom(slots, m - k)
    return total


def bar_theta_circ_13(m, n, loops=False):
    """Adds the no-isolated-vertex sieve."""
    return vertex_sieve(lambda i: bar_theta_circ_03(m, n - i, loops), n)


def bar_beta_star_13(m, n, loops=False):
    """Unordered distinct-column double covers without empty edges (every
    vertex in exactly two edges, or with loops in one or two), transferred
    from the graph count by the transpose bijection."""
    return order_factor(factorial(n) * bar_theta_circ_13(n, m, loops), m)


# ---------------------------------------------------------------------------
# connected families

def _row_copies(conv, m, rest):
    """Structures on m rows that hold e >= 1 copies of one fixed row, the
    other m - e rows counted by rest(m - e).

    Distinct rows allow one copy: in any of m positions (convention 1) or,
    unordered, just once (3).  With repeats any e >= 1 copies may appear: in
    C(m, e) position sets (2) or, unordered, once for each e (4).  With no
    row there is no copy.
    """
    if m < 1:
        return 0
    if conv == 1:
        return m * rest(m - 1)
    if conv == 2:
        return sum(binom(m, e) * rest(m - e) for e in range(1, m + 1))
    if conv == 3:
        return rest(m - 1)
    return sum(rest(m - e) for e in range(1, m + 1))


@cache
def omega_1(conv, m, n):
    """Connected hypergraphs without empty edges, by the component
    recurrence (`transforms.connected_count`): from every hypergraph remove
    those whose first vertex lies in no edge (the no-empty-edge hypergraphs
    on the other n - 1 vertices) and those whose first-vertex component is
    smaller than the whole vertex set.

    At n = 0 nothing is connected.  At n = 1 all edges equal the one vertex:
    selections(conv, 1, m).  With no edge and n >= 2 the head and the empty
    sum over edges read 0.
    """
    if n == 0:
        return 0
    if n == 1:
        return selections(conv, 1, m)
    return connected_count(
        key=("omega_1", conv),
        head=alpha(1, conv, m, n) - alpha(1, conv, m, n - 1),
        inner=lambda mm, t: alpha(1, conv, mm, t),
        connected=lambda i, t: omega_1(conv, i, t),
        ordered=conv in (1, 2), m=m, n=n,
    )


@cache
def omega(i, conv, m, n):
    """All eight connected columns.

    0..3: connected with the empty/full-edge constraints; 4..7 additionally
    without a common vertex (the subtracted connected-and-intersecting counts
    are exactly the covers with a common vertex).
    """
    if n == 0:  # nothing is connected on no vertex
        return 0
    if i == 0:
        # column 1 plus those with e >= 1 empty rows (one at most when distinct)
        return omega_1(conv, m, n) + _row_copies(conv, m, lambda r: omega_1(conv, r, n))
    if i == 1:
        return omega_1(conv, m, n)
    if i in (2, 3):
        # less those holding a full edge, which connects everything: their
        # other edges form any hypergraph of alpha column i
        return omega(i - 2, conv, m, n) - _row_copies(conv, m, lambda r: alpha(i, conv, r, n))
    if 4 <= i <= 7:
        # less the covers with a common vertex, which are connected and hold
        # no empty edge: beta column c less c + 4.  With no edge a lone
        # vertex is connected and common to every edge, but no cover.
        if m == 0:
            return 0
        c = 0 if i < 6 else 2
        return omega(i - 4, conv, m, n) - beta(c, conv, m, n) + beta(c + 4, conv, m, n)
    raise ValueError(f"omega column {i} out of range")


def omega_star(i, conv, m, n):
    """Distinct-column connected counts.

    The columns that forbid empty edges (1, 3) are condensation stable and
    take the filtration of `omega_star_as_printed`; with no edge only one
    vertex is connected.  With empty edges allowed, the one-vertex class
    holds edgeless matrices whose expansions are disconnected, so the
    Stirling sum breaks: columns 0 and 2 spread empty rows over 1 and 3.
    Columns 4..7 are column i - 4 less its covers with a common vertex:
    distinct columns hold one all-ones column at most, and deleting it
    leaves a cover with no singular vertex (`beta_star` column c + 4 for
    c = i - 4 rounded down to even) on the other n - 1 vertices.
    """
    if i > 3:
        return omega_star(i - 4, conv, m, n) - n * beta_star(i - i % 2, conv, m, n - 1)
    if i % 2:
        return int(n == 1) if m == 0 else omega_star_as_printed(i, conv, m, n)
    return omega_star(i + 1, conv, m, n) + _row_copies(conv, m, lambda r: omega_star(i + 1, conv, r, n))


def omega_star_as_printed(i, conv, m, n):
    """The filtration transform applied to every connected column uniformly,
    as the starred proposition states it; wrong for the empty-edge columns."""
    return t0_transform(lambda t: omega(i, conv, m, t), n)


# ---------------------------------------------------------------------------
# connected fixed-edge-size families, distinct columns

@cache
def bar_omega_star_0(s, m, n, k, *, bounded):
    """Connected distinct-column hypergraphs with edges of size k (1..k when
    bounded).

    The component recurrence (`transforms.connected_count`) driven by the
    theta_star tables: theta_star_1(n - 1) of them leave the first vertex in
    no edge (distinct columns make the rest a cover), and theta_star_0 at
    m = 0 and n >= 1 is [n = 1], the leftover-isolated-vertex boundary the
    recurrence needs.  Nothing is connected at n = 0, everything at n = 1.
    At k = 0 no two vertices are, and the recurrence is not run: exact size
    0 makes every edge empty, in no component, and sizes 1..0 admit none.
    """
    if n == 0:
        return 0
    if n == 1:
        return theta_star_0(s, m, 1, k, bounded=bounded)
    if k == 0:
        return 0
    return connected_count(
        key=("bar_omega_star_0", s, k, bounded),
        head=theta_star_0(s, m, n, k, bounded=bounded) - theta_star_1(s, m, n - 1, k, bounded=bounded),
        inner=lambda mm, t: theta_star_0(s, mm, t, k, bounded=bounded),
        connected=lambda i, t: bar_omega_star_0(s, i, t, k, bounded=bounded),
        ordered=s in (1, 2), m=m, n=n,
    )


@cache
def bar_omega_star_02_as_printed(m, n, k):
    """Connected k-uniform recurrence read literally: the split weight is
    indexed by the size parameter k (ordered for k in (1, 2)) instead of the
    row convention, and the zero-edge boundary is 1 even on two or more
    leftover vertices (theta0_printed)."""
    if n == 1:
        if k == 1:
            return 1
        return 0

    def theta0_printed(mm, t):
        if mm == 0:
            return 1
        return theta_star_0(2, mm, t, k, bounded=False)

    return connected_count(
        key=("bar_omega_star_02_as_printed", k),
        head=theta_star_0(2, m, n, k, bounded=False) - theta_star_1(2, m, n - 1, k, bounded=False),
        inner=theta0_printed,
        connected=lambda i, t: bar_omega_star_02_as_printed(i, t, k),
        ordered=k in (1, 2), m=m, n=n,
    )


def bbar_omega_star_12_as_printed(m, n, k):
    """Bounded-size connected recurrence read literally: the through-count
    inside the sum is the cover column, the split weight is indexed by the
    size parameter k, and the recursion refers to the empty-edges-allowed
    connected family: e >= 0 empty rows spread over the bounded connected
    column (`_row_copies`), since an empty edge touches neither
    connectivity nor distinct columns."""
    if n == 1:
        return 1

    def with_empties(i, j):
        return bar_omega_star_0(2, i, j, k, bounded=True) + _row_copies(
            2, i, lambda r: bar_omega_star_0(2, r, j, k, bounded=True)
        )

    return connected_count(
        key=("bbar_omega_star_12_as_printed", k),
        head=theta_star_0(2, m, n, k, bounded=True) - theta_star_1(2, m, n - 1, k, bounded=True),
        inner=lambda mm, t: theta_star_1(2, mm, t, k, bounded=True),
        connected=with_empties,
        ordered=k in (1, 2), m=m, n=n,
    )
