"""Closed forms and recurrences for every named counting family.

Family naming: a two-digit suffix `ij` means column i of the family's
property table and row convention j (1 ordered distinct rows, 2 ordered,
3 unordered distinct, 4 multiset).  A `star` family is the distinct-column
(separated-vertex) variant of the same class.

The fixed-size families take a keyword-only `bounded` flag: False admits
edges of size exactly k, True the sizes 1..k of the `bar_`/`bbar_` ids, as
in `registry._uniform_spec`.  It has no default, so a value has one cache key.

Boundary cells at n = 0 or m = 0 are taken from the natural closed forms
(`selections` of an empty column universe), which the oracle confirms on
every reachable cell; no ad-hoc stipulations are hard-coded unless a
recurrence needs a base value, and each such base is derived from first
principles in the docstring of the function that uses it.
"""

from functools import cache
from itertools import combinations, product
from math import factorial

from ..exactmath import (
    BudgetExceededError,
    binom,
    block_union_ksets,
    block_union_upto,
    falling,
    selections,
    stirling2,
)
from ..transforms import (
    connected_count,
    cover_transform,
    kept_row,
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
    either; the admissible row universe has 2^n - floor((j+1)/2) patterns.
    """
    return selections(conv, 2**n - (j + 1) // 2, m)


def alpha_star(j, conv, m, n):
    """Distinct-column counterpart of `alpha` via the signed-Stirling sum."""
    return t0_transform(lambda i: alpha(j, conv, m, i), n)


def bar_alpha(i, conv, m, n):
    """Classes with no common vertex, by inclusion-exclusion over the set of
    vertices lying in every edge.

    Pinning j >= 1 all-one columns makes any empty-edge constraint vacuous
    while a full-edge constraint survives on the rest, so the inner column
    index is 2*(i//2); the j = n term makes the one-edge cases come out
    right without special-casing.
    """
    return vertex_sieve(lambda j: alpha(i if j == 0 else 2 * (i // 2), conv, m, n - j), n)


def bar_alpha_star(i, conv, m, n):
    return t0_transform(lambda t: bar_alpha(i, conv, m, t), n)


# ---------------------------------------------------------------------------
# covers

def _beta_columns(i, conv, m):
    """The plain counts g(t) and h(t) that `beta` column i sieves: unpinned,
    and with isolated vertices pinned.  Columns 0..3 read `alpha` column i,
    4..7 (no singular vertex: covers with no common vertex) `bar_alpha`
    column i - 4.  Pinning keeps an empty-edge constraint and dissolves a
    full-edge constraint, so h reads that column mod 2."""
    family, c = (alpha, i) if i < 4 else (bar_alpha, i - 4)
    return (lambda t: family(c, conv, m, t)), (lambda t: family(c % 2, conv, m, t))


def beta(i, conv, m, n):
    """Cover counts by the isolated-vertex sieve over `_beta_columns`."""
    g, h = _beta_columns(i, conv, m)
    return vertex_sieve(lambda j: (g if j == 0 else h)(n - j), n)


def beta_41_closed(m, n):
    """Direct closed form for ordered distinct-row covers with no singular
    vertex: choose the singular columns (2 states each), distinct rows on the
    rest."""
    return vertex_sieve(lambda i: 2**i * falling(2 ** (n - i), m), n)


def beta_star(i, conv, m, n):
    """Distinct-column covers: the signed-Stirling filtration of `beta`,
    taken term by term.

    beta(t) is the sieve sum_u (-1)^(t-u) C(t, u) h(u) plus the excess
    g(t) - h(t) of its unpinned term.  Filtering the sieve gives the cover
    shift of h, since sum_t s(n, t) (-1)^(t-u) C(t, u) = s(n+1, u+1), which
    follows from [x]_(n+1) = x [x-1]_n.  The excess is zero for columns 0,
    1, 4 and 5: they forbid no full edge, so pinning dissolves nothing.
    """
    g, h = _beta_columns(i, conv, m)
    return cover_transform(h, n) + t0_transform(lambda t: g(t) - h(t), n)


# ---------------------------------------------------------------------------
# minimal covers (ordered distinct rows only)

def mu_01(m, n):
    """Minimal covers: partition a chosen support into the once-covered part
    and give every remaining vertex at least two incident edges."""
    if n < m:
        return 0
    return sum(
        binom(n, i) * stirling2(i, m) * factorial(m) * (2**m - m - 1) ** (n - i)
        for i in range(m, n + 1)
    )


def mu_star_01(m, n):
    """Distinct-column minimal covers: n! C(2^m - m - 1, n - m)."""
    if n < m:
        return 0
    return factorial(n) * binom(2**m - m - 1, n - m)


def mu_41(m, n):
    """Minimal covers without a common vertex, by pinning all-one columns:
    two or more edges each keep a private vertex off the pinned ones.  One
    edge is the full edge, which always has a common vertex, and with no
    edge only the empty vertex set is covered."""
    if m < 2:
        return int(m == n == 0)
    return vertex_sieve(lambda i: mu_01(m, n - i), n)


# ---------------------------------------------------------------------------
# fixed edge size k (ordered distinct rows)

def _edges(i, t, k, bounded):
    """Admissible edges through i pinned vertices and any of t free ones:
    size exactly k, or 1..k when bounded (none is larger than i + t).  Edges
    on no vertex (i = t = 0) exist only at exact size 0."""
    return sum(binom(t, size - i) for size in (range(1, min(k, i + t) + 1) if bounded else (k,)))


def theta(j, m, n, k, *, bounded):
    """Column j of the fixed-size classes: 0 all, 1 covers, 3 no common
    vertex, 4 both.  The no-common-vertex columns pin i common vertices,
    which every edge holds; the cover columns sieve the other vertices for
    isolated ones.  With no edge (m = 0) a pinned vertex is not covered."""

    def rows(i, t):  # distinct rows through i pinned vertices, t others
        if j in (0, 3):
            return falling(_edges(i, t, k, bounded), m)
        if i and not m:
            return 0
        return vertex_sieve(lambda l: falling(_edges(i, t - l, k, bounded), m), t)

    if j < 3:
        return rows(0, n)
    return vertex_sieve(lambda i: rows(i, n - i), n)


def bar_theta_51_from_21(oracle_21, m, n, k):
    """Minimal bounded-size covers without a common vertex, sieved from the
    minimal-cover column (supplied as a callable, normally the oracle).

    Zero for m = 1 like every other no-common-vertex column: a one-edge
    cover is the full edge, which intersects itself everywhere.
    """
    if m == 1:
        return 0
    return vertex_sieve(lambda i: oracle_21(m, n - i, k - i), n)


# ---------------------------------------------------------------------------
# fixed edge size, distinct columns: the partition-type sums and their column
# recurrences

@cache
def theta_star_0(s, m, n, k, *, bounded):
    """Distinct-column counts with edges of size k (sizes 1..k when
    bounded) via the partition-type sum.

    The callback counts edges as block unions of total size k (at most k);
    at m = 0 the sum collapses to [n = 1] which is exactly the right
    boundary.  At n = 0 the rows choose among the edges on no vertex.
    """
    if n == 0:
        return selections(s, _edges(0, 0, k, bounded), m)
    unions = block_union_upto if bounded else block_union_ksets
    return partition_type_sum(lambda tau: selections(s, unions(tau, k), m), n)


@cache
def theta_star_1(s, m, n, k, *, bounded):
    """Cover column: a distinct-column hypergraph has at most one isolated
    vertex, so theta_star_0(n) = theta_star_1(n) + n * theta_star_1(n-1).
    The empty-width matrix is vacuously a cover (n = 0).
    """
    if n == 0:
        return theta_star_0(s, m, 0, k, bounded=bounded)
    return theta_star_0(s, m, n, k, bounded=bounded) - n * theta_star_1(s, m, n - 1, k, bounded=bounded)


@cache
def theta_star_3(s, m, n, k):
    """No-common-vertex column: a distinct-column k-uniform hypergraph has at
    most one all-one column; deleting it leaves the (k-1)-uniform class on
    n - 1 vertices, still without a common vertex."""
    if m < 1:
        raise ValueError("column defined for m >= 1")
    if k < 0:
        return 0
    if n == 0:
        return selections(s, 1, m) if k == 0 else 0
    if k == 0:
        # all edges empty: no common vertex for free; distinct columns force n = 1
        return selections(s, 1, m) if n == 1 else 0
    return theta_star_0(s, m, n, k, bounded=False) - n * theta_star_3(s, m, n - 1, k - 1)


@cache
def theta_star_4(s, m, n, k):
    """Cover and no common vertex, by the one-isolated-vertex split again."""
    if m < 1:
        raise ValueError("column defined for m >= 1")
    if n == 0:
        return selections(s, 1, m) if k == 0 else 0
    if k == 0:
        return 0
    return theta_star_3(s, m, n, k) - n * theta_star_4(s, m, n - 1, k)


def _completion_count(m, t, size_set):
    """Ordered m-tuples of subsets of a t-set with sizes in size_set whose
    incidence matrix has pairwise-distinct columns, every column with at
    least two ones.  Exhaustive but only ever called with t <= n - m.

    None exists, and no pattern is listed, when t exceeds the 2^m - m - 1
    columns with two or more ones, or when those 2t or more ones exceed the
    m * max(size_set) the rows can hold.  More than MAX_COMPLETION_TUPLES
    row tuples raise BudgetExceededError before any pattern is listed."""
    if t == 0:
        return 1 if (m == 0 or 0 in size_set) else 0
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
    return order_factor(factorial(n) * bar_theta_circ_13(n, m, loops), m, "to_unordered")


# ---------------------------------------------------------------------------
# connected families

def _row_copies(conv, m, rest):
    """Structures on m rows that hold e >= 1 copies of one fixed row, the
    other m - e rows counted by rest(m - e).

    Distinct rows allow one copy: in any of m positions (convention 1) or,
    unordered, just once (3).  With repeats any e >= 1 copies may appear: in
    C(m, e) position sets (2) or, unordered, once for each e (4).
    """
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

    Boundaries: omega_1(0, 1) = 1, omega_1(0, n > 1) = 0; at n = 1 all edges
    equal the single vertex, so the count is selections(conv, 1, m).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if m == 0:
        return 1 if n == 1 else 0
    if n == 1:
        return selections(conv, 1, m)
    return connected_count(
        head=alpha(1, conv, m, n) - alpha(1, conv, m, n - 1),
        inner=lambda mm, nn: kept_row(("alpha_1", conv, mm), lambda t: alpha(1, conv, mm, t), nn),
        connected=lambda i, nn: kept_row(("omega_1", conv, i), lambda t: omega_1(conv, i, t), nn),
        ordered=conv in (1, 2), m=m, n=n,
    )


@cache
def omega(i, conv, m, n):
    """All eight connected columns.

    0..3: connected with the empty/full-edge constraints; 4..7 additionally
    without a common vertex (the subtracted connected-and-intersecting counts
    are exactly the covers with a common vertex).
    """
    if i == 0:
        # column 1 plus those with e >= 1 empty rows (one at most when distinct)
        if m == 0:
            return 1 if n == 1 else 0
        return omega_1(conv, m, n) + _row_copies(conv, m, lambda r: omega_1(conv, r, n))
    if i == 1:
        return omega_1(conv, m, n)
    if i in (2, 3):
        # less those holding a full edge, which connects everything: their
        # other edges form any hypergraph of alpha column i
        return omega(i - 2, conv, m, n) - _row_copies(conv, m, lambda r: alpha(i, conv, r, n))
    if 4 <= i <= 7:
        # less the covers with a common vertex, which are connected and hold
        # no empty edge: the covers of column c less those with no common
        # vertex (beta column c + 4)
        c = 0 if i < 6 else 2
        return omega(i - 4, conv, m, n) - beta(c, conv, m, n) + beta(c + 4, conv, m, n)
    raise ValueError(f"omega column {i} out of range")


def _omega_star_no_empty(i, conv, m, n):
    # columns 1, 3, 5, 7 forbid empty edges; their classes are condensation
    # stable, so the signed-Stirling filtration applies
    if m == 0:
        return 1 if n == 1 else 0
    return t0_transform(lambda t: omega(i, conv, m, t), n)


def omega_star(i, conv, m, n):
    """Distinct-column connected counts.

    The filtration transform is valid only for the empty-edge-free columns:
    with empty edges allowed, the one-vertex class contains edgeless
    matrices whose expansions are disconnected, so condensation invariance
    (and with it the Stirling sum) breaks.  Even columns are therefore
    assembled by distributing empty rows over the odd ones; a hypergraph
    with an empty edge never has a common vertex, which is why columns 4
    and 6 fall back to rest columns 1 and 3.
    """
    if i in (1, 3, 5, 7):
        return _omega_star_no_empty(i, conv, m, n)
    rest = 1 if i in (0, 4) else 3
    return _omega_star_no_empty(i + 1, conv, m, n) + _row_copies(
        conv, m, lambda r: _omega_star_no_empty(rest, conv, r, n)
    )


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
    m = 0 is [n = 1], which is the leftover-isolated-vertex boundary the
    recurrence needs.  Every hypergraph on one vertex is connected.  At
    k = 0 no two vertices are, and the recurrence is not run: exact size 0
    makes every edge empty, in no component, and sizes 1..0 admit none.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return theta_star_0(s, m, 1, k, bounded=bounded)
    if k == 0:
        return 0
    return connected_count(
        head=theta_star_0(s, m, n, k, bounded=bounded) - theta_star_1(s, m, n - 1, k, bounded=bounded),
        inner=lambda mm, nn: kept_row(
            ("theta_star_0", s, mm, k, bounded),
            lambda t: theta_star_0(s, mm, t, k, bounded=bounded), nn,
        ),
        connected=lambda i, nn: kept_row(
            ("bar_omega_star_0", s, i, k, bounded),
            lambda t: bar_omega_star_0(s, i, t, k, bounded=bounded), nn,
        ),
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
        head=theta_star_0(2, m, n, k, bounded=False) - theta_star_1(2, m, n - 1, k, bounded=False),
        inner=lambda mm, nn: kept_row(
            ("theta0_printed", mm, k), lambda t: theta0_printed(mm, t), nn
        ),
        connected=lambda i, nn: kept_row(
            ("bar_omega_star_02_as_printed", i, k),
            lambda t: bar_omega_star_02_as_printed(i, t, k), nn,
        ),
        ordered=k in (1, 2), m=m, n=n,
    )


def bbar_omega_star_12_as_printed(m, n, k):
    """Bounded-size connected recurrence read literally: the through-count
    inside the sum is the cover column, the split weight is indexed by the
    size parameter k, and the recursion refers to the empty-edges-allowed
    connected family: t empty rows, in C(i, t) places, spread over the
    bounded connected column, since an empty edge touches neither
    connectivity nor distinct columns."""
    if n == 1:
        return 1

    def with_empties(i, j):
        return sum(binom(i, t) * bar_omega_star_0(2, i - t, j, k, bounded=True) for t in range(i + 1))

    return connected_count(
        head=theta_star_0(2, m, n, k, bounded=True) - theta_star_1(2, m, n - 1, k, bounded=True),
        inner=lambda mm, nn: kept_row(
            ("theta_star_1", 2, mm, k, True),
            lambda t: theta_star_1(2, mm, t, k, bounded=True), nn,
        ),
        connected=lambda i, nn: kept_row(
            ("bbar_omega_star_12_with_empties", i, k), lambda j: with_empties(i, j), nn
        ),
        ordered=k in (1, 2), m=m, n=n,
    )
