"""Exhaustive ground-truth counting for small (m, n).

The oracle is the referee for every catalog formula: it counts the (m, n)
matrices of the spec's row convention that satisfy the spec.

Every `MatrixFeatures` field is invariant under reordering the rows, and
under reordering the columns too: `row_sizes` and `col_sizes` are sorted,
and every other field is a property of the set of rows or of the set of
columns.  So per (m, n) the oracle walks each multiset of one side's codes
once and counts its feature record, weighted by the number of orders of the
multiset, k! / prod(mult!) for k walked codes: the size of its orbit under
permutations of that side (Harary & Palmer, Graphical Enumeration, 1973,
ch. 2).  Either side gives the same 'ordered' Counter, the one conventions 1
and 2 read.  Conventions 3 and 4 are quotients by row permutations only, so
they read the 'multisets' Counter, the row walk's leaves with weight 1.

* The row walk (m codes of n bits) fills both Counters at once.
* The column walk (n codes of m bits) fills 'ordered' alone.  An ordered
  request runs it when it has strictly fewer leaves,
  C(2**m + n - 1, n) < C(2**n + m - 1, m): for a wide cell such as (2, 8)
  that is 165 leaves instead of 32,896.

Conventions 1 and 3 read the Counters restricted to records with
pairwise-distinct rows.

The walk is depth first over nondecreasing codes, in the order of
`combinations_with_replacement(range(2**width), k)`, so the budget's
multiset count is exactly the number of leaves.  Each step carries the
codes of the other side for the current prefix (walked code i owns bit i
of every carried code, so moving code i to the next value toggles that bit
only where the two values differ) and its running prod(mult!) denominator;
no leaf rebuilds either.  Leaves are counted as plain feature tuples
(`hypercore._feature_record`, given the rows and the columns in their true
roles), and each distinct tuple becomes one `MatrixFeatures` when the walk
ends.

Evaluating a spec then only walks the (much smaller) set of distinct
feature records.  The tests check the feature records and
`features_satisfy` against the literal definitions of the class properties,
and pin the counts and both walks' Counters to a plain enumeration of all
ordered matrices, so the fast path cannot drift.
"""

from collections import Counter
from dataclasses import asdict, dataclass, field
from math import comb, factorial

from .exactmath import BudgetExceededError
from .hypercore import MatrixFeatures, _feature_record, features_satisfy


@dataclass(frozen=True)
class OracleBudget:
    """The one enumeration cap, shared by every oracle call.  A walk may
    hold at most max_cells codes of at most max_cells bits per leaf, which
    bounds the work per leaf and is checked before any binomial is built,
    and it may have at most 2**max_cells leaves.  A walk takes m codes of n
    bits or n codes of m bits, so the first cap reads max(m, n) <=
    max_cells, and the second prices the walk `_walk_plan` picks."""

    max_cells: int = 20

    def __post_init__(self):
        if self.max_cells < 1:
            raise ValueError("budget cap out of range: need max_cells >= 1")

    def check(self, convention, m, n):
        if max(m, n) > self.max_cells:
            raise BudgetExceededError(f"max(m, n) = {max(m, n)} exceeds max_cells = {self.max_cells}", m=m, n=n)
        side, leaves = _walk_plan(_KIND[convention], m, n)
        k, width = (m, n) if side == "rows" else (n, m)
        # The count is compared by bit length and never printed, so a huge
        # cap builds no power of two and a huge count is never formatted.
        if (leaves - 1).bit_length() > self.max_cells:  # leaves > 2**max_cells
            raise BudgetExceededError(
                f"C(2**{width} + {k} - 1, {k}) {side[:-1]} multisets exceed 2**{self.max_cells}", m=m, n=n
            )


DEFAULT_BUDGET = OracleBudget()

# The Counter a row convention reads.
_KIND = {1: "ordered", 2: "ordered", 3: "multisets", 4: "multisets"}

# (kind, m, n) -> Counter of MatrixFeatures, kind in 'ordered', 'multisets';
# a row walk fills both kinds of a cell, a column walk 'ordered' alone.
_FEATURE_CACHE = {}


def _walk_plan(kind, m, n):
    """(side, leaves): the side a walk for this kind of Counter walks and
    its number of multisets.  An 'ordered' Counter walks the columns when
    their C(2**m + n - 1, n) multisets are strictly fewer than the
    C(2**n + m - 1, m) row multisets; anything else walks the rows."""
    rows = comb(2**n + m - 1, m)
    if kind == "ordered":
        columns = comb(2**m + n - 1, n)
        if columns < rows:
            return "columns", columns
    return "rows", rows


def _feature_counter(kind, m, n):
    """Counter of MatrixFeatures over the (m, n) matrices of one kind,
    weighted as in the module docstring."""
    key = (kind, m, n)
    hit = _FEATURE_CACHE.get(key)
    if hit is not None:
        return hit
    side, _ = _walk_plan(kind, m, n)
    records, weighted = _walk_multisets(m, n, side)
    features = {record: MatrixFeatures(*record) for record in weighted}
    _FEATURE_CACHE[("ordered", m, n)] = Counter({features[r]: c for r, c in weighted.items()})
    if side == "rows":
        _FEATURE_CACHE[("multisets", m, n)] = Counter({features[r]: c for r, c in records.items()})
    return _FEATURE_CACHE[key]


def _walk_multisets(m, n, side):
    """Counters of feature records over the multisets of one side's codes
    of the (m, n) cell: one with weight 1 and one with weight k!/prod(mult!).

    side is 'rows' (m codes of n bits, carrying the n columns) or
    'columns' (n codes of m bits, carrying the m rows).  Depth first over
    nondecreasing codes, in the order of
    combinations_with_replacement(range(2**width), k).  Beyond the Counters
    it keeps O(m + n) ints: the walked codes, the carried codes, and per
    walked code the length of its run of equal codes and the prod(mult!) of
    the prefix ending there.
    """
    multisets, ordered = Counter(), Counter()
    k, width = (m, n) if side == "rows" else (n, m)
    k_factorial = factorial(k)
    last = (1 << width) - 1
    # The first multiset is k copies of code 0, which sets no carried bit.
    walked, carried = [0] * k, [0] * width
    rows, cols = (walked, carried) if side == "rows" else (carried, walked)
    runs = list(range(1, k + 1))
    denominators = [factorial(run) for run in runs]
    while True:
        record = _feature_record(rows, n, cols)
        multisets[record] += 1
        ordered[record] += k_factorial // denominators[-1]
        # Back up past the codes at the last value (all width bits set).
        i = k - 1
        while walked[i] == last:
            own = 1 << i
            for j in range(width):
                carried[j] ^= own
            i -= 1
            if i < 0:
                return multisets, ordered
        # Code i moves to the next value, which starts a new run.
        code = walked[i]
        _toggle(carried, code ^ (code + 1), 1 << i)
        code += 1
        walked[i] = code
        runs[i] = 1
        denominators[i] = denominators[i - 1] if i else 1
        # The codes after it restart at the same value, extending its run.
        for d in range(i + 1, k):
            walked[d] = code
            _toggle(carried, code, 1 << d)
            runs[d] = runs[d - 1] + 1
            denominators[d] = denominators[d - 1] * runs[d]


def _toggle(carried, bits, own):
    """Flip the bit `own` in each carried code named by a set bit of `bits`."""
    while bits:
        low = bits & -bits
        carried[low.bit_length() - 1] ^= own
        bits ^= low


def count(spec, m, n, budget=DEFAULT_BUDGET):
    """Exact number of labelled (m, n)-hypergraphs in the class.

    One orbit-weighted walk serves every convention: convention 2 reads the
    'ordered' counter (multinomial weights, so all 2**(m*n) matrices, from
    the cheaper side's walk), convention 4 the unweighted 'multisets'
    counter of the row walk, and conventions 1 and 3 the same counters
    restricted to pairwise-distinct rows.
    """
    if m < 1 or n < 1:
        raise ValueError("oracle counts need m >= 1 and n >= 1")
    conv = spec.row_convention
    budget.check(conv, m, n)
    counter = _feature_counter(_KIND[conv], m, n)
    distinct_rows = conv in (1, 3)
    total = 0
    for feats, mult in counter.items():
        if distinct_rows and not feats.rows_distinct:
            continue
        if features_satisfy(feats, spec):
            total += mult
    return total


@dataclass(frozen=True)
class ErrataRecord:
    """One formula-vs-oracle disagreement at one grid cell."""

    class_id: str
    m: int
    n: int
    k: object
    formula_value: int
    oracle_value: int
    reference: str
    status: str  # confirmed-typo | convention-gap | unresolved

    def as_dict(self):
        # the counts as strings, so JSON readers need not hold big integers
        counts = {"formula_value": str(self.formula_value), "oracle_value": str(self.oracle_value)}
        return {**asdict(self), **counts}


@dataclass
class GridReport:
    """Outcome of verifying one class over a rectangular grid.

    `errata` holds one record per disagreeing cell; cells whose oracle or
    formula refused its budget are listed in `skipped`, never raised as
    failures.
    """

    class_id: str
    errata: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    cells_checked: int = 0

    @property
    def verified(self):
        return not self.errata


def verify_grid(class_id, m_max, n_max, k=None, budget=DEFAULT_BUDGET, errata_corrected=False):
    """Evaluate formula and oracle on every in-budget cell of a class.

    `class_id` must resolve to a catalog entry carrying both an evaluator and
    a ClassSpec (or a custom oracle).  The budget bounds the oracle side; a
    formula reads no oracle and refuses a cell only through its own caps.
    Either refusal skips the cell.  Returns a GridReport; one ErrataRecord
    per disagreement, an empty record list meaning the class verified.
    """
    from . import catalog

    entry = catalog.resolve_class(class_id)
    report = GridReport(class_id=class_id)
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            try:
                oracle_value = entry.oracle_count(m, n, k=k, budget=budget)
                formula_value = entry.evaluate(m, n, k=k, errata_corrected=errata_corrected)
            except BudgetExceededError:
                report.skipped.append((m, n, k))
                continue
            report.cells_checked += 1
            if formula_value != oracle_value:
                report.errata.append(
                    ErrataRecord(
                        class_id=class_id,
                        m=m,
                        n=n,
                        k=k,
                        formula_value=formula_value,
                        oracle_value=oracle_value,
                        reference=entry.reference,
                        status=catalog.classify_discrepancy(entry, m, n, k, formula_value, oracle_value),
                    )
                )
    return report
