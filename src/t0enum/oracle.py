"""Exhaustive ground-truth counting for small (m, n).

The oracle is the referee for every catalog formula: it counts the (m, n)
matrices of the spec's row convention that satisfy the spec.

Every `MatrixFeatures` field is invariant under reordering the rows, and
three of the four row conventions are quotients of the ordered matrices by
row permutations.  So per (m, n) the oracle walks each multiset of m row
codes once and counts its feature record in two Counters at once; conventions
1 and 3 read them restricted to records with pairwise-distinct rows:

* 'multisets' (conventions 3 and 4): weight 1;
* 'ordered' (conventions 1 and 2): the number of row orders of the
  multiset, m! / prod(mult!), the size of its orbit under row permutations
  (Harary & Palmer, Graphical Enumeration, 1973, ch. 2).

The walk is depth first over nondecreasing row codes, in the order of
`combinations_with_replacement(range(2**n), m)`, so the budget's multiset
count is exactly the number of leaves.  Each step carries the columns of
the current prefix (row i owns bit i of every column, so moving row i to
the next code toggles that bit only where the two codes differ) and its
running prod(mult!) denominator; no leaf rebuilds either.  Leaves are
counted as plain feature tuples (`hypercore._feature_record`), and each
distinct tuple becomes one `MatrixFeatures` when the walk ends.

Evaluating a spec then only walks the (much smaller) set of distinct
feature records.  The tests check the feature records and
`features_satisfy` against the literal definitions of the class properties,
and pin the counts and the Counters themselves to a plain enumeration of all
ordered matrices, so the fast path cannot drift.
"""

from collections import Counter
from dataclasses import dataclass, field
from math import comb, factorial

from .exactmath import BudgetExceededError
from .hypercore import MatrixFeatures, _feature_record, features_satisfy


@dataclass(frozen=True)
class OracleBudget:
    """Enumeration caps: max_cells bounds m*n for the ordered conventions,
    max_universe bounds 2**n for the unordered ones.  Every convention is
    answered by one walk over the C(2**n + m - 1, m) row multisets, which
    may not exceed 2**max_cells, the size of the largest ordered cell."""

    max_cells: int = 20
    max_universe: int = 64

    def __post_init__(self):
        if self.max_cells < 1 or self.max_universe < 2:
            raise ValueError("budget caps out of range: need max_cells >= 1 and max_universe >= 2")

    def check(self, convention, m, n):
        # Powers of two are compared by bit length and never printed, so a
        # huge n or cap can neither allocate nor format a huge integer.
        if convention in (1, 2):
            if m * n > self.max_cells:
                raise BudgetExceededError(
                    f"m*n = {m*n} exceeds max_cells = {self.max_cells}", m=m, n=n
                )
        elif n >= self.max_universe.bit_length():  # 2**n > max_universe
            raise BudgetExceededError(
                f"2**{n} exceeds max_universe = {self.max_universe}", m=m, n=n
            )
        walk = comb(2**n + m - 1, m)
        if (walk - 1).bit_length() > self.max_cells:  # walk > 2**max_cells
            raise BudgetExceededError(
                f"C(2**{n} + {m} - 1, {m}) row multisets exceed 2**{self.max_cells}", m=m, n=n
            )


DEFAULT_BUDGET = OracleBudget()

# (kind, m, n) -> Counter of MatrixFeatures, kind in 'ordered', 'multisets';
# one walk fills both kinds of a cell.
_FEATURE_CACHE = {}


def _feature_counter(kind, m, n):
    """Counter of MatrixFeatures over the (m, n) matrices of one kind,
    weighted as in the module docstring."""
    key = (kind, m, n)
    hit = _FEATURE_CACHE.get(key)
    if hit is not None:
        return hit
    records, weighted = _walk_multisets(m, n)
    features = {record: MatrixFeatures(*record) for record in records}
    _FEATURE_CACHE[("multisets", m, n)] = Counter({features[r]: c for r, c in records.items()})
    _FEATURE_CACHE[("ordered", m, n)] = Counter({features[r]: c for r, c in weighted.items()})
    return _FEATURE_CACHE[key]


def _walk_multisets(m, n):
    """Counters of feature records over the m-multisets of n-bit row codes,
    one with weight 1 and one with weight m!/prod(mult!).

    Depth first over nondecreasing codes, in the order of
    combinations_with_replacement(range(2**n), m).  Beyond the Counters it
    keeps O(m + n) ints: the rows, their columns, and per row the length of
    its run of equal codes and the prod(mult!) of the prefix ending there.
    """
    multisets, ordered = Counter(), Counter()
    m_factorial = factorial(m)
    last = (1 << n) - 1
    # The first multiset is m copies of code 0, which sets no column bit.
    rows, cols = [0] * m, [0] * n
    runs = list(range(1, m + 1))
    denominators = [factorial(run) for run in runs]
    while True:
        record = _feature_record(rows, n, cols)
        multisets[record] += 1
        ordered[record] += m_factorial // denominators[-1]
        # Back up past the rows at the last code (all n bits set).
        i = m - 1
        while rows[i] == last:
            edge = 1 << i
            for j in range(n):
                cols[j] ^= edge
            i -= 1
            if i < 0:
                return multisets, ordered
        # Row i moves to the next code, which starts a new run.
        code = rows[i]
        _toggle(cols, code ^ (code + 1), 1 << i)
        code += 1
        rows[i] = code
        runs[i] = 1
        denominators[i] = denominators[i - 1] if i else 1
        # The rows below restart at the same code, extending its run.
        for d in range(i + 1, m):
            rows[d] = code
            _toggle(cols, code, 1 << d)
            runs[d] = runs[d - 1] + 1
            denominators[d] = denominators[d - 1] * runs[d]


def _toggle(cols, bits, edge):
    """Flip the edge bit in each column named by a set bit of `bits`."""
    while bits:
        low = bits & -bits
        cols[low.bit_length() - 1] ^= edge
        bits ^= low


def count(spec, m, n, budget=DEFAULT_BUDGET):
    """Exact number of labelled (m, n)-hypergraphs in the class.

    One orbit-weighted walk over row multisets serves every convention:
    convention 2 reads the 'ordered' counter (multinomial weights, so all
    2**(m*n) matrices), convention 4 the unweighted 'multisets' counter,
    and conventions 1 and 3 the same counters restricted to
    pairwise-distinct rows.
    """
    if m < 1 or n < 1:
        raise ValueError("oracle counts need m >= 1 and n >= 1")
    conv = spec.row_convention
    budget.check(conv, m, n)
    counter = _feature_counter("ordered" if conv in (1, 2) else "multisets", m, n)
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
        return {
            "class_id": self.class_id,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "formula_value": str(self.formula_value),
            "oracle_value": str(self.oracle_value),
            "reference": self.reference,
            "status": self.status,
        }


@dataclass
class GridReport:
    """Outcome of verifying one class over a rectangular grid.

    Iterating the report yields the errata records; cells whose oracle or
    formula refused its budget are listed in `skipped`, never raised as
    failures.
    """

    class_id: str
    errata: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    cells_checked: int = 0

    def __iter__(self):
        return iter(self.errata)

    @property
    def verified(self):
        return not self.errata


def verify_grid(class_id, m_max, n_max, k=None, budget=DEFAULT_BUDGET, errata_corrected=False):
    """Evaluate formula and oracle on every in-budget cell of a class.

    `class_id` must resolve to a catalog entry carrying both an evaluator and
    a ClassSpec (or a custom oracle).  Returns a GridReport; one ErrataRecord
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
