"""Exhaustive ground-truth counting for small (m, n).

The oracle is the referee for every catalog formula: it counts the (m, n)
matrices of the spec's row convention that satisfy the spec.

Every `MatrixFeatures` field is invariant under reordering the rows, and
three of the four row conventions are quotients of the ordered matrices by
row permutations.  So per (m, n) the oracle walks each multiset of m row
codes once, in a fixed order (nondecreasing canonical codes), extracts its
features and adds them to three Counters at once:

* 'multisets' (convention 4): weight 1;
* 'sets' (convention 3): multisets with distinct rows, weight 1;
* 'ordered' (conventions 1 and 2): the number of row orders of the
  multiset, m! / prod(mult!), the size of its orbit under row permutations
  (Harary & Palmer, Graphical Enumeration, 1973, ch. 2).

Evaluating a spec then only walks the (much smaller) set of distinct
feature records.  `features_satisfy` is property-tested against
`satisfies`, and the counts are pinned to a plain enumeration of all
ordered matrices in the tests, so the fast path cannot drift.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb, factorial

from .hypercore import IncidenceMatrix, features_satisfy, matrix_features


class BudgetExceededError(RuntimeError):
    """Requested cell is outside the enumeration budget."""

    def __init__(self, message, m=None, n=None):
        super().__init__(message)
        self.m = m
        self.n = n


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

# (kind, m, n) -> Counter of MatrixFeatures, kind in 'ordered', 'sets',
# 'multisets'; one walk fills all three kinds of a cell.
_FEATURE_CACHE = {}


def _feature_counter(kind, m, n):
    """Counter of MatrixFeatures over the (m, n) matrices of one kind,
    weighted as in the module docstring."""
    key = (kind, m, n)
    hit = _FEATURE_CACHE.get(key)
    if hit is not None:
        return hit
    multisets, ordered = Counter(), Counter()
    m_factorial = factorial(m)
    for rows in combinations_with_replacement(range(1 << n), m):
        feats = matrix_features(IncidenceMatrix(n=n, rows=rows))
        multisets[feats] += 1
        ordered[feats] += m_factorial // _multiplicity_factorials(rows)
    _FEATURE_CACHE[("multisets", m, n)] = multisets
    _FEATURE_CACHE[("sets", m, n)] = Counter({f: c for f, c in multisets.items() if f.rows_distinct})
    _FEATURE_CACHE[("ordered", m, n)] = ordered
    return _FEATURE_CACHE[key]


def _multiplicity_factorials(rows):
    """prod(mult!) over the distinct codes of a nondecreasing row tuple."""
    denominator, run = 1, 1
    for prev, cur in zip(rows, rows[1:]):
        run = run + 1 if cur == prev else 1
        denominator *= run
    return denominator


def count(spec, m, n, budget=DEFAULT_BUDGET):
    """Exact number of labelled (m, n)-hypergraphs in the class.

    One orbit-weighted walk over row multisets serves every convention:
    convention 2 reads the 'ordered' counter (multinomial weights, so all
    2**(m*n) matrices), convention 1 the same counter restricted to
    pairwise-distinct rows, and conventions 3 and 4 the unweighted
    'sets' / 'multisets' counters.
    """
    if m < 1 or n < 1:
        raise ValueError("oracle counts need m >= 1 and n >= 1")
    conv = spec.row_convention
    budget.check(conv, m, n)
    kind = {1: "ordered", 2: "ordered", 3: "sets", 4: "multisets"}[conv]
    counter = _feature_counter(kind, m, n)
    total = 0
    for feats, mult in counter.items():
        if conv == 1 and not feats.rows_distinct:
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

    Iterating the report yields the errata records; budget-blocked cells are
    listed in `skipped`, never raised as failures.
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
            except BudgetExceededError:
                report.skipped.append((m, n, k))
                continue
            formula_value = entry.evaluate(m, n, k=k, errata_corrected=errata_corrected)
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
