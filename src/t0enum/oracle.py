"""Exhaustive ground-truth counting for small (m, n).

The oracle is the referee for every catalog formula: it counts the (m, n)
matrices of the spec's row convention that satisfy the spec.

Every `MatrixFeatures` field is invariant under reordering the rows, and
under reordering the columns too: each is a property of the set of rows or
of the set of columns, or the least or greatest size on one side.  So per
(m, n) the oracle walks the narrow side, the rows iff n <= m, whatever the
convention, and `OracleBudget` prices that walk: k codes of w bits, w <= k.
Permuting the other side's w members permutes the bits of every code, so it
keeps one multiset of k codes per orbit of those w! bit permutations
(orderly generation: R. C. Read, "Every one a winner", Ann. Discrete Math.
2, 1978) and counts its feature record once, weighted by the size of its
orbit (Harary & Palmer, Graphical Enumeration, 1973, ch. 2):

* 'ordered' (all matrices, read by conventions 1 and 2) weighs a leaf
  (w!/|Stab|) * k!/prod(mult!), its multisets' orders summed over the
  orbit, with mult the walked codes' multiplicities;
* 'multisets' (row multisets, read by conventions 3 and 4) weighs it that
  times prod(row mult!)/m!, with the rows walked or carried.

So one walk fills both Counters.  Conventions 1 and 3 read them restricted
to records with pairwise-distinct rows.

The walk is depth first over nondecreasing codes, in the order of
`combinations_with_replacement(range(2**w), k)`, and keeps a prefix only
if its sorted code tuple is lexicographically no larger than its sorted
image under every permutation.  The minimal multiset of an orbit stays
minimal when its largest code is dropped, so every orbit is reached once,
through canonical prefixes only.  Every permutation's key gap sits in its
own field of one packed int (`_packed_steps`), so the test per child is one
big-int addition and one mask test.  Each step carries the codes of the
other side for the current prefix (walked code i owns bit i of every
carried code) and its running prod(mult!) denominator; no leaf rebuilds
either.
Leaves are counted as plain feature tuples (`hypercore._feature_record`,
given the rows and the columns in their true roles): 9 flags and the least
and greatest size on each side, the 13 facts a spec reads.  When the walk
ends, each kind's records are grouped by their flag bits, each group with
its total weight (`hypercore.group_records`).

A spec is compiled once by `hypercore.compile_spec`, a mask over the flag
bits and a size interval per side, and read by `hypercore.admitted_weight`:
a spec with no size bound adds the total of every group whose flag pattern
it admits; one with a bound scans the records of those groups only.
`features_satisfy` reads one record through the same reader, so the tests
that check it and the feature records against the literal definitions of
the class properties check the code that counts.  They also pin the counts
of fixed and random specs and both Counters, from either side, to a plain
enumeration of all ordered matrices, and pin the number of leaves to
Burnside's count of orbits, so the fast path cannot drift.
"""

from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import permutations
from math import comb, factorial, prod

from .exactmath import BudgetExceededError
from .hypercore import ROWS_DISTINCT, _feature_record, admitted_weight, compile_spec, group_records


@dataclass(frozen=True)
class OracleBudget:
    """The one enumeration cap, shared by every oracle call.  Whatever the
    row convention, a walk takes the narrow side of its cell
    (`_walked_side`): k codes of `width` bits.  Both are at most max_cells,
    so max(m, n) <= max_cells, checked before any binomial is built; this
    bounds the work per leaf.  And the side's C(2**width + k - 1, k) plain
    multisets are at most 2**max_cells; each orbit holds at least one, so
    this bounds the walk's leaves.  At the default cap every admitted walk
    has codes of at most 5 bits, so each step adds and tests one packed int
    of at most 5! = 120 gaps."""

    max_cells: int = 20

    def __post_init__(self):
        if self.max_cells < 1:
            raise ValueError("budget cap out of range: need max_cells >= 1")

    def check(self, m, n):
        if max(m, n) > self.max_cells:
            raise BudgetExceededError(f"max(m, n) = {max(m, n)} exceeds max_cells = {self.max_cells}")
        side, k, width, bits = _walk_price(m, n)
        if bits > self.max_cells:  # multisets > 2**max_cells
            raise BudgetExceededError(f"C(2**{width} + {k} - 1, {k}) multisets of {side} exceed 2**{self.max_cells}")


def _walked_side(m, n):
    """The narrow side of the (m, n) cell, which its walk takes: the rows iff n <= m, as (side, k codes, width)."""
    return ("rows", m, n) if n <= m else ("columns", n, m)


@cache
def _walk_price(m, n):
    """`OracleBudget.check`'s price of a cell: (side, k, width, bit length
    of the side's plain multisets - 1), never printed, so a huge cap builds
    no power of two and a huge count is never formatted."""
    side, k, width = _walked_side(m, n)
    return side, k, width, (comb(2**width + k - 1, k) - 1).bit_length()


DEFAULT_BUDGET = OracleBudget()

# The records a row convention reads.
_KIND = {1: "ordered", 2: "ordered", 3: "multisets", 4: "multisets"}

# (kind, m, n) -> `hypercore.group_records` of the cell's feature records of
# that kind, kind in 'ordered', 'multisets': {flag pattern: (total weight,
# Counter of (row_min, row_max, col_min, col_max))}.  One walk fills both
# kinds of a cell.
_FEATURE_CACHE = {}


def _feature_groups(kind, m, n):
    """The (m, n) cell's feature records of one kind, weighted as in the
    module docstring and grouped by flag pattern.  One walk of the narrow
    side fills both kinds of the cell."""
    key = (kind, m, n)
    hit = _FEATURE_CACHE.get(key)
    if hit is not None:
        return hit
    multisets, ordered = _walk_multisets(m, n, _walked_side(m, n)[0])
    _FEATURE_CACHE[("ordered", m, n)] = group_records(ordered)
    _FEATURE_CACHE[("multisets", m, n)] = group_records(multisets)
    return _FEATURE_CACHE[key]


def _walk_multisets(m, n, side):
    """Counters of feature records over the (m, n) cell, one leaf per orbit
    of one side's code multisets under permutations of the other side: the
    'multisets' Counter (row multisets) and the 'ordered' one (matrices).

    side is 'rows' (m codes of n bits, carrying the n columns) or
    'columns' (n codes of m bits, carrying the m rows).  Depth first over
    nondecreasing codes, in the order of
    combinations_with_replacement(range(2**width), k), keeping a prefix only
    if it is canonical (see `_packed_steps`): one big-int addition and one
    mask test per child.  Beyond the Counters it keeps the step table, the
    walked and carried codes and, per depth, one packed int of every
    permutation's gap.
    """
    multisets, ordered = Counter(), Counter()
    k, width = (m, n) if side == "rows" else (n, m)
    k_factorial, width_factorial, m_factorial = factorial(k), factorial(width), factorial(m)
    steps, bias, positive, unit = _packed_steps(width, k.bit_length())
    ones = [[j for j in range(width) if code >> j & 1] for code in range(1 << width)]
    walked, carried = [0] * k, [0] * width
    rows, cols = (walked, carried) if side == "rows" else (carried, walked)
    if not k:  # no code to place: the one empty matrix is the one leaf
        record = _feature_record(rows, n, cols)
        return Counter({record: 1}), Counter({record: 1})

    def extend(depth, low, gaps, run, denominator):
        # walked[:depth] is canonical; field p of gaps is bias plus
        # key(p(prefix)) - key(prefix).  Walked code `depth` owns bit
        # `depth` of every carried code.
        own = 1 << depth
        for code in range(low, len(steps)):
            child = gaps + steps[code]
            if child & positive:  # some permutation sorts the prefix lower
                continue
            walked[depth] = code
            for j in ones[code]:
                carried[j] ^= own
            # a code equal to the one before extends its run of copies
            run_here = run + 1 if depth and code == low else 1
            denominator_here = denominator * run_here
            if depth + 1 < k:
                extend(depth + 1, code, child, run_here, denominator_here)
            else:
                record = _feature_record(rows, n, cols)
                weight = width_factorial // _fixed_fields(child, positive, unit) * (k_factorial // denominator_here)
                ordered[record] += weight
                row_denominator = denominator_here
                if side == "columns":  # the rows are the carried codes
                    row_denominator = prod(map(factorial, Counter(carried).values()))
                multisets[record] += weight * row_denominator // m_factorial
            for j in ones[code]:
                carried[j] ^= own

    extend(0, 0, bias, 0, 1)
    return multisets, ordered


@cache
def _packed_steps(width, s):
    """Per code, what adding it does to every permutation's key gap, all the
    gaps packed in one int, and the masks that read them:
    (steps, bias, positive, unit).

    A multiset of at most k codes of `width` bits has the key
    sum(2**(s * (2**width - 1 - code))) over its codes, s = k.bit_length():
    one s-bit digit per code, counting its copies, code 0 the top digit, so
    every key is below 2**L, L = s * 2**width.  So a multiset's sorted tuple
    is lexicographically smaller than another's of the same size exactly
    when its key is larger, and a prefix is canonical, no larger than the
    sorted image of itself under any permutation p of the other side, when
    key(p(prefix)) <= key(prefix) for every p.  Keys are additive, so each
    step adds to every permutation's gap key(p(prefix)) - key(prefix) the
    gap of one code.

    Permutation p's gap lives in field p of one int, L + 1 bits wide, plus a
    bias of 2**L - 1.  A gap is a difference of two keys below 2**L, so
    every field stays in [0, 2**(L+1) - 2], no carry crosses a field, and
    bit L of a field (`positive`) is set exactly when its gap is positive.
    A walk starts from `bias`, every gap 0, and `unit` holds 1 in every
    field.
    """
    top = (1 << width) - 1
    key_bits = s * (top + 1)
    field_bits = key_bits + 1
    images = _code_images(width)
    unit = ((1 << field_bits * len(images)) - 1) // ((1 << field_bits) - 1)  # a geometric series
    steps = []
    for code in range(top + 1):
        # field p gets key(p(code)), one bit, set in place so the build stays linear
        image_keys = bytearray(field_bits * len(images) // 8 + 1)
        for p, image in enumerate(images):
            bit = field_bits * p + s * (top - image[code])
            image_keys[bit >> 3] |= 1 << (bit & 7)
        steps.append(int.from_bytes(image_keys, "little") - (unit << s * (top - code)))
    return steps, unit * ((1 << key_bits) - 1), unit << key_bits, unit


def _fixed_fields(child, positive, unit):
    """|Stab| of a canonical leaf: the fields of its packed gaps at the bias
    (gap 0), the permutations that fix its multiset.  No gap of a canonical
    prefix is positive, so every field is at most the bias 2**L - 1, and
    adding 1 to every field carries into bit L exactly those."""
    return ((child + unit) & positive).bit_count()


def _code_images(width):
    """Per permutation of `width` bits, the image of every code."""
    return tuple(
        tuple(sum(1 << p for i, p in enumerate(perm) if code >> i & 1) for code in range(1 << width))
        for perm in permutations(range(width))
    )


def count(spec, m, n, budget=DEFAULT_BUDGET):
    """Exact number of labelled (m, n)-hypergraphs in the class.

    One orbit-weighted walk serves every convention: convention 2 reads the
    'ordered' records (all 2**(m*n) matrices), convention 4 the 'multisets'
    records (all row multisets), and conventions 1 and 3 the same records
    restricted to pairwise-distinct rows.  The spec is read once through
    `compile_spec`, with the rows_distinct bit added for conventions 1 and
    3, and the cell's grouped records through `hypercore.admitted_weight`.
    An empty side (m = 0 or n = 0) leaves one matrix, counted by its record.
    """
    conv = spec.row_convention
    budget.check(m, n)
    mask, want, bounds = compile_spec(spec)
    if conv in (1, 3):
        mask |= ROWS_DISTINCT
        want |= ROWS_DISTINCT
    return admitted_weight((mask, want, bounds), _feature_groups(_KIND[conv], m, n))


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
    a ClassSpec.  The budget bounds the oracle side; a formula reads no
    oracle and refuses a cell only through its own caps.  Either refusal
    skips the cell.  `errata_corrected` checks an as-printed class by its
    `corrected_id` entry.  Returns a GridReport: one ErrataRecord, under the
    class's own id and reference, per disagreement; none, verified.
    """
    from . import catalog

    entry = formula = catalog.resolve_class(class_id)
    if errata_corrected and entry.corrected_id is not None:
        formula = catalog.resolve_class(entry.corrected_id)
    report = GridReport(class_id=class_id)
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            try:
                oracle_value = entry.oracle_count(m, n, k=k, budget=budget)
                formula_value = formula.evaluate(m, n, k=k)
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
