"""Class registry: stable string ids bound to evaluators and oracle specs.

Every counting family ships here twice over: the formula (or recurrence) and
the declarative ClassSpec the brute-force oracle enumerates.  `verify_grid`
walks the two sides cell by cell.  Formulas suspected of being misprinted in
their source tables are additionally registered `as printed` so the
disagreement is machine-checkable; their entries point at the corrected
evaluator through `corrected_id`.
"""

import json
from dataclasses import asdict, dataclass
from functools import partial
from math import comb

from .. import oracle
from ..hypercore import ClassSpec, MissingParameterError
from ..oracle import DEFAULT_BUDGET
from ..transforms import vertex_sieve
from . import families as F


class UnknownClassError(KeyError):
    pass


class OracleOnlyClassError(RuntimeError):
    """The class has no formula; use the oracle commands instead."""


@dataclass
class CatalogEntry:
    """One class id with its formula and the oracle side that checks it.

    `formula` takes (m, n), or (m, n, k) when the class needs k; `evaluate`
    picks the call from `needs_k`.  No formula reads the oracle, so only
    `oracle_count` takes an oracle budget.  Only the two `_03` graph
    classes, which have no spec, give a `custom_oracle`.  Three facts are
    derived rather than stated: `needs_k` is whether `spec_for_k` is set;
    `convention` is the spec's row convention unless given (only a
    custom-oracle entry gives it); `kind` is "oracle-only" without a formula
    and "as-printed" when `corrected_id` is set, else as given.
    """

    class_id: str
    reference: str
    kind: str = "closed-form"  # closed-form | recurrence | transform | oracle-only | as-printed
    spec: ClassSpec = None
    spec_for_k: object = None  # callable(k) -> ClassSpec
    formula: object = None  # callable(m, n) or, with needs_k, (m, n, k) -> int
    custom_oracle: object = None  # callable(m, n, k, budget) -> int
    corrected_id: str = None
    convention_probe: str = None
    notes: str = ""
    convention: int = None

    def __post_init__(self):
        if self.formula is None:
            self.kind = "oracle-only"
        elif self.corrected_id is not None:
            self.kind = "as-printed"
        if self.convention is None:
            self.convention = self.class_spec(k=2).row_convention

    @property
    def needs_k(self):
        return self.spec_for_k is not None

    def class_spec(self, k=None):
        if self.spec is not None:
            return self.spec
        if self.spec_for_k is None:
            return None
        if k is None:
            raise MissingParameterError(f"{self.class_id} needs k")
        return self.spec_for_k(k)

    def oracle_count(self, m, n, k=None, budget=DEFAULT_BUDGET):
        if self.custom_oracle is not None:
            return self.custom_oracle(m, n, k, budget)
        return oracle.count(self.class_spec(k), m, n, budget)

    def evaluate(self, m, n, k=None):
        if self.formula is None:
            raise OracleOnlyClassError(f"{self.class_id} is oracle-only")
        if not self.needs_k:
            return self.formula(m, n)
        if k is None:
            raise MissingParameterError(f"{self.class_id} needs k")
        return self.formula(m, n, k)

    @property
    def has_formula(self):
        return self.formula is not None


_REGISTRY = {}


def _register(class_id, reference, **fields):
    if class_id in _REGISTRY:
        raise ValueError(f"duplicate class id {class_id}")
    _REGISTRY[class_id] = CatalogEntry(class_id, reference, **fields)


def resolve_class(class_id):
    try:
        return _REGISTRY[class_id]
    except KeyError:
        raise UnknownClassError(class_id) from None


def all_class_ids():
    return sorted(_REGISTRY)


def formula_class_ids():
    return sorted(cid for cid, e in _REGISTRY.items() if e.has_formula)


def classify_discrepancy(entry, m, n, k, formula_value, oracle_value):
    """Label an errata record: confirmed-typo when the registered corrected
    evaluator agrees with the oracle, convention-gap when another row
    convention's formula reproduces the printed value, else unresolved."""
    if entry.convention_probe is not None:
        probe = resolve_class(entry.convention_probe)
        if probe.evaluate(m, n, k=k) == formula_value:
            return "convention-gap"
    if entry.corrected_id is not None:
        if resolve_class(entry.corrected_id).evaluate(m, n, k=k) == oracle_value:
            return "confirmed-typo"
    return "unresolved"


# ---------------------------------------------------------------------------
# families indexed by property column and row convention: `{name}_{i}{conv}`
# is family(columns[i], conv, m, n).  Column i takes the empty/full-edge flags
# of i mod 4 plus the family's flags for its block of four columns (0..3, 4..7).

_Q_FLAGS = (
    {},
    {"forbid_empty_edges": True},
    {"forbid_full_edges": True},
    {"forbid_empty_edges": True, "forbid_full_edges": True},
)

_COVER = {"require_cover": True}
_NO_COMMON = {"forbid_intersecting": True}
_NO_SINGULAR = {"forbid_singular": True}
_CONNECTED = {"require_connected": True}
_MINIMAL = {"require_minimal_cover": True}
_T0 = {"require_t0": True}

for _name, _family, _columns, _kind, _reference, _blocks in (
    ("alpha", F.alpha, range(8), "closed-form",
     "selections(conv {conv}) from the 2^n - {removed} admissible rows", ({},)),
    ("alpha_star", F.alpha_star, range(8), "transform",
     "signed-Stirling transform of the admissible-row count", (_T0,)),
    # no common vertex: complementing every entry swaps isolated with common
    # vertices and empty with full edges, so these are beta's columns 0, 2, 1, 3
    ("bar_alpha", F.beta, (0, 2, 1, 3), "closed-form",
     "inclusion-exclusion over the set of vertices common to all edges", (_NO_COMMON,)),
    ("bar_alpha_star", F.beta_star, (0, 2, 1, 3), "transform",
     "signed-Stirling transform of the common-vertex sieve", ({**_NO_COMMON, **_T0},)),
    # covers (columns 0..3) and no-singular-vertex classes (4..7)
    ("beta", F.beta, range(8), "closed-form",
     "isolated-vertex sieve over the admissible-row counts", (_COVER, _NO_SINGULAR)),
    ("beta_star", F.beta_star, range(8), "transform",
     "cover shift / signed-Stirling transform of the cover sieve",
     ({**_COVER, **_T0}, {**_NO_SINGULAR, **_T0})),
    ("omega", F.omega, range(8), "recurrence",
     "connected-component recurrence with empty/full-edge and common-vertex sieves",
     (_CONNECTED, {**_CONNECTED, **_NO_COMMON})),
    ("omega_star", F.omega_star, range(8), "transform",
     "signed-Stirling transform of the connected count",
     ({**_CONNECTED, **_T0}, {**_CONNECTED, **_NO_COMMON, **_T0})),
):
    for _i in range(4 * len(_blocks)):
        for _conv in range(1, 5):
            _register(
                f"{_name}_{_i}{_conv}",
                _reference.format(conv=_conv, removed=(_i + 1) // 2),
                kind=_kind,
                spec=ClassSpec(row_convention=_conv, **_Q_FLAGS[_i % 4], **_blocks[_i // 4]),
                formula=partial(_family, _columns[_i], _conv),
            )

_register(
    "beta_01_as_printed",
    "printed closed form (2^m - 1)^n bound to the distinct-row convention",
    spec=ClassSpec(row_convention=1, require_cover=True),
    formula=lambda m, n: (2**m - 1) ** n,
    convention_probe="beta_02",
    corrected_id="beta_01",
    notes="the printed product matches row convention 2, not 1",
)
_register(
    "beta_41_as_printed",
    "printed closed form with falling factorial of n - i instead of 2^(n-i)",
    spec=ClassSpec(row_convention=1, forbid_singular=True),
    formula=lambda m, n: vertex_sieve(lambda i: 2**i * F.falling(n - i, m), n),
    corrected_id="beta_41_closed",
)
_register(
    "beta_41_closed",
    "singular-column sieve closed form sum (-1)^i C(n,i) 2^i [2^(n-i)]_m",
    spec=ClassSpec(row_convention=1, forbid_singular=True),
    formula=partial(F.beta, 4, 1),
)

# minimal covers
_register(
    "mu_01",
    "support split: once-covered block pattern times >=2-covered rest",
    spec=ClassSpec(row_convention=1, require_minimal_cover=True),
    formula=F.mu_01,
)
_register(
    "mu_star_01",
    "closed form n! C(2^m - m - 1, n - m)",
    spec=ClassSpec(row_convention=1, require_minimal_cover=True, require_t0=True),
    formula=F.mu_star_01,
)
_register(
    "mu_41",
    "common-vertex sieve over minimal covers",
    spec=ClassSpec(row_convention=1, require_minimal_cover=True, forbid_intersecting=True),
    formula=F.mu_41,
)
_register(
    "mu_bar_01",
    "minimal covers with vertex degrees at most k: no closed form recorded",
    spec_for_k=lambda k: ClassSpec(
        row_convention=1, require_minimal_cover=True, vertex_degree=("at_most_cover", k)
    ),
)


# ---------------------------------------------------------------------------
# fixed edge size k

def _uniform_spec(conv, k, bounded=False, **flags):
    """Edges of size exactly k, or of sizes 1..k when bounded."""
    if bounded:
        return ClassSpec(row_convention=conv, uniformity=("at_most", k), forbid_empty_edges=True, **flags)
    return ClassSpec(row_convention=conv, uniformity=("exact", k), **flags)


# The size flag of a row goes to its spec and to its formula alike: the
# `bar_`/`bbar_` ids bind the family of their exact twin with bounded=True.
_EXACT = {"bounded": False}
_BOUNDED = {"bounded": True}

# ordered distinct rows (convention 1): column j of `families.theta`
for _cid, _reference, _column, _size, _flags in (
    ("theta_01", "[C(n,k)]_m: ordered distinct k-edges", 0, _EXACT, {}),
    ("theta_11", "isolated-vertex sieve over [C(n,k)]_m", 1, _EXACT, _COVER),
    ("theta_21", "minimal k-uniform covers: no closed form recorded", None, _EXACT, _MINIMAL),
    ("theta_31", "common-vertex sieve over the k-uniform count", 3, _EXACT, _NO_COMMON),
    ("theta_41", "common-vertex sieve over the k-uniform cover count",
     4, _EXACT, {**_COVER, **_NO_COMMON}),
    ("theta_51", "minimal k-uniform covers without common vertex: no closed form recorded",
     None, _EXACT, {**_MINIMAL, **_NO_COMMON}),
    ("bar_theta_01", "[sum_{i<=k} C(n,i)]_m: ordered distinct nonempty small edges",
     0, _BOUNDED, {}),
    ("bar_theta_11", "isolated-vertex sieve over the bounded-size count", 1, _BOUNDED, _COVER),
    ("bar_theta_21", "minimal bounded-size covers: no closed form recorded",
     None, _BOUNDED, _MINIMAL),
    ("bar_theta_31", "common-vertex sieve with the extra empty-completion row",
     3, _BOUNDED, _NO_COMMON),
    ("bar_theta_51",
     "common-vertex sieve over the private-vertex sieve of minimal bounded-size covers",
     5, _BOUNDED, {**_MINIMAL, **_NO_COMMON}),
):
    _formula = None if _column is None else partial(F.theta, _column, **_size)
    _register(_cid, _reference, spec_for_k=partial(_uniform_spec, 1, **_size, **_flags), formula=_formula)

_register(
    "bar_theta_41",
    "common-vertex sieve with the extra empty-completion row, cover column",
    spec_for_k=partial(_uniform_spec, 1, bounded=True, **_COVER, **_NO_COMMON),
    formula=partial(F.theta, 4, bounded=True),
    notes="the printed table shows the same symbol in two cells; this is the cover cell",
)

# distinct columns over all four row conventions: `{name}{s}` is family(s, m, n, k);
# the no-common-vertex columns hold exact sizes only and take no size flag
for _name, _family, _kind, _reference, _size, _flags in (
    ("theta_star_0", F.theta_star_0, "closed-form",
     "partition-type sum with block-union edge counts", _EXACT, {}),
    ("bar_theta_star_0", F.theta_star_0, "closed-form",
     "partition-type sum with bounded block-union edge counts", _BOUNDED, {}),
    ("theta_star_1", F.theta_star_1, "recurrence",
     "at-most-one-isolated-vertex recurrence over the plain column", _EXACT, _COVER),
    ("bar_theta_star_1", F.theta_star_1, "recurrence",
     "at-most-one-isolated-vertex recurrence over the bounded column", _BOUNDED, _COVER),
    ("theta_star_3", F.theta_star_3, "recurrence",
     "at-most-one-common-vertex recurrence, size parameter dropping by one", {}, _NO_COMMON),
    ("theta_star_4", F.theta_star_4, "recurrence",
     "isolated-vertex recurrence over the no-common-vertex column", {}, {**_COVER, **_NO_COMMON}),
    ("bar_omega_star_0", F.bar_omega_star_0, "recurrence",
     "component recurrence over the distinct-column k-uniform tables", _EXACT, _CONNECTED),
    ("bbar_omega_star_1", F.bar_omega_star_0, "recurrence",
     "component recurrence over the distinct-column bounded-size tables", _BOUNDED, _CONNECTED),
):
    for _s in range(1, 5):
        _register(
            f"{_name}{_s}",
            _reference,
            kind=_kind,
            spec_for_k=partial(_uniform_spec, _s, require_t0=True, **_size, **_flags),
            formula=partial(_family, _s, **_size),
        )

for _cid, _reference, _size in (
    ("theta_star_21", "private-vertex placement times twice-covered completion count", _EXACT),
    ("bar_theta_star_21",
     "private-vertex placement times bounded twice-covered completion count", _BOUNDED),
):
    _register(
        _cid,
        _reference,
        kind="recurrence",
        spec_for_k=partial(_uniform_spec, 1, require_t0=True, **_MINIMAL, **_size),
        formula=partial(F.theta_star_21, **_size),
    )

# the column recurrences as printed
for _cid, _reference, _formula, _conv, _flags in (
    ("theta_star_12",
     "cover-column recurrence with the inner subscript read literally (convention 1 inside)",
     F.theta_star_12_cover_recurrence_as_printed, 2, _COVER),
    ("theta_star_32",
     "no-common-vertex recurrence keeping the size parameter, read literally",
     F.theta_star_32_intersection_recurrence_as_printed, 2, _NO_COMMON),
    ("theta_star_21",
     "minimal column with the completion factor read as the cover count",
     F.theta_star_21_minimal_recurrence_as_printed, 1, _MINIMAL),
    ("bar_theta_star_21",
     "bounded minimal column with the completion factor read as the cover count",
     F.bar_theta_star_21_minimal_recurrence_as_printed, 1, {**_MINIMAL, **_BOUNDED}),
):
    _register(
        f"{_cid}_as_printed",
        _reference,
        spec_for_k=partial(_uniform_spec, _conv, require_t0=True, **_flags),
        formula=_formula,
        corrected_id=_cid,
    )


# ---------------------------------------------------------------------------
# graphs without isolated-edge components (fixed k = 2) and their dual covers

def _graph_oracle(spec, m, n, k, budget):
    """Graphs whose covered vertices have distinct columns: on the j covered
    vertices the graph is a distinct-column cover.  The largest set of
    covered vertices is priced first, so an over-budget cell runs no walk."""
    return sum(comb(n, j) * oracle.count(spec, m, j, budget) for j in range(n, -1, -1))


# Loops are the size-1 edges of the bounded sizes 1..2.  A cover column is
# the distinct-column cover class at k = 2.
for _name, _loops, _reference_03, _reference_13 in (
    ("bar_theta_circ", False,
     "pair-component sieve over graphs: sum (-1)^k pairings * C(C(n-2k,2), m-k)",
     "isolated-vertex sieve over the pair-component sieve"),
    ("bbar_theta_circ", True, "pair-component sieve over graphs with loops admitted",
     "isolated-vertex sieve over the loops variant"),
):
    _cover_spec = _uniform_spec(3, 2, bounded=_loops, require_t0=True, **_COVER)
    _register(
        f"{_name}_03",
        _reference_03,
        convention=3,
        custom_oracle=partial(_graph_oracle, _cover_spec),
        formula=partial(F.bar_theta_circ_03, loops=_loops),
    )
    _register(
        f"{_name}_13", _reference_13, spec=_cover_spec, formula=partial(F.bar_theta_circ_13, loops=_loops)
    )

_register(
    "bar_beta_star_13",
    "dual transfer n!/m! of the graph count: distinct-column double covers",
    spec=ClassSpec(
        row_convention=3, forbid_empty_edges=True, require_t0=True, vertex_degree=("exact_cover", 2)
    ),
    formula=F.bar_beta_star_13,
)
_register(
    "bbar_beta_star_13",
    "dual transfer n!/m! of the loops variant: every vertex in one or two edges",
    spec=ClassSpec(
        row_convention=3, forbid_empty_edges=True, require_t0=True, vertex_degree=("at_most_cover", 2)
    ),
    formula=partial(F.bar_beta_star_13, loops=True),
)


# ---------------------------------------------------------------------------
# connected families as printed

_register(
    "omega_star_02_as_printed",
    "filtration transform applied to the empties-allowed connected column,"
    " as the starred proposition claims for every column",
    spec=ClassSpec(row_convention=2, require_connected=True, require_t0=True),
    formula=partial(F.omega_star_as_printed, 0, 2),
    corrected_id="omega_star_02",
    notes="the transform needs condensation invariance, which empty-edge columns lack",
)
_register(
    "bar_omega_star_02_as_printed",
    "component recurrence with the split weight indexed by the size parameter"
    " and the zero-edge boundary fixed at one, read literally",
    spec_for_k=partial(_uniform_spec, 2, require_t0=True, **_CONNECTED),
    formula=F.bar_omega_star_02_as_printed,
    corrected_id="bar_omega_star_02",
)


_register(
    "bbar_omega_star_12_as_printed",
    "bounded component recurrence with the cover column inside the sum and the"
    " recursion aimed at the empties-allowed family, read literally",
    spec_for_k=partial(_uniform_spec, 2, bounded=True, require_t0=True, **_CONNECTED),
    formula=F.bbar_omega_star_12_as_printed,
    corrected_id="bbar_omega_star_12",
)


# ---------------------------------------------------------------------------
# manifest

def manifest():
    """Machine-readable catalog: one record per class id."""
    records = []
    for cid in all_class_ids():
        e = _REGISTRY[cid]
        spec = e.class_spec(k=2)
        records.append({
            "class_id": cid,
            "reference": e.reference,
            "convention": e.convention,
            "needs_k": e.needs_k,
            "kind": e.kind,
            "oracle": "custom" if e.custom_oracle else "class-spec",
            "spec_example": None if spec is None else asdict(spec),
            "notes": e.notes,
        })
    return records


def write_manifest(path):
    with open(path, "w") as fh:
        json.dump(manifest(), fh, indent=1, sort_keys=True)
        fh.write("\n")
