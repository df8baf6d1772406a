"""Class registry: stable string ids bound to evaluators and oracle specs.

Every counting family ships here twice over: the formula (or recurrence) and
the declarative ClassSpec the brute-force oracle enumerates.  `verify_grid`
walks the two sides cell by cell.  Formulas suspected of being misprinted in
their source tables are additionally registered `as printed` so the
disagreement is machine-checkable; their entries point at the corrected
evaluator (or at the oracle) through `corrected_id`.
"""

import json
from dataclasses import asdict, dataclass
from functools import partial
from itertools import combinations
from math import comb

from ..hypercore import ClassSpec, MissingParameterError
from ..oracle import DEFAULT_BUDGET
from ..oracle import count as oracle_count
from . import families as F


class UnknownClassError(KeyError):
    pass


class OracleOnlyClassError(RuntimeError):
    """The class has no formula; use the oracle commands instead."""


@dataclass
class CatalogEntry:
    """One class id with its formula and the oracle side that checks it.

    `formula` takes (m, n), or (m, n, k) when the class needs k; `evaluate`
    picks the call from `needs_k`.  An `oracle_backed` formula reads some
    input column from the oracle, so it also takes the caller's oracle
    budget as the keyword `budget`.  Three facts are derived rather than
    stated: `needs_k` is whether `spec_for_k` is set; `convention` is the
    spec's row convention unless given (only a custom-oracle entry, which has
    no spec, gives it); `kind` is "oracle-only" without a formula and
    "as-printed" when `corrected_id` is set, else as given.
    """

    class_id: str
    reference: str
    kind: str = "closed-form"  # closed-form | recurrence | transform | oracle-only | as-printed
    spec: ClassSpec = None
    spec_for_k: object = None  # callable(k) -> ClassSpec
    formula: object = None  # callable(m, n) or, with needs_k, (m, n, k) -> int
    oracle_backed: bool = False
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
        return oracle_count(self.class_spec(k), m, n, budget)

    def evaluate(self, m, n, k=None, errata_corrected=False, budget=DEFAULT_BUDGET):
        if errata_corrected and self.corrected_id is not None:
            return resolve_class(self.corrected_id).evaluate(m, n, k=k, budget=budget)
        if self.formula is None:
            raise OracleOnlyClassError(f"{self.class_id} is oracle-only")
        extra = {"budget": budget} if self.oracle_backed else {}
        if not self.needs_k:
            return self.formula(m, n, **extra)
        if k is None:
            raise MissingParameterError(f"{self.class_id} needs k")
        return self.formula(m, n, k, **extra)

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
        corrected = resolve_class(entry.corrected_id)
        try:
            if corrected.evaluate(m, n, k=k) == oracle_value:
                return "confirmed-typo"
        except OracleOnlyClassError:
            pass
    return "unresolved"


# ---------------------------------------------------------------------------
# families indexed by property column and row convention: `{name}_{i}{conv}`
# is family(i, conv, m, n).  Column i takes the empty/full-edge flags of
# i mod 4 plus the family's flags for its block of four columns (0..3, 4..7).

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

for _name, _family, _kind, _reference, _blocks in (
    ("alpha", F.alpha, "closed-form",
     "selections(conv {conv}) from the 2^n - {removed} admissible rows", ({},)),
    ("alpha_star", F.alpha_star, "transform",
     "signed-Stirling transform of the admissible-row count", (_T0,)),
    ("bar_alpha", F.bar_alpha, "closed-form",
     "inclusion-exclusion over the set of vertices common to all edges", (_NO_COMMON,)),
    ("bar_alpha_star", F.bar_alpha_star, "transform",
     "signed-Stirling transform of the common-vertex sieve", ({**_NO_COMMON, **_T0},)),
    # covers (columns 0..3) and no-singular-vertex classes (4..7)
    ("beta", F.beta, "closed-form",
     "isolated-vertex sieve over the admissible-row counts", (_COVER, _NO_SINGULAR)),
    ("beta_star", F.beta_star, "transform",
     "cover shift / signed-Stirling transform of the cover sieve",
     ({**_COVER, **_T0}, {**_NO_SINGULAR, **_T0})),
    ("omega", F.omega, "recurrence",
     "connected-component recurrence with empty/full-edge and common-vertex sieves",
     (_CONNECTED, {**_CONNECTED, **_NO_COMMON})),
    ("omega_star", F.omega_star, "transform",
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
                formula=partial(_family, _i, _conv),
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
    formula=lambda m, n: sum(
        (-1) ** i * F.binom(n, i) * 2**i * F.falling(n - i, m) for i in range(n + 1)
    ),
    corrected_id="beta_41_closed",
)
_register(
    "beta_41_closed",
    "singular-column sieve closed form sum (-1)^i C(n,i) 2^i [2^(n-i)]_m",
    spec=ClassSpec(row_convention=1, forbid_singular=True),
    formula=F.beta_41_closed,
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


_BOUNDED = {"bounded": True}

# ordered distinct rows (convention 1)
for _cid, _reference, _formula, _flags in (
    ("theta_01", "[C(n,k)]_m: ordered distinct k-edges", F.theta_01, {}),
    ("theta_11", "isolated-vertex sieve over [C(n,k)]_m", F.theta_11, _COVER),
    ("theta_21", "minimal k-uniform covers: no closed form recorded", None, _MINIMAL),
    ("theta_31", "common-vertex sieve over the k-uniform count",
     partial(F.theta_3plus, 0), _NO_COMMON),
    ("theta_41", "common-vertex sieve over the k-uniform cover count",
     partial(F.theta_3plus, 1), {**_COVER, **_NO_COMMON}),
    ("theta_51", "minimal k-uniform covers without common vertex: no closed form recorded",
     None, {**_MINIMAL, **_NO_COMMON}),
    ("bar_theta_01", "[sum_{i<=k} C(n,i)]_m: ordered distinct nonempty small edges",
     F.bar_theta_01, _BOUNDED),
    ("bar_theta_11", "isolated-vertex sieve over the bounded-size count",
     F.bar_theta_11, {**_COVER, **_BOUNDED}),
    ("bar_theta_21", "minimal bounded-size covers: no closed form recorded",
     None, {**_MINIMAL, **_BOUNDED}),
    ("bar_theta_31", "common-vertex sieve with the extra empty-completion row",
     partial(F.bar_theta_3plus, 0), {**_NO_COMMON, **_BOUNDED}),
):
    _register(_cid, _reference, spec_for_k=partial(_uniform_spec, 1, **_flags), formula=_formula)

_register(
    "bar_theta_41",
    "common-vertex sieve with the extra empty-completion row, cover column",
    spec_for_k=partial(_uniform_spec, 1, bounded=True, **_COVER, **_NO_COMMON),
    formula=partial(F.bar_theta_3plus, 1),
    notes="the printed table shows the same symbol in two cells; this is the cover cell",
)


def _bar_theta_21_oracle(m, n, k, budget):
    # a minimal cover needs >= 1 vertex and a positive size bound once m >= 1
    if n < 1 or k < 1:
        return 0
    return oracle_count(_uniform_spec(1, k, bounded=True, **_MINIMAL), m, n, budget)


def _bar_theta_51(m, n, k, budget):
    return F.bar_theta_51_from_21(partial(_bar_theta_21_oracle, budget=budget), m, n, k)


_register(
    "bar_theta_51",
    "common-vertex sieve over the (oracle-supplied) minimal bounded-size covers",
    kind="recurrence",
    spec_for_k=partial(_uniform_spec, 1, bounded=True, **_MINIMAL, **_NO_COMMON),
    formula=_bar_theta_51,
    oracle_backed=True,
    notes="sieve identity checked with oracle inputs; the minimal column itself has no formula",
)

# distinct columns over all four row conventions: `{name}{s}` is family(s, m, n, k)
for _name, _family, _kind, _reference, _flags in (
    ("theta_star_0", F.theta_star_0, "closed-form",
     "partition-type sum with block-union edge counts", {}),
    ("bar_theta_star_0", F.bar_theta_star_0, "closed-form",
     "partition-type sum with bounded block-union edge counts", _BOUNDED),
    ("theta_star_1", F.theta_star_1, "recurrence",
     "at-most-one-isolated-vertex recurrence over the plain column", _COVER),
    ("bar_theta_star_1", F.bar_theta_star_1, "recurrence",
     "at-most-one-isolated-vertex recurrence over the bounded column", {**_COVER, **_BOUNDED}),
    ("theta_star_3", F.theta_star_3, "recurrence",
     "at-most-one-common-vertex recurrence, size parameter dropping by one", _NO_COMMON),
    ("theta_star_4", F.theta_star_4, "recurrence",
     "isolated-vertex recurrence over the no-common-vertex column", {**_COVER, **_NO_COMMON}),
    ("bar_omega_star_0", F.bar_omega_star_0, "recurrence",
     "component recurrence over the distinct-column k-uniform tables", _CONNECTED),
    ("bbar_omega_star_1", F.bbar_omega_star_1, "recurrence",
     "component recurrence over the distinct-column bounded-size tables", {**_CONNECTED, **_BOUNDED}),
):
    for _s in range(1, 5):
        _register(
            f"{_name}{_s}",
            _reference,
            kind=_kind,
            spec_for_k=partial(_uniform_spec, _s, require_t0=True, **_flags),
            formula=partial(_family, _s),
        )

_register(
    "theta_star_21",
    "private-vertex placement times twice-covered completion count",
    kind="recurrence",
    spec_for_k=partial(_uniform_spec, 1, require_t0=True, **_MINIMAL),
    formula=F.theta_star_21,
)
_register(
    "bar_theta_star_21",
    "private-vertex placement times bounded twice-covered completion count",
    kind="recurrence",
    spec_for_k=partial(_uniform_spec, 1, bounded=True, require_t0=True, **_MINIMAL),
    formula=F.bar_theta_star_21,
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

def _graph_component_count(loops, require_cover, m, n, k, budget):
    """Count m-edge-subset graphs on n vertices, optionally with loops,
    without any isolated pure pair edge (a 2-edge both of whose endpoints
    have no other incident edge).

    That is the obstruction dual to equal incidence columns; for loop-free
    graphs it coincides with forbidding connectedness components of size 2.
    The walk runs over the C(E, m) sets of m of the E possible edges, each
    edge an n-bit code, and the budget prices it as it prices every oracle
    walk: n <= max_cells, at most 2**max_cells leaves, and at most max_cells
    edges per leaf.  The last cap is waived when m >= E, where the walk has
    at most one leaf: m is not capped by itself, since m > E gives none.
    """
    budget.check_size(n, "n", m, n)
    edges = []
    if loops:
        edges.extend(1 << v for v in range(n))
    edges.extend((1 << u) | (1 << v) for u in range(n) for v in range(u + 1, n))
    subsets = comb(len(edges), m)
    budget.check_leaves(subsets, lambda: f"C({len(edges)}, {m}) edge subsets", m, n)
    if subsets > 1:
        budget.check_size(m, "m", m, n)
    total = 0
    for chosen in combinations(edges, m):
        covered = 0
        degree = [0] * n
        for e in chosen:
            covered |= e
            b = e
            while b:
                degree[(b & -b).bit_length() - 1] += 1
                b &= b - 1
        if require_cover and covered != (1 << n) - 1:
            continue
        pure_pair = any(
            e.bit_count() == 2
            and degree[(e & -e).bit_length() - 1] == 1
            and degree[(e ^ (e & -e)).bit_length() - 1] == 1
            for e in chosen
        )
        if pure_pair:
            continue
        total += 1
    return total


for _cid, _reference, _formula, _loops, _cover in (
    ("bar_theta_circ_03",
     "pair-component sieve over graphs: sum (-1)^k pairings * C(C(n-2k,2), m-k)",
     F.bar_theta_circ_03, False, False),
    ("bbar_theta_circ_03", "pair-component sieve over graphs with loops admitted",
     F.bbar_theta_circ_03, True, False),
    ("bar_theta_circ_13", "isolated-vertex sieve over the pair-component sieve",
     F.bar_theta_circ_13, False, True),
    ("bbar_theta_circ_13", "isolated-vertex sieve over the loops variant",
     F.bbar_theta_circ_13, True, True),
):
    _register(
        _cid,
        _reference,
        convention=3,
        custom_oracle=partial(_graph_component_count, _loops, _cover),
        formula=_formula,
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
    formula=F.bbar_beta_star_13,
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


def _connected_with_empties_oracle(i, j, k, budget):
    spec = ClassSpec(
        row_convention=2,
        require_connected=True,
        require_t0=True,
        uniformity=("at_most", k),
    )
    return oracle_count(spec, i, j, budget)


def _bbar_omega_star_12_as_printed(m, n, k, budget):
    return F.bbar_omega_star_12_as_printed(
        m, n, k, connected_with_empties=partial(_connected_with_empties_oracle, budget=budget)
    )


_register(
    "bbar_omega_star_12_as_printed",
    "bounded component recurrence with the cover column inside the sum and the"
    " recursion aimed at the empties-allowed family, read literally",
    spec_for_k=partial(_uniform_spec, 2, bounded=True, require_t0=True, **_CONNECTED),
    formula=_bbar_omega_star_12_as_printed,
    oracle_backed=True,
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


if __name__ == "__main__":
    import sys

    write_manifest(sys.argv[1] if len(sys.argv) > 1 else "catalog_manifest.json")
