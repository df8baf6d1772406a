"""Outside-in tracer: spans around calls into the program's public functions.

The tracer never edits the program.  For every traced function it finds
each place the function is *bound*, not only where it is defined: code
that did `from .oracle import count as oracle_count` calls through its own
module global, so wrapping `oracle.count` alone would miss those calls.  It
replaces every such binding with one timing wrapper and puts the original
back on `uninstall()`.

Spans are aggregated in memory by call path (a tree of names) and written
out once, by `report()`.  Generators are timed over their whole iteration:
each resumption is a span of the generator's node, so its consumer's self
time excludes the work done inside it.

A function that a refactor removes or moves is reported as missing, and so
is every layer metric computed from it: never as 0.
"""

import importlib
import inspect
import sys
import time
from functools import wraps
from math import comb

PACKAGE = "t0enum"

# (span name, module that defines it, attribute path in that module)
TARGETS = (
    ("cli.main", "t0enum.cli", "main"),
    ("oracle.verify_grid", "t0enum.oracle", "verify_grid"),
    ("oracle.count", "t0enum.oracle", "count"),
    ("hypercore.matrix_features", "t0enum.hypercore", "matrix_features"),
    ("hypercore.features_satisfy", "t0enum.hypercore", "features_satisfy"),
    ("hypercore.satisfies", "t0enum.hypercore", "satisfies"),
    ("catalog.oracle_count", "t0enum.catalog.registry", "CatalogEntry.oracle_count"),
    ("catalog.evaluate", "t0enum.catalog.registry", "CatalogEntry.evaluate"),
    ("transforms.partition_type_sum", "t0enum.transforms", "partition_type_sum"),
    ("transforms.connected_count", "t0enum.transforms", "connected_count"),
    ("transforms.t0_transform", "t0enum.transforms", "t0_transform"),
    ("transforms.t0_inverse", "t0enum.transforms", "t0_inverse"),
    ("transforms.t0_transform_sets", "t0enum.transforms", "t0_transform_sets"),
    ("transforms.ordered_with_repeats", "t0enum.transforms", "ordered_with_repeats"),
    ("transforms.cover_transform", "t0enum.transforms", "cover_transform"),
    ("transforms.first_egf_mismatch", "t0enum.transforms", "first_egf_mismatch"),
    ("transforms.egf_log_check", "t0enum.transforms", "egf_log_check"),
    ("exactmath.selections", "t0enum.exactmath", "selections"),
    ("exactmath.block_union_ksets", "t0enum.exactmath", "block_union_ksets"),
    ("exactmath.block_union_upto", "t0enum.exactmath", "block_union_upto"),
    ("exactmath.permutations_with_cycle_type", "t0enum.exactmath", "permutations_with_cycle_type"),
    ("exactmath.partition_types", "t0enum.exactmath", "partition_types"),
)

STIRLING_SPANS = (
    "transforms.t0_transform",
    "transforms.t0_inverse",
    "transforms.t0_transform_sets",
    "transforms.ordered_with_repeats",
    "transforms.cover_transform",
)
EGF_SPANS = ("transforms.first_egf_mismatch", "transforms.egf_log_check")
BLOCK_UNION_SPANS = ("exactmath.block_union_ksets", "exactmath.block_union_upto")

_KIND_BY_CONVENTION = {1: "ordered", 2: "ordered", 3: "sets", 4: "multisets"}


def matrices_covered(convention, m, n):
    """Matrices in the (m, n) cell of a row convention's enumeration.

    Ordered conventions range over all 2^(mn) matrices, convention 3 over
    m-sets of the 2^n row codes and convention 4 over m-multisets of them.
    This is what one cold oracle cell answers for, however an enumerator
    chooses to visit it."""
    kind = _KIND_BY_CONVENTION[convention]
    rows = 1 << n
    if kind == "ordered":
        return rows**m
    if kind == "sets":
        return comb(rows, m)
    return comb(rows + m - 1, m)


class _Node:
    __slots__ = ("name", "children", "calls", "total", "self")

    def __init__(self, name):
        self.name = name
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.self = 0.0

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name)
        return node


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.root = _Node("")
        # Each frame is [node, seconds covered by child spans].
        self._stack = [[self.root, 0.0]]
        self._installed = []
        self.missing = []
        self.bindings = {}
        self.counters = {
            "oracle.cold_count_calls": 0,
            "oracle.cold_count_s": 0.0,
            "oracle.matrices_covered": 0,
            "oracle.cells_checked": 0,
            "oracle.cells_skipped": 0,
            "catalog.custom_oracle_s": 0.0,
        }
        self._cold_cells = set()
        self._hooks = {
            "oracle.count": self._on_count,
            "oracle.verify_grid": self._on_verify_grid,
            "catalog.oracle_count": self._on_entry_oracle_count,
        }

    # -- hooks: counts measured where the work happens ----------------------

    def _on_count(self, args, kwargs, result, seconds):
        spec = _arg(args, kwargs, 0, "spec")
        m = _arg(args, kwargs, 1, "m")
        n = _arg(args, kwargs, 2, "n")
        key = (_KIND_BY_CONVENTION[spec.row_convention], m, n)
        if key not in self._cold_cells:
            self._cold_cells.add(key)
            self.counters["oracle.cold_count_calls"] += 1
            self.counters["oracle.cold_count_s"] += seconds
            self.counters["oracle.matrices_covered"] += matrices_covered(spec.row_convention, m, n)

    def _on_verify_grid(self, args, kwargs, result, seconds):
        self.counters["oracle.cells_checked"] += result.cells_checked
        self.counters["oracle.cells_skipped"] += len(result.skipped)

    def _on_entry_oracle_count(self, args, kwargs, result, seconds):
        if args[0].custom_oracle is not None:
            self.counters["catalog.custom_oracle_s"] += seconds

    def _run_hook(self, name, hook, args, kwargs, result, seconds):
        # A refactor that changes a signature or a result type must not make
        # the traced program fail: the counts it fed are reported missing.
        try:
            hook(args, kwargs, result, seconds)
        except (AttributeError, IndexError, KeyError, TypeError):
            if "hook:" + name not in self.missing:
                self.missing.append("hook:" + name)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0].child(name), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                node = frame[0]
                node.calls += 1
                node.total += seconds
                node.self += seconds - frame[1]
                stack[-1][1] += seconds
            if hook is not None:
                self._run_hook(name, hook, args, kwargs, result, seconds)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            node = stack[-1][0].child(name)
            node.calls += 1
            inner = fn(*args, **kwargs)

            def resume():
                while True:
                    frame = [node, 0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        seconds = clock() - start
                        stack.pop()
                        node.total += seconds
                        node.self += seconds - frame[1]
                        stack[-1][1] += seconds
                    yield item

            return resume()

        return traced

    # -- install / uninstall -----------------------------------------------

    def _resolve(self, module_name, attr_path):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]

    def _bindings(self, owner, attr, fn):
        """Every (namespace, name) in the package that binds fn."""
        if inspect.isclass(owner):
            return [(owner, attr)]
        found = []
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
                continue
            for name, value in vars(module).items():
                if value is fn:
                    found.append((module, name))
        return found

    def install(self):
        for name, module_name, attr_path in self.targets:
            resolved = self._resolve(module_name, attr_path)
            if resolved is None:
                self.missing.append(name)
                continue
            owner, attr, fn = resolved
            if inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_generator(name, fn)
            else:
                wrapper = self._wrap(name, fn)
            sites = self._bindings(owner, attr, fn)
            self.bindings[name] = [f"{getattr(ns, '__name__', ns)}.{n}" for ns, n in sites]
            for namespace, binding in sites:
                self._installed.append((namespace, binding, fn))
                setattr(namespace, binding, wrapper)
        return self

    def uninstall(self):
        while self._installed:
            namespace, binding, fn = self._installed.pop()
            setattr(namespace, binding, fn)

    # -- output ---------------------------------------------------------------

    def spans(self):
        """Aggregated spans, one record per call path."""
        out = []

        def walk(node, path):
            for child in node.children.values():
                child_path = path + (child.name,)
                out.append({
                    "path": "/".join(child_path),
                    "calls": child.calls,
                    "total_s": child.total,
                    "self_s": child.self,
                })
                walk(child, child_path)

        walk(self.root, ())
        return out

    def report(self):
        return {
            "spans": self.spans(),
            "counters": dict(self.counters),
            "caches": cache_sizes(),
            "missing": list(self.missing),
            "bindings": self.bindings,
        }


def cache_sizes():
    """Entries held by the oracle's feature cache and the functools caches."""
    sizes = {"oracle.feature_cache_records": None, "catalog.functools_cache_entries": 0}
    oracle = sys.modules.get(PACKAGE + ".oracle")
    feature_cache = getattr(oracle, "_FEATURE_CACHE", None)
    if isinstance(feature_cache, dict):
        sizes["oracle.feature_cache_records"] = sum(len(c) for c in feature_cache.values())
    seen = set()
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(PACKAGE):
            continue
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if callable(info) and id(value) not in seen:
                seen.add(id(value))
                sizes["catalog.functools_cache_entries"] += info().currsize
    return sizes


# -- layer metrics ------------------------------------------------------------

# name -> (unit, spans the value is computed from)
LAYER_METRICS = {
    "oracle.count_calls": ("count", ("oracle.count",)),
    "oracle.count_s": ("s", ("oracle.count",)),
    "oracle.count_self_s": ("s", ("oracle.count",)),
    "oracle.cold_count_calls": ("count", ("oracle.count", "hook:oracle.count")),
    "oracle.cache_hit_ratio": ("ratio", ("oracle.count", "hook:oracle.count")),
    "oracle.matrices_covered": ("count", ("oracle.count", "hook:oracle.count")),
    "oracle.us_per_matrix_covered": ("us", ("oracle.count", "hook:oracle.count")),
    "oracle.verify_grid_s": ("s", ("oracle.verify_grid",)),
    "oracle.cells_checked": ("count", ("oracle.verify_grid", "hook:oracle.verify_grid")),
    "oracle.cells_skipped": ("count", ("oracle.verify_grid", "hook:oracle.verify_grid")),
    "hypercore.matrix_features_calls": ("count", ("hypercore.matrix_features",)),
    "hypercore.matrix_features_s": ("s", ("hypercore.matrix_features",)),
    "hypercore.us_per_feature": ("us", ("hypercore.matrix_features",)),
    "hypercore.visited_per_covered": ("ratio", ("hypercore.matrix_features", "oracle.count", "hook:oracle.count")),
    "hypercore.features_satisfy_calls": ("count", ("hypercore.features_satisfy",)),
    "hypercore.features_satisfy_s": ("s", ("hypercore.features_satisfy",)),
    "hypercore.satisfies_calls": ("count", ("hypercore.satisfies",)),
    "catalog.oracle_count_calls": ("count", ("catalog.oracle_count",)),
    "catalog.oracle_count_s": ("s", ("catalog.oracle_count",)),
    "catalog.custom_oracle_s": ("s", ("catalog.oracle_count", "hook:catalog.oracle_count")),
    "catalog.evaluate_calls": ("count", ("catalog.evaluate",)),
    "catalog.evaluate_s": ("s", ("catalog.evaluate",)),
    "transforms.partition_type_sum_calls": ("count", ("transforms.partition_type_sum",)),
    "transforms.partition_type_sum_s": ("s", ("transforms.partition_type_sum",)),
    "transforms.connected_count_calls": ("count", ("transforms.connected_count",)),
    "transforms.connected_count_s": ("s", ("transforms.connected_count",)),
    "transforms.stirling_transform_s": ("s", STIRLING_SPANS),
    "transforms.egf_s": ("s", EGF_SPANS),
    "exactmath.selections_calls": ("count", ("exactmath.selections",)),
    "exactmath.block_union_calls": ("count", BLOCK_UNION_SPANS),
    "exactmath.block_union_s": ("s", BLOCK_UNION_SPANS),
    "exactmath.cycle_type_s": ("s", ("exactmath.permutations_with_cycle_type",)),
    "exactmath.partition_types_s": ("s", ("exactmath.partition_types",)),
    "cli.main_s": ("s", ("cli.main",)),
    "cli.self_s": ("s", ("cli.main",)),
    "oracle.feature_cache_records": ("count", ()),
    "catalog.functools_cache_entries": ("count", ()),
}


def _calls(spans, names):
    return sum(s["calls"] for s in spans if s["path"].rsplit("/", 1)[-1] in names)


def _inclusive(spans, names):
    """Seconds inside any of the named spans, each interval counted once."""
    total = 0.0
    for s in spans:
        path = s["path"].split("/")
        if path[-1] in names and not any(p in names for p in path[:-1]):
            total += s["total_s"]
    return total


def _self(spans, names):
    return sum(s["self_s"] for s in spans if s["path"].rsplit("/", 1)[-1] in names)


def _ratio(numerator, denominator):
    # A ratio with no base (no calls on this workload) reads 0.
    return numerator / denominator if denominator else 0.0


def layer_metrics(report):
    """Layer metric name -> (value, unit) from one sample's trace report.

    Times are raw seconds or microseconds of the sample process; a value
    whose spans are missing is None."""
    spans = report["spans"]
    c = report["counters"]
    count_calls = _calls(spans, ("oracle.count",))
    features = _calls(spans, ("hypercore.matrix_features",))
    features_s = _inclusive(spans, ("hypercore.matrix_features",))
    values = {
        "oracle.count_calls": count_calls,
        "oracle.count_s": _inclusive(spans, ("oracle.count",)),
        "oracle.count_self_s": _self(spans, ("oracle.count",)),
        "oracle.cold_count_calls": c["oracle.cold_count_calls"],
        "oracle.cache_hit_ratio": _ratio(count_calls - c["oracle.cold_count_calls"], count_calls),
        "oracle.matrices_covered": c["oracle.matrices_covered"],
        "oracle.us_per_matrix_covered": 1e6 * _ratio(c["oracle.cold_count_s"], c["oracle.matrices_covered"]),
        "oracle.verify_grid_s": _inclusive(spans, ("oracle.verify_grid",)),
        "oracle.cells_checked": c["oracle.cells_checked"],
        "oracle.cells_skipped": c["oracle.cells_skipped"],
        "hypercore.matrix_features_calls": features,
        "hypercore.matrix_features_s": features_s,
        "hypercore.us_per_feature": 1e6 * _ratio(features_s, features),
        "hypercore.visited_per_covered": _ratio(features, c["oracle.matrices_covered"]),
        "hypercore.features_satisfy_calls": _calls(spans, ("hypercore.features_satisfy",)),
        "hypercore.features_satisfy_s": _inclusive(spans, ("hypercore.features_satisfy",)),
        "hypercore.satisfies_calls": _calls(spans, ("hypercore.satisfies",)),
        "catalog.oracle_count_calls": _calls(spans, ("catalog.oracle_count",)),
        "catalog.oracle_count_s": _inclusive(spans, ("catalog.oracle_count",)),
        "catalog.custom_oracle_s": c["catalog.custom_oracle_s"],
        "catalog.evaluate_calls": _calls(spans, ("catalog.evaluate",)),
        "catalog.evaluate_s": _inclusive(spans, ("catalog.evaluate",)),
        "transforms.partition_type_sum_calls": _calls(spans, ("transforms.partition_type_sum",)),
        "transforms.partition_type_sum_s": _inclusive(spans, ("transforms.partition_type_sum",)),
        "transforms.connected_count_calls": _calls(spans, ("transforms.connected_count",)),
        "transforms.connected_count_s": _inclusive(spans, ("transforms.connected_count",)),
        "transforms.stirling_transform_s": _inclusive(spans, STIRLING_SPANS),
        "transforms.egf_s": _inclusive(spans, EGF_SPANS),
        "exactmath.selections_calls": _calls(spans, ("exactmath.selections",)),
        "exactmath.block_union_calls": _calls(spans, BLOCK_UNION_SPANS),
        "exactmath.block_union_s": _inclusive(spans, BLOCK_UNION_SPANS),
        "exactmath.cycle_type_s": _inclusive(spans, ("exactmath.permutations_with_cycle_type",)),
        "exactmath.partition_types_s": _inclusive(spans, ("exactmath.partition_types",)),
        "cli.main_s": _inclusive(spans, ("cli.main",)),
        "cli.self_s": _self(spans, ("cli.main",)),
        "oracle.feature_cache_records": report["caches"]["oracle.feature_cache_records"],
        "catalog.functools_cache_entries": report["caches"]["catalog.functools_cache_entries"],
    }
    missing = set(report["missing"])
    out = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        value = None if missing.intersection(needs) else values[name]
        out[name] = (value, unit)
    return out
