"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/selftest/bench_selftest.py -q

Run from the repository root.  The file name keeps these tests out of the
package's own `pytest` run: several start benchmark sample processes and
take about a minute together.
"""

import importlib
import inspect
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostref  # noqa: E402
import sample  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- host normalization -----------------------------------------------------

def test_normalize_scales_by_nominal_over_measured_reference():
    assert hostref.normalize(2.0, 0.3, nominal_s=0.15) == pytest.approx(1.0)
    assert hostref.normalize(1.0, 0.15, nominal_s=0.15) == pytest.approx(1.0)
    # the same work on a host twice as slow normalizes to the same figure
    assert hostref.normalize(4.0, 0.6) == pytest.approx(hostref.normalize(2.0, 0.3))


def test_adjacent_reference_is_the_mean_of_the_chunks_around_and_during():
    assert hostref.adjacent_reference([0.1, 0.3]) == pytest.approx(0.2)
    assert hostref.adjacent_reference([0.02, 0.03, 0.04, 0.03]) == pytest.approx(0.03)
    with pytest.raises(ValueError):
        hostref.adjacent_reference([0.0, 0.2])
    with pytest.raises(ValueError):
        hostref.adjacent_reference([])
    with pytest.raises(ValueError):
        hostref.normalize(1.0, 0.0)


def test_paused_intervals_are_taken_out_of_an_operation():
    pauses = [(0.5, 0.6), (1.0, 1.2), (3.0, 3.1)]
    assert hostref.overlap(0.0, 2.0, pauses) == pytest.approx(0.3)
    assert hostref.overlap(0.55, 1.1, pauses) == pytest.approx(0.15)
    assert hostref.overlap(2.0, 2.5, pauses) == 0.0


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert hostref.tail_percentile(10) is None
    assert hostref.tail_percentile(11) == 9
    assert hostref.tail_percentile(20) == 50
    assert hostref.tail_percentile(100) == 90
    values = list(range(1, 101))
    assert hostref.percentile(values, 90) == 90
    assert sum(v > hostref.percentile(values, 90) for v in values) == 10


def test_spread_is_interquartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = [1.5, 3.0, 4.5]
    assert hostref.spread(values) == pytest.approx((q3 - q1) / q2)


# -- workloads ----------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_picks_a_fixed_pass_from_the_pool(workload):
    pool = {workloads.op_key(a) for a in workloads.pool(workload)}
    expected = workloads.load_expected()
    assert pool <= set(expected)
    for seed in range(20):
        ops = workloads.operations(workload, seed)
        assert ops == workloads.operations(workload, seed)
        assert {workloads.op_key(a) for a in ops} <= pool


def test_oracle_cells_share_no_enumeration():
    for seed in range(20):
        cells = set()
        for argv in workloads.operations("oracle_cells", seed):
            key = workloads.op_key(argv)
            convention = workloads.load_expected()[key]["convention"]
            kind = "ordered" if convention in (1, 2) else convention
            cells.add((kind, argv[argv.index("--m") + 1], argv[argv.index("--n") + 1]))
        assert len(cells) == len(workloads.ORACLE_SLOTS)


# -- tracer -------------------------------------------------------------------

def _all_bindings():
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "t0enum" or name.startswith("t0enum.")):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
                if inspect.isclass(value):
                    for cattr, cvalue in vars(value).items():
                        snapshot[(name, attr, cattr)] = cvalue
    return snapshot


def test_tracer_wraps_every_binding_and_uninstall_restores_them():
    importlib.import_module("t0enum.cli")
    before = _all_bindings()
    t = tracer.Tracer().install()
    try:
        assert t.missing == []
        # names bound by `from x import y` are wrapped where the caller binds them
        assert "t0enum.catalog.registry.oracle_count" in t.bindings["oracle.count"]
        assert "t0enum.cli.count" in t.bindings["oracle.count"]
        assert "t0enum.oracle.matrix_features" in t.bindings["hypercore.matrix_features"]
        assert "t0enum.catalog.families.partition_type_sum" in t.bindings["transforms.partition_type_sum"]
        from t0enum import oracle

        assert oracle.matrix_features is not before[("t0enum.oracle", "matrix_features")]
    finally:
        t.uninstall()
    after = _all_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_generators_are_timed_over_their_whole_iteration():
    from t0enum import transforms

    t = tracer.Tracer().install()
    try:
        transforms.partition_type_sum(lambda tau: 1, 14)
    finally:
        t.uninstall()
    spans = {s["path"]: s for s in t.spans()}
    gen = spans["transforms.partition_type_sum/exactmath.partition_types"]
    outer = spans["transforms.partition_type_sum"]
    assert gen["calls"] == 1
    # partition_types does all its work on the first resumption, after the
    # generator object was created: a creation-only span would read ~0.
    assert gen["total_s"] > 0.2 * outer["total_s"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - sum(
        s["total_s"] for p, s in spans.items()
        if p.startswith("transforms.partition_type_sum/") and p.count("/") == 1
    ))


def test_a_removed_binding_is_reported_missing_never_zero():
    targets = tracer.TARGETS + (("hypercore.gone", "t0enum.hypercore", "no_such_function"),)
    targets = tuple(
        ("hypercore.matrix_features", "t0enum.hypercore", "renamed_matrix_features")
        if name == "hypercore.matrix_features" else (name, module, attr)
        for name, module, attr in targets
    )
    t = tracer.Tracer(targets=targets).install()
    t.uninstall()
    report = t.report()
    assert "hypercore.gone" in report["missing"]
    metrics = tracer.layer_metrics(report)
    assert metrics["hypercore.matrix_features_calls"] == (None, "count")
    assert metrics["hypercore.visited_per_covered"][0] is None
    assert metrics["oracle.count_calls"] == (0, "count")


@pytest.mark.parametrize(
    "class_id, m, n, covered",
    [("alpha_02", 2, 3, 64), ("beta_03", 3, 3, 56), ("omega_04", 2, 3, 36), ("alpha_01", 3, 2, 64)],
)
def test_matrices_covered_equals_features_visited_on_cold_cells(class_id, m, n, covered):
    from t0enum import catalog

    convention = catalog.resolve_class(class_id).convention
    assert tracer.matrices_covered(convention, m, n) == covered
    result = sample.spawn([["oracle", "--class", class_id, "--m", str(m), "--n", str(n)]], trace=True)
    metrics = tracer.layer_metrics(result["trace"])
    assert metrics["oracle.matrices_covered"][0] == covered
    assert metrics["hypercore.matrix_features_calls"][0] == covered
    assert metrics["hypercore.visited_per_covered"][0] == 1.0


def test_output_is_byte_identical_with_tracing_on_and_off():
    ops = workloads.operations("tables", 3) + [["oracle", "--class", "beta_01", "--m", "3", "--n", "3"]]
    plain = sample.spawn(ops, trace=False)
    traced = sample.spawn(ops, trace=True)
    digests = [(op["rc"], op["out_sha256"]) for op in plain["ops"]]
    assert digests == [(op["rc"], op["out_sha256"]) for op in traced["ops"]]
    assert all(op["error"] is None for op in plain["ops"] + traced["ops"])


def test_two_traced_certify_runs_give_identical_counts():
    ops = workloads.operations("certify", 1)
    counts = []
    for _ in range(2):
        metrics = tracer.layer_metrics(sample.spawn(ops, trace=True)["trace"])
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["hypercore.matrix_features_calls"] == 103853
    assert counts[0]["oracle.matrices_covered"] == 103853


# -- runner -------------------------------------------------------------------

def _traced_sample(calls, ref_s):
    metrics = {name: (1.0, unit) for name, (unit, _) in tracer.LAYER_METRICS.items()}
    metrics["hypercore.matrix_features_calls"] = (calls, "count")
    return {"traced": True, "trace": {"metrics": metrics, "missing": [], "bindings": {}, "spans": []},
            "ref_s": ref_s, "pass_norm_s": 1.2, "ops": [{"out_bytes": 10}]}


def test_traced_run_keeps_raw_timings_and_flags_counts_that_differ(monkeypatch):
    import run

    monkeypatch.setattr(tracer, "layer_metrics", lambda report: report["metrics"])
    untraced = {"traced": False, "pass_norm_s": 1.0}
    samples = [untraced, _traced_sample(7, 0.01), untraced, _traced_sample(8, 0.04)]
    metrics, detail = run.per_layer(samples, probes=[])
    assert detail["counts_differing"] == ["hypercore.matrix_features_calls [7, 8]"]
    assert [(r["sample"], r["ref_s"]) for r in detail["raw_by_sample"]] == [(1, 0.01), (3, 0.04)]
    assert all(r["raw"]["hypercore.matrix_features_s"] == 1.0 for r in detail["raw_by_sample"])
    # 1.0 raw s at references 0.01 and 0.04 s: the median of the two normalized values
    expected = statistics.median([hostref.normalize(1.0, 0.01), hostref.normalize(1.0, 0.04)])
    assert metrics["hypercore.matrix_features_s"] == (pytest.approx(expected), "s")
    assert metrics["trace.overhead_ratio"][0] == pytest.approx(1.2)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("records", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
