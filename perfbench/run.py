"""Benchmark runner: closed-loop samples of one workload, host-normalized.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root.  The runner starts one sample process at a
time (perfbench/sample.py) and waits for it: a closed loop with one client.
Each sample is one fresh process that imports `t0enum` from ./src and runs
one pass of the workload's operations.  The runner times a short fixed
reference chunk in its own process (hostref.py) right before and after
every sample and every set-up probe, and every 0.4 s while a sample runs,
with the sample stopped; it reports each timing in normalized seconds.
After the timed phase it checks every operation's exit code and output
against perfbench/expected.json and, on oracle_cells, against the class's
certified formula at the same cell.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced samples and prints the per-layer metrics from the traced ones.  The
last line of stdout is one JSON object; the full run record, with every raw
and reference time, is written under perfbench/records/.
"""

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import hostref
import sample
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SAMPLE = os.path.join(HERE, "sample.py")
RECORDS = os.path.join(HERE, "records")

# The whole run must end within 180 s: no sample starts after HARD_STOP_S
# unless it is expected to end by then, and none may outlive KILL_AT_S.
HARD_STOP_S = 150
KILL_AT_S = 170
MIN_SAMPLES = 2
# Set-up probes after each sample: at least MIN_PROBES, more after a long
# sample, so that a run with few samples still takes many probes.
MIN_PROBES = 6
PROBES_PER_SAMPLE_SECOND = 1.5
# How often a running sample is stopped for a reference chunk (about 20 ms).
PAUSE_EVERY_S = 0.4
OP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "wall_s": "s",
    "work_per_s": "units/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
EXTRA_LAYER_UNITS = {
    "cli.out_bytes": "bytes",
    "catalog.registry_import_s": "s",
    "trace.overhead_ratio": "ratio",
}
NORMALIZED_UNITS = ("s", "us")


class SampleFailed(Exception):
    pass


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            found = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
            cpu = found.group(1) if found else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


class Runner:
    def __init__(self, workload, seed, seconds, trace):
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.ops = workloads.operations(workload, seed)
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        # Set-up is measured with byte code cached, as an installed package
        # runs: the untimed first probe writes it, whatever the caller's
        # environment says.
        for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            self.env.pop(name, None)

    def elapsed(self):
        return time.perf_counter() - self.started

    def _spawn(self, request, importtime=False, pause_every_s=None):
        """Run one sample process to completion and return its result.

        With pause_every_s, the runner stops the process that often, times a
        reference chunk while it is stopped, and lets it continue: the
        reference then follows the host through the whole sample, not only
        at its edges.  The result lists the chunks and the paused intervals."""
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [SAMPLE]
        deadline = self.started + KILL_AT_S
        chunks, pauses = [hostref.reference_seconds()], []
        os.makedirs(RECORDS, exist_ok=True)
        with tempfile.TemporaryFile("w+", dir=RECORDS) as out, tempfile.TemporaryFile("w+", dir=RECORDS) as err:
            proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=out, stderr=err, text=True, env=self.env)
            try:
                try:
                    proc.stdin.write(json.dumps(request))
                    proc.stdin.close()
                except BrokenPipeError:
                    pass  # the process died at start; its exit code says why
                while True:
                    wait = pause_every_s or max(0.0, deadline - time.perf_counter())
                    try:
                        proc.wait(timeout=wait)
                        break
                    except subprocess.TimeoutExpired:
                        if time.perf_counter() >= deadline:
                            raise SampleFailed(f"sample process killed after {self.elapsed():.0f} s of the run")
                    paused = time.perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    chunks.append(hostref.reference_seconds())
                    os.kill(proc.pid, signal.SIGCONT)
                    pauses.append((paused, time.perf_counter()))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            chunks.append(hostref.reference_seconds())
            out.seek(0)
            err.seek(0)
            lines = out.read().strip().splitlines()
            stderr = err.read()
        if proc.returncode != 0 or not lines:
            raise SampleFailed(f"sample process exit {proc.returncode}: {stderr[-500:]}")
        result = json.loads(lines[-1])
        result.update(stderr=stderr, ref_chunks_s=chunks, pauses=pauses)
        result["ref_s"] = hostref.adjacent_reference(chunks)
        return result

    def sample(self, traced):
        request = {"ops": self.ops, "trace": traced, "op_timeout_s": OP_TIMEOUT_S}
        result = self._spawn(request, pause_every_s=PAUSE_EVERY_S)
        # the pass without the intervals the runner held the process stopped
        result["pass_s"] = sum(
            op["seconds"] - hostref.overlap(op["start"], op["end"], result["pauses"]) for op in result["ops"]
        )
        result["pass_norm_s"] = hostref.normalize(result["pass_s"], result["ref_s"])
        return result

    def probe(self, importtime=False):
        """One set-up probe: a fresh process importing the program."""
        result = self._spawn({"ops": []}, importtime=importtime)
        probe = {
            "import_s": result["import_s"],
            "ref_chunks_s": result["ref_chunks_s"],
            "ref_s": result["ref_s"],
            "import_norm_s": hostref.normalize(result["import_s"], result["ref_s"]),
        }
        if importtime:
            registry = _registry_import_s(result["stderr"])
            probe["registry_import_s"] = registry
            if registry is not None:
                probe["registry_import_norm_s"] = hostref.normalize(registry, result["ref_s"])
        return probe

    def timed_phase(self):
        """Alternate samples and blocks of set-up probes until time is up."""
        samples, probes = [], []
        phase_start = time.perf_counter()
        index = 0
        while True:
            traced = self.trace and index % 2 == 1
            try:
                result = self.sample(traced)
            except SampleFailed as exc:
                result = {"failed": str(exc)}
            result["traced"] = traced
            samples.append(result)
            n_probes = max(MIN_PROBES, round(PROBES_PER_SAMPLE_SECOND * result.get("pass_s", 0)))
            for _ in range(n_probes):
                try:
                    probes.append(self.probe(importtime=self.trace))
                except SampleFailed:
                    break
            index += 1
            per_iteration = (time.perf_counter() - phase_start) / index
            enough = index >= MIN_SAMPLES and (not self.trace or index % 2 == 0)
            if enough and time.perf_counter() - phase_start + per_iteration > self.seconds:
                break
            if self.elapsed() + per_iteration > HARD_STOP_S:
                break
        return samples, probes

    def crosscheck(self):
        """Oracle count vs the class's certified formula, per oracle op key."""
        oracle_ops = [argv for argv in self.ops if argv[0] == "oracle"]
        if not oracle_ops:
            return {}
        request = {"ops": [workloads.formula_argv(a) for a in oracle_ops], "op_timeout_s": OP_TIMEOUT_S}
        try:
            result = self._spawn(request)
        except SampleFailed as exc:
            return {workloads.op_key(a): str(exc) for a in oracle_ops}
        values = {}
        for argv, rec in zip(oracle_ops, result["ops"]):
            if rec["error"] or rec["rc"] != 0:
                values[workloads.op_key(argv)] = rec["error"] or f"formula exit {rec['rc']}"
            else:
                values[workloads.op_key(argv)] = workloads.table_value(rec["out_text"])
        return values


def _registry_import_s(importtime_stderr):
    # `-X importtime` lines: "import time: self [us] | cumulative | module"
    for line in importtime_stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "t0enum.catalog.registry":
            return int(parts[1]) / 1e6
    return None


def check(samples, ops, crosscheck, expected):
    """Count operations attempted and failed; list every problem found."""
    attempted, failed, problems = 0, 0, []
    for index, sample in enumerate(samples):
        records = sample.get("ops")
        if records is None:
            attempted += len(ops)
            failed += len(ops)
            problems.append(f"sample {index}: {sample.get('failed')}")
            continue
        for rec in records:
            key = workloads.op_key(rec["argv"])
            attempted += 1
            issues = workloads.check_op(rec, expected.get(key))
            if key in crosscheck and issues == [] and crosscheck[key] != rec["out_text"].strip():
                issues.append(f"oracle {rec['out_text'].strip()} but formula {crosscheck[key]}")
            if issues:
                failed += 1
                problems.append(f"sample {index} `{key}`: {'; '.join(issues)}")
    return attempted, failed, problems


def end_to_end(workload, samples, probes, ok_ratio, work):
    passes = [s for s in samples if not s["traced"] and "pass_norm_s" in s]
    if not passes:
        return None
    wall = hostref.summary([s["pass_norm_s"] for s in passes])
    setup = hostref.summary([p["import_norm_s"] for p in probes])
    values = {
        "wall_s": wall["median"],
        "work_per_s": work / wall["median"],
        "setup_s": setup["median"],
        "peak_rss_mb": statistics.median([s["peak_rss_kb"] / 1024 for s in passes]),
        "ok_ratio": ok_ratio,
    }
    detail = {
        "wall_s": dict(wall, raw_median=statistics.median([s["pass_s"] for s in passes]),
                       ref_median=statistics.median([s["ref_s"] for s in passes])),
        "setup_s": dict(setup, raw_median=statistics.median([p["import_s"] for p in probes]),
                        ref_median=statistics.median([p["ref_s"] for p in probes])),
        "work_per_pass": work,
        "work_unit": workloads.WORK_UNITS[workload],
    }
    return values, detail


def per_layer(samples, probes):
    traced_at = [i for i, s in enumerate(samples) if s.get("traced") and "trace" in s]
    traced = [samples[i] for i in traced_at]
    untraced = [s for s in samples if not s.get("traced") and "pass_norm_s" in s]
    if not traced or not untraced:
        return None
    per_sample, raw_samples = [], []
    for index, s in zip(traced_at, traced):
        metrics = tracer.layer_metrics(s["trace"])
        normalized = {}
        for name, (value, unit) in metrics.items():
            if value is not None and unit in NORMALIZED_UNITS:
                value = hostref.normalize(value, s["ref_s"])
            normalized[name] = (value, unit)
        normalized["cli.out_bytes"] = (sum(op["out_bytes"] for op in s["ops"]), "bytes")
        per_sample.append(normalized)
        raw_samples.append({"sample": index, "ref_s": s["ref_s"],
                            "raw": {name: value for name, (value, _) in metrics.items()}})
    values, differing = {}, []
    for name, (first, unit) in per_sample[0].items():
        column = [m[name][0] for m in per_sample]
        if first is None:
            values[name] = None
        elif unit in NORMALIZED_UNITS:
            values[name] = statistics.median(column)
        else:
            values[name] = first
            if len(set(column)) > 1:
                differing.append(f"{name} {column}")
    registry = [p["registry_import_norm_s"] for p in probes if p.get("registry_import_norm_s") is not None]
    values["catalog.registry_import_s"] = statistics.median(registry) if registry else None
    values["trace.overhead_ratio"] = (
        statistics.median([s["pass_norm_s"] for s in traced]) / statistics.median([s["pass_norm_s"] for s in untraced])
    )
    units = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
    units.update(EXTRA_LAYER_UNITS)
    detail = {
        "traced_samples": len(traced),
        "counts_differing": differing,
        # each traced sample's layer values before normalization, by its reference
        "raw_by_sample": raw_samples,
        "missing": sorted(set().union(*(s["trace"]["missing"] for s in traced))),
        "bindings": traced[0]["trace"]["bindings"],
        "spans": traced[0]["trace"]["spans"],
    }
    return {name: (values[name], units[name]) for name in units}, detail


def metric_json(values):
    out = {}
    for name, (value, unit) in values.items():
        entry = {"value": value, "unit": unit}
        if value is None:
            entry["missing"] = True
        out[name] = entry
    return out


def write_record(record):
    os.makedirs(RECORDS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}-{stamp}-{os.getpid()}.json"
    path = os.path.join(RECORDS, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(sample.SRC, "t0enum", "cli.py")):
        print("error: run from the repository root; ./src/t0enum not found", file=sys.stderr)
        return 2
    try:
        expected = workloads.load_expected()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read expected outputs: {exc}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    unknown = [workloads.op_key(a) for a in runner.ops if workloads.op_key(a) not in expected]
    if unknown:
        print(f"error: no expected outputs for {unknown}", file=sys.stderr)
        return 2

    try:
        runner.probe()  # untimed: compiles and caches the byte code
    except SampleFailed as exc:
        print(f"error: the program does not import: {exc}", file=sys.stderr)
        return 1
    samples, probes = runner.timed_phase()
    crosscheck = runner.crosscheck()
    attempted, failed, problems = check(samples, runner.ops, crosscheck, expected)
    work = sum(workloads.work_units(a, expected[workloads.op_key(a)]) for a in runner.ops)
    e2e = end_to_end(args.workload, samples, probes, (attempted - failed) / attempted, work)
    if e2e is None:
        print("error: no sample completed; " + "; ".join(problems[:5]), file=sys.stderr)
        return 1
    e2e_values, e2e_detail = e2e
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "environment": environment(),
        "nominal_ref_s": hostref.NOMINAL_REF_S,
        "ref_iterations": hostref.REF_ITERATIONS,
        "pause_every_s": PAUSE_EVERY_S,
        "ops": runner.ops,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "crosscheck": crosscheck,
        "end_to_end": e2e_values,
        "end_to_end_detail": e2e_detail,
        "samples": [{k: v for k, v in s.items() if k not in ("trace", "stderr")} for s in samples],
        "probes": probes,
    }
    if args.trace:
        layers = per_layer(samples, probes)
        if layers is None:
            print("error: traced run produced no traced and untraced pair", file=sys.stderr)
            return 1
        metrics, record["per_layer_detail"] = layers
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        problems.extend(f"traced samples disagree on {d}" for d in record["per_layer_detail"]["counts_differing"])
    else:
        metrics = {name: (e2e_values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    path = write_record(record)

    wall = e2e_detail["wall_s"]
    print(f"workload {args.workload} seed {args.seed}: {len(runner.ops)} ops per pass, "
          f"{wall['count']} passes, {len(probes)} set-up probes, record {os.path.relpath(path)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {'missing' if value is None else format(value, '.6g'):>14s} {unit}")
    tail = "none (10 samples or fewer)" if wall["tail"] is None else f"p{wall['tail_pct']} {wall['tail']:.4f} s"
    print(f"  wall_s raw median {wall['raw_median']:.4f} s, reference median {wall['ref_median']:.4f} s "
          f"(nominal {hostref.NOMINAL_REF_S} s), tail {tail}")
    if args.trace:
        detail = record["per_layer_detail"]
        agree = "no" if detail["counts_differing"] else "yes"
        print(f"  exact counts repeat over {detail['traced_samples']} traced samples: {agree}")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
