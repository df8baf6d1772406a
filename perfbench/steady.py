"""Steadiness check: repeated runs of each workload and the spread of each metric.

    python3 perfbench/steady.py --runs 10

Run from the repository root.  Round r runs every workload once with seed
first_seed + r, in listed order on even rounds and reversed on odd ones, so
that a slow stretch of the host does not land on one workload only.  For
every end-to-end metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`) and the spread, which is the
inter-quartile distance as a share of the median, next to the bound that
BENCHMARK.json fixes.  The bounds are set from these figures.  The summary
is also written under perfbench/records/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostref
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}, spec["run_seconds"]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    took = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1]), took


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")
    bounds, seconds = load_bounds()
    names = list(workloads.WORKLOADS)
    values = {w: {} for w in names}
    durations = {w: [] for w in names}
    for r in range(args.runs):
        order = names if r % 2 == 0 else names[::-1]
        for workload in order:
            result, took = run_once(workload, args.first_seed + r, seconds)
            durations[workload].append(took)
            if not result["correct"]:
                print(f"{workload} seed {args.first_seed + r}: {result['failed']} of "
                      f"{result['attempted']} operations failed", flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"round {r} {workload:12s} {took:5.1f} s  {line}", flush=True)

    summary = {"seconds": seconds, "runs": args.runs, "first_seed": args.first_seed, "workloads": {}}
    print(f"\n{'workload':12s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for workload in names:
        rows = {}
        for name, column in values[workload].items():
            q1, _, q3 = statistics.quantiles(column, n=4)
            med = statistics.median(column)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": hostref.spread(column),
                          "bound": bounds.get(name), "values": column}
            print(f"{workload:12s} {name:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rows[name]['spread']:8.4f} {bounds.get(name, float('nan')):6.3f}")
        summary["workloads"][workload] = {"metrics": rows, "run_durations_s": durations[workload]}
        print(f"{workload:12s} run time median {statistics.median(durations[workload]):.1f} s, "
              f"max {max(durations[workload]):.1f} s")
    os.makedirs(os.path.join(HERE, "records"), exist_ok=True)
    path = os.path.join(HERE, "records", f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"summary written to {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
