"""One sample process: import the program, run a pass of operations, report.

Run from the repository root; it imports `t0enum` from ./src.  Reads a
JSON request on stdin:
  {"ops": [[argv...], ...], "trace": false, "op_timeout_s": 60}
and prints one JSON line on stdout with the import time, each operation's
exit code, timing and output digest, the pass time and the peak RSS.  With
"trace": true it installs the binding-aware tracer around the pass and adds
the aggregated spans.  With no ops it is a set-up probe.

Each operation calls `t0enum.cli.main(argv, out=buffer)`, exactly what the
`t0enum` console script does, so the program sees only the argv.
"""

import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"

# Outputs at most this long are returned verbatim, so the runner can read
# the values of short answers (oracle counts, table cells).
VERBATIM_BYTES = 4096


class OpTimeout(BaseException):
    """Raised in the main thread when one operation exceeds its time limit.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _run_op(main, argv, timeout_s):
    out = io.StringIO()
    err = io.StringIO()
    record = {"argv": argv, "rc": None, "error": None}
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            record["rc"] = main(argv, out=out)
    except OpTimeout:
        record["error"] = f"timeout after {timeout_s} s"
    except Exception as exc:  # any crash is a failed operation, not a crashed sample
        record["error"] = f"{type(exc).__name__}: {exc}"[:500]
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # runner can take out the intervals it kept this process paused.
    record["start"], record["end"], record["seconds"] = start, end, end - start
    data = out.getvalue().encode()
    record["out_bytes"] = len(data)
    record["out_sha256"] = hashlib.sha256(data).hexdigest()
    record["out_text"] = data.decode() if len(data) <= VERBATIM_BYTES else None
    record["stderr"] = err.getvalue()[-500:]
    return record


def _peak_rss_kb():
    # The high-water mark of this process's own memory.  getrusage's
    # ru_maxrss would not do: Linux carries the parent's high-water mark
    # over the exec that starts this process, so it reads the runner's RSS
    # whenever that is the larger.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(request):
    sys.path.insert(0, os.path.abspath(SRC))
    start = time.perf_counter()
    import t0enum.cli as cli

    import_s = time.perf_counter() - start
    result = {"import_s": import_s, "ops": []}
    tracer = None
    if request.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    timeout_s = request.get("op_timeout_s", 60)
    for argv in request.get("ops", []):
        result["ops"].append(_run_op(cli.main, argv, timeout_s))
    # The pass is the time spent inside the program, not in digesting output.
    result["pass_s"] = sum(op["seconds"] for op in result["ops"])
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
    result["peak_rss_kb"] = _peak_rss_kb()
    return result


def spawn(ops, trace=False):
    """Run one pass in a fresh sample process, from the repository root,
    and return its result.

    For callers that only need the outcome: the runner has its own spawn,
    which also pauses the process to time the host reference."""
    import subprocess  # not at the top: the sample process itself never needs it

    request = json.dumps({"ops": ops, "trace": trace, "op_timeout_s": 170})
    done = subprocess.run([sys.executable, os.path.join(HERE, "sample.py")], input=request,
                          capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    request = json.loads(sys.stdin.read() or "{}")
    result = run(request)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
