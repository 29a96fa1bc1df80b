"""Time to a certified answer for `ccq`, end to end and per layer.

    python3 perfbench/run.py --workload corpus|sheets|critical --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  One long-lived worker process
imports `ccq` and runs each operation (one CLI command on one problem)
through `ccq.cli.main`; this process is its single closed-loop client and
sends the next operation only when the previous one has returned.  A pass
runs every operation of the workload once; passes repeat until S seconds
have gone, and there are at least two.  The first pass also checks the
graphs each command built; every pass checks the answers, and each
operation's stdout must be the same in every pass.

With --trace 0 the run uses ccq's defaults and prints the end-to-end
metrics; with --trace 1 every layer is wrapped (see tracer.py) and it prints
the per-layer metrics, and writes the spans of its first pass to
perfbench/_traces/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Pipe
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh interpreters timed for setup_s before the first pass and after each
SETUP_SPAWNS_PER_BREAK = 4
# an operation still running after this many seconds has hung and failed
OP_TIMEOUT_S = 20
# whatever hangs, a run ends within this many seconds of its start
RUN_LIMIT_S = 150
TOPOLOGY_COUNTS = {
    "topology.fibers": "fibers",
    "topology.fibers.irrational": "irrational_fibers",
    "topology.vertices": "vertices",
    "topology.edges": "edges",
}


def setup_seconds() -> list:
    """Times for fresh interpreters to import ccq and ccq.cli."""
    code = ("import time; t = time.perf_counter(); import ccq, ccq.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CCQ_THREADS", None)
    times = []
    for _ in range(SETUP_SPAWNS_PER_BREAK):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=True)
        times.append(float(done.stdout))
    return times


class Client:
    """Owns the worker process; replaces it when an operation hangs."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.proc = None
        self.conn = None
        self.spans = []

    def _start(self):
        # a plain child process on one end of a socket pair: the spawn start
        # method of multiprocessing would also leave its resource tracker
        # running after this process ends
        parent, child = Pipe()
        fd = child.fileno()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(fd), str(SRC), str(int(self.traced))],
            cwd=ROOT, pass_fds=(fd,), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        child.close()
        self.conn = parent

    def run(self, argv, capture, record_spans, timeout):
        """The worker's reply, or (None, reason) when it hung or died."""
        if self.proc is None:
            self._start()
        try:
            self.conn.send(("run", argv, capture, record_spans))
            if not self.conn.poll(timeout):
                self._kill()
                return None, f"timed out after {timeout:g} s"
            return self.conn.recv(), None
        except (EOFError, OSError):
            self._kill()
            return None, "worker process died"
        except BaseException:  # interrupted mid-operation: the worker is busy
            self._kill()
            raise

    def _kill(self):
        self.proc.kill()
        self.proc.wait()
        self.conn.close()
        self.proc = None

    def close(self):
        if self.proc is None:
            return
        try:
            self.conn.send(("finish",))
            if self.conn.poll(30):
                self.spans.extend(self.conn.recv())
            self.proc.wait(10)
        except (EOFError, OSError, subprocess.TimeoutExpired):
            pass
        self._kill()


def measure(wl, client, seconds, traced):
    """Run whole passes for `seconds`; return per-pass figures and findings.

    An untraced run also times fresh interpreters for setup_s before the
    first pass and after each, so that they sample the whole run; that time
    does not count towards `seconds`.
    """
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S - OP_TIMEOUT_S
    passes, failures, errors, setup = [], [], [], []
    latencies = {op.name: [] for op in wl.ops}
    reference = {}
    attempted = 0
    t_setup = 0.0
    while True:
        if not traced:
            t0 = time.perf_counter()
            setup += setup_seconds()
            t_setup += time.perf_counter() - t0
        if len(passes) >= 2 and time.perf_counter() - t_start - t_setup >= seconds:
            break
        first = not passes
        p = {"batch": 0.0, "largest": 0.0, "layers": {}, "counts": {}}
        outputs = {}
        for op in wl.ops:
            attempted += 1
            if time.perf_counter() > deadline:
                failures.append(f"{op.name}: not run, the run reached its time limit")
                continue
            t0 = time.perf_counter()
            reply, why = client.run(op.argv, first or traced, first and traced, OP_TIMEOUT_S)
            latency = reply["latency"] if reply else time.perf_counter() - t0
            latencies[op.name].append(latency)
            p["batch"] += latency
            if op.problem == wl.largest:
                p["largest"] += latency
            if reply is None:
                failures.append(f"{op.name}: {why}")
                continue
            for layer, (calls, self_s) in reply.get("layers", {}).items():
                acc = p["layers"].setdefault(layer, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
            if reply["rc"] != 0:
                failures.append(f"{op.name}: exit code {reply['rc']}: {reply['err'].strip()[:200]}")
                continue
            if "capture" in reply:
                for G in reply["capture"]["graphs"]:
                    for key in (*TOPOLOGY_COUNTS.values(), "apparent"):
                        n = len(G[key]) if key == "apparent" else G[key]
                        p["counts"][key] = p["counts"].get(key, 0) + n
                if first:
                    errors += workloads.check_capture(op, reply["capture"])
            out = reply["out"]
            outputs[op.name] = out
            if first:
                reference[op.name] = out
                problem = op.check(out)
                if problem:
                    errors.append(f"{op.name}: {problem}")
                errors += workloads.check_exports(op)
            elif out != reference.get(op.name, out):
                errors.append(f"{op.name}: stdout differs from the first pass")
        if first and wl.pass_check is not None:
            errors += wl.pass_check(outputs)
        passes.append(p)
    return passes, latencies, setup, attempted, failures, errors


def end_to_end(passes, latencies, setup):
    # every worker has been waited for by now; the interpreters timed for setup_s
    # only import ccq and stay far below the worker
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {
        "batch_s": (statistics.median(p["batch"] for p in passes), "s"),
        # each operation's median over the passes, then the median over the
        # operations: with few distinct operations, the median of all
        # latencies falls between two operations' samples and reads their
        # extremes
        "latency_p50_ms": (statistics.median(
            statistics.median(v) for v in latencies.values() if v) * 1000, "ms"),
        "largest_s": (statistics.median(p["largest"] for p in passes), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(passes, n_ops):
    """Calls and self time per pass for each layer, and counts of work."""
    out = {}
    for layer in tracer.LAYER_NAMES:
        calls = statistics.median(p["layers"].get(layer, (0, 0.0))[0] for p in passes)
        self_ms = statistics.median(p["layers"].get(layer, (0, 0.0))[1] for p in passes) * 1000
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_ms"] = (self_ms, "ms")
    out["polynomials.resultant_x2.per_problem"] = (
        out["polynomials.resultant_x2.calls"][0] / n_ops, "1/op")
    for name, key in TOPOLOGY_COUNTS.items():
        out[name] = (statistics.median(p["counts"].get(key, 0) for p in passes), "count")
    out["topology.apparent_nodes"] = (
        statistics.median(p["counts"].get("apparent", 0) for p in passes), "count")
    out["trace.batch_s"] = (statistics.median(p["batch"] for p in passes), "s")
    return out


def write_trace(path: Path, args, spans, metrics):
    t0 = spans[0][3] if spans else 0.0
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "span_fields": ["id", "parent", "name", "start_s", "end_s"],
        "spans": [[i, parent, name, s - t0, e - t0] for i, parent, name, s, e in spans],
        "counters": {k: v for k, (v, _) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a SIGTERM unwinds like an exception, so the worker is still stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "ccq" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no ccq sources under {ROOT}: expected src/ccq and corpus/",
              file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    client = Client(bool(args.trace))
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, work)
        passes, latencies, setup, attempted, failures, errors = measure(
            wl, client, args.seconds, bool(args.trace))
    finally:
        client.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left to a run still going
            work.parent.rmdir()

    if args.trace:
        metrics = per_layer(passes, len(wl.ops))
        trace_path = HERE / "_traces" / f"{args.workload}-seed{args.seed}.json"
        write_trace(trace_path, args, client.spans, metrics)
    else:
        metrics = end_to_end(passes, latencies, setup)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(wl.ops)} operations, largest problem {wl.largest}")
    print("  pass times (s): " + " ".join(f"{p['batch']:.3f}" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.4f} {unit}")
    if args.trace:
        shares = {layer: metrics[f"{layer}.self_ms"][0] for layer in tracer.LAYER_NAMES}
        total = sum(shares.values()) or 1.0
        top = max(shares, key=shares.get)
        print(f"  largest share of traced time: {top} {100 * shares[top] / total:.1f} %"
              f"; spans of the first pass in {trace_path.relative_to(ROOT)}")
    for f in failures:
        print(f"FAILED {f}")
    for e in errors:
        print(f"WRONG {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
