"""Benchmark of the derived-kernel CLI.

    python3 bench/run.py --workload k0 --seed 1 --seconds 20 --trace 0

Runs one workload (k0, descent or verdicts, see README.md) in a fresh
single-threaded Python process that imports the program from the
checkout's src/.  Set-up (process start, imports, seeded inputs and one
warm-up job) is timed in SETUPS fresh processes and reported as their
median; the last of them then runs the timed passes.  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are pass_s, max_job_s, peak_rss_mb and
setup_s; with --trace 1 they are the per-layer metrics of tracer.py,
and the full trace goes to bench/out/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import calibrate, factor  # noqa: E402
from tracer import PER_LAYER, metric_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
READY_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170
E2E_UNITS = {"pass_s": "s", "max_job_s": "s", "peak_rss_mb": "MB",
             "setup_s": "s"}


class WorkerError(RuntimeError):
    pass


def _read_line(proc, timeout):
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise WorkerError("worker gave no answer within %ds" % timeout)
    return proc.stdout.readline().decode("utf-8", "replace").strip()


def start_worker(args, trace_out):
    """Start a workload process and wait for READY; return it with its
    set-up time in wall and in reference seconds."""
    env = dict(os.environ)
    env.pop("DERIVED_KERNEL_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    c_before = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        line = _read_line(proc, READY_TIMEOUT_S)
    except WorkerError:
        stop(proc)
        raise
    setup = time.perf_counter() - t0
    if line != "READY":
        stop(proc)
        raise WorkerError("worker failed during set-up (%r)" % line)
    return proc, setup, setup * factor(c_before, calibrate())


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def tell(proc, word):
    proc.stdin.write((word + "\n").encode())
    proc.stdin.flush()
    proc.stdin.close()


def run(args):
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        trace_out = os.path.join(HERE, "out", "trace-%s-%d.json"
                                 % (args.workload, args.seed))
    wall_setups, setups = [], []
    for k in range(SETUPS):
        proc, wall, setup = start_worker(args, trace_out)
        wall_setups.append(wall)
        setups.append(setup)
        if k < SETUPS - 1:
            try:
                tell(proc, "STOP")
                proc.wait(timeout=READY_TIMEOUT_S)
            finally:
                stop(proc)
    try:
        tell(proc, "GO")
        line = _read_line(proc, RUN_TIMEOUT_S - sum(wall_setups))
        proc.wait(timeout=READY_TIMEOUT_S)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise WorkerError("worker exited with %r" % proc.returncode)
    result = json.loads(line)
    metrics = dict(result["metrics"])
    if args.trace:
        units = {name: metric_unit(name) for name in PER_LAYER}
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = E2E_UNITS
    print("passes, wall s: %s; reference s: %s; set-ups, wall s: %s"
          % tuple(", ".join("%.3f" % x for x in xs) for xs in
                  (result["wall_passes"], result["passes"], wall_setups)),
          file=sys.stderr)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(units)},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        out = run(args)
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
