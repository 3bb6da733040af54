"""One workload process: a closed loop of in-process CLI jobs.

Started by run.py, never by hand.  Protocol on stdin/stdout:

1. import the program from <root>/src, write the seeded inputs, run one
   warm-up job, then print `READY` (the parent times this as set-up);
2. read one line: `STOP` ends the process, `GO` starts the timed part;
3. run passes over the job list until --seconds have been spent in
   passes, checking each report, and print one JSON line of results.

With --trace 1 the first pass runs untraced and keeps every report's
bytes; the tracer is then installed and the following passes must
reproduce those bytes exactly.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

SEGMENT_S = 1.0

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import calibrate, factor  # noqa: E402
from checks import check  # noqa: E402
from workloads import build  # noqa: E402


def import_program(root):
    """Import derived_kernel from the checkout's src/ only."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "derived_kernel", "cli.py")):
        raise SystemExit("no program source at %s" % src)
    sys.path.insert(0, src)
    from derived_kernel import cli
    where = os.path.dirname(os.path.abspath(cli.__file__))
    if where != os.path.join(src, "derived_kernel"):
        raise SystemExit("imported derived_kernel from %s, not %s"
                         % (where, src))
    return cli


class Runner:
    def __init__(self, cli, jobs, workdir):
        self.cli = cli
        self.jobs = jobs
        self.out_path = os.path.join(workdir, "report.json")
        self.reference = {}        # job name -> report bytes of pass 1
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_job(self, job):
        """Run one job; return (seconds, report bytes or None)."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        gc.collect()
        argv = job["argv"] + ["--out", self.out_path]
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:   # a crash fails the job, not the run
            code = "%s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        if code != 0:
            self.fail(job, "exit %r" % (code,))
            return dt, None
        with open(self.out_path, "rb") as fh:
            return dt, fh.read()

    def fail(self, job, why):
        self.failed += 1
        self.problems.append("%s: %s" % (job["name"], why))

    def run_pass(self, tracer=None):
        """Answer every job once.

        Returns the wall seconds of each job and the same times in
        reference seconds (calibrate.py).  The calibration loop runs at
        the start of the pass and after every segment of jobs that took
        SEGMENT_S or more; the jobs of a segment are scaled by the two
        calibrations around it."""
        wall, scaled, segment = [], [], []
        c_prev = calibrate()
        for k, job in enumerate(self.jobs):
            self.attempted += 1
            dt, raw = self.run_job(job)
            if tracer is not None:
                tracer.end_job()
            wall.append(dt)
            segment.append(dt)
            if sum(segment) >= SEGMENT_S or k == len(self.jobs) - 1:
                c_next = calibrate()
                f = factor(c_prev, c_next)
                scaled.extend(t * f for t in segment)
                segment, c_prev = [], c_next
            if raw is None:
                continue
            ref = self.reference.setdefault(job["name"], raw)
            if raw != ref:
                self.fail(job, "report bytes differ from the first pass")
                continue
            found = check(job["kind"], job["params"], json.loads(raw))
            if found:
                self.fail(job, "; ".join(found))
        return wall, scaled


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    cli = import_program(args.root)
    workdir = os.path.join(args.root, "bench", "out",
                           "work-%s-%d-%d" % (args.workload, args.seed,
                                              os.getpid()))
    os.makedirs(workdir)
    try:
        jobs = build(args.workload, args.seed, workdir)
        runner = Runner(cli, jobs, workdir)
        runner.run_job(jobs[0])            # warm-up: first imports, caches
        runner.failed, runner.problems = 0, []
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "GO":
            return 0
        result = timed(runner, args) if not args.trace else \
            traced(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in runner.problems[:20]:
        print("problem: " + line, file=sys.stderr)
    result.update(attempted=runner.attempted, failed=runner.failed,
                  correct=not runner.problems)
    print(json.dumps(result), flush=True)
    return 0


def timed(runner, args):
    wall, passes, longest = [], [], []
    while not wall or sum(wall) < args.seconds:
        job_wall, job_scaled = runner.run_pass()
        wall.append(sum(job_wall))
        passes.append(sum(job_scaled))
        longest.append(max(job_scaled))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"metrics": {
        "pass_s": statistics.median(passes),
        "max_job_s": statistics.median(longest),
        "peak_rss_mb": rss_mb,
    }, "wall_passes": wall, "passes": passes}


def traced(runner, args):
    """One untraced pass, then traced passes until --seconds are spent.
    Per-layer seconds are scaled by the pass's reference/wall ratio."""
    from tracer import Tracer, metric_unit
    job_wall, job_scaled = runner.run_pass()
    untraced, spent = sum(job_scaled), sum(job_wall)
    tracer = Tracer()
    tracer.install()
    samples, functions, passes, wall = [], None, [], []
    while not samples or spent < args.seconds:
        job_wall, job_scaled = runner.run_pass(tracer)
        metrics, functions = tracer.take()
        scale = sum(job_scaled) / sum(job_wall)
        samples.append({name: value * scale if metric_unit(name) == "s"
                        else value for name, value in metrics.items()})
        passes.append(sum(job_scaled))
        wall.append(sum(job_wall))
        spent += sum(job_wall)
    merged = {name: statistics.median(s[name] for s in samples)
              for name in samples[0]}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_pass_s": untraced,
        "traced_pass_s": passes,
        "overhead": statistics.median(passes) / untraced - 1.0,
        "per_layer": merged,
        "functions_last_pass_wall_s": functions,
    }
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return {"metrics": merged, "passes": [untraced] + passes,
            "wall_passes": [spent - sum(wall)] + wall}


if __name__ == "__main__":
    sys.exit(main())
