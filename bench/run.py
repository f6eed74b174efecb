"""Benchmark runner for supercoinv.

    python3 bench/run.py --workload hilbert --seed 1 --seconds 30 --trace 0

Runs one workload (hilbert, colon, omp or suite; see README.md) as a
closed loop of samples for about ``--seconds`` seconds.  Every sample is
a fresh interpreter (``bench/worker.py``), so no process-global cache or
engine survives from one sample to the next.  One sample at a time runs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the run's samples): ``wall_norm_s``
(wall time at the speed probe's reference speed, see worker.SpeedProbe),
``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` the run alternates
untraced and traced samples and reports the per-layer metrics of the
traced sample with the median wall time, plus ``trace.overhead_ratio``.
Lines before the last one give the raw ``wall_s``, quartiles, sample
counts, the failure ratio and the correctness verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("hilbert", "colon", "omp", "suite")
SETUP_PROBES = 8        # extra set-up-only workers per run, after a warm-up
RUN_LIMIT_S = 170       # the whole run ends within this, whatever happens


class Run:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.samples = []       # worker results, traced or not
        self.setups = []        # set-up times of untraced workers
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def elapsed(self):
        return time.monotonic() - self.start

    def spawn(self, trace=False, setup_only=False, index=0):
        a = self.args
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed)]
        if a.smoke:
            cmd.append("--smoke")
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            cmd += ["--trace", "1", "--trace-out", os.path.join(
                OUT_DIR, f"trace-{a.workload}-{a.seed}-{index}.jsonl")]
        env = {k: v for k, v in os.environ.items()
               if k not in ("SUPERCOINV_CACHE", "PYTHONPATH")}
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                                  cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"worker timed out after {timeout:.0f} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, (f"worker exit code {proc.returncode}: "
                          + proc.stderr.strip()[-2000:])
        return json.loads(lines[-1]), None

    def sample(self, trace=False, index=0):
        """Run one sample; return its duration in seconds, or None when the
        run has to stop."""
        t0 = time.monotonic()
        res, err = self.spawn(trace=trace, index=index)
        if res is None:
            self.attempted += 1
            self.failed += 1
            self.errors.append(err)
            return None
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.errors += res["errors"]
        if res.get("missing_targets"):
            print("trace targets not found: "
                  + ", ".join(res["missing_targets"]), file=sys.stderr)
        if not trace:
            self.setups.append(res["setup_s"])
        if res["failed"] == 0:       # a failed sample gives no timing
            res["traced"] = trace
            self.samples.append(res)
        return time.monotonic() - t0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def describe(name, unit, values):
    lo, hi = quartiles(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit}"
            f" (q1 {lo:.6g}, q3 {hi:.6g}, n={len(values)})")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs on the same code paths (self-test)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "supercoinv",
                                       "__init__.py")):
        print(f"no supercoinv package under {ROOT}/src", file=sys.stderr)
        return 2

    run = Run(args)
    # the warm-up worker compiles the package's bytecode; then set up a few
    # times without running anything, so set-up time is a median
    res, err = run.spawn(setup_only=True)
    if res is None:
        print(err, file=sys.stderr)
        return 2
    for _ in range(SETUP_PROBES):
        res, err = run.spawn(setup_only=True)
        if res is not None:
            run.setups.append(res["setup_s"])

    # closed loop: the next sample starts when the previous one has ended,
    # and only if it is expected to end within --seconds
    index = 0
    while True:
        if args.trace:
            step = run.sample(index=index)
            if step is not None:
                more = run.sample(trace=True, index=index)
                step = None if more is None else step + more
        else:
            step = run.sample()
        index += 1
        if step is None or run.elapsed() + step > args.seconds:
            break

    untraced = [s for s in run.samples if not s["traced"]]
    traced = [s for s in run.samples if s["traced"]]
    correct = run.failed == 0 and bool(untraced) and (
        bool(traced) or not args.trace)
    print(f"workload {args.workload}, seed {args.seed}: inputs "
          + json.dumps((untraced or traced or [{}])[0].get("inputs")))
    print(f"operations: {run.attempted} attempted, {run.failed} failed,"
          f" fail_ratio {run.failed / max(run.attempted, 1):.6g} ratio")
    for e in run.errors[:10]:
        print(f"FAILED {e}")
    print(f"correctness: {'all answers checked and right' if correct else 'FAILED'}")

    metrics = {}
    if untraced:
        walls = [s["wall_s"] for s in untraced]
        norm = [s["wall_norm_s"] for s in untraced]
        rss = [s["peak_rss_mb"] for s in untraced]
        print(describe("wall_s", "s", walls))
        print(describe("speed probe", "s",
                       [s["probe_mean_s"] for s in untraced]))
        print(describe("wall_norm_s", "s", norm))
        print(describe("setup_s", "s", run.setups))
        print(describe("peak_rss_mb", "MB", rss))
        if not args.trace:
            metrics = {
                "wall_norm_s": {"value": statistics.median(norm),
                                "unit": "s"},
                "setup_s": {"value": statistics.median(run.setups),
                            "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(rss),
                                "unit": "MB"},
            }
    if args.trace and untraced and traced:
        traced.sort(key=lambda s: s["wall_s"])
        chosen = traced[(len(traced) - 1) // 2]
        print(describe("traced wall_s", "s", [s["wall_s"] for s in traced]))
        for name, value in chosen["layers"].items():
            metrics[name] = {"value": value, "unit": unit_of(name)}
        base = statistics.median(s["wall_s"] for s in untraced)
        metrics["trace.untraced_wall_s"] = {"value": base, "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(s["wall_s"] for s in traced) / base,
            "unit": "ratio"}
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
