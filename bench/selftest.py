"""Self-test of the benchmark on small inputs (about a minute).

    python3 bench/selftest.py

For every workload it runs ``run.py --smoke`` untraced once and traced
twice, and checks that:

* each run is correct and prints exactly the metrics BENCHMARK.json
  declares, with the declared units (the names and units are printed);
* count metrics repeat exactly between the two traced runs;
* the layers' self times plus ``other.self_s`` add up to ``trace.wall_s``,
  with ``other.self_s`` not negative.

It also checks that the benchmark exits non-zero, printing no result, in
a directory holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# self-time metrics whose names do not end in ".self_s"
SELF_TIME_EXTRA = ("exactalg.polymatrix.det_s", "coinvariant.engine_setup_s")


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stdout[-1500:]}"
                             f" {proc.stderr[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(metrics, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        raise AssertionError(f"{what}: metrics {sorted(set(got) ^ set(want))}"
                             f" differ from BENCHMARK.json, or units differ")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for m in spec["end_to_end"] + spec["per_layer"]:
        print(f"{m['name']}\t{m['unit']}")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    self_times = [m["name"] for m in spec["per_layer"]
                  if m["name"].endswith(".self_s")
                  or m["name"] in SELF_TIME_EXTRA]

    for w in spec["workloads"]:
        name = w["name"]
        plain = result(run(name, 0))
        assert plain["correct"] and plain["failed"] == 0, plain
        check_names(plain["metrics"], spec["end_to_end"], f"{name} untraced")
        first, second = (result(run(name, 1)) for _ in range(2))
        for res in (first, second):
            assert res["correct"] and res["failed"] == 0, res
            check_names(res["metrics"], spec["per_layer"], f"{name} traced")
            m = {k: v["value"] for k, v in res["metrics"].items()}
            total = sum(m[k] for k in self_times)
            assert m["other.self_s"] >= 0, (name, m["other.self_s"])
            assert abs(total - m["trace.wall_s"]) <= 1e-9 * max(1.0, total), (
                name, total, m["trace.wall_s"])
        for c in counts:
            a = first["metrics"][c]["value"]
            b = second["metrics"][c]["value"]
            assert a == b, f"{name}: count {c} changed between runs: {a} {b}"
        print(f"ok {name}")

    bare = os.path.join(BENCH_DIR, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (
            proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
