"""One benchmark sample, run in a fresh interpreter.

The worker imports supercoinv from ``src/`` of the checkout, builds the
workload's inputs, runs the workload once, checks every answer, and prints
one JSON line: set-up time, wall time, peak memory, operations attempted
and failed, and (under ``--trace 1``) the per-layer metrics.

    python3 bench/worker.py --workload hilbert --seed 1 --spawned-at T

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time covers interpreter start too.
"""

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from itertools import combinations
from math import gcd

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Workload sizes.  The smoke sizes exercise the same code paths in seconds.
SIZES = {
    "full": {"hilbert": 5, "colon": 5, "omp": 6, "suite": 4},
    "smoke": {"hilbert": 4, "colon": 4, "omp": 4, "suite": 3},
}
# k = 5 and 6 would double the omp sample (see README.md)
OMP_KS = (1, 2, 3, 4)
# Colon subsets J other than the seeded one.  Their cost varies several
# fold within one size, so only the cheap largest size is drawn from the
# seed (see README.md).
COLON_FIXED = {5: [(), (4,), (2, 4), (1, 3, 5)], 4: [(), (2,), (1, 3)]}
# Total quotient dimension = number of ordered set partitions of [n].
HILBERT_TOTAL = {4: 75, 5: 541}


def colon_subsets(n, seed):
    """J = () and fixed subsets of sizes 1..n-2, plus one subset of size
    n-1 drawn from the seed."""
    drawn = random.Random(seed).choice(list(combinations(range(1, n + 1),
                                                         n - 1)))
    return COLON_FIXED[n] + [drawn]


def suite_cache_entries(n):
    """Bidegrees of the n-th superspace Hilbert table, which ``fields1``
    writes to the cache and ``operator-closure`` reads back."""
    return (n * (n - 1) // 2 + 3) * (n + 1)


class SpeedProbe:
    """Samples the speed this process gets while a workload runs.

    On a shared machine that speed can change by a factor of two within
    seconds.  Every ``INTERVAL_S`` a SIGALRM handler times ``_probe_work``,
    a fixed mix of what the workloads do, with the garbage collector off so
    the program's heap does not enter the timing.  ``times`` are the probe
    times; their sum is left out of the sample's wall time.  Wall time
    times ``REFERENCE_S / mean(times)`` is the wall time at the reference
    speed, at which one probe takes ``REFERENCE_S``.
    """

    INTERVAL_S = 0.25
    REFERENCE_S = 0.003

    def __init__(self):
        self.times = []

    def probe(self, *_signal):
        gc.disable()
        try:
            start = time.perf_counter()
            _probe_work()
            self.times.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self.probe()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.probe()
        return False


class _Item:
    __slots__ = ("key", "val")

    def __init__(self, key, val):
        self.key = key
        self.val = val

    def merged(self, other):
        return _Item(self.key, self.val + other.val)


def _eliminate(row, pivot):
    """One cross-multiplied row step, as in an integer echelon."""
    a, b = row.get(0, 1), pivot[0]
    g = gcd(a, b)
    new = {k: v * (b // g) for k, v in row.items()}
    for k, v in pivot.items():
        s = new.get(k, 0) - v * (a // g)
        if s:
            new[k] = s
        else:
            new.pop(k, None)
    return {k: v % 1000003 or 1 for k, v in new.items()}


def _probe_work():
    """Fraction arithmetic, small objects and method calls, sorted tuples
    in a set, and sparse integer row steps.  Never change it: it defines
    the reference speed."""
    acc = Fraction(0)
    items = []
    seen = set()
    row = {j: (j * 7919) % 101 + 1 for j in range(24)}
    pivot = {j: (j * 104729) % 97 + 1 for j in range(24)}
    for i in range(300):
        acc += Fraction(i % 11 + 1, i % 7 + 1) * Fraction(3, i % 5 + 1)
        item = _Item((i % 13, i % 7), i)
        items.append(item.merged(item))
        seen.add(tuple(sorted((i % 5, i % 3, i % 11))))
        if i % 10 == 0:
            row = _eliminate(row, pivot)
    return acc, sum(x.val for x in items if x.key[0] < 7), len(seen), row


class Recorder:
    """Runs operations, counts failures and records one span per
    operation when tracing."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def outcome(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: {detail or 'wrong answer'}")

    def op(self, name, fn, **attrs):
        span = (self.tracer.span("op", op=name, **attrs) if self.tracer
                else contextlib.nullcontext())
        try:
            with span:
                ok = fn()
        except Exception:
            self.outcome(name, False, traceback.format_exc(limit=3))
        else:
            self.outcome(name, ok is True)


# ---------------------------------------------------------------------------
# workloads: each prepare_* builds the inputs (part of set-up) and returns
# the function that runs the workload and checks it


def prepare_hilbert(sc, size, seed):
    from supercoinv.coinvariant import BidegreeTable
    from supercoinv.combinatorics import fields1_formula
    argv = ["hilbert", str(size), "--format", "json"]

    def run(rec):
        def table():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = sc.cli.main(argv)
            rows = json.loads(out.getvalue())
            got = BidegreeTable(size, {(r["bosonic"], r["fermionic"]):
                                       r["dimension"] for r in rows})
            return (code == 0 and got.total() == HILBERT_TOTAL[size]
                    and got.as_qz() == fields1_formula(size))
        rec.op("table", table, n=size)

    return run, {"argv": argv, "seeded": False}


def prepare_colon(sc, size, seed):
    js = colon_subsets(size, seed)

    def run(rec):
        for J in js:
            rec.op(f"J={J}", lambda J=J: sc.coinvariant.verify_colon_basis(
                sc.combinatorics.SubsetOfN(size, J)), j=list(J))

    return run, {"n": size, "J": [list(J) for J in js], "seeded": True}


def prepare_omp(sc, size, seed):
    stats = list(sc.combinatorics.OMP_STATISTICS)
    sf = sc.symfunc         # resolved per call, so traced names are seen

    def check(k, stat, ref):
        # the reference is computed while checking the first statistic of k
        if not ref:
            ref.append(sf.to_basis(sf.cnk_syt(size, k), "m"))
        return sf.cnk_omp(size, k, stat) == ref[0]

    def run(rec):
        for k in OMP_KS:
            ref = []
            for stat in stats:
                rec.op(f"k={k},{stat}", functools.partial(check, k, stat, ref),
                       k=k, stat=stat)

    return run, {"n": size, "k": list(OMP_KS), "seeded": False}


def prepare_suite(sc, size, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
    argv = ["verify", "all", "--n", str(size), "--cache", cache,
            "--format", "json", "--seed", str(seed)]
    names = sorted(sc.cli.CHECKS)
    entries = suite_cache_entries(size)

    def run(rec):
        stats = sc.coinvariant.CACHE_STATS
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = sc.cli.main(argv)
            reports = {r["check"]: r for r in json.loads(out.getvalue())}
        except Exception:
            for name in names:
                rec.outcome(name, False, traceback.format_exc(limit=3))
            return
        whole = []
        if code != 0:
            whole.append(f"exit code {code}")
        if (stats["hits"], stats["misses"]) != (entries, entries):
            whole.append(f"cache hits/misses {stats['hits']}/"
                         f"{stats['misses']}, expected {entries}/{entries}")
        for name in names:
            status = reports.get(name, {}).get("status", "missing")
            detail = "; ".join(whole + ([] if status == "pass"
                                        else [f"status {status}"]))
            rec.outcome(name, not detail, detail)

    return run, {"argv": argv[:5] + ["<fresh dir>"] + argv[6:],
                 "seeded": True, "cleanup": cache}


PREPARE = {"hilbert": prepare_hilbert, "colon": prepare_colon,
           "omp": prepare_omp, "suite": prepare_suite}


# ---------------------------------------------------------------------------
# tracing: which package functions make up each layer


# (layer key, "module:qualname" of a function whose time counts to it)
LAYERS = [
    ("exactalg.echelon", "exactalg:_IntEchelon.add"),
    ("exactalg.echelon", "exactalg:_int_row"),
    ("exactalg.qmatrix", "exactalg:QMatrix.rank"),
    ("exactalg.qmatrix", "exactalg:QMatrix.solve"),
    ("exactalg.qmatrix", "exactalg:QMatrix.kernel_basis"),
    ("exactalg.polymatrix.det", "exactalg:PolyMatrix.det"),
    ("superspace.mul", "superspace:SuperElement.__mul__"),
    ("superspace.odot", "superspace:odot"),
    ("superspace.antisymmetrize", "superspace:antisymmetrize"),
    ("coinvariant.engine_setup", "coinvariant:CoinvariantEngine._setup"),
    ("coinvariant.nf", "coinvariant:CoinvariantEngine.nf"),
    ("coinvariant.reduced_coords",
     "coinvariant:CoinvariantEngine.reduced_coords"),
    ("combinatorics.enumerate_omp", "combinatorics:enumerate_omp"),
    ("combinatorics.omp_statistic", "combinatorics:omp_statistic"),
    ("combinatorics.enumerate_I", "combinatorics:enumerate_I"),
    ("symfunc.cnk_omp", "symfunc:cnk_omp"),
    ("symfunc.cnk_syt", "symfunc:cnk_syt"),
    ("symfunc.to_basis", "symfunc:to_basis"),
    ("doperators.apply_D", "doperators:apply_D"),
    ("doperators.ptj_determinant", "doperators:ptj_determinant"),
    ("doperators.build_E_set", "doperators:build_E_set"),
    ("doperators.enumerate_L", "doperators:enumerate_L"),
]


def install_tracer(sc):
    from tracer import Tracer
    mods = [sc.exactalg, sc.combinatorics, sc.superspace, sc.symfunc,
            sc.coinvariant, sc.doperators, sc.cli]
    t = Tracer(mods)

    def kept(args, result):
        t.count("echelon.rows")
        t.count("echelon.kept", 1 if result else 0)

    def omp_items(args, result):
        t.count("omp.items", len(result))

    def omp_kept(args, result):
        # the q = 1 coefficient sum counts the OMPs whose content is a
        # partition, i.e. the ones the generating function keeps
        t.count("omp.kept", sum(c.eval_ones() for _, c in result.coeffs))

    hooks = {"exactalg:_IntEchelon.add": kept,
             "combinatorics:enumerate_omp": omp_items,
             "symfunc:cnk_omp": omp_kept}
    for key, target in LAYERS:
        t.layer(key, "supercoinv." + target, hooks.get(target))

    # one span per bidegree the engine eliminates: the first call for each
    # (engine, i, j); later calls return the engine's stored echelon
    seen = set()

    def first_call(args):
        key = (id(args[0]), args[1], args[2])
        if key in seen:
            return False
        seen.add(key)
        return True
    t.span_target("bidegree",
                  "supercoinv.coinvariant:CoinvariantEngine.ideal_echelon",
                  attrs=lambda a: {"n": a[0].n, "i": a[1], "j": a[2]},
                  keep=first_call)
    t.span_dict("check", sc.cli.CHECKS, "check")
    return t


def layer_metrics(t, wall, cache_stats):
    """Per-layer metrics of one traced sample."""
    def calls(key):
        return t.stats.get(key, [0])[0]

    def self_s(key):
        return t.stats.get(key, [0, 0.0])[1]

    c = t.counters
    rows = c.get("echelon.rows", 0)
    items = c.get("omp.items", 0)
    bideg = [s["end"] - s["start"] for s in t.spans if s["name"] == "bidegree"]
    checks = {s["check"]: s["end"] - s["start"]
              for s in t.spans if s["name"] == "check"}
    m = {
        "exactalg.echelon.rows": rows,
        "exactalg.echelon.kept_ratio":
            c.get("echelon.kept", 0) / rows if rows else 0.0,
        "exactalg.echelon.self_s": self_s("exactalg.echelon"),
        "exactalg.qmatrix.self_s": self_s("exactalg.qmatrix"),
        "exactalg.polymatrix.det_s": self_s("exactalg.polymatrix.det"),
        "superspace.mul.calls": calls("superspace.mul"),
        "superspace.mul.self_s": self_s("superspace.mul"),
        "superspace.odot.calls": calls("superspace.odot"),
        "superspace.odot.self_s": self_s("superspace.odot"),
        "superspace.antisymmetrize.self_s":
            self_s("superspace.antisymmetrize"),
        "coinvariant.engine_setup_s": self_s("coinvariant.engine_setup"),
        "coinvariant.nf.calls": calls("coinvariant.nf"),
        "coinvariant.nf.self_s": self_s("coinvariant.nf"),
        "coinvariant.reduced_coords.self_s":
            self_s("coinvariant.reduced_coords"),
        "coinvariant.ideal_echelon.median_s":
            statistics.median(bideg) if bideg else 0.0,
        "coinvariant.ideal_echelon.max_s": max(bideg, default=0.0),
        "coinvariant.cache.hits": cache_stats["hits"],
        "coinvariant.cache.misses": cache_stats["misses"],
        "combinatorics.enumerate_omp.items": items,
        "combinatorics.enumerate_omp.self_s":
            self_s("combinatorics.enumerate_omp"),
        "combinatorics.omp_statistic.calls":
            calls("combinatorics.omp_statistic"),
        "combinatorics.omp_statistic.self_s":
            self_s("combinatorics.omp_statistic"),
        "combinatorics.enumerate_I.self_s": self_s("combinatorics.enumerate_I"),
        "combinatorics.omp.kept_ratio":
            c.get("omp.kept", 0) / items if items else 0.0,
        "symfunc.cnk_omp.self_s": self_s("symfunc.cnk_omp"),
        "symfunc.cnk_syt.self_s": self_s("symfunc.cnk_syt"),
        "symfunc.to_basis.self_s": self_s("symfunc.to_basis"),
        "doperators.apply_D.calls": calls("doperators.apply_D"),
        "doperators.apply_D.self_s": self_s("doperators.apply_D"),
        "doperators.ptj_determinant.self_s":
            self_s("doperators.ptj_determinant"),
        "doperators.build_E_set.self_s": self_s("doperators.build_E_set"),
        "doperators.enumerate_L.self_s": self_s("doperators.enumerate_L"),
    }
    for name in CHECK_NAMES:
        m[f"cli.check.{name}.s"] = checks.get(name, 0.0)
    m["other.self_s"] = wall - t.self_time()
    m["trace.wall_s"] = wall
    return m


CHECK_NAMES = ("artin", "colon", "counting", "dop-gale", "dop-leading",
               "fields1", "fields2", "fields3", "omp-stats",
               "operator-closure", "parabolic", "reiner", "steinberg")


# ---------------------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(PREPARE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", help="file for the spans of a traced run")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true",
                   help="stop once ready to call the workload")
    args = p.parse_args(argv)

    os.environ.pop("SUPERCOINV_CACHE", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import supercoinv as sc
    import supercoinv.cli  # noqa: F401  (imports every layer)

    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    run, inputs = PREPARE[args.workload](sc, size, args.seed)
    cleanup = inputs.pop("cleanup", None)
    try:
        tracer = install_tracer(sc) if args.trace else None
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s, "inputs": inputs}
        if not args.setup_only:
            result.update(measure(sc, run, tracer, args))
    finally:
        if cleanup:
            shutil.rmtree(cleanup, ignore_errors=True)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


def measure(sc, run, tracer, args):
    """Run the workload once; wall time runs from the call to the checked
    result."""
    rec = Recorder(tracer)
    # a traced sample has no speed probe: the probe's time would land in
    # whichever layer it interrupts
    probe = SpeedProbe()
    start = time.perf_counter()
    if tracer:
        with tracer.span("workload", workload=args.workload):
            run(rec)
    else:
        with probe:
            run(rec)
    wall = time.perf_counter() - start - sum(probe.times)
    out = {"wall_s": wall, "attempted": rec.attempted, "failed": rec.failed,
           "errors": rec.errors}
    if probe.times:
        mean = statistics.fmean(probe.times)
        out.update(probe_mean_s=mean,
                   wall_norm_s=wall * SpeedProbe.REFERENCE_S / mean)
    if tracer:
        out["layers"] = layer_metrics(tracer, wall, sc.coinvariant.CACHE_STATS)
        out["missing_targets"] = tracer.missing
        if args.trace_out:
            tracer.write(args.trace_out, out["layers"])
    return out


if __name__ == "__main__":
    sys.exit(main())
