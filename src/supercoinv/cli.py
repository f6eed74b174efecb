"""Command line harness: compute Hilbert and Frobenius data, list bases,
and run the named verification checks with caching and structured reports.

Exit codes: 0 all pass, 1 a verification failed (or standard output was
closed before the output was written), 2 usage error, 3 a check was
refused for resource reasons (and nothing failed).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

from . import __version__
from .combinatorics import (OMP_STATISTICS, QZPolynomial, SignedPartition,
                            SubsetOfN, all_translation_sequences,
                            check_partition, count_I, count_L,
                            count_osp, enumerate_artin, enumerate_I,
                            enumerate_signed_artin, fields1_formula, gale_leq,
                            j_of_signed, partitions, sequence_bound,
                            signed_partitions, subsets, TranslationSequence)
from .coinvariant import (CACHE_STATS, CoinvariantEngine, IntegrityError,
                          VerificationFailure, _catalecticants, _image,
                          epsilon_dims, frobenius_reconstruct, monomials,
                          operator_closure, quotient_hilbert,
                          verify_colon_basis, verify_parabolic_basis)
from .doperators import (apply_D, ptj_determinant, verify_block_symmetry,
                         verify_E_set, verify_factorization, weight,
                         enumerate_L)
from .exactalg import MPoly, SparseTerms, _IntEchelon
from .superspace import (SuperElement, coinvariant_generators, f_J,
                         is_antisymmetric, odot, power_sum_generators,
                         vandermonde)
from .symfunc import Schur, cnk_omp, cnk_syt, e1_perp, to_basis

CACHE_ENV = "SUPERCOINV_CACHE"


class ResourceRefused(Exception):
    """A request lies above a resource cap; nothing was computed."""


@dataclass
class RunContext:
    """Settings of one run.  ``quotient`` caps n for everything built on
    the coinvariant engine or the operator closure; ``osp_cap`` caps n for
    enumerating ordered (multi)set partitions.  ``force`` admits one more n
    under the quotient cap only."""

    cache: str | None = None
    force: bool = False
    seed: int = 0
    quotient: int = 5
    osp_cap: int = 8
    _engines: dict = field(default_factory=dict, init=False, repr=False)

    def engine(self, n):
        """The coinvariant engine of n, built on first use and shared by
        every check and verb of the run (not a setting; freed with it)."""
        if n not in self._engines:
            self._engines[n] = CoinvariantEngine(n)
        return self._engines[n]


# the caps (RunContext fields) each capped check or verb is held to; the
# costs of the Frobenius image and of the closure follow the quotient's
CAPS = {
    "fields1": ("quotient",),
    "fields2": ("quotient",),
    "fields3": ("quotient",),
    "artin": ("quotient",),
    "parabolic": ("quotient",),
    "operator-closure": ("quotient",),
    "steinberg": ("quotient",),
    "omp-stats": ("osp_cap",),
    "hilbert": ("quotient",),
    "frobenius": ("quotient",),
    "cnk --stat": ("osp_cap",),
    "basis": ("osp_cap",),
}


def admit(name, n, ctx):
    """Raise ResourceRefused unless every cap that the check or verb
    ``name`` is held to admits n; called once, before any work."""
    for key in CAPS.get(name, ()):
        cap = getattr(ctx, key)
        note = key
        if key == "quotient":
            if ctx.force:
                cap += 1
                note += ", forced"
            else:
                note += "; --force admits one more"
        if n > cap:
            raise ResourceRefused(f"{name}: n={n} exceeds the cap {cap}"
                                  f" ({note})")


@dataclass
class Report:
    check: str
    params: dict
    status: str  # pass, fail or skipped
    witness: str = ""
    seconds: float = 0.0
    version: str = __version__
    cache_hits: int = 0
    cache_rejects: int = 0


# ---------------------------------------------------------------------------
# individual checks


def check_fields1(n, ctx):
    table = quotient_hilbert(ctx.engine(n), cache_dir=ctx.cache)
    expected = fields1_formula(n)
    got = table.as_qz()
    if got != expected:
        raise VerificationFailure(
            f"Hilbert series {got.render()} != formula {expected.render()}")
    osp = count_osp(n)
    if table.total() != osp:
        raise VerificationFailure(
            f"total dimension {table.total()} != {osp} ordered set"
            " partitions")


def check_fields2(n, ctx):
    for lam in partitions(n):
        dims = epsilon_dims(ctx.engine(n), lam)
        expected = count_osp(n, mu=lam)
        if dims.total() != expected:
            raise VerificationFailure(
                f"antisymmetric slice for mu={lam} has dimension"
                f" {dims.total()}, expected {expected} batch ordered set"
                " partitions")


def _cnk_sum(n):
    return sum((cnk_syt(n, k).scale(QZPolynomial.monomial(0, n - k))
                for k in range(1, n + 1)), Schur(n))


def check_fields3(n, ctx):
    got = frobenius_reconstruct(ctx.engine(n))
    expected = _cnk_sum(n)
    if got != expected:
        raise VerificationFailure(
            f"Frobenius image {got.render()} != tableau formula"
            f" {expected.render()}")


def check_reiner(n, ctx):
    if n < 2:
        return
    for k in range(1, n + 1):
        lhs = e1_perp(cnk_syt(n, k))
        rhs = Schur(n - 1)
        if k - 1 >= 1:
            rhs = rhs + cnk_syt(n - 1, k - 1)
        if k <= n - 1:
            rhs = rhs + cnk_syt(n - 1, k)
        rhs = rhs.scale(QZPolynomial.q_int(k))
        if lhs != rhs:
            raise VerificationFailure(
                f"skewing identity fails at (n, k) = ({n}, {k}):"
                f" {lhs.render()} != {rhs.render()}")


def check_artin(n, ctx):
    # eps_(1^n) is the identity: the parabolic basis is the substaircase one
    verify_parabolic_basis(ctx.engine(n), (1,) * n)


def check_colon(n, ctx):
    for J in subsets(n):
        verify_colon_basis(J)


def check_parabolic(n, ctx):
    for lam in partitions(n):
        verify_parabolic_basis(ctx.engine(n), lam)
    verify_E_set(*signed_partitions(n))


def _admissible_sequences(n):
    for lam in partitions(n):
        for tt in all_translation_sequences(lam):
            if 1 not in tt.sets[0]:
                yield tt


def check_dop_leading(n, ctx):
    delta = vandermonde(n)
    # harmonic for p_k and dp_k exactly when for e_d and de_d: the same
    # ideal over Q, with n terms per generator instead of up to d C(n, d)
    gens = power_sum_generators(n)
    memo = {}
    for tt in _admissible_sequences(n):
        mu = tt.mu
        v = apply_D(tt, delta, memo)
        if v.is_zero():
            raise VerificationFailure(f"zero image for mu={mu}, T={tt.sets}")
        for g in gens:
            if not odot(g, v).is_zero():
                raise VerificationFailure(
                    f"image not harmonic for mu={mu}, T={tt.sets}")
        if not is_antisymmetric(mu, v):
            raise VerificationFailure(
                f"image not antisymmetric for mu={mu}, T={tt.sets}")
        Jmax = j_of_signed(SignedPartition(mu, tt.gamma()))
        lead = v.theta_coefficient(Jmax.elems)
        target = odot(SuperElement.from_mpoly(
            weight(tt) * f_J(Jmax).as_mpoly()), delta).as_mpoly()
        if lead != target and lead != target.scale(-1):
            raise VerificationFailure(
                f"leading theta coefficient wrong for mu={mu}, T={tt.sets}")
    _check_ptj_worked_example()


def _check_ptj_worked_example():
    """The eight-variable determinant example: mu = (3,3,2),
    T = ({2}, {4,6}, {}), J = {3,5,6}."""
    mu = (3, 3, 2)
    tt = TranslationSequence(mu, ((2,), (4, 6), ()))
    J = j_of_signed(SignedPartition(mu, tt.gamma()))
    got = ptj_determinant(tt, J)
    expected = weight(tt) * f_J(J).as_mpoly()
    if not _proportional(got, expected):
        raise VerificationFailure(
            "worked determinant example does not match weight * shift"
            " polynomial")


def _proportional(a, b):
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    exp, c = next(iter(a.terms.items()))
    d = b.terms.get(exp)
    return d is not None and a.scale(d) == b.scale(c)


def check_dop_gale(n, ctx):
    # the C(mu) that the operators read: the column operations of the
    # factor matrix, symmetric within each mu-block
    for mu in partitions(n):
        verify_factorization(mu)
        verify_block_symmetry(mu)
    delta = vandermonde(n)
    memo = {}
    for tt in _admissible_sequences(n):
        mu = tt.mu
        v = apply_D(tt, delta, memo)
        Jmax = j_of_signed(SignedPartition(mu, tt.gamma()))
        for thetas in dict.fromkeys(thetas for _, thetas in v.terms):
            if len(thetas) != len(Jmax.elems) or not gale_leq(
                    SubsetOfN(n, thetas), Jmax):
                raise VerificationFailure(
                    f"theta support {thetas} escapes the Gale cone of"
                    f" {Jmax.elems} for mu={mu}, T={tt.sets}")


def check_counting(n, ctx):
    for m in range(1, 9):
        for k in range(0, m + 1):
            for t in range(0, 6):
                a = count_L(m, k, t)
                b = count_I(m, k, t)
                c = len(enumerate_I(m, k, t))
                d = len(enumerate_L(m, k, t))
                if not a == b == c == d:
                    raise VerificationFailure(
                        f"counts disagree at (m,k,t)=({m},{k},{t}):"
                        f" {a}, {b}, {c}, {d}")
    if count_L(5, 2, 2) != 150:
        raise VerificationFailure("count at (5,2,2) is not 150")
    if sequence_bound(5, 2, 2) != (2, 3, 4, 4, 4):
        raise VerificationFailure("bound vector at (5,2,2) is wrong")


def check_omp_stats(n, ctx):
    for k in range(1, n + 1):
        reference = to_basis(cnk_syt(n, k), "m")
        for stat in OMP_STATISTICS:
            if cnk_omp(n, k, stat) != reference:
                raise VerificationFailure(
                    f"statistic {stat} disagrees with the tableau formula"
                    f" at (n, k) = ({n}, {k})")


def check_operator_closure(n, ctx):
    closure = operator_closure(n)
    table = quotient_hilbert(ctx.engine(n), cache_dir=ctx.cache)
    if closure != table:
        raise VerificationFailure(
            f"closure table {closure.render()} != quotient table"
            f" {table.render()}")


def check_steinberg(n, ctx):
    """Steinberg's theorem, I = Ann(Vandermonde) for the ideal I of
    e_1..e_n, with the substaircase monomials A_d a basis of each degree d
    <= top + 1 of S/I, by a sandwich of three facts:

    - the engine's certified rewriting makes A_d span (S/I)_d;
    - each e_k annihilates the Vandermonde, and the annihilator is an
      ideal, so I_d lies in Ann_d;
    - the degree-d catalecticant of the Vandermonde, whose kernel is Ann_d,
      has rank |A_d|.

    Then |A_d| = dim S_d/Ann_d <= dim (S/I)_d <= |A_d|, so I_d = Ann_d.
    Seeded random probes in each degree check that the two membership
    tests agree: a zero engine normal form and a zero pairing image."""
    eng = ctx.engine(n)
    delta = vandermonde(n)
    for k, g in enumerate(coinvariant_generators(n, False), 1):
        if not odot(g, delta).is_zero():
            raise VerificationFailure(
                f"e_{k} does not annihilate the Vandermonde")
    rng = random.Random(ctx.seed)
    # f_J = 1 for the empty J, so the rows are the images x^a (.) Vandermonde
    for d, rows in _catalecticants(SubsetOfN(n, ()),
                                   range(eng.top + 2)).items():
        ech = _IntEchelon()
        for row in rows.values():
            ech.add(row)
        size = len(eng.artin_by_deg.get(d, ()))
        if ech.rank != size:
            raise VerificationFailure(
                f"the Vandermonde pairing has rank {ech.rank} in degree {d},"
                f" not the {size} substaircase monomials")
        _, index = eng.reduced_basis(d, 0)
        mons = monomials(n, d)
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in mons]
            p = MPoly(n, {m: c for m, c in zip(mons, coeffs) if c})
            in_ideal = not eng.reduced_coords(SuperElement.from_mpoly(p),
                                              index)
            in_kernel = not _image(p, rows)
            if in_ideal != in_kernel:
                raise VerificationFailure(
                    f"membership routes disagree in degree {d}")


CHECKS = {
    "fields1": check_fields1,
    "fields2": check_fields2,
    "fields3": check_fields3,
    "reiner": check_reiner,
    "artin": check_artin,
    "colon": check_colon,
    "parabolic": check_parabolic,
    "dop-leading": check_dop_leading,
    "dop-gale": check_dop_gale,
    "counting": check_counting,
    "omp-stats": check_omp_stats,
    "operator-closure": check_operator_closure,
    "steinberg": check_steinberg,
}


def run(name, n, ctx: RunContext) -> Report:
    fn = CHECKS.get(name)
    if fn is None:
        raise ValueError(f"unknown check {name!r}")
    hits, rejects = CACHE_STATS["hits"], CACHE_STATS["rejects"]
    start = time.perf_counter()
    params = {"n": n}
    try:
        admit(name, n, ctx)
        fn(n, ctx)
        status, witness = "pass", ""
    except ResourceRefused as exc:
        status, witness = "skipped", str(exc)
    except (VerificationFailure, IntegrityError) as exc:
        status, witness = "fail", str(exc)
    return Report(name, params, status, witness,
                  round(time.perf_counter() - start, 3),
                  cache_hits=CACHE_STATS["hits"] - hits,
                  cache_rejects=CACHE_STATS["rejects"] - rejects)


# ---------------------------------------------------------------------------
# output formatting


def emit_rows(header, rows, fmt):
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], indent=2)
    if fmt == "tsv":
        lines = ["\t".join(header)]
        lines += ["\t".join(str(c) for c in r) for r in rows]
        return "\n".join(lines)
    if fmt == "latex":
        cols = "l" * len(header)
        lines = [f"\\begin{{tabular}}{{{cols}}}",
                 " & ".join(header) + r" \\ \hline"]
        lines += [" & ".join(str(c) for c in r) + r" \\" for r in rows]
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


def emit_reports(reports, fmt):
    header = ["check", "params", "status", "seconds", "cache_hits",
              "cache_rejects", "version", "witness"]
    rows = [[r.check, json.dumps(r.params, sort_keys=True), r.status,
             r.seconds, r.cache_hits, r.cache_rejects, r.version, r.witness]
            for r in reports]
    return emit_rows(header, rows, fmt)


# ---------------------------------------------------------------------------
# argument handling


def _load_config(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _build_context(args):
    ctx = RunContext()
    config = {}
    if getattr(args, "config", None):
        config = _load_config(args.config)
    unknown = sorted(set(config) - {"quotient", "osp_cap"})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, val in config.items():
        setattr(ctx, key, int(val))
    if hasattr(args, "cache"):
        ctx.cache = args.cache or os.environ.get(CACHE_ENV)
    if ctx.cache:
        try:
            os.makedirs(ctx.cache, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use {ctx.cache!r} as the cache"
                             f" directory: {exc.strerror}") from exc
    ctx.force = bool(getattr(args, "force", False))
    ctx.seed = getattr(args, "seed", 0)
    return ctx


def _flags(p, *, cache=False, caps=(), verify=False):
    """Register the flags a verb reads: ``--format`` always, ``--cache``
    where the verb caches, ``--config`` where it is admitted under the
    ``CAPS`` names ``caps``, ``--force`` where one of those is held to the
    quotient cap, and ``--jobs``/``--seed`` for ``verify``."""
    p.add_argument("--format", choices=("json", "tsv", "latex"),
                   default="tsv")
    if cache:
        p.add_argument("--cache", metavar="DIR",
                       help=f"cache directory (default ${CACHE_ENV})")
    if verify:
        p.add_argument("--jobs", type=_at_least_one("jobs"), default=1,
                       help="worker processes, at most one per task")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized membership probes")
    if any("quotient" in CAPS.get(x, ()) for x in caps):
        p.add_argument("--force", action="store_true",
                       help="admit one more n under the quotient cap")
    if caps:
        p.add_argument("--config", metavar="FILE",
                       help="key=value file overriding the resource caps")


def _at_least_one(name):
    """An argument type: an integer >= 1, else a usage error naming
    ``name``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer >= 1, not {text!r}")
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="supercoinv",
        description="Exact verification of bigraded superspace coinvariant"
                    " rings.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("hilbert", help="bigraded Hilbert table of the"
                       " superspace coinvariant quotient")
    p.add_argument("n", type=_at_least_one("n"))
    _flags(p, cache=True, caps=("hilbert",))

    p = sub.add_parser("frobenius", help="bigraded Frobenius image in the"
                       " Schur basis")
    p.add_argument("n", type=_at_least_one("n"))
    _flags(p, caps=("frobenius",))

    p = sub.add_parser("cnk", help="the fermionic-slice symmetric function"
                       " C_{n,k}")
    p.add_argument("n", type=_at_least_one("n"))
    p.add_argument("k", type=int)
    p.add_argument("--stat", choices=sorted(OMP_STATISTICS),
                   help="compute from multiset partitions with this"
                        " statistic instead of tableaux")
    _flags(p, caps=("cnk --stat",))

    p = sub.add_parser("basis", help="list a monomial basis")
    p.add_argument("kind", choices=("artin", "colon", "parabolic"))
    p.add_argument("n", type=_at_least_one("n"))
    p.add_argument("--j", metavar="SET",
                   help="comma separated subset for the colon basis")
    p.add_argument("--mu", metavar="PARTS",
                   help="comma separated partition for the parabolic basis")
    _flags(p)

    p = sub.add_parser("verify", help="run named checks")
    p.add_argument("check", choices=sorted(CHECKS) + ["all"])
    p.add_argument("--n", type=_at_least_one("n"), required=True)
    _flags(p, cache=True, caps=CHECKS, verify=True)
    return parser


def _exps_render(exp):
    return SparseTerms.format_terms([(1, SparseTerms.powers(exp))])


def _theta_render(elems):
    return SparseTerms.format_terms([(1, [f"t{i}" for i in elems])])


def cmd_hilbert(args, ctx):
    admit("hilbert", args.n, ctx)
    before = CACHE_STATS["rejects"]
    table = quotient_hilbert(ctx.engine(args.n), cache_dir=ctx.cache)
    rows = [[i, j, v] for (i, j), v in sorted(table.terms.items())]
    print(emit_rows(["bosonic", "fermionic", "dimension"], rows, args.format))
    rejects = CACHE_STATS["rejects"] - before
    if rejects:
        print(f"cache: {rejects} rejected entries recomputed", file=sys.stderr)
    return 0


def cmd_frobenius(args, ctx):
    admit("frobenius", args.n, ctx)
    f = frobenius_reconstruct(ctx.engine(args.n))
    if args.format == "latex":
        print(f.latex())
        return 0
    rows = [[",".join(map(str, lam)), c.render()]
            for lam, c in f.coeffs]
    print(emit_rows(["schur", "coefficient"], rows, args.format))
    return 0


def cmd_cnk(args, ctx):
    if args.stat:
        admit("cnk --stat", args.n, ctx)
    try:
        if args.stat:
            f = cnk_omp(args.n, args.k, args.stat)
        else:
            f = cnk_syt(args.n, args.k)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.format == "latex":
        print(f.latex())
        return 0
    rows = [[f.basis, ",".join(map(str, lam)), c.render()]
            for lam, c in f.coeffs]
    print(emit_rows(["basis", "index", "coefficient"], rows, args.format))
    return 0


def _parse_ints(text):
    return tuple(int(p) for p in text.split(",") if p.strip())


def _basis_argument(args):
    """The subset J of a colon basis or the partition mu of a parabolic
    basis; raises ValueError when it is missing or malformed."""
    if args.kind == "colon":
        if args.j is None:
            raise ValueError("the colon basis needs --j (use --j '' for the"
                             " empty subset)")
        return SubsetOfN(args.n, _parse_ints(args.j))
    if args.kind == "parabolic":
        if not args.mu:
            raise ValueError("the parabolic basis needs --mu")
        mu = _parse_ints(args.mu)
        if sum(mu) != args.n:
            raise ValueError("--mu must be a partition of n")
        return check_partition(mu)
    return None


def cmd_basis(args, ctx):
    n = args.n
    try:
        arg = _basis_argument(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    admit("basis", n, ctx)
    rows = []
    if args.kind == "artin":
        for J in subsets(n):
            for exp in enumerate_artin(J):
                rows.append([",".join(map(str, J.elems)) or "-",
                             _exps_render(exp), _theta_render(J.elems)])
        header = ["j_set", "monomial", "theta"]
    elif args.kind == "colon":
        for exp in enumerate_artin(arg):
            rows.append([sum(exp), _exps_render(exp)])
        header = ["degree", "monomial"]
    else:
        for sp in signed_partitions(n):
            if sp.mu != arg:
                continue
            J = j_of_signed(sp)
            for exp in enumerate_signed_artin(sp):
                rows.append([",".join(map(str, sp.gamma)),
                             _exps_render(exp), _theta_render(J.elems)])
        header = ["gamma", "monomial", "theta"]
    print(emit_rows(header, rows, args.format))
    return 0


def _run_checks(names, n, ctx):
    return [run(name, n, ctx) for name in names]


def cmd_verify(args, ctx):
    names = sorted(CHECKS) if args.check == "all" else [args.check]
    if args.jobs > 1 and len(names) > 1:
        # the checks built on the engine (those under the quotient cap) run
        # as one task, so its worker builds the engine once
        shared = [x for x in names if "quotient" in CAPS.get(x, ())]
        tasks = [shared] + [[x] for x in names if x not in shared]
        # the pool may start all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs,
                                                 len(tasks))) as pool:
            done = pool.map(_run_checks, tasks, repeat(args.n), repeat(ctx))
            by_name = {r.check: r for group in done for r in group}
        reports = [by_name[x] for x in names]
    else:
        reports = _run_checks(names, args.n, ctx)
    print(emit_reports(reports, args.format))
    if any(r.status == "fail" for r in reports):
        return 1
    if any(r.status == "skipped" for r in reports):
        return 3
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = _build_context(args)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    dispatch = {"hilbert": cmd_hilbert, "frobenius": cmd_frobenius,
                "cnk": cmd_cnk, "basis": cmd_basis, "verify": cmd_verify}
    try:
        code = dispatch[args.verb](args, ctx)
        # a reader that went away shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the Python documentation's recipe: the flush at exit goes to
        # os.devnull, so no second BrokenPipeError is raised there
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ResourceRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (VerificationFailure, IntegrityError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
