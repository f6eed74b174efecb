"""The command line harness: verbs, formats, exit codes, caching."""

import gc
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from supercoinv import cli, coinvariant, doperators, symfunc
from supercoinv.combinatorics import IntegrityError, SubsetOfN
from supercoinv.exactalg import MPoly
from supercoinv.superspace import SuperElement

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_hilbert_tsv_output(capsys):
    code, out = run_cli(capsys, "hilbert", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bosonic\tfermionic\tdimension"
    table = {tuple(map(int, l.split("\t")[:2])): int(l.split("\t")[2])
             for l in lines[1:]}
    assert table == {(0, 0): 1, (0, 1): 1, (1, 0): 1}


def test_hilbert_json_round_trips(capsys):
    code, out = run_cli(capsys, "hilbert", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert sum(r["dimension"] for r in rows) == 13


def test_latex_output_is_a_tabular(capsys):
    code, out = run_cli(capsys, "hilbert", "2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert out.strip().endswith("\\end{tabular}")


def test_frobenius_and_cnk(capsys):
    code, out = run_cli(capsys, "frobenius", "2")
    assert code == 0
    assert "schur\tcoefficient" in out
    code, out = run_cli(capsys, "cnk", "3", "2")
    assert code == 0
    code, omp = run_cli(capsys, "cnk", "3", "2", "--stat", "minimaj",
                        "--format", "json")
    assert code == 0
    json.loads(omp)


def test_cnk_reports_a_negative_q_exponent_as_a_failure(capsys,
                                                        monkeypatch):
    # two descents summing to 0 give a negative exponent in C_{3,1}; the
    # internal certification fails like a check, with no traceback
    monkeypatch.setattr(symfunc, "descents", lambda t: (0, 0))
    code = cli.main(["cnk", "3", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("failed: ")
    assert "negative q-exponent" in captured.err


def test_basis_verbs(capsys):
    code, out = run_cli(capsys, "basis", "artin", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3
    code, out = run_cli(capsys, "basis", "colon", "3", "--j", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4
    code, out = run_cli(capsys, "basis", "parabolic", "3", "--mu", "2,1")
    assert code == 0
    assert out.startswith("gamma\t")


def test_verify_single_check_passes(capsys):
    code, out = run_cli(capsys, "verify", "fields1", "--n", "2")
    assert code == 0
    assert "\tpass\t" in out


def test_verify_all_small(capsys, monkeypatch):
    # the checks of one run share one engine; the next run builds its own
    built = []

    class Counted(cli.CoinvariantEngine):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)
    monkeypatch.setattr(cli, "CoinvariantEngine", Counted)
    code, out = run_cli(capsys, "verify", "all", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == len(cli.CHECKS)
    assert all("\tpass\t" in l for l in lines)
    assert built == [2]
    assert run_cli(capsys, "verify", "fields1", "--n", "2")[0] == 0
    assert built == [2, 2]


def test_verify_reports_json(capsys):
    code, out = run_cli(capsys, "verify", "reiner", "--n", "3",
                        "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["check"] == "reiner"
    assert reports[0]["status"] == "pass"


def test_oversized_check_is_skipped_with_exit_three(capsys):
    code, out = run_cli(capsys, "verify", "fields1", "--n", "9")
    assert code == 3
    assert "\tskipped\t" in out


def test_oversized_omp_check_refuses_before_the_reference(capsys,
                                                         monkeypatch):
    def reference_built(n, k):
        raise AssertionError("tableau reference built before the refusal")
    monkeypatch.setattr(cli, "cnk_syt", reference_built)
    code, out = run_cli(capsys, "verify", "omp-stats", "--n", "9",
                        "--format", "json")
    assert code == 3
    assert json.loads(out)[0]["status"] == "skipped"


# each capped check or verb: its argv at a given n, the cli name of the
# library entry point it calls first, n as that entry point sees it, the
# default cap, and whether --force admits one more n (the quotient cap does,
# the osp cap does not)
def _verify(check):
    return lambda n: ("verify", check, "--n", str(n))


def _n_of_engine(eng, *args, **kwargs):
    return eng.n


CAPPED = {
    "fields1": (_verify("fields1"), "quotient_hilbert", _n_of_engine, 5, True),
    "fields2": (_verify("fields2"), "epsilon_dims", _n_of_engine, 5, True),
    "fields3": (_verify("fields3"), "frobenius_reconstruct", _n_of_engine, 5,
                True),
    "artin": (_verify("artin"), "verify_parabolic_basis", _n_of_engine, 5,
              True),
    "parabolic": (_verify("parabolic"), "verify_parabolic_basis",
                  _n_of_engine, 5, True),
    "operator-closure": (_verify("operator-closure"), "operator_closure",
                         lambda n: n, 5, True),
    "steinberg": (_verify("steinberg"), "CoinvariantEngine", lambda n: n, 5,
                  True),
    "omp-stats": (_verify("omp-stats"), "cnk_omp", lambda n, k, stat: n, 8,
                  False),
    "hilbert": (lambda n: ("hilbert", str(n)), "quotient_hilbert",
                _n_of_engine, 5, True),
    "frobenius": (lambda n: ("frobenius", str(n)), "frobenius_reconstruct",
                  _n_of_engine, 5, True),
    "cnk --stat": (lambda n: ("cnk", str(n), "1", "--stat", "inv"),
                   "cnk_omp", lambda n, k, stat: n, 8, False),
}


def _stub_entry_point(monkeypatch, name):
    """Replace the library entry point of a capped check or verb by a stub
    that records the n it was called with and then fails the run."""
    _, entry, n_of, _, _ = CAPPED[name]
    calls = []

    def stub(*args, **kwargs):
        calls.append(n_of(*args, **kwargs))
        raise cli.VerificationFailure("stub entry point reached")
    monkeypatch.setattr(cli, entry, stub)
    return calls


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_caps_are_checked_once_at_the_cli(name, capsys, monkeypatch):
    argv, _, _, cap, forced = CAPPED[name]
    calls = _stub_entry_point(monkeypatch, name)
    assert run_cli(capsys, *argv(cap + 1))[0] == 3
    assert calls == []
    if not forced:
        if argv(cap + 1)[0] == "cnk":
            # cnk is held to no quotient cap, so it takes no --force
            _assert_parser_rejects(capsys, argv(cap + 1) + ("--force",),
                                   "unrecognized arguments")
        else:
            assert run_cli(capsys, *argv(cap + 1) + ("--force",))[0] == 3
        assert calls == []
        return
    assert run_cli(capsys, *argv(cap + 1) + ("--force",))[0] == 1
    assert calls == [cap + 1]
    assert run_cli(capsys, *argv(cap + 2) + ("--force",))[0] == 3
    assert calls == [cap + 1]


@pytest.mark.parametrize("kind, entry", [
    ("artin", "subsets"), ("colon", "enumerate_artin"),
    ("parabolic", "signed_partitions")])
def test_basis_is_held_to_the_osp_cap(kind, entry, capsys, monkeypatch):
    # basis reads no --config, so the default cap of 8 holds: n = 9 is
    # refused before its enumeration starts
    calls = []

    def stub(arg):
        calls.append(arg)
        return []
    monkeypatch.setattr(cli, entry, stub)

    def argv(n):
        opts = {"artin": (), "colon": ("--j", ""),
                "parabolic": ("--mu", str(n))}[kind]
        return ("basis", kind, str(n)) + opts
    assert run_cli(capsys, *argv(8))[0] == 0
    assert len(calls) == 1
    assert run_cli(capsys, *argv(9)) == (3, "")
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["omp-stats"])
def test_osp_cap_refuses_before_any_work(name, tmp_path, capsys,
                                         monkeypatch):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("osp_cap = 3\n")
    # fields1 and fields2 count ordered set partitions in closed form, so
    # the osp cap does not hold them
    for fields in ("fields1", "fields2"):
        code, out = run_cli(capsys, "verify", fields, "--n", "4",
                            "--config", str(cfg), "--format", "json")
        assert code == 0, fields
        assert json.loads(out)[0]["status"] == "pass", fields
    calls = _stub_entry_point(monkeypatch, name)
    code, out = run_cli(capsys, "verify", name, "--n", "4",
                        "--config", str(cfg), "--format", "json")
    assert code == 3
    assert json.loads(out)[0]["status"] == "skipped"
    assert calls == []


def test_cnk_with_k_outside_one_to_n_is_a_usage_error(capsys):
    for argv in (("cnk", "3", "5"), ("cnk", "3", "5", "--stat", "inv"),
                 ("cnk", "3", "0", "--stat", "minimaj")):
        assert cli.main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "need 1 <= k <= n" in captured.err, argv


def _assert_parser_rejects(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    assert message in captured.err, argv
    assert "Traceback" not in captured.err, argv


def test_n_below_one_is_a_usage_error(capsys):
    for argv in (("hilbert", "-1"), ("hilbert", "0"), ("frobenius", "-1"),
                 ("cnk", "-1", "1", "--stat", "inv"), ("cnk", "0", "1"),
                 ("basis", "artin", "-1"), ("verify", "fields1", "--n", "-1"),
                 ("verify", "all", "--n", "0")):
        _assert_parser_rejects(capsys, argv, "n must be an integer >= 1")


def test_jobs_below_one_is_a_usage_error(capsys):
    for jobs in ("0", "-3", "two"):
        _assert_parser_rejects(capsys, ("verify", "all", "--n", "2",
                                        "--jobs", jobs),
                               "jobs must be an integer >= 1")


def test_jobs_are_capped_at_the_number_of_tasks(capsys, monkeypatch):
    # a stand-in pool that records its size and maps in this process, so
    # a large --jobs starts no process at all
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    code, out = run_cli(capsys, "verify", "all", "--n", "2", "--jobs", "1000")
    assert code == 0
    assert len(out.strip().splitlines()) == len(cli.CHECKS) + 1
    # the engine-backed checks as one task, plus one task per other check
    assert sizes == [7]


def test_basis_usage_errors_exit_two(capsys):
    for argv, message in (
            (("basis", "colon", "3"), "needs --j"),
            (("basis", "colon", "3", "--j", "5"), "outside 1..3"),
            (("basis", "parabolic", "3"), "needs --mu"),
            (("basis", "parabolic", "3", "--mu", "2,2"), "partition of n"),
            (("basis", "parabolic", "3", "--mu", "1,2"), "weakly decreasing")):
        assert cli.main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("usage error: "), argv
        assert message in captured.err, argv


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    for line in ("quotient_forcd = 2", "cells_budget = 1000",
                 "quotient_forced = 6", "frobenius = 4",
                 "frobenius_forced = 5", "closure = 4"):
        cfg = tmp_path / "caps.conf"
        cfg.write_text(f"quotient = 3\n{line}\n")
        _assert_parser_rejects(
            capsys, ("verify", "fields1", "--n", "3", "--config", str(cfg)),
            f"unknown config keys: {line.split()[0]}")


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus-check", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_cache_runs_are_bit_exact(tmp_path, capsys):
    cold_code, cold = run_cli(capsys, "hilbert", "3",
                              "--cache", str(tmp_path))
    assert list(tmp_path.iterdir())
    warm_code, warm = run_cli(capsys, "hilbert", "3",
                              "--cache", str(tmp_path))
    bare_code, bare = run_cli(capsys, "hilbert", "3")
    assert cold_code == warm_code == bare_code == 0
    assert cold == warm == bare
    # a truncated entry is recomputed: same stdout, one reject on stderr
    entry = sorted(tmp_path.iterdir())[0]
    entry.write_text(entry.read_text()[:10])
    assert cli.main(["hilbert", "3", "--cache", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert "cache: 1 rejected entries recomputed" in captured.err


def test_cache_env_variable_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _ = run_cli(capsys, "hilbert", "2")
    assert code == 0
    assert list(tmp_path.iterdir())


def test_unusable_cache_path_is_a_usage_error(tmp_path, capsys,
                                              monkeypatch):
    regular = tmp_path / "not-a-directory"
    regular.write_text("")
    for path in (regular, regular / "sub"):
        for argv in (("hilbert", "3", "--cache", str(path)),
                     ("verify", "fields1", "--n", "3", "--cache", str(path))):
            _assert_parser_rejects(capsys, argv, "as the cache directory")
    monkeypatch.setenv(cli.CACHE_ENV, str(regular))
    _assert_parser_rejects(capsys, ("hilbert", "3"), "as the cache directory")


# the flags each verb reads: 17 slots over five verbs
VERB_FLAGS = {
    "hilbert": {"--format", "--cache", "--force", "--config"},
    "frobenius": {"--format", "--force", "--config"},
    "cnk": {"--format", "--config"},
    "basis": {"--format"},
    "verify": {"--format", "--cache", "--jobs", "--seed", "--force",
               "--config"},
}
VERB_ARGV = {"hilbert": ["hilbert", "3"], "frobenius": ["frobenius", "3"],
             "cnk": ["cnk", "3", "2"], "basis": ["basis", "artin", "2"],
             "verify": ["verify", "fields1", "--n", "3"]}
FLAG_VALUES = {"--format": ["json"], "--cache": ["DIR"], "--jobs": ["2"],
               "--seed": ["1"], "--force": [], "--config": ["FILE"]}


def test_each_verb_registers_only_the_flags_it_reads(capsys):
    parser = cli.build_parser()
    for verb, argv in VERB_ARGV.items():
        accepted = set()
        for flag, value in FLAG_VALUES.items():
            try:
                parser.parse_args(argv + [flag] + value)
            except SystemExit:
                continue
            accepted.add(flag)
        assert accepted == VERB_FLAGS[verb], verb
    capsys.readouterr()
    assert sum(map(len, VERB_FLAGS.values())) == 16


def test_cache_env_is_read_only_where_cache_is_a_flag(tmp_path, capsys,
                                                      monkeypatch):
    regular = tmp_path / "not-a-directory"
    regular.write_text("")
    monkeypatch.setenv(cli.CACHE_ENV, str(regular))
    assert run_cli(capsys, "basis", "artin", "2")[0] == 0
    assert run_cli(capsys, "cnk", "3", "2")[0] == 0


def test_flags_a_verb_does_not_read_are_usage_errors(tmp_path, capsys):
    cache = tmp_path / "D"
    _assert_parser_rejects(capsys, ("frobenius", "3", "--cache", str(cache)),
                           "unrecognized arguments")
    assert not cache.exists()
    _assert_parser_rejects(capsys, ("basis", "artin", "2", "--jobs", "2"),
                           "unrecognized arguments")


def test_config_file_overrides_caps(tmp_path, capsys):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("# tighter limits\nquotient = 2\n")
    code, out = run_cli(capsys, "verify", "fields1", "--n", "3",
                        "--config", str(cfg))
    assert code == 3
    assert "skipped" in out


def test_parallel_verify_matches_serial(capsys):
    code_s, serial = run_cli(capsys, "verify", "all", "--n", "2")
    code_p, parallel = run_cli(capsys, "verify", "all", "--n", "2",
                               "--jobs", "3")
    assert code_s == code_p == 0
    # timings differ between runs; compare everything else
    def strip(text):
        rows = [l.split("\t") for l in text.strip().splitlines()]
        return [r[:3] + r[4:] for r in rows]
    assert strip(serial) == strip(parallel)


def test_run_context_frees_its_engines_with_it():
    ctx = cli.RunContext()
    eng = ctx.engine(3)
    assert ctx.engine(3) is eng and ctx.engine(2) is not eng
    ref = weakref.ref(eng)
    del ctx, eng
    gc.collect()
    assert ref() is None


def test_output_matches_goldens(capsys):
    import pathlib
    goldens = pathlib.Path(__file__).parent / "goldens"
    cases = [
        (("hilbert", "3"), "hilbert_n3.tsv"),
        (("hilbert", "3", "--format", "latex"), "hilbert_n3.tex"),
        (("frobenius", "3", "--format", "latex"), "frobenius_n3.tex"),
        (("frobenius", "3"), "frobenius_n3.tsv"),
        (("frobenius", "4"), "frobenius_n4.tsv"),
        (("frobenius", "4", "--format", "latex"), "frobenius_n4.tex"),
        (("frobenius", "5"), "frobenius_n5.tsv"),
        (("cnk", "4", "2"), "cnk_n4_k2.tsv"),
        (("cnk", "4", "2", "--stat", "dinv"), "cnk_n4_k2_dinv.tsv"),
        (("cnk", "6", "3"), "cnk_n6_k3.tsv"),
        (("cnk", "6", "3", "--stat", "minimaj"), "cnk_n6_k3_minimaj.tsv"),
        (("basis", "artin", "3"), "basis_artin_n3.tsv"),
        (("basis", "colon", "4", "--j", "3,4"), "basis_colon_n4_j34.tsv"),
        (("basis", "parabolic", "4", "--mu", "2,2"),
         "basis_parabolic_n4_mu22.tsv"),
    ]
    for argv, name in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out == (goldens / name).read_text(), name


def test_seed_changes_probes_but_not_outcomes(capsys):
    code_a, _ = run_cli(capsys, "verify", "steinberg", "--n", "3",
                        "--seed", "1")
    code_b, _ = run_cli(capsys, "verify", "steinberg", "--n", "3",
                        "--seed", "2")
    assert code_a == code_b == 0


def test_steinberg_probes_are_drawn_from_the_seed_option(capsys, monkeypatch):
    seeds = []

    class Recording(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)
    monkeypatch.setattr(cli.random, "Random", Recording)
    code, _ = run_cli(capsys, "verify", "steinberg", "--n", "3",
                      "--seed", "17")
    assert code == 0
    assert seeds == [17]


def test_colon_fails_on_a_theta_term_in_the_pairing(capsys, monkeypatch):
    # f_J (.) Vandermonde must be theta-free; a theta_1 term there is an
    # inconsistency the catalecticants refuse, a failed check, no traceback
    odot = coinvariant.odot

    def with_theta(f, g):
        return odot(f, g) + SuperElement.monomial(g.nvars, (0,) * g.nvars,
                                                  (1,))
    monkeypatch.setattr(coinvariant, "odot", with_theta)
    with pytest.raises(IntegrityError, match="theta term in f_J"):
        coinvariant.verify_colon_basis(SubsetOfN(3, ()))
    code = cli.main(["verify", "colon", "--n", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    report, = json.loads(captured.out)
    assert report["status"] == "fail"
    assert "theta term in f_J (.) Vandermonde" in report["witness"]
    assert captured.err == ""


@pytest.mark.parametrize("size, extra, witness", [
    # theta_3 lies outside the Gale cone of J = (2,)
    (1, (3,), "theta support (3,) escapes the Gale cone of (2,) for"
              " mu=(2, 1), T=((2,), ())"),
    # a support of the wrong size, which the Gale order cannot compare
    (0, (1, 2), "theta support (1, 2) escapes the Gale cone of () for"
                " mu=(3,), T=((),)"),
])
def test_dop_gale_fails_on_a_theta_support_outside_the_cone(
        size, extra, witness, capsys, monkeypatch):
    # add x^0 theta_extra to every image holding a support of that size
    apply_D = cli.apply_D

    def with_term(tt, delta, memo):
        v = apply_D(tt, delta, memo)
        if any(len(thetas) == size for _, thetas in v.terms):
            return v + SuperElement.monomial(3, (0, 0, 0), extra)
        return v
    monkeypatch.setattr(cli, "apply_D", with_term)
    code = cli.main(["verify", "dop-gale", "--n", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    report, = json.loads(captured.out)
    assert report["status"] == "fail"
    assert report["witness"] == witness
    assert captured.err == ""


def test_dop_gale_fails_on_a_tampered_column_operation(capsys, monkeypatch):
    # a 1 added below the diagonal of every C(mu) keeps its entries
    # symmetric within the blocks; the operators would read it, and the
    # factor matrix identity F = P * C(mu) rejects it
    reduction_matrix = doperators.reduction_matrix

    def tampered(mu):
        C = reduction_matrix(mu)
        n = sum(mu)
        C.grid[n - 1][0] = C.grid[n - 1][0] + MPoly.const(n, 1)
        return C
    monkeypatch.setattr(doperators, "reduction_matrix", tampered)
    code = cli.main(["verify", "dop-gale", "--n", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    report, = json.loads(captured.out)
    assert report["status"] == "fail"
    assert report["witness"] == ("factor matrix identity fails at entry"
                                 " (1,1) for mu=(3,)")
    assert captured.err == ""


def test_a_closed_stdout_ends_without_a_traceback():
    # the reader leaves after one line of a 1.2 MB listing, more than a
    # pipe holds, so the writer meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "supercoinv.cli", "basis", "artin", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"j_set\tmonomial\ttheta\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err.decode()
    assert "BrokenPipeError" not in err.decode()


def _steinberg_witness(ctx):
    """Run the steinberg check at n = 3; it must fail.  Return the witness."""
    report = cli.run("steinberg", 3, ctx)
    assert report.status == "fail"
    return report.witness


def test_steinberg_fails_when_the_pairing_rank_falls_short(monkeypatch):
    # drop the one degree-0 row, the image of 1: rank 0 < |A_0| = 1
    catalecticants = cli._catalecticants

    def short(j_subset, degrees):
        return {d: {a: r for a, r in rows.items() if any(a)}
                for d, rows in catalecticants(j_subset, degrees).items()}
    monkeypatch.setattr(cli, "_catalecticants", short)
    witness = _steinberg_witness(cli.RunContext())
    assert "rank 0 in degree 0, not the 1 substaircase" in witness


def test_steinberg_fails_on_a_generator_outside_the_annihilator(monkeypatch):
    # x_1 in place of e_1: d/dx_1 of the Vandermonde is not zero
    generators = cli.coinvariant_generators

    def with_x1(n, superspace):
        return [SuperElement.from_mpoly(MPoly.var(n, 1))] \
            + generators(n, superspace)[1:]
    monkeypatch.setattr(cli, "coinvariant_generators", with_x1)
    witness = _steinberg_witness(cli.RunContext())
    assert "e_1 does not annihilate the Vandermonde" in witness


def test_steinberg_fails_when_the_probes_disagree(monkeypatch):
    # an engine that reduces the monomial 1 to zero puts every degree-0
    # probe in the ideal, while a nonzero constant pairs to a nonzero image
    ctx = cli.RunContext()
    eng = ctx.engine(3)
    nf = eng.nf
    monkeypatch.setattr(eng, "nf",
                        lambda exp: {} if exp == (0, 0, 0) else nf(exp))
    witness = _steinberg_witness(ctx)
    assert "membership routes disagree in degree 0" in witness


def test_an_entry_that_cannot_be_written_is_recomputed(tmp_path, capsys):
    # a directory in place of one entry file: the read rejects it, the
    # write fails, and the run goes on with the value it computed
    cache = tmp_path / "D"
    code, cold = run_cli(capsys, "hilbert", "2", "--cache", str(cache))
    assert code == 0
    entry = sorted(cache.iterdir())[0]
    entry.unlink()
    entry.mkdir()
    assert cli.main(["hilbert", "2", "--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    bare_code, bare = run_cli(capsys, "hilbert", "2")
    assert bare_code == 0
    assert captured.out == cold == bare
    assert "cache: 1 rejected entries recomputed" in captured.err
    code, _ = run_cli(capsys, "verify", "fields1", "--n", "2",
                      "--cache", str(cache))
    assert code == 0
    assert entry.is_dir()
    assert not [p.name for p in cache.iterdir() if ".tmp" in p.name]
