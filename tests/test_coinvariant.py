"""Quotient dimensions, harmonic spaces, colon and parabolic bases."""

import hashlib
import json
import random
from itertools import combinations, product
from math import comb, perm

import pytest

from supercoinv import coinvariant
from supercoinv.combinatorics import (IntegrityError, QZPolynomial,
                                      SubsetOfN,
                                      enumerate_artin, enumerate_signed_artin,
                                      fields1_formula, j_of_signed,
                                      partitions, signed_partitions, subsets)
from supercoinv.coinvariant import (CACHE_STATS, BidegreeTable,
                                    CoinvariantEngine, VerificationFailure,
                                    _catalecticants, epsilon_dims,
                                    frobenius_reconstruct,
                                    ideal_component, monomials,
                                    omega_basis, operator_closure,
                                    quotient_hilbert, steinberg_independence,
                                    superspace_ideal,
                                    verify_colon_basis,
                                    verify_parabolic_basis)
from supercoinv.doperators import build_E_set
from supercoinv.exactalg import MPoly, QMatrix, _IntEchelon
from supercoinv.superspace import (SuperElement, coinvariant_generators,
                                   f_J, odot, vandermonde)
from supercoinv.symfunc import kostka_matrix


def test_direct_and_reduced_routes_agree():
    # the direct route: the ideal component spanned inside the full
    # superspace component, for every bidegree the reduced route visits
    for n in (1, 2, 3, 4):
        spec = superspace_ideal(n)
        top = n * (n - 1) // 2
        dims = {}
        for i in range(top + 3):
            for j in range(n + 1):
                comp = ideal_component(spec, i, j)
                dims[(i, j)] = comp.ncols - comp.rank()
        assert quotient_hilbert(CoinvariantEngine(n)) \
            == BidegreeTable(n, dims)


def test_quotient_matches_closed_formula():
    for n in (1, 2, 3, 4):
        table = quotient_hilbert(CoinvariantEngine(n))
        assert table.as_qz() == fields1_formula(n)


def test_engine_set_up_certifies_the_degree_bound(monkeypatch):
    # one product x_v x^(0, 1, 2) with a nonzero normal form must stop the
    # engine from being built, whichever v it is
    true_nf = CoinvariantEngine.nf
    for v in range(3):
        leak = tuple(i + (i == v) for i in range(3))

        def leaky(self, exp):
            if exp == leak:
                return {exp: 1}
            return true_nf(self, exp)
        monkeypatch.setattr(CoinvariantEngine, "nf", leaky)
        with pytest.raises(IntegrityError, match="nonzero normal form"):
            CoinvariantEngine(3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_engine_set_up_certifies_the_rewrite_rules(monkeypatch, k):
    # x_4^k pairs to nonzero with the Vandermonde for k < 4, so the rule
    # h_k(x_k..x_4) + x_4^k is not in the ideal and must stop the build
    true_schur = coinvariant.schur_poly

    def wrong(nu, nvars, variables=None):
        s = true_schur(nu, nvars, variables)
        if nu == (k,) and variables is not None and variables[0] == k:
            s = s + MPoly.monomial((0,) * (nvars - 1) + (k,))
        return s
    monkeypatch.setattr(coinvariant, "schur_poly", wrong)
    with pytest.raises(IntegrityError, match=f"rewrite rule h_{k} "):
        CoinvariantEngine(4)


def test_each_engine_is_built_afresh():
    assert CoinvariantEngine(3) is not CoinvariantEngine(3)


def test_every_monomial_above_the_top_has_normal_form_zero():
    # the exhaustive scan the staircase certificate replaced, as an oracle
    for n in range(1, 6):
        eng = CoinvariantEngine(n)
        for d in (eng.top + 1, eng.top + 2):
            for exp in monomials(n, d):
                assert eng.nf(exp) == {}


def _sorted_fill(eng, d, table):
    """Normal forms of every degree-d monomial, smallest lex first, so each
    rewrite only refers to monomials already in the table."""
    n = eng.n
    for exp in sorted(monomials(n, d)):
        if all(exp[i] <= i for i in range(n)):
            table[exp] = {exp: 1}
            continue
        k = next(i + 1 for i in range(n) if exp[i] > i)
        base = list(exp)
        base[k - 1] -= k
        lead = [0] * n
        lead[k - 1] = k
        acc = {}
        for m in eng.hpolys[k].terms:
            if m == tuple(lead):
                continue
            e2 = tuple(b + a for b, a in zip(base, m))
            for a, c in table[e2].items():
                s = acc.get(a, 0) - c
                if s:
                    acc[a] = s
                else:
                    del acc[a]
        table[exp] = acc


def test_on_demand_normal_forms_match_the_sorted_fill():
    for n in range(1, 6):
        eng = CoinvariantEngine(n)
        table = {}
        for d in range(eng.top + 3):
            _sorted_fill(eng, d, table)
        # a reverse walk asks for the deepest rewrites first
        for exp in reversed(list(table)):
            assert list(eng.nf(exp).items()) == list(table[exp].items())


def test_artin_by_degree_matches_the_filtered_monomials():
    for n in range(1, 7):
        eng = CoinvariantEngine(n)
        assert list(eng.artin_by_deg) == list(range(eng.top + 1))
        for d, arts in eng.artin_by_deg.items():
            assert arts == [e for e in monomials(n, d)
                            if all(e[i] <= i for i in range(n))]


def test_engine_at_n_seven_holds_few_normal_forms():
    # no whole-degree fill at set-up, and no recursion to run out of depth
    eng = CoinvariantEngine(7)
    assert eng.top == 21
    assert len(eng._nf) < 5000
    for v in range(7):
        assert eng.nf(tuple(i + (i == v) for i in range(7))) == {}


def harmonic_basis(spec, i, j):
    """The harmonic reference: a basis of the joint kernel of g (.) - over
    all ideal generators, inside the (i, j) component of superspace."""
    n = spec.n
    basis = omega_basis(n, i, j)
    target_rows = {}
    for col, (exp, ts) in enumerate(basis):
        m = SuperElement.monomial(n, exp, ts)
        for gi, g in enumerate(spec.generators):
            for key, c in odot(g, m).terms.items():
                target_rows.setdefault((gi, key), {})[col] = c
    rows = [target_rows[k] for k in sorted(target_rows)]
    return [SuperElement(n, {basis[c]: val for c, val in enumerate(v) if val})
            for v in QMatrix(len(rows), len(basis), rows).kernel_basis()]


def test_harmonic_dimensions_match_quotient():
    for n in (1, 2, 3):
        spec = superspace_ideal(n)
        table = quotient_hilbert(CoinvariantEngine(n))
        for (i, j), dim in table.terms.items():
            basis = harmonic_basis(spec, i, j)
            assert len(basis) == dim
            for v in basis:
                for g in spec.generators:
                    assert odot(g, v).is_zero()


def test_operator_closure_matches_quotient():
    for n in (1, 2, 3):
        assert operator_closure(n) == quotient_hilbert(CoinvariantEngine(n))


def test_colon_with_empty_subset_is_the_classical_coinvariant_ring():
    # the J = () pairing ranks, two degrees past the top, are [n]_q!
    for n in (1, 2, 3, 4):
        top = n * (n - 1) // 2
        dims = {}
        catalecticants = _catalecticants(SubsetOfN(n, ()), range(top + 3))
        for d, rows in catalecticants.items():
            ech = _IntEchelon()
            for row in rows.values():
                ech.add(row)
            if ech.rank:
                dims[d] = ech.rank
        expected = {qe: c for (qe, ze), c
                    in QZPolynomial.q_factorial(n).terms.items()}
        assert dims == expected


def test_colon_quotient_sizes_at_n_three():
    sizes = {}
    for J in subsets(3):
        assert verify_colon_basis(J)
        sizes[J.elems] = len(enumerate_artin(J))
    assert sizes[()] == 6
    assert sizes[(3,)] == 4
    assert sizes[(2,)] == 2
    assert sizes[(2, 3)] == 1
    assert sizes[(1,)] == sizes[(1, 2)] == sizes[(1, 3)] == sizes[(1, 2, 3)] == 0


def _literal_colon_image(p, J):
    """(p * f_J) (.) Vandermonde by the superspace product and pairing."""
    return odot(SuperElement.from_mpoly(p) * f_J(J), vandermonde(J.n))


def test_catalecticant_rows_match_the_literal_pairing():
    for n in (1, 2, 3, 4):
        for J in subsets(n):
            top = n * (n - 1) // 2 - f_J(J).bosonic_part().degree()
            for d, rows in _catalecticants(J, range(top + 2)).items():
                # the columns as the reference walk numbers them, the same
                # numbering by test_catalecticants_match_the_walk_per_degree
                _, columns = _catalecticant_by_degree(J, d)
                exps = {col: e for e, col in columns.items()}
                for a in monomials(n, d):
                    got = SuperElement(n, {(exps[col], ()): c for col, c
                                           in rows.get(a, {}).items()})
                    assert got == _literal_colon_image(MPoly.monomial(a), J), \
                        (J.elems, a)


def _catalecticant_by_degree(J, d):
    """The degree-d catalecticant of g_J by a walk of every divisor a <= b
    of every term, keeping those with |a| = d."""
    g = odot(f_J(J), vandermonde(J.n))
    rows, columns = {}, {}
    for (b, _), c in g.terms.items():
        for a in product(*(range(x + 1) for x in b)):
            if sum(a) != d:
                continue
            v = c
            for x, y in zip(b, a):
                v *= perm(x, y)
            col = columns.setdefault(tuple(x - y for x, y in zip(b, a)),
                                     len(columns))
            rows.setdefault(a, {})[col] = v
    return rows, columns


def test_catalecticants_match_the_walk_per_degree():
    for n in range(1, 6):
        for J in subsets(n):
            top = n * (n - 1) // 2 - f_J(J).bosonic_part().degree()
            # every degree up to two above the bound, asked highest first
            # and returned lowest first
            got = _catalecticants(J, range(top + 2, -1, -1))
            assert list(got) == list(range(top + 3))
            for d, rows in got.items():
                # dict equality ignores order, so compare the items in order:
                # equal row items also give equal column numbers
                want_rows, _ = _catalecticant_by_degree(J, d)
                assert ([(a, list(row.items())) for a, row in rows.items()]
                        == [(a, list(row.items()))
                            for a, row in want_rows.items()]), (J.elems, d)
            # a sparse, unsorted request as steinberg_independence passes,
            # with a repeat and a degree above deg g_J = top
            got = _catalecticants(J, [top, top + 4, 1, top])
            assert list(got) == sorted({1, top, top + 4})
            assert got[top + 4] == {}
            for d in (1, top):
                want_rows, _ = _catalecticant_by_degree(J, d)
                assert ([(a, list(row.items())) for a, row in got[d].items()]
                        == [(a, list(row.items()))
                            for a, row in want_rows.items()]), (J.elems, d)


def test_colon_ranks_match_the_literal_pairing():
    # the spanning sets sharing a J are ranked in one call, each on its own
    for n in (1, 2, 3, 4):
        by_J = {}
        for sp in signed_partitions(n):
            by_J.setdefault(j_of_signed(sp), []).append(build_E_set(sp))
        for J, poly_sets in by_J.items():
            want = []
            for polys in poly_sets:
                # the echelon takes int columns: number the exponent keys
                # in order of first appearance; the rank does not depend on
                # the labels
                ech, cols = _IntEchelon(), {}
                for p in polys:
                    image = _literal_colon_image(p, J)
                    if image.terms:
                        ech.add({cols.setdefault(k, len(cols)): c
                                 for k, c in image.terms.items()})
                want.append(ech.rank)
            assert steinberg_independence(poly_sets, J) == want, J.elems
    x1 = MPoly.var(3, 1)
    with pytest.raises(ValueError):
        steinberg_independence([[x1 * x1 + x1]], SubsetOfN(3, ()))


def test_colon_basis_verification_small():
    for n in (1, 2, 3, 4):
        for J in subsets(n):
            assert verify_colon_basis(J)


def test_artin_basis_small():
    # eps_(1^n) is the identity: the parabolic basis is the substaircase one
    for n in (1, 2, 3, 4):
        assert verify_parabolic_basis(CoinvariantEngine(n), (1,) * n)


def _tampered(enumerate_fn, edit):
    """The enumeration with ``edit`` applied to each list it returns."""
    return lambda arg: edit(list(enumerate_fn(arg)))


def _drop_middle(out):
    return out[:len(out) // 2] + out[len(out) // 2 + 1:]


def _repeat_first(out):
    return out[:1] + out


@pytest.mark.parametrize("edit, message", [
    (_drop_middle, "does not span"), (_repeat_first, "dependent"),
    (lambda out: out + [(0, 0, 0, 9)], "above the colon degree bound")])
def test_colon_basis_rejects_a_tampered_candidate_set(monkeypatch, edit,
                                                      message):
    monkeypatch.setattr(coinvariant, "enumerate_artin",
                        _tampered(enumerate_artin, edit))
    with pytest.raises(VerificationFailure, match=message):
        verify_colon_basis(SubsetOfN(4, (3,)))


@pytest.mark.parametrize("edit, message", [
    (_drop_middle, "do not span"), (_repeat_first, "dependent")])
def test_artin_basis_rejects_a_tampered_candidate_set(monkeypatch, edit,
                                                      message):
    monkeypatch.setattr(coinvariant, "enumerate_signed_artin",
                        _tampered(enumerate_signed_artin, edit))
    with pytest.raises(VerificationFailure, match=message):
        verify_parabolic_basis(CoinvariantEngine(3), (1, 1, 1))


@pytest.mark.parametrize("edit, message", [
    (_drop_middle, "do not span"), (_repeat_first, "dependent"),
    (lambda out: out + [(0, 0, 9)], "above the bosonic bound")])
def test_parabolic_basis_rejects_a_tampered_candidate_set(monkeypatch, edit,
                                                          message):
    monkeypatch.setattr(coinvariant, "enumerate_signed_artin",
                        _tampered(enumerate_signed_artin, edit))
    with pytest.raises(VerificationFailure, match=message):
        verify_parabolic_basis(CoinvariantEngine(3), (2, 1))


@pytest.mark.parametrize("mu", [(1, 1, 1), (2, 1)])
def test_parabolic_basis_rejects_a_raised_slice_dimension(monkeypatch, mu):
    # the candidates stay independent; one slice entry too many must show
    # up as a failure to span
    eng = CoinvariantEngine(3)
    true_dims = epsilon_dims(eng, mu)
    (i, j), v = max(true_dims.terms.items())

    def raised(eng, mu):
        return BidegreeTable(eng.n, {**true_dims.terms, (i, j): v + 1})
    monkeypatch.setattr(coinvariant, "epsilon_dims", raised)
    with pytest.raises(VerificationFailure, match="do not span"):
        verify_parabolic_basis(eng, mu)


def test_epsilon_dims_single_row_anchor():
    table = epsilon_dims(CoinvariantEngine(3), (3,))
    assert table.as_qz() == QZPolynomial(
        {(3, 0): 1, (1, 1): 1, (2, 1): 1, (0, 2): 1})


def test_epsilon_dims_trivial_subgroup_gives_full_quotient():
    for n in (1, 2, 3, 4, 5):
        eng = CoinvariantEngine(n)
        assert epsilon_dims(eng, (1,) * n) == quotient_hilbert(eng)


def test_parabolic_basis_small():
    for n in (1, 2, 3):
        eng = CoinvariantEngine(n)
        for lam in partitions(n):
            assert verify_parabolic_basis(eng, lam)


def test_frobenius_table_at_n_two():
    f = frobenius_reconstruct(CoinvariantEngine(2))
    assert f.terms == {
        (2,): QZPolynomial.one(),
        (1, 1): QZPolynomial({(1, 0): 1, (0, 1): 1}),
    }


def test_frobenius_sign_column_at_n_three():
    f = frobenius_reconstruct(CoinvariantEngine(3))
    assert f.terms[(1, 1, 1)] == QZPolynomial(
        {(3, 0): 1, (1, 1): 1, (2, 1): 1, (0, 2): 1})


def _tampered_kostka(nu, mu, value):
    def tampered(n):
        parts, K = kostka_matrix(n)
        K[nu][mu] = value
        return parts, K
    return tampered


@pytest.mark.parametrize("nu, mu, value", [
    ((1, 1, 1, 1), (2, 1, 1), 1), ((2, 1, 1), (3, 1), 1),
    ((2, 2), (4,), 2), ((3, 1), (3, 1), 2), ((1, 1, 1, 1), (1, 1, 1, 1), 0)])
def test_frobenius_checks_the_kostka_matrix_is_unitriangular(
        monkeypatch, nu, mu, value):
    # a nonzero K[nu][mu] with nu after mu, or a diagonal entry other than
    # 1, breaks the forward substitution; the check runs before any table
    def no_table(eng, mu):
        raise AssertionError("slice table built before the check")
    monkeypatch.setattr(coinvariant, "kostka_matrix",
                        _tampered_kostka(nu, mu, value))
    monkeypatch.setattr(coinvariant, "epsilon_dims", no_table)
    with pytest.raises(IntegrityError):
        frobenius_reconstruct(CoinvariantEngine(4))


def test_frobenius_rejects_a_negative_schur_coefficient(monkeypatch):
    # b_(2) = 1 and b_(1,1) = 0 give y_(1,1) = 0 - y_(2) K_{(2),(1,1)} = -1
    tables = {(2,): {(0, 0): 1}, (1, 1): {}}
    monkeypatch.setattr(coinvariant, "epsilon_dims",
                        lambda eng, mu: BidegreeTable(2, tables[mu]))
    with pytest.raises(VerificationFailure, match="negative Schur"):
        frobenius_reconstruct(CoinvariantEngine(2))


def test_cache_round_trip_is_bit_exact(tmp_path):
    cold = quotient_hilbert(CoinvariantEngine(3), cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir())
    warm = quotient_hilbert(CoinvariantEngine(3), cache_dir=str(tmp_path))
    bare = quotient_hilbert(CoinvariantEngine(3))
    assert cold == warm == bare


def test_stale_cache_entries_are_ignored(tmp_path):
    spec = superspace_ideal(2)
    eng = CoinvariantEngine(2)
    quotient_hilbert(eng, cache_dir=str(tmp_path))
    paths = sorted(tmp_path.iterdir())
    for path in paths:
        text = path.read_text().replace(spec.content_hash(), "0" * 16)
        path.write_text(text)
    again = quotient_hilbert(eng, cache_dir=str(tmp_path))
    assert again.as_qz() == fields1_formula(2)

    # a truncated entry and an entry whose dim was edited are rejected,
    # recomputed and rewritten
    truncated, edited = paths[0], paths[-1]
    truncated.write_text(truncated.read_text()[:10])
    entry = json.loads(edited.read_text())
    entry["dim"] += 1
    edited.write_text(json.dumps(entry))
    before = dict(CACHE_STATS)
    again = quotient_hilbert(eng, cache_dir=str(tmp_path))
    assert again.as_qz() == fields1_formula(2)
    assert CACHE_STATS["rejects"] - before["rejects"] == 2
    assert CACHE_STATS["hits"] - before["hits"] == len(paths) - 2
    before = dict(CACHE_STATS)
    assert quotient_hilbert(eng, cache_dir=str(tmp_path)) == again
    assert CACHE_STATS["hits"] - before["hits"] == len(paths)
    assert CACHE_STATS["rejects"] == before["rejects"]


def _full_index(eng, i, j):
    """Column index of the full A_i x (j-subsets of 1..n) coordinates, in
    which theta_1 is kept."""
    full = [(a, t) for a in eng.artin_by_deg.get(i, [])
            for t in combinations(range(1, eng.n + 1), j)]
    return {key: c for c, key in enumerate(full)}


def _full_pivots(eng, i, j, ech, basis):
    """Length of the full index, and the pivot columns of the ideal block
    in it: every column whose theta-subset contains 1 (the rows
    x^a theta_S de_1 lead there), and the reduced pivots mapped back."""
    index = _full_index(eng, i, j)
    pivots = {index[basis[c]] for c in ech.pivots}
    pivots |= {c for (a, t), c in index.items() if t[:1] == (1,)}
    return len(index), sorted(pivots)


def test_ideal_echelon_matches_product_rows():
    # reference: every row (b theta_T) * de_d with d >= 1 and any T, 1 in T
    # included, as a full superspace product with de_d from the generator
    # list, reduced by eng.nf only and written in the full
    # A_i x (j-subsets of 1..n) coordinates; theta_1 is not substituted.
    # The de_1 rows fill every column with 1 in its theta-subset, so the
    # full rank and pivots are those columns plus the reduced echelon's
    for n in (1, 2, 3, 4):
        eng = CoinvariantEngine(n)
        gens = coinvariant_generators(n)
        for i in range(eng.top + 3):
            for j in range(n + 1):
                ech, basis, _ = eng.ideal_echelon(i, j)
                index = _full_index(eng, i, j)
                ref = _IntEchelon()
                for d in range(1, n + 1):
                    bdeg = i - (d - 1)
                    if j == 0 or bdeg < 0 or bdeg > eng.top:
                        continue
                    for b in eng.artin_by_deg[bdeg]:
                        for ts in combinations(range(1, n + 1), j - 1):
                            m = SuperElement.monomial(n, b, ts)
                            prod = m * gens[n + d - 1]
                            row = {}
                            for (exp, tv), c in prod.terms.items():
                                for a, c2 in eng.nf(exp).items():
                                    col = index[(a, tv)]
                                    row[col] = row.get(col, 0) + c * c2
                            row = {k: v for k, v in row.items() if v}
                            if row:
                                ref.add(row)
                arts = eng.artin_by_deg.get(i, [])
                theta1_cols = len(arts) * comb(n - 1, j - 1) if j else 0
                assert ref.rank == theta1_cols + ech.rank, (n, i, j)
                assert sorted(ref.pivots) \
                    == _full_pivots(eng, i, j, ech, basis)[1], (n, i, j)


def test_pruned_ideal_rows_span_the_full_family():
    # reference: the full (T, d, b) family of every block, each row the
    # reduced coordinates of the superspace product (b theta_T) * de_d with
    # de_d from the generator list; blocks with j >= 2 build only the
    # theta_w multiples of the keys kept one theta-degree lower, so every
    # family row must still reduce to zero on the block's echelon.  A fresh
    # engine, walked by ascending j, shows each block's kept keys before
    # the block above takes them.
    for n in (1, 2, 3, 4):
        eng = CoinvariantEngine(n)
        gens = coinvariant_generators(n)
        for i in range(eng.top + 3):
            for j in range(n + 1):
                ech, _, index = eng.ideal_echelon(i, j)
                family = set()
                for d in range(2, n + 1):
                    bdeg = i - (d - 1)
                    if j == 0 or bdeg < 0 or bdeg > eng.top:
                        continue
                    for b in eng.artin_by_deg[bdeg]:
                        for ts in combinations(range(2, n + 1), j - 1):
                            family.add((ts, d, b))
                            m = SuperElement.monomial(n, b, ts)
                            row = eng.reduced_coords(m * gens[n + d - 1],
                                                     index)
                            assert ech.reduce(row) == {}, (n, i, j, ts, d, b)
                assert set(eng._kept_keys[(i, j)]) <= family, (n, i, j)


def test_hilbert_five_eliminates_only_the_pruned_rows(monkeypatch):
    # the full (b, T, d) family sends 2,898 rows through _IntEchelon.add
    # for the n = 5 table; building each j >= 2 block from the keys kept
    # at j - 1 sends 2,468
    calls = []
    add = _IntEchelon.add

    def counted(self, row):
        calls.append(1)
        return add(self, row)

    monkeypatch.setattr(_IntEchelon, "add", counted)
    quotient_hilbert(CoinvariantEngine(5))
    assert len(calls) == 2468


def test_reduced_coords_kill_de_1_and_fix_theta_1_free_monomials():
    rng = random.Random(20)
    for n in (1, 2, 3, 4, 5):
        eng = CoinvariantEngine(n)
        de_1 = coinvariant_generators(n)[n]
        for _ in range(25):
            i, j = rng.randrange(eng.top + 1), rng.randrange(1, n + 1)
            g = SuperElement(n, {
                (rng.choice(monomials(n, i)),
                 tuple(sorted(rng.sample(range(1, n + 1), j - 1)))):
                rng.randint(-9, 9) for _ in range(4)})
            _, index = eng.reduced_basis(i, j)
            assert eng.reduced_coords(g * de_1, index) == {}, (n, g)
        for i in range(eng.top + 1):
            for j in range(n + 1):
                basis, index = eng.reduced_basis(i, j)
                for c, (a, ts) in enumerate(basis):
                    assert 1 not in ts
                    elem = SuperElement.monomial(n, a, ts)
                    assert eng.reduced_coords(elem, index) == {c: 1}


def test_ideal_echelon_pivots_pinned_at_n_five():
    # digest of [i, j, #basis, sorted pivots] over every ideal echelon at
    # n = 5 in the full A_i x (j-subsets of 1..5) index; pivot sets depend
    # only on the row space, so the digest taken with the earlier full-theta
    # row builder must not move
    eng = CoinvariantEngine(5)
    pivots = []
    for i in range(eng.top + 3):
        for j in range(6):
            ech, basis, _ = eng.ideal_echelon(i, j)
            pivots.append([i, j, *_full_pivots(eng, i, j, ech, basis)])
    digest = hashlib.sha256(json.dumps(pivots).encode()).hexdigest()
    assert digest == ("688ec3c2b9cc3fb171984ed05aa00a75"
                      "d694dadb3ae0b537acd4a21a6ba0b397")


def test_ideal_echelon_stored_rows_pinned_at_n_five():
    # digest of [i, j, #basis, [pivot, sorted entries] per stored row] over
    # every ideal echelon at n = 5; taken with the dict-row kernel, so the
    # dense working row must reproduce its cross-multiplication bit for bit
    eng = CoinvariantEngine(5)
    stored = []
    for i in range(eng.top + 3):
        for j in range(6):
            ech, basis, _ = eng.ideal_echelon(i, j)
            stored.append([i, j, len(basis),
                           [[p, sorted(row.items())]
                            for p, row in sorted(ech.pivots.items())]])
    digest = hashlib.sha256(json.dumps(stored).encode()).hexdigest()
    assert digest == ("65d16203aeac9f4e2b47dd0cb7334707"
                      "82f104d0b7f0e726fb77c56286a679c7")


def test_generators_and_rewrite_rules_pinned():
    # digests of e_1..e_n (and de_1..de_n in superspace) and of the
    # engine's rewrite rules h_k(x_k..x_n), for every n <= 6
    def digest(polys):
        return hashlib.sha256(json.dumps(
            [[p.nvars, sorted([list(k), c] for k, c in p.terms.items())]
             for p in polys]).encode()).hexdigest()
    ns = range(1, 7)
    assert [digest(g for n in ns
                   for g in coinvariant_generators(n, superspace=s))
            for s in (True, False)] == [
        "82cb7539c14417a330d67770b5152523"
        "0d251d5a6e033b8e2e4beef61de144fd",
        "56e5f896848d360653f0c1c33e37430b"
        "aebe32e333c56f9d7e6e0b3fcc60a224"]
    assert digest(CoinvariantEngine(n).hpolys[k]
                  for n in ns for k in range(1, n + 1)) == (
        "66840dcdd0d9b1f5edaeada0eda48693"
        "230b8a86014431be68736634085d53fc")
