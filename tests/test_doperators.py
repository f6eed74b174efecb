"""Determinantal operators, factor matrices, and block spanning sets."""

import hashlib
import json
from itertools import combinations
from math import factorial, prod

import pytest

from supercoinv import doperators
from supercoinv.coinvariant import VerificationFailure
from supercoinv.combinatorics import (SignedPartition, SubsetOfN,
                                      TranslationSequence,
                                      all_translation_sequences, count_L,
                                      enumerate_signed_artin, gale_leq,
                                      j_of_signed, mu_blocks, partitions,
                                      sequence_bound, signed_partitions,
                                      staircase, subsets)
from supercoinv.doperators import (apply_D, build_E_set, enumerate_L,
                                   factor_matrix, l_polynomials,
                                   power_matrix, ptj_determinant,
                                   reduction_matrix, verify_block_symmetry,
                                   verify_E_set, verify_factorization,
                                   weight)
from supercoinv.exactalg import MPoly, PolyMatrix
from supercoinv.superspace import (SuperElement, antisymmetrize,
                                   coinvariant_generators, euler_chain, f_J,
                                   is_antisymmetric, odot,
                                   power_sum_generators, star_set,
                                   vandermonde)


def _admissible(n):
    for lam in partitions(n):
        for tt in all_translation_sequences(lam):
            if 1 not in tt.sets[0]:
                yield tt


def _selector(n, T):
    """The (n - #T) x n 0/1 matrix with unit rows in the columns not in T."""
    return PolyMatrix([[MPoly.const(n, int(j == c)) for j in range(1, n + 1)]
                       for c in range(1, n + 1) if c not in T], n)


def _cmu_inverse(mu):
    """The reference inverse of the reduction matrix, by forward
    substitution; again lower unitriangular with polynomial entries."""
    n = sum(mu)
    C = reduction_matrix(mu)
    inv = [[MPoly.const(n, int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            acc = MPoly.zero(n)
            for k in range(j, i):
                acc = acc + C.grid[i][k] * inv[k][j]
            inv[i][j] = acc.scale(-1)
    return PolyMatrix(inv, n)


def _h_matrix(mu, T):
    """The reference H = E * C(mu)^(-1): the rows of C(mu)^(-1) not in T."""
    inv = _cmu_inverse(mu).grid
    return PolyMatrix([row for c, row in enumerate(inv, 1) if c not in T],
                      sum(mu))


def _apply_D_by_h_minors(tt, f, chains):
    """The reference route of the determinantal operator: the sum over
    #I = n - r of (-1)^(sum I) Delta_I(H) (.) d_{([n]-I)*}(f), with Delta_I
    the maximal minor of H on the columns I.  ``chains`` keeps d_K(f) per
    K for one f."""
    n = sum(tt.mu)
    T = tt.union_set()
    r = len(T)
    H = _h_matrix(tt.mu, T)
    total = SuperElement.zero(n)
    for I in combinations(range(1, n + 1), n - r):
        minor = H.minor(range(n - r), [i - 1 for i in I])
        K = star_set([k for k in range(1, n + 1) if k not in I], n)
        if K not in chains:
            chains[K] = euler_chain(K, f)
        term = odot(SuperElement.from_mpoly(minor), chains[K])
        total = total + term.scale(-1 if sum(I) % 2 else 1)
    return total


def _block_symmetric(mu, p):
    return all(p.rename_vars({i: i + 1, i + 1: i}) == p
               for block in mu_blocks(mu) for i in block[:-1])


def test_factor_matrix_factors_through_column_operations():
    for mu in [(1,), (2,), (1, 1), (3,), (2, 1), (2, 2), (3, 2), (2, 2, 1)]:
        assert verify_factorization(mu)


def test_reduction_matrix_is_unitriangular_and_inverts():
    for mu in [(2, 1), (2, 2), (3, 2)]:
        n = sum(mu)
        product = reduction_matrix(mu).mul(_cmu_inverse(mu))
        for i in range(n):
            for j in range(n):
                expected = MPoly.const(n, 1 if i == j else 0)
                assert product.grid[i][j] == expected


def test_power_matrix_entries():
    P = power_matrix(3, (2, 3))
    # entry (i, j) is x_(rows_i)^(n - j + 1)
    x2 = MPoly.var(3, 2)
    assert P.grid[0][0] == x2 ** 3
    assert P.grid[0][2] == x2
    assert P.grid[1][1] == MPoly.var(3, 3) ** 2


def test_worked_determinant_example():
    mu = (3, 3, 2)
    tt = TranslationSequence(mu, ((2,), (4, 6), ()))
    J = j_of_signed(SignedPartition(mu, tt.gamma()))
    assert J.elems == (3, 5, 6)
    # the weight is s_1(x_3) * s_1(x_5, x_6)
    x3, x5, x6 = (MPoly.var(8, i) for i in (3, 5, 6))
    assert weight(tt) == x3 * (x5 + x6)
    got = ptj_determinant(tt, J)
    expected = weight(tt) * f_J(J).as_mpoly()
    # proportionality with a nonzero ratio, by cross-multiplication
    exp0, c0 = next(iter(got.terms.items()))
    d0 = expected.terms[exp0]
    assert got.scale(d0) == expected.scale(c0)


def test_determinant_routes_agree():
    # the full n x n determinant of the factor rows x_J stacked over the
    # selector of the columns not in T is the minor route up to sign
    for n in range(1, 5):
        for mu in partitions(n):
            for tt in all_translation_sequences(mu):
                T = tt.union_set()
                for J in subsets(n, len(T)):
                    stacked = PolyMatrix(factor_matrix(mu, J.elems).grid
                                         + _selector(n, T).grid, n)
                    full = stacked.det()
                    fast = ptj_determinant(tt, J)
                    assert fast == full or fast == full.scale(-1)
    # T = () takes the 0 x 0 minor, whose determinant is 1
    assert reduction_matrix((1,)).minor([], []) == MPoly.const(1, 1)
    assert reduction_matrix((2, 1)).minor([], []) == MPoly.const(3, 1)


def test_determinant_vanishes_outside_gale_cone():
    mu = (2, 2)
    for tt in _admissible(4):
        if tt.mu != mu:
            continue
        Jmax = j_of_signed(SignedPartition(mu, tt.gamma()))
        r = len(Jmax.elems)
        for J in subsets(4, r):
            if not gale_leq(J, Jmax):
                assert ptj_determinant(tt, J).is_zero(), (tt.sets, J)


def test_images_are_harmonic_antisymmetric_with_leading_term():
    for n in (2, 3):
        delta = vandermonde(n)
        gens = coinvariant_generators(n)
        for tt in _admissible(n):
            mu = tt.mu
            v = apply_D(tt, delta)
            assert not v.is_zero()
            for g in gens:
                assert odot(g, v).is_zero()
            assert antisymmetrize(mu, v) == v.scale(prod(map(factorial, mu)))
            Jmax = j_of_signed(SignedPartition(mu, tt.gamma()))
            for (exps, thetas), c in v.terms.items():
                assert gale_leq(SubsetOfN(n, thetas), Jmax)
            lead = v.theta_coefficient(Jmax.elems)
            target = odot(SuperElement.from_mpoly(
                weight(tt) * f_J(Jmax).as_mpoly()), delta).as_mpoly()
            assert lead == target or lead == target.scale(-1)


def test_power_sums_and_elementary_generators_agree_on_harmonicity():
    # over Q, p_k and dp_k generate the same ideal as e_d and de_d
    for n in range(1, 5):
        delta = vandermonde(n)
        x1 = SuperElement.monomial(n, (1,) + (0,) * (n - 1))
        # e_1 = p_1 sends x_1 v to v; (x_1 - x_2)^2 is caught only by a
        # bosonic generator of degree 2, (x_1 - x_2)(theta_1 - theta_2) only
        # by a fermionic one of degree 2
        shifts = [lambda v: x1 * v]
        if n >= 2:
            x2 = SuperElement.monomial(n, (0, 1) + (0,) * (n - 2))
            t12 = SuperElement.theta(n, 1) - SuperElement.theta(n, 2)
            shifts += [lambda v: (x1 - x2) * (x1 - x2),
                       lambda v: (x1 - x2) * t12]
        sets = (coinvariant_generators(n), power_sum_generators(n))
        memo = {}
        for tt in _admissible(n):
            v = apply_D(tt, delta, memo)
            for gens in sets:
                assert all(odot(g, v).is_zero() for g in gens)
                for shift in shifts:
                    bad = v + shift(v)
                    assert not all(odot(g, bad).is_zero() for g in gens)


def test_transposition_test_agrees_with_the_antisymmetrizer():
    # dop-leading tests antisymmetry by the adjacent transpositions of each
    # mu-block; eps_mu v = |S_mu| v is the reference
    def reference(mu, v):
        return antisymmetrize(mu, v) == v.scale(prod(map(factorial, mu)))
    for n in (2, 3, 4):
        delta = vandermonde(n)
        x1 = SuperElement.monomial(n, (1,) + (0,) * (n - 1))
        for tt in _admissible(n):
            v = apply_D(tt, delta)
            assert is_antisymmetric(tt.mu, v) and reference(tt.mu, v)
            w = x1 * v
            assert is_antisymmetric(tt.mu, w) == reference(tt.mu, w)
    x1_delta = SuperElement.monomial(3, (1, 0, 0)) * vandermonde(3)
    assert not is_antisymmetric((2, 1), x1_delta)
    assert not reference((2, 1), x1_delta)


def test_breakdown_full_first_block_puts_shift_polynomial_in_ideal():
    for n in (2, 3, 4):
        delta = vandermonde(n)
        for lam in partitions(n):
            for tt in all_translation_sequences(lam):
                if len(tt.sets[0]) != lam[0] or 1 not in tt.sets[0]:
                    continue
                J = j_of_signed(SignedPartition(lam, tt.gamma()))
                assert odot(f_J(J), delta).is_zero()


def test_breakdown_proper_first_block_weight_escapes_staircase():
    for n in (2, 3, 4):
        for lam in partitions(n):
            for tt in all_translation_sequences(lam):
                T1 = tt.sets[0]
                if 1 not in T1 or len(T1) == lam[0]:
                    continue
                st = staircase(j_of_signed(SignedPartition(lam, tt.gamma())))
                w = weight(tt)
                assert any(not all(a < s for a, s in zip(exp, st))
                           for exp in w.terms), (lam, tt.sets)


def test_h_matrix_selects_rows_of_the_inverse():
    # the reference H = E * C(mu)^(-1) for the 0/1 selector E, for every
    # proper T
    for n in (1, 2, 3, 4):
        for lam in partitions(n):
            inv = _cmu_inverse(lam)
            for size in range(n):
                for T in subsets(n, size):
                    product = _selector(n, T.elems).mul(inv)
                    assert _h_matrix(lam, T.elems).grid == product.grid


def test_h_matrix_entries_are_block_symmetric():
    # the check on C(mu) once per mu, and the per-T property of H it
    # implies
    for n in (2, 3, 4):
        for lam in partitions(n):
            assert verify_block_symmetry(lam)
        for tt in _admissible(n):
            H = _h_matrix(tt.mu, tt.union_set())
            assert all(_block_symmetric(tt.mu, p)
                       for row in H.grid for p in row)


def test_block_symmetry_check_rejects_an_asymmetric_entry(monkeypatch):
    # x_1 below the diagonal of C((2, 1)) is not symmetric in x_1, x_2
    C = reduction_matrix((2, 1))
    C.grid[2][0] = MPoly.var(3, 1)
    monkeypatch.setattr(doperators, "reduction_matrix", lambda mu: C)
    with pytest.raises(VerificationFailure,
                       match=r"entry \(3,1\) not invariant under swapping x1"
                             r" and x2 for mu=\(2, 1\)"):
        verify_block_symmetry((2, 1))


def test_apply_D_matches_the_h_minor_route():
    # every translation sequence with n <= 5, admissible or not
    for n in range(1, 6):
        delta = vandermonde(n)
        memo, chains = {}, {}
        for lam in partitions(n):
            for tt in all_translation_sequences(lam):
                assert (apply_D(tt, delta, memo)
                        == _apply_D_by_h_minors(tt, delta, chains))


def test_reduction_minors_vanish_outside_the_gale_cone():
    # C(mu) is lower triangular: det C(mu)[K, T] = 0 unless T <= K in
    # Gale order, so apply_D takes the K above T only
    for n in range(1, 6):
        for lam in partitions(n):
            C = reduction_matrix(lam)
            for r in range(1, n + 1):
                for T in subsets(n, r):
                    cols = [t - 1 for t in T.elems]
                    for K in subsets(n, r):
                        if not gale_leq(T, K):
                            rows = [k - 1 for k in K.elems]
                            assert C.minor(rows, cols).is_zero(), (lam, T, K)


def test_apply_D_with_a_shared_memo_matches_fresh_calls():
    # the checks keep one memo per f: C(mu) per mu and d_K(f) per K
    for n in (2, 3, 4):
        delta = vandermonde(n)
        memo = {}
        for tt in _admissible(n):
            assert apply_D(tt, delta, memo) == apply_D(tt, delta)
        assert {tag for tag, _ in memo} == {"reduction", "chain"}


def test_block_spanning_counts_and_bounds():
    for m in range(1, 6):
        for k in range(m + 1):
            for t in range(4):
                assert len(enumerate_L(m, k, t)) == count_L(m, k, t)
                bound = sequence_bound(m, k, t)
                for p in l_polynomials(range(1, m + 1), k, t, m):
                    for exp in p.terms:
                        assert all(a <= b for a, b in zip(exp, bound)), \
                            (m, k, t, exp)


def test_spanning_products_bound_and_independence():
    for n in (1, 2, 3, 4):
        for sp in signed_partitions(n):
            assert len(build_E_set(sp)) == len(enumerate_signed_artin(sp))
        # one call, so the signed partitions sharing a J share its pass
        assert verify_E_set(*signed_partitions(n))


@pytest.mark.parametrize("edit, message", [
    (lambda out: out + [MPoly.var(3, 1) ** 9], "escapes the staircase"),
    (lambda out: out[:1] + out, "dependent"),
    (lambda out: out[1:], "does not match")])
def test_E_set_check_rejects_a_tampered_spanning_set(monkeypatch, edit,
                                                      message):
    sp = SignedPartition((2, 1), (0, 0))
    true_set = build_E_set(sp)
    monkeypatch.setattr(doperators, "build_E_set",
                        lambda arg: edit(list(true_set)))
    with pytest.raises(VerificationFailure, match=message):
        verify_E_set(sp)


def _digest(rows):
    """sha256 of (label, variable count, sorted terms) rows, in order."""
    out = [[label, p.nvars, sorted([list(k), c] for k, c in p.terms.items())]
           for label, p in rows]
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_operator_outputs_pinned():
    # digests of apply_D(tt, Delta) and weight(tt) for every admissible
    # sequence with n <= 5, ptj_determinant for every (tt, J) with n <= 4
    # and every spanning product with n <= 4; they depend on the outputs
    # only, not on how the operators compute them
    images, weights = [], []
    for n in range(1, 6):
        delta = vandermonde(n)
        memo = {}
        for tt in _admissible(n):
            label = [tt.mu, tt.sets]
            images.append((label, apply_D(tt, delta, memo)))
            weights.append((label, weight(tt)))
    dets = []
    for n in range(1, 5):
        for mu in partitions(n):
            for tt in all_translation_sequences(mu):
                for J in subsets(n, len(tt.union_set())):
                    dets.append(([tt.sets, J.elems], ptj_determinant(tt, J)))
    products = [([sp.mu, sp.gamma], p) for n in range(1, 5)
                for sp in signed_partitions(n) for p in build_E_set(sp)]
    assert [_digest(rows) for rows in (images, weights, dets, products)] == [
        "fa366ac8f154d669c7c35879047a4309"
        "3afd636651d1b9264f0683a608301421",
        "2e3669ed390a5c60aab5b51d16eca18a"
        "19cfc71e1a76f15eaf6dd6bfe880681d",
        "6592e7c5289ea8abb575c0fb0c2a5ba4"
        "63d9ccea8e1cc02b4aa692a88874603a",
        "027c43a607b153247d05cadb4e58ca67"
        "4222b5cb48d9010d87483dd04889e197"]


def test_column_operation_grids_pinned():
    # digests of the factor matrix on the rows x_1..x_n, C(mu) and
    # the reference C(mu)^(-1), entry by entry, for every mu of n <= 5
    grids = {"factor": [], "reduction": [], "inverse": []}
    for n in range(1, 6):
        for mu in partitions(n):
            for name, M in (("factor", factor_matrix(mu, range(1, n + 1))),
                            ("reduction", reduction_matrix(mu)),
                            ("inverse", _cmu_inverse(mu))):
                grids[name] += [([mu, i, j], p)
                                for i, row in enumerate(M.grid)
                                for j, p in enumerate(row)]
    assert {name: _digest(rows) for name, rows in grids.items()} == {
        "factor": "d0575ec546e1a485f248e91bd84a2e07"
                  "b4f46961a0453776f52a0aed1cb8c0a6",
        "reduction": "7fa262fe5bd161f87ef078fb172d29d6"
                     "27c104a1b6851b86d4e2189fcc938238",
        "inverse": "fa3a396dfa97544a4d5c93eb2bc91c1f"
                   "20d10aba99c085986fe5575aa2a23ca0"}
