"""Symmetric functions, basis changes, skewing, and the C_{n,k} family."""

import random
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

import pytest

from supercoinv.combinatorics import (OMP_STATISTICS, QZPolynomial,
                                      enumerate_omp, kostka, partitions)
from supercoinv.exactalg import MPoly
from supercoinv.symfunc import (Schur, cnk_omp, cnk_syt, e1_perp, e_perp,
                                hall, schur_poly, to_basis)


def _schur(lam, coeff=None):
    return Schur(sum(lam), {tuple(lam): coeff or QZPolynomial.one()})


def random_symfn(rng, degree):
    out = {}
    for lam in partitions(degree):
        if rng.random() < 0.6:
            c = QZPolynomial.monomial(rng.randint(0, 2), rng.randint(0, 1),
                                      rng.randint(-3, 3))
            if not c.is_zero():
                out[lam] = c
    return Schur(degree, out)


def test_schur_expansion_in_monomials_is_kostka():
    for degree in (2, 3, 4):
        for lam in partitions(degree):
            m = to_basis(_schur(lam), "m")
            got = {mu: c.eval_ones() for mu, c in m.terms.items()}
            for mu in partitions(degree):
                assert got.get(mu, 0) == kostka(lam, mu)


def test_to_basis_changes_only_schur_to_monomial():
    f = _schur((2, 1))
    assert to_basis(f, "s") is f
    m = to_basis(f, "m")
    for source, target in ((m, "s"), (f, "e"), (m, "e")):
        with pytest.raises(ValueError):
            to_basis(source, target)


def test_hall_orthonormality_of_schur():
    for degree in (2, 3):
        for lam in partitions(degree):
            for mu in partitions(degree):
                v = hall(_schur(lam), _schur(mu))
                assert v == (QZPolynomial.one() if lam == mu
                             else QZPolynomial.zero())


def test_e_perp_is_hall_adjoint():
    # <e1_perp f, g> = <f, e1 g> checked via the Pieri rule on columns:
    # e1 s_mu = sum of s_lam over lam covering mu by one box
    for degree in (2, 3):
        for lam in partitions(degree):
            for mu in partitions(degree - 1):
                lhs = hall(e1_perp(_schur(lam)), _schur(mu))
                covers = 0
                mup = list(mu) + [0]
                for i in range(len(mup)):
                    cand = mup.copy()
                    cand[i] += 1
                    cand = tuple(p for p in cand if p)
                    if tuple(sorted(cand, reverse=True)) == cand \
                            and cand == lam:
                        covers += 1
                assert lhs == QZPolynomial({(0, 0): covers} if covers else {})


def test_e_perp_composes():
    rng = random.Random(9)
    for _ in range(10):
        f = random_symfn(rng, 4)
        assert e_perp((1, 1), f) == e1_perp(e1_perp(f))


def test_schur_poly_matches_kostka_expansion():
    for nvars in (2, 3):
        for degree in (2, 3):
            for lam in partitions(degree):
                p = schur_poly(lam, nvars)
                expected = MPoly.zero(nvars)
                for mu in partitions(degree):
                    k = kostka(lam, mu)
                    if not k or len(mu) > nvars:
                        continue
                    # monomial symmetric polynomial in nvars variables
                    seen = set()
                    from itertools import permutations as perms
                    base = list(mu) + [0] * (nvars - len(mu))
                    for arrangement in perms(base):
                        seen.add(arrangement)
                    msym = MPoly(nvars, {e: 1 for e in seen})
                    expected = expected + msym.scale(k)
                assert p == expected


def test_one_row_schur_poly_is_every_monomial_once():
    # h_d(S) = s_(d) in the variables S is the sum of every degree-d
    # monomial in S, for every variable subset S of n <= 6 variables
    for n in range(1, 7):
        for size in range(1, n + 1):
            for S in combinations(range(1, n + 1), size):
                for d in range(5):
                    want = {}
                    for c in combinations_with_replacement(S, d):
                        exp = [0] * n
                        for v in c:
                            exp[v - 1] += 1
                        want[tuple(exp)] = 1
                    assert schur_poly((d,), n, S) == MPoly(n, want), (S, d)


def test_cnk_fermionic_slices_at_n_two():
    assert cnk_syt(2, 2).terms == {
        (2,): QZPolynomial.one(),
        (1, 1): QZPolynomial.monomial(1, 0),
    }
    assert cnk_syt(2, 1).terms == {(1, 1): QZPolynomial.one()}


def test_cnk_square_free_coefficients_count_set_partitions():
    # the coefficient of the all-ones content counts ordered set partitions
    from supercoinv.combinatorics import count_osp, enumerate_osp
    for n in range(1, 6):
        for k in range(1, n + 1):
            f = to_basis(cnk_syt(n, k), "m")
            c = f.terms[(1,) * n].eval_ones()
            assert c == len(enumerate_osp(n, k=k))
        total = sum(to_basis(cnk_syt(n, k), "m")
                    .terms[(1,) * n].eval_ones()
                    for k in range(1, n + 1))
        assert total == count_osp(n)


def test_all_omp_statistics_match_tableau_formula_small():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            reference = to_basis(cnk_syt(n, k), "m")
            for stat in OMP_STATISTICS:
                assert cnk_omp(n, k, stat) == reference, (n, k, stat)


def test_omp_generating_function_is_symmetric():
    # every rearrangement of a partition content over the letters 1..n has
    # the statistic distribution of the partition itself
    def distribution(content, k, stat):
        dist = {}
        for m in enumerate_omp(content, k):
            v = OMP_STATISTICS[stat](m)
            dist[v] = dist.get(v, 0) + 1
        return dist

    for n, k in ((3, 2), (4, 2), (4, 3)):
        for mu in partitions(n):
            padded = mu + (0,) * (n - len(mu))
            for stat in OMP_STATISTICS:
                expected = distribution(mu, k, stat)
                for content in set(permutations(padded)):
                    assert distribution(content, k, stat) == expected, \
                        (n, k, content, stat)


def test_latex_and_render_cover_zero_and_signs():
    z = Schur(2)
    assert z.render() == "0"
    assert z.latex() == "0"
    f = _schur((1, 1), QZPolynomial({(1, 0): -1, (0, 1): 1}))
    assert "s" in f.latex()


def test_latex_joins_negative_terms_with_a_spaced_minus():
    mixed = QZPolynomial({(1, 0): 1, (0, 1): -1, (2, 1): 3})
    assert _schur((1,), mixed).latex() == r"\left(q - z + 3q^{2}z\right) s_{1}"
    leading = QZPolynomial({(0, 0): -2, (1, 0): -1, (0, 1): -5})
    assert _schur((2,), leading).latex() == r"\left(-2 - q - 5z\right) s_{2}"


def _vertical_strip_skews(lam, d):
    """Every nu with lam_i - nu_i in {0, 1} for all i, a partition, and
    |lam| - |nu| = d."""
    out = []
    for nu in product(*((p, p - 1) for p in lam)):
        if sum(lam) - sum(nu) == d \
                and all(x >= y for x, y in zip(nu, nu[1:])):
            out.append(tuple(p for p in nu if p))
    return out


def test_e_perp_removes_vertical_strips():
    for size in range(8):
        for lam in partitions(size):
            for d in range(1, size + 1):
                want = Schur(size - d, {
                    nu: QZPolynomial.one()
                    for nu in _vertical_strip_skews(lam, d)})
                got = e_perp((d,), _schur(lam))
                assert got == want, (lam, d)
