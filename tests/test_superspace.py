"""Superspace elements, the group action, and differential operators."""

import random
from itertools import permutations
from math import factorial, prod

from supercoinv.coinvariant import ideal_component, superspace_ideal
from supercoinv.combinatorics import SubsetOfN, subsets
from supercoinv.exactalg import MPoly
from supercoinv.superspace import (SuperElement, act, antisymmetrize,
                                   coinvariant_generators, euler_chain,
                                   euler_d, f_J, odot, partial_x,
                                   star_set, vandermonde)
from supercoinv.symfunc import schur_poly


def test_theta_monomials_canonicalize_with_sign():
    a = SuperElement.monomial(2, (0, 0), (2, 1))
    b = SuperElement.monomial(2, (0, 0), (1, 2))
    assert a == b.scale(-1)
    assert SuperElement.monomial(2, (0, 0), (1, 1)).is_zero()
    # repeated thetas square to zero under multiplication
    t1 = SuperElement.theta(2, 1)
    assert (t1 * t1).is_zero()


def test_contraction_sign_depends_on_position():
    m = SuperElement.monomial(3, (0, 0, 0), (1, 2, 3))

    def contract(i):
        return odot(SuperElement.theta(3, i), m)

    assert contract(1) == SuperElement.monomial(3, (0, 0, 0), (2, 3))
    assert contract(2) == SuperElement.monomial(3, (0, 0, 0), (1, 3), -1)
    assert contract(3) == SuperElement.monomial(3, (0, 0, 0), (1, 2))


def test_odot_multi_theta_signs():
    # theta_S (.) theta_1 theta_2 theta_3 has sign (-1)^#{(s, t): t < s}
    top = SuperElement.monomial(3, (0, 0, 0), (1, 2, 3))
    for S, rest, sign in (((1, 3), (2,), 1), ((2,), (1, 3), -1),
                          ((1, 2), (3,), -1), ((2, 3), (1,), -1),
                          ((1, 2, 3), (), -1)):
        f = SuperElement.monomial(3, (0, 0, 0), S)
        assert odot(f, top) == SuperElement.monomial(3, (0, 0, 0), rest, sign)


def test_odot_theta_pair_on_itself():
    m = SuperElement.monomial(2, (0, 0), (1, 2))
    assert odot(m, m) == SuperElement.monomial(2, (0, 0), (), -1)


def test_odot_on_powers_uses_falling_factorials():
    f = SuperElement.monomial(1, (2,), ())
    g = SuperElement.monomial(1, (5,), ())
    # (d/dx)^2 x^5 = 20 x^3
    assert odot(f, g) == SuperElement.monomial(1, (3,), (), 20)


def test_act_is_an_algebra_map():
    rng = random.Random(3)
    n = 3
    for w in permutations(range(1, n + 1)):
        for _ in range(10):
            a = SuperElement.monomial(
                n, tuple(rng.randint(0, 2) for _ in range(n)),
                tuple(i for i in range(1, n + 1) if rng.random() < 0.5))
            b = SuperElement.monomial(
                n, tuple(rng.randint(0, 2) for _ in range(n)),
                tuple(i for i in range(1, n + 1) if rng.random() < 0.5))
            assert act(w, a * b) == act(w, a) * act(w, b)


def test_vandermonde_is_alternating():
    for n in (2, 3, 4):
        d = vandermonde(n)
        for i in range(1, n):
            w = list(range(1, n + 1))
            w[i - 1], w[i] = w[i], w[i - 1]
            assert act(tuple(w), d) == d.scale(-1)


def test_euler_operators_anticommute():
    rng = random.Random(5)
    n = 3
    for _ in range(20):
        f = SuperElement.monomial(
            n, tuple(rng.randint(0, 3) for _ in range(n)),
            tuple(i for i in range(1, n + 1) if rng.random() < 0.3))
        for i in (1, 2):
            for j in (1, 2):
                lhs = euler_d(i, euler_d(j, f))
                rhs = euler_d(j, euler_d(i, f))
                if i == j:
                    assert lhs.is_zero()
                else:
                    assert lhs == rhs.scale(-1)


def test_euler_chain_composes_smallest_first():
    # the operators pairwise anticommute, so the result is determined up to
    # an overall sign; the fixed order makes it deterministic
    n = 3
    f = vandermonde(n)
    chain = euler_chain((1, 2), f)
    manual = euler_d(2, euler_d(1, f))
    assert chain == manual


def test_star_set():
    assert star_set((1, 3), 4) == (2, 4)
    assert star_set((2,), 5) == (4,)


def test_derivative_of_elementary_gives_euler_generators():
    # de_k = d_1(e_k), matching the second half of the generator list
    for n in (2, 3):
        gens = coinvariant_generators(n)
        assert len(gens) == 2 * n
        for k in range(1, n + 1):
            ek = SuperElement.from_mpoly(schur_poly((1,) * k, n))
            assert gens[n + k - 1] == euler_d(1, ek)


def test_antisymmetrizer_quasi_idempotent():
    rng = random.Random(7)
    for n in (2, 3):
        for mu in [(n,), (n - 1, 1) if n > 1 else (1,)]:
            for _ in range(10):
                f = SuperElement.monomial(
                    n, tuple(rng.randint(0, 2) for _ in range(n)),
                    tuple(i for i in range(1, n + 1) if rng.random() < 0.4))
                v = antisymmetrize(mu, f)
                assert antisymmetrize(mu, v) \
                    == v.scale(prod(map(factorial, mu)))


def _literal_antisymmetrize(mu, f):
    """sum over w in S_mu of sign(w) w f, by brute force over S_n."""
    n = f.nvars
    blocks = {}
    start = 1
    for m in mu:
        for i in range(start, start + m):
            blocks[i] = start
        start += m
    total = SuperElement.zero(n)
    for w in permutations(range(1, n + 1)):
        if all(blocks.get(i, i) == blocks.get(w[i - 1], w[i - 1])
               for i in range(1, n + 1)):
            inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                             if w[i] > w[j])
            total = total + act(w, f).scale((-1) ** inversions)
    return total


def test_antisymmetrizer_is_the_signed_group_sum():
    rng = random.Random(11)
    for n, mu in ((3, (2, 1)), (4, (2, 2)), (4, (3, 1)), (4, (2,)),
                  (3, (3,))):
        for _ in range(5):
            f = SuperElement.zero(n)
            for c in (1, 2):
                f = f + SuperElement.monomial(
                    n, tuple(rng.randint(0, 2) for _ in range(n)),
                    tuple(i for i in range(1, n + 1) if rng.random() < 0.4), c)
            assert antisymmetrize(mu, f) == _literal_antisymmetrize(mu, f)
    # n = 5, blocks of sizes 4 and 5: the first term has x_1 and x_2 at one
    # exponent outside its theta-set, so eps_mu cancels it whenever 1 and 2
    # share a block; every term has thetas inside a block
    inputs = [
        SuperElement(5, {((1, 1, 0, 2, 0), (3, 4)): 1,
                         ((0, 1, 2, 3, 0), (4, 5)): 2}),
        SuperElement(5, {((3, 0, 1, 0, 2), (2, 4)): 1,
                         ((0, 0, 1, 2, 3), (1,)): -3}),
        SuperElement(5, {((2, 0, 0, 1, 0), (2, 3, 5)): 1,
                         ((0, 2, 1, 0, 0), (1, 4, 5)): 1}),
    ]
    for mu in ((5,), (4, 1), (3, 2), (2, 2, 1), (4,)):
        for f in inputs:
            assert antisymmetrize(mu, f) == _literal_antisymmetrize(mu, f)


def test_f_j_expands_as_shifted_product():
    J = SubsetOfN(3, (2,))
    x2, x3 = MPoly.var(3, 2), MPoly.var(3, 3)
    assert f_J(J).as_mpoly() == x2 * (x2 - x3)


def _contract_oracle(i, f):
    """d/dtheta_i, one term at a time: theta_i is removed with sign
    (-1)^(its position in the canonical theta tuple)."""
    out = SuperElement.zero(f.nvars)
    for (b, T), c in f.terms.items():
        if i in T:
            pos = T.index(i)
            rest = T[:pos] + T[pos + 1:]
            out = out + SuperElement.monomial(f.nvars, b, rest,
                                              c * (-1) ** pos)
    return out


def _odot_oracle(f, g):
    """f (.) g by composition: contract one theta at a time, rightmost
    first, then differentiate one variable at a time."""
    total = SuperElement.zero(f.nvars)
    for (a, S), c in f.terms.items():
        h = g
        for s in reversed(S):
            h = _contract_oracle(s, h)
        for i, ai in enumerate(a, 1):
            for _ in range(ai):
                h = partial_x(i, h)
        total = total + h.scale(c)
    return total


def _euler_oracle(j, f):
    """d_j f as sum_i theta_i * (d/dx_i)^j f through the product."""
    total = SuperElement.zero(f.nvars)
    for i in range(1, f.nvars + 1):
        h = f
        for _ in range(j):
            h = partial_x(i, h)
        total = total + SuperElement.theta(f.nvars, i) * h
    return total


def _random_element(rng, n):
    f = SuperElement.zero(n)
    for _ in range(rng.randint(1, 5)):
        f = f + SuperElement.monomial(
            n, tuple(rng.randint(0, 3) for _ in range(n)),
            rng.sample(range(1, n + 1), rng.randint(0, n)),
            rng.choice((-3, -2, -1, 1, 2, 3)))
    return f


def test_odot_and_euler_d_match_composition_oracles():
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(1, 5)
        f, g = _random_element(rng, n), _random_element(rng, n)
        assert odot(f, g) == _odot_oracle(f, g)
        j = rng.randint(1, 3)
        assert euler_d(j, g) == _euler_oracle(j, g)


def test_partial_x_on_theta_terms():
    m = SuperElement.monomial(2, (2, 0), (1,))
    assert partial_x(1, m) == SuperElement.monomial(2, (1, 0), (1,), 2)
    assert partial_x(2, m).is_zero()


def test_integer_inputs_stay_integers():
    delta = vandermonde(4)
    coeffs = [c for J in subsets(4) for c in odot(f_J(J), delta).terms.values()]
    assert coeffs
    assert all(type(c) is int for c in coeffs)
    comp = ideal_component(superspace_ideal(3), 2, 1)
    assert comp.rows
    assert all(type(c) is int for row in comp.rows for c in row.values())
