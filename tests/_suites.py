"""Randomized property suites, shared between the standalone property tests
and the acceptance run.  Each suite takes a case budget and a seed and
raises AssertionError on the first violated property.

``enumerate_ssyt`` is the independent reference for ``kostka`` and
``schur_poly``, which both peel horizontal strips instead.
"""

import random
from fractions import Fraction
from itertools import accumulate
from math import factorial, prod

from supercoinv.coinvariant import BidegreeTable
from supercoinv.combinatorics import (QZPolynomial, gale_leq, kostka,
                                      partitions, subsets)
from supercoinv.exactalg import MPoly, QMatrix
from supercoinv.superspace import (SuperElement, antisymmetrize, euler_d,
                                   odot, partial_x)
from supercoinv.symfunc import Monomial, Schur


def enumerate_ssyt(shape, max_entry):
    """Semistandard tableaux of a shape (a tuple of parts) with entries in
    1..max_entry, filled cell by cell."""
    results = []
    grid = [[0] * p for p in shape]
    cells = [(i, j) for i, p in enumerate(shape) for j in range(p)]

    def rec(idx):
        if idx == len(cells):
            results.append(tuple(tuple(r) for r in grid))
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, max_entry + 1):
            grid[i][j] = v
            rec(idx + 1)
        grid[i][j] = 0

    rec(0)
    return results


def random_partition(rng, n):
    parts = []
    left = n
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    parts.sort(reverse=True)
    return tuple(parts)


def random_bosonic(rng, n, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms[(exp, ())] = Fraction(rng.randint(-3, 3))
    return SuperElement(n, {k: c for k, c in terms.items() if c})


def random_super(rng, n, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        thetas = tuple(i for i in range(1, n + 1) if rng.random() < 0.4)
        terms[(exp, thetas)] = Fraction(rng.randint(-3, 3))
    total = SuperElement.zero(n)
    for (exp, thetas), c in terms.items():
        total = total + SuperElement.monomial(n, exp, thetas, c)
    return total


def random_exponent_terms(rng, nvars, max_deg=2, max_terms=3):
    return {tuple(rng.randint(0, max_deg) for _ in range(nvars)):
            rng.randint(-3, 3) for _ in range(rng.randint(0, max_terms))}


def random_symfn_terms(rng, degree, max_terms=3):
    pool = partitions(degree)
    return {lam: QZPolynomial(random_exponent_terms(rng, 2))
            for lam in rng.sample(pool, rng.randint(0, min(max_terms,
                                                           len(pool))))}


def random_table_terms(rng, n, max_terms=3):
    return {(rng.randint(0, 3), rng.randint(0, n)): rng.randint(-3, 3)
            for _ in range(rng.randint(0, max_terms))}


# one random element of each sparse-term type in n variables (QZPolynomial
# always has two, a symmetric function has degree n)
SPARSE_DRAWS = [
    lambda rng, n: MPoly(n, random_exponent_terms(rng, n)),
    random_super,
    lambda rng, n: QZPolynomial(random_exponent_terms(rng, 2)),
    lambda rng, n: Schur(n, random_symfn_terms(rng, n)),
    lambda rng, n: Monomial(n, random_symfn_terms(rng, n)),
    lambda rng, n: BidegreeTable(n, random_table_terms(rng, n)),
]


def suite_sparse_terms(cases, seed):
    """The arithmetic every sparse-term type shares (MPoly, SuperElement,
    QZPolynomial, Schur, Monomial, BidegreeTable): additive inverses,
    subtraction, scaling by zero, sums from 0, truth as nonzero, hashes of
    equal values, the type of every result, inequality across types, and
    sums refused across types or variable counts."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        n = rng.randint(1, 4)
        draw = rng.choice(SPARSE_DRAWS)
        a, b = draw(rng, n), draw(rng, n)
        assert (a + (-a)).is_zero()
        assert (a - b) + b == a
        assert a.scale(0).is_zero()
        assert sum([a, b]) == a + b
        assert bool(a) is not a.is_zero()
        # the same value built with its terms in another order
        for same in ((a - b) + b, (b + a) - b, a + a.scale(0)):
            assert same == a and hash(same) == hash(a)
        for result in (a + b, -a, a - b, a.scale(2)):
            assert type(result) is type(a)
        t = random_exponent_terms(rng, 2)
        assert MPoly(2, t) != QZPolynomial(t)
        assert QZPolynomial(t) != MPoly(2, t)
        t = random_symfn_terms(rng, n)
        assert Schur(n, t) != Monomial(n, t)
        other = rng.choice(SPARSE_DRAWS)(rng, rng.randint(1, 4))
        if type(other) is not type(a) or other.nvars != a.nvars:
            try:
                a + other
            except ValueError:
                pass
            else:
                raise AssertionError(f"{a!r} + {other!r} did not raise")
        done += 1
    return done


def suite_superspace(cases, seed):
    """Anticommutation, contraction relations, the module law of the
    superderivative action on bosonic inputs, x-derivatives commuting with
    the Euler derivatives d_j, and quasi-idempotence of the parabolic
    antisymmetrizer."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        n = rng.randint(2, 4)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        ti = SuperElement.theta(n, i)
        tj = SuperElement.theta(n, j)
        if i == j:
            assert (ti * tj).is_zero()
        else:
            assert ti * tj == (tj * ti).scale(-1)
        h = random_super(rng, n)
        # contractions (odot by theta_i) anticommute; equal indices square
        # to zero
        lhs = odot(ti, odot(tj, h))
        rhs = odot(tj, odot(ti, h))
        if i == j:
            assert lhs.is_zero()
        else:
            assert lhs == rhs.scale(-1)
        # derivative-and-contract then multiply-back identity:
        # theta_i * contract_i + contract_i * theta_i = identity
        recon = ti * odot(ti, h) + odot(ti, ti * h)
        assert recon == h
        f = random_bosonic(rng, n)
        g = random_bosonic(rng, n)
        assert odot(f * g, h) == odot(f, odot(g, h))
        # d/dx_i commutes with d_j = sum_k theta_k (d/dx_k)^j, the lemma
        # ``operator_closure`` rests on
        assert partial_x(i, euler_d(j, h)) == euler_d(j, partial_x(i, h))
        mu = random_partition(rng, n)
        v = antisymmetrize(mu, h)
        assert antisymmetrize(mu, v) == v.scale(prod(map(factorial, mu)))
        done += 1
    return done


def suite_gale(cases, seed):
    """The Gale relation is a partial order on equal-size subsets."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        pool = subsets(n, k)
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert gale_leq(a, a)
        if gale_leq(a, b) and gale_leq(b, a):
            assert a == b
        if gale_leq(a, b) and gale_leq(b, c):
            assert gale_leq(a, c)
        done += 1
    return done


def _dominated(mu, lam):
    """mu is at most lam in dominance order: each partial sum of mu, both
    padded with zeros to one length, is at most the same one of lam."""
    length = max(len(mu), len(lam))
    sums = [accumulate(p + (0,) * (length - len(p))) for p in (mu, lam)]
    return all(s <= t for s, t in zip(*sums))


def suite_kostka(cases, seed):
    """Kostka numbers are unitriangular with respect to dominance."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        n = rng.randint(1, 4)
        pool = partitions(n)
        lam = rng.choice(pool)
        mu = rng.choice(pool)
        assert kostka(lam, lam) == 1
        k = kostka(lam, mu)
        assert k >= 0
        if k and lam != mu:
            assert _dominated(mu, lam) and not _dominated(lam, mu)
        done += 1
    return done


def suite_rank_nullity(cases, seed):
    """rank + nullity equals the column count, and kernel vectors vanish."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = []
        for _ in range(nrows):
            row = {c: Fraction(rng.randint(-3, 3)) for c in range(ncols)
                   if rng.random() < 0.7}
            rows.append({c: v for c, v in row.items() if v})
        M = QMatrix(nrows, ncols, rows)
        kern = M.kernel_basis()
        assert M.rank() + len(kern) == ncols
        for v in kern:
            for row in rows:
                assert sum(c * v[j] for j, c in row.items()) == 0
        done += 1
    return done


ALL_SUITES = {
    "sparse-terms": suite_sparse_terms,
    "superspace": suite_superspace,
    "gale": suite_gale,
    "kostka": suite_kostka,
    "rank-nullity": suite_rank_nullity,
}
