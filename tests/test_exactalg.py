"""Exact polynomial and matrix arithmetic."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from supercoinv.combinatorics import QZPolynomial
from supercoinv.exactalg import (MPoly, PolyMatrix, QMatrix, _IntEchelon,
                                 collect)
from supercoinv.superspace import SuperElement
from supercoinv.symfunc import schur_poly


def random_poly(rng, nvars, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MPoly(nvars, {e: c for e, c in terms.items() if c})


def _sum_then_filter(pairs, start=None):
    """The definition of ``collect``: every sum first, zeros dropped last."""
    sums = dict(start or {})
    for key, c in pairs:
        sums[key] = sums.get(key, 0) + c
    return {key: c for key, c in sums.items() if c}


def test_collect_is_sum_then_filter():
    rng = random.Random(24)
    for _ in range(300):
        # few keys and small coefficients, so sums cancel and come back
        pairs = [(rng.randint(0, 3), rng.randint(-2, 2))
                 for _ in range(rng.randint(0, 12))]
        assert collect(pairs) == _sum_then_filter(pairs)
        start = {k: rng.choice((-2, -1, 1, 2))
                 for k in range(rng.randint(0, 4))}
        out = dict(start)
        assert collect(pairs, out) is out
        assert out == _sum_then_filter(pairs, start)
    # a zero contribution leaves the dict unchanged, present key or not
    assert collect([("a", 0)]) == {}
    assert collect([("a", 1), ("b", 0), ("a", 0)]) == {"a": 1}
    # a key that cancels is removed and may come back
    assert collect([("a", 2), ("a", -2)]) == {}
    assert collect([("a", 2), ("b", 1), ("a", -2), ("a", 3)]) == {"b": 1,
                                                                  "a": 3}
    # a given dict is added into in place, and its own keys may cancel
    out = {"a": 1, "b": 2}
    assert collect([("b", -2), ("c", 5)], out) is out
    assert out == {"a": 1, "c": 5}


def test_collect_sums_sparse_coefficients():
    q, z = QZPolynomial.monomial(1, 0), QZPolynomial.monomial(0, 1)
    pairs = [("s2", q), ("s11", z), ("s2", -q), ("s11", QZPolynomial.zero()),
             ("s3", q + z), ("s3", -z)]
    assert collect(pairs) == _sum_then_filter(pairs) == {"s11": z, "s3": q}
    assert collect([("s2", QZPolynomial.zero())]) == {}


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 3)
        a, b, c = (random_poly(rng, n) for _ in range(3))
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * MPoly.const(n, 1) == a


def test_power_matches_repeated_product():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 3)
        a = random_poly(rng, n, max_deg=2, max_terms=3)
        prod = MPoly.const(n, 1)
        for k in range(5):
            assert a ** k == prod
            prod = prod * a


def test_partial_is_a_derivation():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 3)
        i = rng.randint(1, n)
        a, b = random_poly(rng, n), random_poly(rng, n)
        lhs = (a * b).partial(i)
        rhs = a.partial(i) * b + a * b.partial(i)
        assert lhs == rhs


def test_elementary_recursion():
    # e_d(S) = e_d(S - x_m) + x_m e_{d-1}(S - x_m) for e_d the one-column
    # Schur polynomial, in every variable subset S of n <= 6 variables with
    # x_m its last; d runs one past #S, where both sides vanish
    for n in range(1, 7):
        for size in range(1, n + 1):
            for S in combinations(range(1, n + 1), size):
                rest, xm = S[:-1], MPoly.var(n, S[-1])
                for d in range(1, size + 2):
                    lhs = schur_poly((1,) * d, n, S)
                    rhs = schur_poly((1,) * d, n, rest) \
                        + xm * schur_poly((1,) * (d - 1), n, rest)
                    assert lhs == rhs, (S, d)


def test_rank_of_known_matrices():
    ident = QMatrix(3, 3, [{0: 1}, {1: 1}, {2: 1}])
    assert ident.rank() == 3
    dep = QMatrix(3, 3, [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 1}])
    assert dep.rank() == 2
    zero = QMatrix(2, 2, [{}, {}])
    assert zero.rank() == 0


def test_solve_consistent_and_inconsistent():
    M = QMatrix(2, 2, [{0: 1, 1: 1}, {0: 1, 1: 2}])
    x = M.solve([3, 5])
    assert x == [Fraction(1), Fraction(2)]
    assert all(type(v) is Fraction for v in x)
    # integer rows are eliminated over Q, never in floating point
    x = QMatrix(2, 2, [{0: 1, 1: 2}, {1: 3}]).solve([1, 1])
    assert x == [Fraction(1, 3), Fraction(1, 3)]
    assert all(type(v) is Fraction for v in x)
    singular = QMatrix(2, 2, [{0: 1, 1: 1}, {0: 2, 1: 2}])
    assert singular.solve([1, 3]) is None


def test_solve_random_round_trip():
    rng = random.Random(23)
    for _ in range(100):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [{c: Fraction(rng.randint(-4, 4)) for c in range(nc)
                 if rng.random() < 0.8} for _ in range(nr)]
        rows = [{c: v for c, v in r.items() if v} for r in rows]
        M = QMatrix(nr, nc, rows)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(nc)]
        b = [sum(v * x[c] for c, v in r.items()) for r in rows]
        y = M.solve(b)
        assert y is not None
        for r, bv in zip(rows, b):
            assert sum(v * y[c] for c, v in r.items()) == bv


def _fraction_rref(rows, ncols):
    """Reference rank and pivot columns: Fraction Gauss-Jordan, columns in
    increasing order."""
    rows = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    pivots = []
    for c in range(ncols):
        p = next((k for k in range(len(pivots), len(rows)) if rows[k][c]),
                 None)
        if p is None:
            continue
        r = len(pivots)
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [v / lead for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [v - f * w for v, w in zip(rows[k], rows[r])]
        pivots.append(c)
    return len(pivots), set(pivots)


def _random_int_rows(rng, nrows, ncols):
    """Sparse integer rows with negative and non-unit entries (so pivots
    that do not divide), plus integer combinations of earlier rows, which
    must reduce to zero."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            row = {}
            for r in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                f = rng.choice([-3, -2, -1, 1, 2, 5])
                for c, v in r.items():
                    row[c] = row.get(c, 0) + f * v
            row = {c: v for c, v in row.items() if v}
        else:
            row = {c: rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 9])
                   for c in rng.sample(range(ncols),
                                       rng.randint(1, min(ncols, 5)))}
        rows.append(row)
    return rows


def test_int_echelon_matches_fraction_rref():
    rng = random.Random(31)
    for _ in range(300):
        ncols = rng.randint(1, 9)
        rows = _random_int_rows(rng, rng.randint(1, 10), ncols)
        ech = _IntEchelon()
        kept = [ech.add(r) for r in rows if r]
        rank, pivots = _fraction_rref(rows, ncols)
        assert ech.rank == rank == sum(kept)
        assert set(ech.pivots) == pivots
        for key, row in ech.pivots.items():
            assert key == min(row)
            assert all(type(v) is int and v for v in row.values())
            assert gcd(*row.values()) == 1
            # a stored row lies in the row space of the input
            assert _fraction_rref(rows + [row], ncols)[0] == rank
        # a fork takes new rows; the parent keeps its rows and rank
        before = {k: dict(r) for k, r in ech.pivots.items()}
        extra = _random_int_rows(rng, rng.randint(1, 4), ncols)
        fork = ech.fork()
        for r in extra:
            if r:
                fork.add(r)
        assert ech.pivots == before and ech.rank == rank
        assert (fork.rank, set(fork.pivots)) == \
            _fraction_rref(rows + extra, ncols)


def test_kernel_and_solve_fix_free_columns():
    # one kernel vector per free column, in column order: a 1 in that free
    # column, 0 in every other free column
    F = Fraction
    M = QMatrix(2, 3, [{0: 1, 1: 2, 2: 3}, {2: 1}])
    assert M.kernel_basis() == [[F(-2), F(1), F(0)]]
    wide = QMatrix(1, 4, [{0: 1, 2: 2, 3: 3}])
    assert wide.kernel_basis() == [[F(0), F(1), F(0), F(0)],
                                   [F(-2), F(0), F(1), F(0)],
                                   [F(-3), F(0), F(0), F(1)]]
    scaled = QMatrix(2, 3, [{0: 2, 1: 4, 2: 6}, {1: 3, 2: 9}])
    assert scaled.kernel_basis() == [[F(3), F(-3), F(1)]]
    assert QMatrix(2, 2, [{0: 1}, {1: 1}]).kernel_basis() == []
    # an underdetermined solve sets the free variables to 0
    assert M.solve([5, 1]) == [F(2), F(0), F(1)]
    assert QMatrix(1, 3, [{0: 2, 1: 1, 2: 1}]).solve([3]) == \
        [F(3, 2), F(0), F(0)]
    x = QMatrix(1, 3, [{1: F(1, 2), 2: 1}]).solve([1])
    assert x == [F(0), F(2), F(0)]
    for vec in M.kernel_basis() + wide.kernel_basis() + [x]:
        assert all(type(v) is Fraction for v in vec)


def test_five_by_five_determinant_agrees_with_cofactor_oracle():
    rng = random.Random(29)
    for _ in range(20):
        n = 5
        grid = [[MPoly.const(1, rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(n)]
        big = PolyMatrix(grid).det()
        # cofactor expansion along the first row for the oracle
        def cof(rows, cols):
            if len(rows) == 1:
                return grid[rows[0]][cols[0]]
            total = MPoly.zero(1)
            for pos, c in enumerate(cols):
                minor = cof(rows[1:], cols[:pos] + cols[pos + 1:])
                term = grid[rows[0]][c] * minor
                total = total + (term.scale(-1) if pos % 2 else term)
            return total
        oracle = cof(tuple(range(n)), tuple(range(n)))
        assert big == oracle


def test_determinant_multiplicative_on_numeric_matrices():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = PolyMatrix([[MPoly.const(1, rng.randint(-2, 2)) for _ in range(n)]
                        for _ in range(n)])
        B = PolyMatrix([[MPoly.const(1, rng.randint(-2, 2)) for _ in range(n)]
                        for _ in range(n)])
        assert A.mul(B).det() == A.det() * B.det()


def test_substitution_renames_and_evaluates():
    p = MPoly.var(2, 1) ** 2 + MPoly.var(2, 2)
    renamed = p.rename_vars({1: 2})
    assert renamed == MPoly.var(2, 2) ** 2 + MPoly.var(2, 2)
    # a swap renames both variables at once
    swapped = p.rename_vars({1: 2, 2: 1})
    assert swapped == MPoly.var(2, 2) ** 2 + MPoly.var(2, 1)


def test_vandermonde_determinant_identity():
    # det(x_i^(n-j)) = prod_{i<j} (x_i - x_j), above 4 x 4 too
    for n in range(2, 7):
        V = PolyMatrix([[MPoly.var(n, i) ** (n - j) for j in range(1, n + 1)]
                        for i in range(1, n + 1)])
        prod = MPoly.const(n, 1)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                prod = prod * (MPoly.var(n, i) - MPoly.var(n, j))
        assert V.det() == prod


def test_repr_and_render_pinned():
    """Coefficients 1, -1, 2 and -3, a constant term, and exponents 1 and
    above 1, in each sparse-term type and at zero."""
    p = MPoly(3, {(2, 0, 1): 1, (0, 1, 0): -1, (1, 0, 3): 2, (0, 2, 0): -3,
                  (0, 0, 0): 5})
    assert p.render() == "x1^2*x3+2*x1*x3^3-3*x2^2-x2+5"
    assert repr(p) == "MPoly(x1^2*x3+2*x1*x3^3-3*x2^2-x2+5)"
    s = SuperElement(3, {((2, 0, 0), (1, 3)): 1, ((0, 1, 0), ()): -1,
                         ((0, 0, 0), (2,)): 2, ((1, 0, 2), (1,)): -3,
                         ((0, 0, 0), ()): -4})
    assert s.render() == "2*t2+x1^2*t1*t3-3*x1*x3^2*t1-x2-4"
    assert repr(s) == "SuperElement(2*t2+x1^2*t1*t3-3*x1*x3^2*t1-x2-4)"
    z = QZPolynomial({(0, 0): 7, (1, 0): 1, (2, 1): -1, (0, 1): 2,
                      (3, 2): -3, (0, 3): 1})
    assert z.render() == "7 + q + 2*z - q^2*z - 3*q^3*z^2 + z^3"
    assert repr(z) == "QZPolynomial(7 + q + 2*z - q^2*z - 3*q^3*z^2 + z^3)"
    assert MPoly(2).render() == SuperElement(2).render() \
        == QZPolynomial().render() == "0"
    assert (repr(MPoly(2)), repr(SuperElement(2)), repr(QZPolynomial())) \
        == ("MPoly(0)", "SuperElement(0)", "QZPolynomial(0)")
