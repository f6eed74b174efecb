"""Determinantal operators on superspace built from translation sequences.

Every polynomial here lives in the n x-variables of superspace.  The
factor matrix is written with one row per row variable: x_j for j in J in
the determinant of a translation sequence, x_1..x_n in the check of its
factorization.  The mu-intervals of {1..n} come from ``mu_blocks`` and
the symmetric polynomials on them from ``schur_poly``.
"""

from __future__ import annotations

from itertools import combinations

from .combinatorics import (block_parameters, enumerate_signed_artin,
                            j_of_signed, mu_blocks, staircase)
from .exactalg import MPoly, PolyMatrix
from .superspace import SuperElement, euler_chain, odot, star_set
from .coinvariant import steinberg_independence, VerificationFailure
from .symfunc import schur_poly


def power_matrix(n, rows):
    """The #rows x n matrix with (i, j) entry x_(rows_i)^(n - j + 1)."""
    return PolyMatrix([[MPoly.var(n, v) ** (n - j + 1)
                        for j in range(1, n + 1)] for v in rows])


def factor_matrix(mu, rows):
    """The #rows x n factor matrix, one row per row variable x_v: the entry
    in column j of the block ending at position B is x_v^(B - j + 1) times
    prod_{m > B} (x_v - x_m)."""
    n = sum(mu)
    grid = []
    for v in rows:
        row = []
        xv = MPoly.var(n, v)
        for block in mu_blocks(mu):
            B = block[-1]
            tail = MPoly.const(n, 1)
            for m in range(B + 1, n + 1):
                tail = tail * (xv - MPoly.var(n, m))
            row += [xv ** (B - j + 1) * tail for j in block]
        grid.append(row)
    return PolyMatrix(grid)


def reduction_matrix(mu):
    """The lower unitriangular column-operation matrix C(mu): in the column
    of a block with terminal variables x_{B+1}..x_n, the entry l steps below
    the diagonal is (-1)^l e_l of those terminal variables."""
    n = sum(mu)
    zero = MPoly.zero(n)
    grid = [[zero for _ in range(n)] for _ in range(n)]
    for block in mu_blocks(mu):
        terminal = range(block[-1] + 1, n + 1)
        es = [schur_poly((1,) * l, n, terminal).scale((-1) ** l)
              for l in range(len(terminal) + 1)]
        for j in block:
            for l, e in enumerate(es):
                grid[j - 1 + l][j - 1] = e
    return PolyMatrix(grid)


def verify_factorization(mu):
    """Certify the factor matrix identity F = P * C(mu) on the rows
    x_1..x_n.  For a row variable y, both sides of column j are
    polynomials in y of degree <= n with a factor y, so agreeing at the n
    distinct values y = x_1..x_n proves the identity in y."""
    n = sum(mu)
    rows = range(1, n + 1)
    F = factor_matrix(mu, rows)
    PC = power_matrix(n, rows).mul(reduction_matrix(mu))
    for i in range(n):
        for j in range(n):
            if F.grid[i][j] != PC.grid[i][j]:
                raise VerificationFailure(
                    f"factor matrix identity fails at entry ({i+1},{j+1})"
                    f" for mu={tuple(mu)}")
    return True


def _memoized(memo, key, compute):
    """compute(), kept under ``key`` in the caller's dict ``memo`` (if
    given) and reused from there."""
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def verify_block_symmetry(mu):
    """Check every entry of C(mu) is symmetric within each mu-interval of
    the x-alphabet (adjacent transpositions suffice).  Polynomials
    symmetric within the blocks form a ring, and C(mu)^(-1) = I + N + ...
    + N^(n-1) for N = I - C(mu), so the entries of C(mu)^(-1), and every
    minor of C(mu) that ``apply_D`` takes, are block symmetric too."""
    swaps = [i for block in mu_blocks(mu) for i in block[:-1]]
    for r, row in enumerate(reduction_matrix(mu).grid, 1):
        for c, p in enumerate(row, 1):
            for i in swaps:
                if p.rename_vars({i: i + 1, i + 1: i}) != p:
                    raise VerificationFailure(
                        f"C(mu) entry ({r},{c}) not invariant under swapping"
                        f" x{i} and x{i+1} for mu={tuple(mu)}")
    return True


def ptj_determinant(tt, J):
    """The determinant of the factor matrix on the rows x_j, j in J, stacked
    over the 0/1 selector of the columns not in T; defined up to sign.

    Expanding along the unit rows of the selector reduces the n x n
    determinant to the #T x #T minor of the factor rows on the columns
    of T.
    """
    T = tt.union_set()
    r = len(T)
    if len(J.elems) != r:
        raise ValueError("J must have the same size as T")
    if r == 0:
        # the stacked matrix degenerates to the unit rows, so the
        # determinant is a unit
        return MPoly.const(sum(tt.mu), 1)
    return factor_matrix(tt.mu, J.elems).minor(range(r), [t - 1 for t in T])


def nu_of_translation_set(block, T_j):
    """The partition nu(T_j), zero parts included, recording how far T_j
    sits from the top of its mu-interval ``block``."""
    B = block[-1]
    g = len(T_j)
    ts = sorted(T_j)
    return tuple(B - g + (r + 1) - ts[r] for r in range(g))


def weight(tt):
    """The weight s(T): the product over blocks of Schur polynomials
    s_{nu(T_j)} in the top gamma_j variables of the block."""
    n = sum(tt.mu)
    total = MPoly.const(n, 1)
    for block, T_j in zip(mu_blocks(tt.mu), tt.sets):
        g = len(T_j)
        if g == 0:
            continue
        total = total * schur_poly(nu_of_translation_set(block, T_j), n,
                                   block[-g:])
    return total


def apply_D(tt, f, memo=None):
    """The determinantal operator attached to a translation sequence,
    applied to a superspace element:

        (-1)^(sum([n] - T)) sum over #K = #T of det C(mu)[K, T] (.) d_{K*}(f)

    This is sum over #I = n - #T of (-1)^(sum I) Delta_I(H) (.)
    d_{([n]-I)*}(f), with Delta_I the maximal minor on columns I of the
    rows H = E C(mu)^(-1) not in T: det C(mu) = 1, so Jacobi's
    complementary minor theorem gives Delta_I(H) = (-1)^(sum([n] - T) +
    sum I) det C(mu)[[n] - I, T].  C(mu) is lower triangular, so the minor
    on the rows K = [n] - I vanishes unless K lies above T in Gale order,
    and only those K are taken.  A caller applying many operators to one
    f passes the same ``memo`` dict to each call, so each C(mu) and each
    d_K(f) is computed once; a memo must not be shared between different
    f.
    """
    mu = tt.mu
    n = sum(mu)
    T = tt.union_set()
    C = _memoized(memo, ("reduction", mu), lambda: reduction_matrix(mu))
    cols = [t - 1 for t in T]
    total = SuperElement.zero(n)
    for K in combinations(range(1, n + 1), len(T)):
        if any(k < t for k, t in zip(K, T)):
            continue
        minor = (C.minor([k - 1 for k in K], cols) if T
                 else MPoly.const(n, 1))
        if minor.is_zero():
            continue
        K_star = star_set(K, n)
        img = _memoized(memo, ("chain", K_star),
                        lambda: euler_chain(K_star, f))
        if not img.is_zero():
            total = total + odot(SuperElement.from_mpoly(minor), img)
    return total.scale(-1) if (n * (n + 1) // 2 - sum(T)) % 2 else total


def enumerate_L(m, k, t):
    """Label pairs (lambda, nu) of the spanning set for one block: nu inside
    a k x (m-k) box, lambda inside an m-wide box of height t (one less when
    nu is full width)."""
    if k > m:
        raise ValueError("need k <= m")
    # chi is t, or t - 1 for a full-width nu: two lambda lists serve every nu
    lams = {chi: _partitions_in_box(m, chi) for chi in (t, t - 1) if chi >= 0}
    out = []
    for nu in _partitions_in_box(m - k, k):
        nu_top = nu[0] if nu else 0
        chi = t if nu_top < m - k else t - 1
        for lam in lams.get(chi, ()):
            out.append((lam, nu))
    return out


def _partitions_in_box(width, height):
    """Partitions with at most ``height`` parts, each at most ``width``."""
    out = []
    def rec(remaining_rows, max_part, acc):
        out.append(tuple(acc))
        if remaining_rows == 0:
            return
        for p in range(min(max_part, width), 0, -1):
            acc.append(p)
            rec(remaining_rows - 1, p, acc)
            acc.pop()
    rec(height, width, [])
    return out


def l_polynomials(block, k, t, n):
    """The spanning polynomials for one block, a range of m of the n
    variables: e_lambda over the whole block times s_nu in the last k
    block variables."""
    m = len(block)
    labels = enumerate_L(m, k, t)
    es = {d: schur_poly((1,) * d, n, block)
          for d in {part for lam, _ in labels for part in lam}}
    out = []
    for lam, nu in labels:
        p = MPoly.const(n, 1)
        for part in lam:
            p = p * es[part]
        if nu:
            p = p * schur_poly(nu, n, block[m - k:])
        out.append(p)
    return out


def build_E_set(sp):
    """Products of block spanning polynomials: one factor per mu-interval,
    drawn from the shifted L-set with the staircase height of the previous
    blocks."""
    n = sum(sp.mu)
    factors = [l_polynomials(block, g, t, n) for block, (_, g, t)
               in zip(mu_blocks(sp.mu), block_parameters(sp))]
    out = [MPoly.const(n, 1)]
    for fs in factors:
        out = [p * f for p in out for f in fs]
    return out


def verify_E_set(*sps):
    """Check the spanning products of each given signed partition: every
    monomial fits under the substaircase of J(mu, gamma), the products stay
    independent modulo the colon ideal, and there are as many as signed
    substaircase monomials.  Signed partitions with the same J(mu, gamma)
    share one set of catalecticants."""
    by_J = {}
    for sp in sps:
        by_J.setdefault(j_of_signed(sp), []).append(sp)
    for J, group in by_J.items():
        st = staircase(J)
        poly_sets = [build_E_set(sp) for sp in group]
        for sp, polys in zip(group, poly_sets):
            for p in polys:
                for exp in p.terms:
                    if not all(a < s for a, s in zip(exp, st)):
                        raise VerificationFailure(
                            f"monomial {exp} escapes the staircase {st}"
                            f" for (mu, gamma) = ({sp.mu}, {sp.gamma})")
        ranks = steinberg_independence(poly_sets, J)
        for sp, polys, rank in zip(group, poly_sets, ranks):
            if rank != len(polys):
                raise VerificationFailure(
                    f"spanning set dependent modulo the colon ideal:"
                    f" rank {rank} of {len(polys)} for (mu, gamma) ="
                    f" ({sp.mu}, {sp.gamma})")
            if len(polys) != len(enumerate_signed_artin(sp)):
                raise VerificationFailure(
                    "spanning set size does not match the signed"
                    " substaircase count")
    return True
