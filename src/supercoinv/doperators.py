"""Determinantal operators on superspace built from translation sequences.

The construction works with two alphabets: the x-variables of superspace and
an auxiliary alphabet y used for matrix entries.  Polynomials here live in
2n variables, with x_i as variable i and y_i as variable n + i; results are
projected back down to the x-alphabet before they touch superspace.
"""

from __future__ import annotations

from itertools import accumulate, combinations

from .combinatorics import (block_parameters, enumerate_signed_artin,
                            j_of_signed, sequence_bound, staircase)
from .exactalg import MPoly, PolyMatrix
from .superspace import SuperElement, euler_chain, odot, star_set
from .coinvariant import steinberg_independence, VerificationFailure
from .symfunc import schur_poly


def _x(n, i):
    return MPoly.var(2 * n, i)


def _y(n, i):
    return MPoly.var(2 * n, n + i)


def drop_y(p, n):
    """Project a 2n-variable polynomial without y-support to n variables."""
    out = {}
    for exp, c in p.terms.items():
        if any(exp[n:]):
            raise ValueError("polynomial still involves the y-alphabet")
        out[exp[:n]] = c
    return MPoly(n, out)


def power_matrix(n, r):
    """The r x n matrix with (i, j) entry y_i^(n - j + 1)."""
    return PolyMatrix([[_y(n, i) ** (n - j + 1) for j in range(1, n + 1)]
                       for i in range(1, r + 1)])


def factor_matrix(n, mu, r):
    """The r x n factor matrix: the entry in column j of the block ending at
    position B is y_i^(B - j + 1) times prod_{m > B} (y_i - x_m)."""
    ends = list(accumulate(mu))
    grid = []
    for i in range(1, r + 1):
        row = []
        yi = _y(n, i)
        for j in range(1, n + 1):
            B = next(b for b in ends if j <= b)
            entry = yi ** (B - j + 1)
            for m in range(B + 1, n + 1):
                entry = entry * (yi - _x(n, m))
            row.append(entry)
        grid.append(row)
    return PolyMatrix(grid)


def reduction_matrix(n, mu):
    """The lower unitriangular column-operation matrix C(mu): in the column
    of a block with terminal variables x_{B+1}..x_n, the entry l steps below
    the diagonal is (-1)^l e_l of those terminal variables."""
    ends = list(accumulate(mu))
    zero = MPoly.zero(2 * n)
    grid = [[zero for _ in range(n)] for _ in range(n)]
    for j in range(1, n + 1):
        B = next(b for b in ends if j <= b)
        for l in range(0, n - j + 1):
            e = MPoly.elementary(2 * n, l, range(B + 1, n + 1))
            if e.is_zero():
                continue
            grid[j - 1 + l][j - 1] = e.scale(-1) if l % 2 else e
    return PolyMatrix(grid)


def verify_factorization(n, mu, r):
    """Certify the identity F_r = P_r * C(mu)."""
    F = factor_matrix(n, mu, r)
    PC = power_matrix(n, r).mul(reduction_matrix(n, mu))
    for i in range(r):
        for j in range(n):
            if F.grid[i][j] != PC.grid[i][j]:
                raise VerificationFailure(
                    f"factor matrix identity fails at entry ({i+1},{j+1})"
                    f" for mu={tuple(mu)}")
    return True


def cmu_inverse(n, mu):
    """Inverse of the reduction matrix, by forward substitution; again
    lower unitriangular with polynomial entries."""
    C = reduction_matrix(n, mu)
    one = MPoly.const(2 * n, 1)
    zero = MPoly.zero(2 * n)
    inv = [[zero for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(j, n):
            if i == j:
                inv[i][j] = one
                continue
            acc = zero
            for k in range(j, i):
                if not C.grid[i][k].is_zero() and not inv[k][j].is_zero():
                    acc = acc + C.grid[i][k] * inv[k][j]
            inv[i][j] = acc.scale(-1)
    return PolyMatrix(inv)


def echelon_selector(n, T):
    """The (n - #T) x n 0/1 matrix with unit rows in the columns not in T."""
    rest = [j for j in range(1, n + 1) if j not in set(T)]
    one = MPoly.const(2 * n, 1)
    zero = MPoly.zero(2 * n)
    return PolyMatrix([[one if j == c else zero for j in range(1, n + 1)]
                       for c in rest])


def _memoized(memo, key, compute):
    """compute(), kept under ``key`` in the caller's dict ``memo`` (if
    given) and reused from there."""
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def h_matrix(mu, T, memo=None):
    """H = E * C(mu)^(-1), an (n - #T) x n matrix of symmetric polynomials
    in the x-alphabet: the 0/1 selector E keeps the rows of C(mu)^(-1)
    not in T.  A ``memo`` dict keeps C(mu)^(-1) for later calls."""
    n = sum(mu)
    inv = _memoized(memo, ("inverse", mu), lambda: cmu_inverse(n, mu)).grid
    return PolyMatrix([inv[c - 1] for c in range(1, n + 1) if c not in T])


def verify_h_invariance(mu, T, memo=None):
    """Check every entry of H = E * C(mu)^(-1) is symmetric within each
    mu-interval of the x-alphabet (adjacent transpositions suffice)."""
    n = sum(mu)
    if len(T) == n:
        return True
    H = h_matrix(mu, T, memo)
    ends = list(accumulate(mu))
    starts = [1] + [b + 1 for b in ends[:-1]]
    for row in H.grid:
        for p in row:
            for s, b in zip(starts, ends):
                for i in range(s, b):
                    swapped = p.rename_vars({i: i + 1, i + 1: i})
                    if swapped != p:
                        raise VerificationFailure(
                            f"H entry not invariant under swapping x{i}"
                            f" and x{i+1} for mu={tuple(mu)}, T={tuple(T)}")
    return True


def _substituted_factor(mu, r, J):
    """F_r with y_1..y_r replaced by x_j for j in J, in increasing order."""
    n = sum(mu)
    mapping = {n + i: j for i, j in enumerate(sorted(J), start=1)}
    return PolyMatrix([[p.rename_vars(mapping) for p in row]
                       for row in factor_matrix(n, mu, r).grid])


def ptj_determinant(mu, tt, J, full_stack=False):
    """The determinant of the augmented factor matrix with the y-alphabet
    replaced by x_J; defined up to sign.

    The default route expands along the unit rows of the selector block,
    which reduces the n x n determinant to the #T x #T minor of the factor
    block on the columns of T.  ``full_stack=True`` evaluates the full
    n x n determinant instead (cross-checked in tests).
    """
    n = sum(mu)
    T = tt.union_set()
    r = len(T)
    elems = J.elems
    if len(elems) != r:
        raise ValueError("J must have the same size as T")
    if r == 0:
        # the stacked matrix degenerates to the unit rows, so the
        # determinant is a unit
        return MPoly.const(n, 1)
    Fsub = _substituted_factor(mu, r, elems)
    if full_stack:
        E = echelon_selector(n, T)
        grid = [list(row) for row in Fsub.grid] + [list(row) for row in E.grid]
        det = PolyMatrix(grid).det()
    else:
        det = Fsub.minor(range(r), [t - 1 for t in T])
    return drop_y(det, n)


def _shift_poly(p, offset, n):
    """Move a polynomial in local variables 1..m to variables offset+1..offset+m."""
    out = {}
    for exp, c in p.terms.items():
        new = [0] * n
        for pos, a in enumerate(exp):
            new[offset + pos] = a
        out[tuple(new)] = c
    return MPoly(n, out)


def nu_of_translation_set(mu, j, T_j):
    """The partition nu(T_j) recording how far T_j sits from the top of its
    mu-interval."""
    ends = list(accumulate(mu))
    B = ends[j]
    g = len(T_j)
    ts = sorted(T_j)
    parts = [B - g + (r + 1) - ts[r] for r in range(g)]
    return tuple(parts)


def weight(tt):
    """The weight s(T): the product over blocks of Schur polynomials
    s_{nu(T_j)} in the top gamma_j variables of the block."""
    mu = tt.mu
    n = sum(mu)
    ends = list(accumulate(mu))
    total = MPoly.const(n, 1)
    for j, T_j in enumerate(tt.sets):
        g = len(T_j)
        if g == 0:
            continue
        nu = tuple(p for p in nu_of_translation_set(mu, j, T_j) if p > 0)
        local = schur_poly(nu, g)
        total = total * _shift_poly(local, ends[j] - g, n)
    return total


def apply_D(tt, f, memo=None):
    """The determinantal operator attached to a translation sequence,
    applied to a superspace element:

        sum over #I = n - r of (-1)^(sum I) Delta_I(H) (.) d_{([n]-I)*}(f)

    where H = E C(mu)^(-1) and Delta_I is the maximal minor on columns I.
    A caller applying many operators to one f passes the same ``memo``
    dict to each call (and to ``verify_h_invariance``), so each
    C(mu)^(-1) and each d_K(f) is computed once; a memo must not be
    shared between different f.
    """
    mu = tt.mu
    n = sum(mu)
    T = tt.union_set()
    r = len(T)
    H = h_matrix(mu, T, memo) if r < n else None
    total = SuperElement.zero(n)
    for I in combinations(range(1, n + 1), n - r):
        minor = H.minor(range(n - r), [i - 1 for i in I]) if n - r else None
        if n - r == 0:
            minor_x = MPoly.const(n, 1)
        else:
            minor_x = drop_y(minor, n)
        if minor_x.is_zero():
            continue
        K = star_set([k for k in range(1, n + 1) if k not in set(I)], n)
        img = _memoized(memo, ("chain", K), lambda: euler_chain(K, f))
        if img.is_zero():
            continue
        term = odot(SuperElement.from_mpoly(minor_x), img)
        sign = -1 if sum(I) % 2 else 1
        total = total + term.scale(sign)
    return total


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


def l_polynomials(m, k, t, n=None, offset=0):
    """The spanning polynomials for one block, embedded into n variables at
    the given offset: e_lambda over the whole block times s_nu in the last
    k block variables."""
    if n is None:
        n = m
    out = []
    for lam, nu in enumerate_L(m, k, t):
        p = MPoly.const(n, 1)
        for part in lam:
            p = p * MPoly.elementary(n, part, range(offset + 1, offset + m + 1))
        if nu:
            local = schur_poly(nu, k)
            p = p * _shift_poly(local, offset + m - k, n)
        out.append(p)
    return out


def build_E_set(sp):
    """Products of block spanning polynomials: one factor per mu-interval,
    drawn from the shifted L-set with the staircase height of the previous
    blocks."""
    n = sum(sp.mu)
    factors = []
    offset = 0
    for m, g, t in block_parameters(sp):
        factors.append(l_polynomials(m, g, t, n=n, offset=offset))
        offset += m
    out = [MPoly.const(n, 1)]
    for fs in factors:
        out = [p * f for p in out for f in fs]
    return out


def verify_L_monomial_bound(m, k, t):
    """Check the entrywise exponent bound for one block's spanning set."""
    bound = sequence_bound(m, k, t)
    for p in l_polynomials(m, k, t):
        for exp in p.terms:
            if not all(a <= b for a, b in zip(exp, bound)):
                raise VerificationFailure(
                    f"monomial {exp} violates the bound {bound}"
                    f" for (m, k, t) = ({m}, {k}, {t})")
    return True


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
