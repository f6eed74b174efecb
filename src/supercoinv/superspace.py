"""The superspace ring: polynomials in commuting variables x_1..x_n tensored
with an exterior algebra on theta_1..theta_n.

Monomials are stored canonically as (exponent tuple, increasing theta tuple);
products pick up the sign of sorting the theta factors.  The superderivative
action f (.) g substitutes x_i -> d/dx_i and theta_i -> the contraction
d/dtheta_i, applied rightmost factor first.  In closed form, theta_S (.)
theta_T is theta_(T - S) with sign (-1)^#{(s, t) : s in S, t in T, t < s}
when S is a subset of T, and zero otherwise; contraction by theta_i is
odot with theta_i, and the Euler derivatives d_j put theta_i in front with
sign (-1)^#{t in T : t < i}.
"""

from __future__ import annotations

from bisect import bisect_left
from math import perm
from operator import add, sub

from .exactalg import MPoly, SparseTerms, collect
from .combinatorics import mu_blocks
from .symfunc import schur_poly


def _sort_sign(seq):
    """(sorted tuple, sign) for a sequence of distinct integers; sign 0 if repeats."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return tuple(seq), 0
    return tuple(seq), sign


def _merge_thetas(t1, t2):
    """Concatenate two canonical theta tuples; returns (tuple, sign)."""
    if not t1:
        return t2, 1
    if not t2:
        return t1, 1
    return _sort_sign(t1 + t2)


class SuperElement(SparseTerms):
    """An element of superspace: dict from (exps, thetas) to coefficients,
    kept as given (integers on every verification path)."""

    __slots__ = ()

    @staticmethod
    def _key(key):
        exps, thetas = key
        return tuple(exps), tuple(thetas)

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def from_mpoly(cls, p):
        return cls(p.nvars, {(e, ()): c for e, c in p.terms.items()})

    @classmethod
    def monomial(cls, nvars, exps, thetas=(), c=1):
        thetas, sign = _sort_sign(thetas)
        return cls(nvars, {(tuple(exps), thetas): c * sign})

    @classmethod
    def theta(cls, nvars, i):
        return cls(nvars, {((0,) * nvars, (i,)): 1})

    def __mul__(self, other):
        if not isinstance(other, SuperElement):
            return self.scale(other)
        def products():
            for (e1, t1), c1 in self.terms.items():
                for (e2, t2), c2 in other.terms.items():
                    thetas, sign = _merge_thetas(t1, t2)
                    if sign:
                        yield (tuple(map(add, e1, e2)), thetas), sign * c1 * c2

        return self._like(collect(products()))

    __rmul__ = __mul__

    def bidegrees(self):
        return {(sum(e), len(t)) for (e, t) in self.terms}

    def bosonic_part(self):
        """The fermionic-degree-zero part, as an MPoly."""
        return MPoly(self.nvars,
                     {e: c for (e, t), c in self.terms.items() if not t})

    def as_mpoly(self):
        if any(t for (_, t) in self.terms):
            raise ValueError("element has theta terms")
        return self.bosonic_part()

    def theta_coefficient(self, thetas):
        """The MPoly coefficient of the canonical theta monomial."""
        thetas = tuple(sorted(thetas))
        return MPoly(self.nvars,
                     {e: c for (e, t), c in self.terms.items() if t == thetas})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]),
                      reverse=True)

    def render(self):
        return self.format_terms(
            (c, self.powers(exp) + [f"t{t}" for t in thetas])
            for (exp, thetas), c in self.sorted_terms())

    def to_json(self):
        return {
            "nvars": self.nvars,
            "terms": [[list(e), list(t), str(c)]
                      for (e, t), c in self.sorted_terms()],
        }


def act(w, f):
    """Diagonal action of a permutation: x_i -> x_{w(i)}, theta_i -> theta_{w(i)}.

    ``w`` is a tuple with w[i-1] = w(i).
    """
    def images():
        for (exp, thetas), c in f.terms.items():
            new_exp = [0] * f.nvars
            for i, a in enumerate(exp):
                new_exp[w[i] - 1] = a
            new_t, sign = _sort_sign(tuple(w[t - 1] for t in thetas))
            yield (tuple(new_exp), new_t), sign * c

    return f._like(collect(images()))


def partial_x(i, f):
    """d/dx_i acting on a superspace element."""
    idx = i - 1
    return f._like(collect(
        ((exp[:idx] + (exp[idx] - 1,) + exp[idx + 1:], thetas), c * exp[idx])
        for (exp, thetas), c in f.terms.items() if exp[idx]))


def odot(f, g):
    """The superderivative action f (.) g: substitute x_i -> d/dx_i and
    theta_i -> the contraction d/dtheta_i, reading each canonical monomial
    of f as a composition with the rightmost factor applied first.

    x^a theta_S (.) x^b theta_T is zero unless S is a subset of T and
    a <= b; otherwise it is prod_i perm(b_i, a_i) x^(b - a) theta_(T - S)
    with sign (-1)^#{(s, t) : s in S, t in T, t < s}.  Contracting the
    largest s first leaves every smaller index in place, so each s passes
    exactly the t < s."""
    if f.nvars != g.nvars:
        raise ValueError("mismatched variable counts")
    by_theta = {}
    for (b, T), d in g.terms.items():
        by_theta.setdefault(T, []).append((b, d))
    groups = [(T, frozenset(T), terms) for T, terms in by_theta.items()]

    def images():
        for (a, S), c in f.terms.items():
            support = [(i, ai) for i, ai in enumerate(a) if ai]
            for T, T_set, terms in groups:
                if not T_set.issuperset(S):
                    continue
                # T is increasing, so bisect_left(T, s) = #{t in T : t < s}
                sc = -c if S and sum(bisect_left(T, s) for s in S) % 2 else c
                rest = tuple(t for t in T if t not in S) if S else T
                for b, d in terms:
                    coeff = sc * d
                    for i, ai in support:
                        if b[i] < ai:
                            break
                        coeff *= perm(b[i], ai)
                    else:
                        yield (tuple(map(sub, b, a)), rest), coeff

    return f._like(collect(images()))


def euler_d(j, f):
    """The higher Euler derivative d_j: sum_i theta_i (d/dx_i)^j, with the
    theta factor multiplied on the left.  A term x^b theta_T with i not in T
    and b_i >= j gives perm(b_i, j) x^(b - j e_i) theta_(T + i), with sign
    (-1)^#{t in T : t < i}."""
    def images():
        for i in range(1, f.nvars + 1):
            idx = i - 1
            for (b, T), c in f.terms.items():
                bi = b[idx]
                if bi < j or i in T:
                    continue
                k = bisect_left(T, i)
                key = (b[:idx] + (bi - j,) + b[idx + 1:], T[:k] + (i,) + T[k:])
                yield key, (-c if k % 2 else c) * perm(bi, j)

    return f._like(collect(images()))


def euler_chain(K, f):
    """Compose d_k over k in K, smallest index applied first, so the
    operator with the largest index sits leftmost in the composition."""
    for k in sorted(K):
        f = euler_d(k, f)
    return f


def star_set(K, n):
    """K* = {n - k + 1 : k in K}."""
    return tuple(sorted(n - k + 1 for k in K))


def antisymmetrize(mu, f):
    """Apply eps_mu = sum over the Young subgroup S_mu of sign(w) w, without
    the group: each w in Sym{b..k} is u or (i k) u with u fixing k, i = w(k)
    < k and sign((i k) u) = -sign(u), so eps_{b..k} = (1 - sum_{i<k} (i k))
    eps_{b..k-1}, and the factors of different mu-blocks commute."""
    ident = tuple(range(1, f.nvars + 1))
    for block in mu_blocks(mu):
        for k in block[1:]:
            swaps = (ident[:i - 1] + (k,) + ident[i:k - 1] + (i,) + ident[k:]
                     for i in range(block[0], k))
            f = f._like(collect(((key, -c) for w in swaps
                                 for key, c in act(w, f).terms.items()),
                                dict(f.terms)))
    return f


def is_antisymmetric(mu, f):
    """True if w f = sign(w) f for every w in the Young subgroup S_mu, that
    is eps_mu f = |S_mu| f.  The adjacent transpositions inside the
    mu-blocks generate S_mu, so each only has to negate f."""
    minus_f = f.scale(-1)
    ident = tuple(range(1, f.nvars + 1))
    return all(act(ident[:i - 1] + (i + 1, i) + ident[i + 1:], f) == minus_f
               for block in mu_blocks(mu) for i in block[:-1])


def vandermonde(n):
    """The Vandermonde determinant prod_{i<j} (x_i - x_j), as a SuperElement."""
    p = MPoly.const(n, 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = p * (MPoly.var(n, i) - MPoly.var(n, j))
    return SuperElement.from_mpoly(p)


def f_J(j_subset):
    """The ideal shift polynomial: prod over j in J of x_j prod_{i>j} (x_j - x_i)."""
    n = j_subset.n
    p = MPoly.const(n, 1)
    for j in j_subset.elems:
        p = p * MPoly.var(n, j)
        for i in range(j + 1, n + 1):
            p = p * (MPoly.var(n, j) - MPoly.var(n, i))
    return SuperElement.from_mpoly(p)


def coinvariant_generators(n, superspace=True):
    """Generators of the coinvariant ideal: e_1..e_n and, in superspace,
    their Euler derivatives de_1..de_n."""
    es = [SuperElement.from_mpoly(schur_poly((1,) * d, n))
          for d in range(1, n + 1)]
    return es + [euler_d(1, e) for e in es] if superspace else es


def power_sum_generators(n):
    """The power sums p_k = x_1^k + ... + x_n^k for k = 1..n and their
    Euler derivatives dp_k, n terms each.  Over Q they generate the same
    ideal as ``coinvariant_generators(n)`` (Newton's identities, and
    d F(p) = sum_k (dF/dp_k) dp_k), so an element is harmonic for one set
    exactly when it is for the other."""
    powers = [SuperElement(n, {(tuple(k if i == v else 0 for i in range(n)),
                                ()): 1 for v in range(n)})
              for k in range(1, n + 1)]
    return powers + [euler_d(1, p) for p in powers]
