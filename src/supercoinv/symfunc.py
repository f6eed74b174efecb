"""Symmetric functions with coefficients in Z[q, z]: monomial and Schur
expansions, the Hall pairing, skewing operators, and the graded Frobenius
polynomials C_{n,k}(x; q).

``schur_poly`` is the one constructor of symmetric polynomials in a set of
variables: s_nu, and e_d = s_(1^d) and h_d = s_(d).  It and ``kostka``
share one step, ``horizontal_strips``: the cells of a semistandard tableau
holding its largest letter form a horizontal strip, which ``kostka``
peels to count tableaux by content and ``schur_poly`` peels once per
variable (the branching rule).
"""

from __future__ import annotations

from collections import Counter

from .combinatorics import (IntegrityError, QZPolynomial, conjugate,
                            descents, enumerate_omp, enumerate_syt_all,
                            horizontal_strips, kostka, omp_statistic,
                            partitions)
from .exactalg import MPoly, SparseTerms, collect


class SymFn(SparseTerms):
    """A homogeneous symmetric function of degree ``nvars``: a sparse sum
    of basis functions indexed by partitions (tuples of parts), with
    QZPolynomial coefficients.  A subclass names the basis, so a Schur and
    a monomial expansion are never equal and never added."""

    __slots__ = ()

    def __init__(self, degree, terms=None):
        super().__init__(degree, terms)
        if any(sum(lam) != degree for lam in self.terms):
            raise ValueError("index degree mismatch")

    @property
    def degree(self):
        return self.nvars

    @property
    def coeffs(self):
        """The (partition, coefficient) pairs, largest partition first."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def render(self):
        return " + ".join(f"({c.render()})*{self.basis}{list(lam)}"
                          for lam, c in self.coeffs) or "0"

    def latex(self):
        parts = []
        for lam, c in self.coeffs:
            idx = "".join(str(p) if p < 10 else f"({p})" for p in lam)
            parts.append(f"\\left({_qz_latex(c)}\\right)"
                         f" {self.basis}_{{{idx}}}")
        return " + ".join(parts) or "0"


class Schur(SymFn):
    """A symmetric function in the Schur basis."""

    __slots__ = ()

    basis = "s"


class Monomial(SymFn):
    """A symmetric function in the monomial basis."""

    __slots__ = ()

    basis = "m"


def _qz_latex(c):
    """A QZPolynomial in LaTeX: the terms of ``QZPolynomial.render``, in
    its order, with q^{k} and z^{k} factors written side by side."""
    def factors(k):
        return [f"{name}^{{{e}}}" if e > 1 else name
                for name, e in zip("qz", k) if e]
    keys = sorted(c.terms, key=lambda k: (k[1], k[0]))
    return c.format_terms(((c.terms[k], factors(k)) for k in keys),
                          plus=" + ", times="")


def kostka_matrix(n):
    """The partitions of n and K[lam][mu] = kostka(lam, mu) over them."""
    parts = partitions(n)
    return parts, {lam: {mu: kostka(lam, mu) for mu in parts}
                   for lam in parts}


def to_basis(f, basis):
    """Convert a SymFn to another basis: the identity, or Schur to monomial
    by the Kostka numbers; any other pair raises ValueError."""
    if f.basis == basis:
        return f
    if (f.basis, basis) != ("s", "m"):
        raise ValueError(f"no change from basis {f.basis!r} to {basis!r}")
    parts, K = kostka_matrix(f.degree)
    return Monomial(f.degree, collect(
        (mu, c.scale(K[lam][mu])) for lam, c in f.terms.items()
        for mu in parts if K[lam][mu]))


def hall(f, g):
    """The Hall inner product <f, g>, a QZPolynomial.  Schur functions are
    orthonormal."""
    if f.degree != g.degree:
        return QZPolynomial.zero()
    fs = to_basis(f, "s").terms
    gs = to_basis(g, "s").terms
    total = QZPolynomial.zero()
    for lam, c in fs.items():
        d = gs.get(lam)
        if d is not None:
            total = total + c * d
    return total


def e_perp(mu, f):
    """Skew by e_mu, for mu a tuple of parts: the Hall adjoint of
    multiplication by e_mu.  Each e_d sends s_lam to the sum of s_nu over
    the vertical strips lam/nu of size d, which are the horizontal strips
    lam'/nu' of the conjugates."""
    g = to_basis(f, "s")
    for d in mu:
        g = Schur(g.degree - d, collect(
            (conjugate(conj), c) for lam, c in g.terms.items()
            for conj in horizontal_strips(conjugate(lam), d)))
    return g


def e1_perp(f):
    """Remove a single box from every Schur index."""
    return e_perp((1,), f)


def schur_poly(nu, nvars, variables=None):
    """The Schur polynomial s_nu in the given 1-indexed ``variables``
    (default all nvars); nu is a tuple of parts, zero parts ignored.  A
    column (1,) * d gives e_d and a row (d,) gives h_d; () gives 1, and a
    shape with more rows than variables gives 0.

    By the branching rule (Macdonald I (5.11)), s_lam(x_1..x_m) sums
    x_m^|lam/rho| s_rho(x_1..x_{m-1}) over the horizontal strips lam/rho,
    so the variables are taken last to first, each peeling a strip from
    every shape still to fill; a shape with more rows than variables left
    is dropped.
    """
    vs = sorted(variables) if variables is not None else range(1, nvars + 1)
    # shape still to fill -> the terms of the variables already taken
    states = {tuple(p for p in nu if p): {(0,) * nvars: 1}}
    for left, v in reversed(list(enumerate(vs))):
        peeled = {}
        for shape, terms in states.items():
            for a in range(shape[0] + 1 if shape else 1):
                for rho in horizontal_strips(shape, a):
                    if len(rho) <= left:
                        collect(((e[:v - 1] + (a,) + e[v:], c)
                                 for e, c in terms.items()),
                                peeled.setdefault(rho, {}))
        states = peeled
    return MPoly(nvars, states.get((), {}))


def cnk_syt(n, k):
    """The graded Frobenius polynomial C_{n,k}(x; q) from standard tableaux:
    sum over SYT with n boxes of
    q^(maj(T) + binom(n-k, 2) - (n-k) des(T)) [des(T) choose n-k]_q s_shape(T).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    r = n - k
    shift = r * (r - 1) // 2
    binoms = [QZPolynomial.q_binomial(des, r) for des in range(n)]

    def terms():
        for t in enumerate_syt_all(n):
            ds = descents(t)
            des = len(ds)
            binom = binoms[des]
            if not binom:
                continue
            exp = sum(ds) + shift - r * des
            if exp < 0:
                raise IntegrityError("negative q-exponent in tableau formula")
            yield tuple(map(len, t)), QZPolynomial.monomial(exp, 0) * binom

    return Schur(n, collect(terms()))


def cnk_omp(n, k, stat="minimaj"):
    """C_{n,k}(x; q) from ordered multiset partitions, weighted by q to the
    chosen statistic; returned in the monomial basis.

    The coefficient of m_mu sums over the k-block multiset partitions of
    content mu, so only those are enumerated.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    out = {}
    for mu in partitions(n):
        # a count of multiset partitions by statistic value, never 0
        counts = Counter(omp_statistic(m, stat) for m in enumerate_omp(mu, k))
        out[mu] = QZPolynomial({(v, 0): c for v, c in counts.items()})
    return Monomial(n, out)
