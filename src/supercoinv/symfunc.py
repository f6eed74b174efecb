"""Symmetric functions with coefficients in Z[q, z]: monomial and Schur
expansions, the Hall pairing, skewing operators, and the graded Frobenius
polynomials C_{n,k}(x; q).
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import (Partition, QZPolynomial, enumerate_omp,
                            enumerate_ssyt, enumerate_syt_all,
                            horizontal_strips, kostka, omp_statistic,
                            partitions)
from .exactalg import MPoly


BASES = ("m", "s")


@dataclass(frozen=True)
class SymFn:
    """A homogeneous symmetric function of a fixed degree, expanded in a
    named basis with QZPolynomial coefficients."""

    degree: int
    basis: str
    coeffs: tuple  # sorted tuple of (Partition, QZPolynomial)

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        clean = tuple(sorted(((lam, c) for lam, c in dict(self.coeffs).items()
                              if not c.is_zero()),
                             key=lambda kv: kv[0].parts, reverse=True))
        for lam, _ in clean:
            if lam.size() != self.degree:
                raise ValueError("index degree mismatch")
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def build(cls, degree, basis, mapping):
        return cls(degree, basis, tuple(mapping.items()))

    def as_dict(self):
        return dict(self.coeffs)

    def coefficient(self, lam):
        return self.as_dict().get(lam, QZPolynomial.zero())

    def is_zero(self):
        return not self.coeffs

    def add(self, other):
        if self.basis != other.basis or self.degree != other.degree:
            raise ValueError("basis/degree mismatch")
        out = self.as_dict()
        for lam, c in other.coeffs:
            s = out.get(lam, QZPolynomial.zero()) + c
            out[lam] = s
        return SymFn.build(self.degree, self.basis, out)

    def scale(self, qz):
        return SymFn.build(self.degree, self.basis,
                           {lam: c * qz for lam, c in self.coeffs})

    def render(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c.render()})*{self.basis}{list(lam.parts)}"
                          for lam, c in self.coeffs)

    def __repr__(self):
        return f"SymFn({self.render()})"

    def latex(self):
        if not self.coeffs:
            return "0"
        parts = []
        for lam, c in self.coeffs:
            idx = "".join(str(p) if p < 10 else f"({p})" for p in lam.parts)
            parts.append(f"\\left({_qz_latex(c)}\\right)"
                         f" {self.basis}_{{{idx}}}")
        return " + ".join(parts)


def _qz_latex(c):
    if c.is_zero():
        return "0"
    out = []
    for (qe, ze) in sorted(c.terms, key=lambda k: (k[1], k[0])):
        v = c.terms[(qe, ze)]
        body = ""
        if qe:
            body += "q" if qe == 1 else f"q^{{{qe}}}"
        if ze:
            body += "z" if ze == 1 else f"z^{{{ze}}}"
        if not body:
            body = str(v)
        elif v == -1:
            body = "-" + body
        elif v != 1:
            body = str(v) + body
        out.append(body)
    s = out[0]
    for p in out[1:]:
        s += " - " + p[1:] if p.startswith("-") else " + " + p
    return s


def _kostka_matrix(n):
    """K[lam][mu] = kostka(lam, mu) over partitions of n."""
    parts = partitions(n)
    return parts, {lam: {mu: kostka(lam, mu) for mu in parts} for lam in parts}


def to_basis(f, basis):
    """Convert a SymFn to another basis: the identity, or Schur to monomial
    by the Kostka numbers; any other pair raises ValueError."""
    if f.basis == basis:
        return f
    if (f.basis, basis) != ("s", "m"):
        raise ValueError(f"no change from basis {f.basis!r} to {basis!r}")
    n = f.degree
    out = {}
    parts, K = _kostka_matrix(n)
    for lam, c in f.coeffs:
        for mu in parts:
            k = K[lam][mu]
            if k:
                out[mu] = out.get(mu, QZPolynomial.zero()) + c.scale(k)
    return SymFn.build(n, "m", out)


def hall(f, g):
    """The Hall inner product <f, g>, a QZPolynomial.  Schur functions are
    orthonormal."""
    if f.degree != g.degree:
        return QZPolynomial.zero()
    fs = to_basis(f, "s").as_dict()
    gs = to_basis(g, "s").as_dict()
    total = QZPolynomial.zero()
    for lam, c in fs.items():
        d = gs.get(lam)
        if d is not None:
            total = total + c * d
    return total


def e_perp(mu, f):
    """Skew by e_mu: the Hall adjoint of multiplication by e_mu.  Each e_d
    sends s_lam to the sum of s_nu over the vertical strips lam/nu of size
    d, which are the horizontal strips lam'/nu' of the conjugates."""
    parts = mu.parts if isinstance(mu, Partition) else tuple(mu)
    g = to_basis(f, "s")
    for d in parts:
        out = {}
        for lam, c in g.coeffs:
            for conj in horizontal_strips(lam.conjugate().parts, d):
                nu = Partition(conj).conjugate()
                out[nu] = out.get(nu, QZPolynomial.zero()) + c
        g = SymFn.build(g.degree - d, "s", out)
    return g


def e1_perp(f):
    """Remove a single box from every Schur index."""
    return e_perp((1,), f)


def schur_poly(nu, nvars):
    """The Schur polynomial s_nu(x_1..x_nvars) via semistandard tableaux."""
    parts = nu.parts if isinstance(nu, Partition) else tuple(nu)
    if len(parts) > nvars:
        return MPoly.zero(nvars)
    out = {}
    for t in enumerate_ssyt(parts, nvars):
        exp = [0] * nvars
        for row in t:
            for v in row:
                exp[v - 1] += 1
        e = tuple(exp)
        out[e] = out.get(e, 0) + 1
    return MPoly(nvars, out)


def cnk_syt(n, k):
    """The graded Frobenius polynomial C_{n,k}(x; q) from standard tableaux:
    sum over SYT with n boxes of
    q^(maj(T) + binom(n-k, 2) - (n-k) des(T)) [des(T) choose n-k]_q s_shape(T).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    r = n - k
    shift = r * (r - 1) // 2
    out = {}
    for t in enumerate_syt_all(n):
        des = t.des()
        binom = QZPolynomial.q_binomial(des, r)
        if binom.is_zero():
            continue
        exp = t.maj() + shift - r * des
        if exp < 0:
            raise AssertionError("negative q-exponent in tableau formula")
        term = QZPolynomial.monomial(exp, 0) * binom
        lam = t.shape()
        out[lam] = out.get(lam, QZPolynomial.zero()) + term
    return SymFn.build(n, "s", out)


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
        counts = {}
        for m in enumerate_omp(mu.parts, k):
            v = omp_statistic(m, stat)
            counts[v] = counts.get(v, 0) + 1
        out[mu] = QZPolynomial({(v, 0): c for v, c in counts.items()})
    return SymFn.build(n, "m", out)
