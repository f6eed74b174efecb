"""Symmetric functions with coefficients in Z[q, z]: monomial, elementary
and Schur expansions, the Hall pairing, skewing operators, and the graded
Frobenius polynomials C_{n,k}(x; q).
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import (DEFAULT_OSP_CAP, Partition, QZPolynomial,
                            ResourceRefused, enumerate_omp, enumerate_ssyt,
                            enumerate_syt_all, kostka, omp_statistic,
                            partitions)
from .exactalg import MPoly, QMatrix


BASES = ("m", "e", "s")


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
        name = {"m": "m", "e": "e", "s": "s"}[self.basis]
        parts = []
        for lam, c in self.coeffs:
            idx = "".join(str(p) if p < 10 else f"({p})" for p in lam.parts)
            parts.append(f"\\left({_qz_latex(c)}\\right) {name}_{{{idx}}}")
        return " + ".join(parts)


def _qz_latex(c):
    if c.is_zero():
        return "0"
    out = []
    for (qe, ze) in sorted(c.coeffs, key=lambda k: (k[1], k[0])):
        v = c.coeffs[(qe, ze)]
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
        s += p if p.startswith("-") else " + " + p
    return s


def _expand_e_to_m(lam, n):
    """Coefficients of e_lam in the monomial basis, degree n."""
    poly = MPoly.const(n, 1)
    for p in lam.parts:
        poly = poly * MPoly.elementary(n, p)
    return _poly_to_m(poly, n)


def _poly_to_m(poly, n):
    """Read monomial-basis coefficients off a symmetric polynomial in n
    variables of degree n (enough variables to be faithful)."""
    out = {}
    for mu in partitions(n):
        exp = list(mu.parts) + [0] * (n - mu.length())
        c = poly.terms.get(tuple(exp), 0)
        if c:
            if getattr(c, "denominator", 1) != 1:
                raise ValueError("non-integer coefficient")
            out[mu] = QZPolynomial.monomial(0, 0, int(c))
    return out


def _kostka_matrix(n):
    """K[lam][mu] = kostka(lam, mu) over partitions of n."""
    parts = partitions(n)
    return parts, {lam: {mu: kostka(lam, mu) for mu in parts} for lam in parts}


def to_basis(f, basis):
    """Convert a SymFn to another basis; exact and integral throughout."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if f.basis == basis:
        return f
    n = f.degree
    if f.basis == "s" and basis == "m":
        out = {}
        parts, K = _kostka_matrix(n)
        for lam, c in f.coeffs:
            for mu in parts:
                k = K[lam][mu]
                if k:
                    out[mu] = out.get(mu, QZPolynomial.zero()) + c.scale(k)
        return SymFn.build(n, "m", out)
    if f.basis == "e" and basis == "m":
        out = {}
        for lam, c in f.coeffs:
            for mu, base in _expand_e_to_m(lam, n).items():
                out[mu] = out.get(mu, QZPolynomial.zero()) + c * base
        return SymFn.build(n, "m", out)
    if f.basis == "m" and basis == "s":
        return _m_to_s(f)
    if f.basis == "m" and basis == "e":
        return _m_to_e(f)
    # route everything else through the monomial basis
    return to_basis(to_basis(f, "m"), basis)


def _solve_change(f, column_fn, target_basis):
    """Solve sum_lam c_lam * column_fn(lam) = f (in the m basis)."""
    n = f.degree
    parts = partitions(n)
    index = {mu: i for i, mu in enumerate(parts)}
    columns = {}
    for lam in parts:
        columns[lam] = column_fn(lam)
    # solve independently for each (q, z) monomial of the coefficients
    keys = set()
    fdict = f.as_dict()
    for c in fdict.values():
        keys.update(c.coeffs)
    out = {lam: {} for lam in parts}
    rows = []
    for mu in parts:
        rows.append({index[lam]: columns[lam].get(mu, 0) for lam in parts
                     if columns[lam].get(mu, 0)})
    M = QMatrix(len(parts), len(parts), rows)
    for key in sorted(keys):
        b = [fdict.get(mu, QZPolynomial.zero()).coeffs.get(key, 0)
             for mu in parts]
        x = M.solve(b)
        if x is None:
            raise ValueError("inconsistent basis change")
        for lam in parts:
            v = x[index[lam]]
            if v:
                if v.denominator != 1:
                    raise ValueError("non-integral basis change")
                out[lam][key] = int(v)
    return SymFn.build(n, target_basis,
                       {lam: QZPolynomial(d) for lam, d in out.items() if d})


def _m_to_s(f):
    n = f.degree
    _, K = _kostka_matrix(n)
    return _solve_change(f, lambda lam: K[lam], "s")


def _m_to_e(f):
    n = f.degree
    ints = {}
    for lam in partitions(n):
        ints[lam] = {mu: int(c.coefficient(0, 0))
                     for mu, c in _expand_e_to_m(lam, n).items()}
    return _solve_change(f, lambda lam: ints[lam], "e")


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


def _vertical_strips(lam, d):
    """Partitions mu with lam/mu a vertical strip of size d."""
    parts = list(lam.parts)
    out = []
    def rec(i, removed, acc):
        if removed > d:
            return
        if i == len(parts):
            if removed == d:
                out.append(Partition(tuple(p for p in acc if p > 0)))
            return
        for delta in (0, 1):
            p = parts[i] - delta
            if p < 0:
                continue
            if acc and p > acc[-1]:
                continue
            acc.append(p)
            rec(i + 1, removed + delta, acc)
            acc.pop()
    rec(0, 0, [])
    return out


def e_perp(mu, f):
    """Skew by e_mu: the Hall adjoint of multiplication by e_mu."""
    parts = mu.parts if isinstance(mu, Partition) else tuple(mu)
    g = to_basis(f, "s")
    for d in parts:
        out = {}
        for lam, c in g.coeffs:
            for nu in _vertical_strips(lam, d):
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


def cnk_omp(n, k, stat="minimaj", cap=DEFAULT_OSP_CAP):
    """C_{n,k}(x; q) from ordered multiset partitions, weighted by q to the
    chosen statistic; returned in the monomial basis.

    The coefficient of m_mu sums over the k-block multiset partitions of
    content mu, so only those are enumerated.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if n > cap:
        raise ResourceRefused(f"cnk_omp: n={n} exceeds cap {cap}")
    out = {}
    for mu in partitions(n):
        counts = {}
        for m in enumerate_omp(mu.parts, k):
            v = omp_statistic(m, stat)
            counts[v] = counts.get(v, 0) + 1
        out[mu] = QZPolynomial({(v, 0): c for v, c in counts.items()})
    return SymFn.build(n, "m", out)
