"""Bigraded quotients of superspace by the coinvariant ideal.

The ideal is generated by the elementary symmetric polynomials e_1..e_n
together with their Euler derivatives de_1..de_n.  ``quotient_hilbert``
computes the quotient dimensions per bidegree by the reduced route: it
first rewrites the bosonic part onto the classical substaircase basis
(valid because each rewrite rule h_k(x_k..x_n) is certified to lie in the
bosonic ideal by the identity sum_{j=0..k} (-1)^j e_j h_{k-j}(x_k..x_n)
= 0) and then eliminates the Euler-derivative multiples in the much
smaller quotient coordinates.  Normal forms are computed on demand, one
monomial and its lex-smaller dependencies at a time, never a whole degree.

The bosonic degree bound is the staircase certificate: NF(x_v x^delta) = 0
for v = 1..n, where delta = (0, 1, ..., n - 1) is the only substaircase
exponent of degree top = n(n - 1)/2.  Every degree-top monomial m rewrites
to c x^delta, so x_v m is congruent to c x_v x^delta, which is in the
ideal; every monomial of degree top + 1, and so of every higher degree,
lies in the bosonic ideal, and the quotient and each of its slices vanish
above the top.

The reduced coordinates use both linear generators.  x_1 is gone because
h_1 = e_1 is the first rewrite rule, so no substaircase monomial holds it;
theta_1 is gone by the substitution pi: theta_1 -> -(theta_2 + ... +
theta_n), a ring map whose kernel is (de_1).  The (i, j) reduced basis is
the substaircase exponents of degree i times the j-subsets of {2..n}, and
the rank of an ideal block is |A_i| C(n - 1, j - 1) (the de_1 multiples)
plus the rank of its image under pi.  Within each substaircase exponent
the theta-subsets holding 1 come first in lex order and de_1 multiples
lead there, so the pivots in the full coordinates are those columns plus
the reduced pivots: the coset representatives do not depend on the
choice of coordinates.

The direct route, ``ideal_component``, spans the ideal component inside
the full superspace component; the test suite takes its rank as the
reference for the reduced route.

The colon quotients C[x]/(I_n : f_J) come from one catalecticant builder:
x acts by derivatives, so (p f_J) (.) Vandermonde = p(d) g_J with
g_J = f_J (.) Vandermonde computed once per J, and the images of the
degree-d monomials are the rows of the degree-d catalecticant C_d of g_J.

A colon basis certificate pairs degree d <= D/2 with D - d, D = deg g_J,
on C_d, the transpose of C_(D-d) up to diagonal scalings (see
``verify_colon_basis``): its rows certify degree d, and its columns at the
candidates of degree D - d certify that degree.  A parabolic basis
certificate keeps each candidate eps_mu x^a theta_J on a fork of its
bidegree's ideal echelon and then compares the counts with the eps_mu
slice table of ``epsilon_dims``.  The ideal is generated by invariants, so
eps_mu maps it into itself and every candidate lies in the slice; with the
candidates independent, equal counts hold exactly when they span it.  At
mu = (1^n) eps_mu is the identity and the candidates are the substaircase
basis, the union over J of A_n(J) theta_J.

The Frobenius image comes from the eps_mu slice dimensions through the
Kostka matrix, unitriangular in dominance order, by forward substitution
in integers.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from operator import add

from .combinatorics import (IntegrityError, QZPolynomial, SubsetOfN,
                            enumerate_artin, enumerate_signed_artin,
                            conjugate, j_of_signed, signed_partitions)
from .exactalg import MPoly, QMatrix, SparseTerms, _IntEchelon, collect
from .superspace import (SuperElement, _merge_thetas, antisymmetrize,
                         coinvariant_generators, euler_chain, f_J, odot,
                         partial_x, vandermonde)
from .symfunc import Schur, kostka_matrix, schur_poly


class VerificationFailure(Exception):
    """A mathematical claim checked by the run turned out false."""


@dataclass(frozen=True)
class IdealSpec:
    """A named homogeneous ideal of superspace given by generators."""

    n: int
    tag: str
    generators: tuple

    def content_hash(self):
        payload = json.dumps([g.to_json() for g in self.generators],
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def superspace_ideal(n):
    return IdealSpec(n, "superspace", tuple(coinvariant_generators(n, True)))


class BidegreeTable(SparseTerms):
    """Integer values indexed by (bosonic degree, fermionic degree) for
    the superspace on n = ``nvars`` sets of variables; zeros are dropped."""

    __slots__ = ()

    def get(self, i, j):
        return self.terms.get((i, j), 0)

    def total(self):
        return sum(self.terms.values())

    def as_qz(self):
        """The generating polynomial sum_{i,j} entry * q^i z^j."""
        return QZPolynomial(self.terms)

    def render(self):
        return self.as_qz().render()


def monomials(nvars, deg):
    """All exponent tuples of total degree deg, in descending lex order,
    e.g. [(2, 0), (1, 1), (0, 2)].  The order fixes the columns of
    ``omega_basis`` and the probes ``check_steinberg`` draws by seed."""
    if nvars == 0:
        return [()] if deg == 0 else []
    out = [()]
    for _ in range(nvars - 1):
        out = [e + (a,) for e in out for a in range(deg - sum(e), -1, -1)]
    return [e + (deg - sum(e),) for e in out]


def omega_dimension(n, i, j):
    return comb(i + n - 1, n - 1) * comb(n, j)


def omega_basis(n, i, j):
    """Monomial basis of the (i, j) component of superspace, fixed order."""
    return [(e, t) for e in monomials(n, i)
            for t in combinations(range(1, n + 1), j)]


def element_coords(elem, index):
    """Sparse coordinate row (integers for integer elements) of a
    SuperElement in a basis index."""
    def entries():
        for key, c in elem.terms.items():
            col = index.get(key)
            if col is None:
                raise ValueError(
                    f"monomial {key} outside the indexed component")
            yield col, c

    return collect(entries())


def ideal_component(spec, i, j):
    """Spanning rows of the (i, j) component of the ideal inside the full
    superspace component, as a QMatrix over the monomial basis."""
    n = spec.n
    basis = omega_basis(n, i, j)
    index = {key: c for c, key in enumerate(basis)}
    rows = []
    for g in spec.generators:
        (gb, gf), = g.bidegrees()
        di, dj = i - gb, j - gf
        if di < 0 or dj < 0 or dj > n:
            continue
        for exp in monomials(n, di):
            for ts in combinations(range(1, n + 1), dj):
                m = SuperElement.monomial(n, exp, ts)
                rows.append(element_coords(m * g, index))
    return QMatrix(len(rows), len(basis), rows)


class CoinvariantEngine:
    """Per-n workspace: certified rewriting onto the substaircase basis,
    echelonized ideal components in reduced coordinates and eps_mu slice
    tables, built by the caller and passed to each quotient function."""

    def __init__(self, n):
        self._setup(n)

    def _setup(self, n):
        self.n = n
        self.top = n * (n - 1) // 2
        # rewrite rules: h_k(x_k..x_n) is in the bosonic ideal by the t^k
        # coefficient of E(-t) H_{x_k..x_n}(t) = prod_{i<k} (1 - x_i t),
        # sum_{j=0..k} (-1)^j e_j h_{k-j}(x_k..x_n) = 0 (the rule at j = 0)
        es = [schur_poly((1,) * d, n) for d in range(n + 1)]
        self.hpolys = {}
        for k in range(1, n + 1):
            hs = [schur_poly((m,), n, range(k, n + 1)) for m in range(k + 1)]
            coeff = sum(((es[j] * hs[k - j]).scale((-1) ** j)
                         for j in range(k + 1)), MPoly.zero(n))
            if not coeff.is_zero():
                raise IntegrityError(f"rewrite rule h_{k} is not in the ideal")
            self.hpolys[k] = hs[k]
        self._nf = {}
        # the substaircase exponents a_i <= i - 1, by degree, each list in
        # reverse lex order
        self.artin_by_deg = {d: [] for d in range(self.top + 1)}
        for e in reversed(enumerate_artin(SubsetOfN(n, ()))):
            self.artin_by_deg[sum(e)].append(e)
        # partials_e[d][w] for d >= 2 and w = 2..n: (d/dx_w - d/dx_1) e_d
        # as {exponent: int}, the coefficient of theta_w in de_d once
        # theta_1 = -(theta_2 + ... + theta_n); de_1 itself maps to zero
        self.partials_e = {}
        for d in range(2, n + 1):
            p1 = es[d].partial(1)
            self.partials_e[d] = {w: (es[d].partial(w) - p1).terms
                                  for w in range(2, n + 1)}
        self._nf_partials = {}
        self._theta_images = {}
        self._echelons = {}
        self._kept_keys = {}
        self._eps_tables = {}
        # the staircase certificate of the degree bound (see the module
        # docstring): x_v x^(0, 1, ..., n - 1) rewrites to zero for every v
        staircase = tuple(range(n))
        for v in range(n):
            exp = staircase[:v] + (v + 1,) + staircase[v + 1:]
            if self.nf(exp):
                raise IntegrityError(f"monomial {exp} of degree {self.top + 1}"
                                     " has nonzero normal form")

    def nf(self, exp):
        """Normal form of a monomial modulo the bosonic ideal, as a dict
        from substaircase exponents to integer coefficients, computed on
        demand and memoised.  A monomial with exp[k - 1] >= k for its first
        such k rewrites by h_k in x_k..x_n; every other term of the rule
        gives a lex-smaller monomial of the same degree, reduced first off
        an explicit stack.  Degrees above the top substaircase degree reduce
        to zero: the engine certifies that at set-up by the n products of
        x_v with the staircase monomial."""
        memo = self._nf
        out = memo.get(exp)
        if out is not None:
            return out
        n = self.n
        stack = [exp]
        while stack:
            e = stack[-1]
            if e in memo:
                stack.pop()
                continue
            k = next((i + 1 for i in range(n) if e[i] > i), None)
            if k is None:
                memo[e] = {e: 1}
                stack.pop()
                continue
            base = list(e)
            base[k - 1] -= k
            deps = [tuple(b + a for b, a in zip(base, m))
                    for m in self.hpolys[k].terms if m[k - 1] != k]
            missing = [d for d in deps if d not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[e] = collect((a, -c) for d in deps
                              for a, c in memo[d].items())
            stack.pop()
        return memo[exp]

    def reduced_basis(self, i, j):
        """Basis index of the (i, j) component of the reduced coordinates:
        substaircase exponents times the j-subsets of theta_2..theta_n."""
        arts = self.artin_by_deg.get(i, [])
        basis = [(a, t) for a in arts
                 for t in combinations(range(2, self.n + 1), j)]
        return basis, {key: c for c, key in enumerate(basis)}

    def _theta_image(self, ts):
        """theta_ts with theta_1 = -(theta_2 + ... + theta_n), as a list of
        (theta tuple without 1, sign)."""
        if ts[:1] != (1,):
            return [(ts, 1)]
        out = []
        for w in range(2, self.n + 1):
            tw, sign = _merge_thetas((w,), ts[1:])
            if sign:
                out.append((tw, -sign))
        return out

    def reduced_coords(self, elem, index):
        """Coordinates of a superspace element after bosonic reduction and
        the substitution theta_1 = -(theta_2 + ... + theta_n)."""
        images = self._theta_images

        def entries():
            for (exp, ts), c in elem.terms.items():
                image = images.get(ts)
                if image is None:
                    image = images[ts] = self._theta_image(ts)
                nf = self.nf(exp).items()
                for tw, sign in image:
                    for a, c2 in nf:
                        yield index[(a, tw)], sign * c * c2

        return collect(entries())

    def _nf_times_partial(self, b, w, d):
        """Normal form of b * (d/dx_w - d/dx_1) e_d as an integer dict over
        the substaircase exponents; independent of the theta factor."""
        key = (b, w, d)
        out = self._nf_partials.get(key)
        if out is None:
            out = self._nf_partials[key] = collect(
                (a, c * c2) for m, c in self.partials_e[d][w].items()
                for a, c2 in self.nf(tuple(map(add, b, m))).items())
        return out

    def ideal_echelon(self, i, j):
        """Echelonized Euler-derivative ideal component in reduced coords.

        The substitution pi: theta_1 -> -(theta_2 + ... + theta_n) is a ring
        map with kernel (de_1), so the rows b theta_T de_1 span the kernel
        in each block and map to zero, and pi(b theta_1 theta_T de_d) =
        -sum_w theta_w pi(b theta_T de_d) lies in the span of the rows with
        1 not in T.  The spanning rows are therefore pi((b theta_T) * de_d)
        for substaircase b, d >= 2 and T inside {2..n}: the sum over w in
        {2..n} - T of +-NF(b (d/dx_w - d/dx_1) e_d) theta_(T + w).

        Only j = 1 builds that whole family, one row per (d, b).  Since
        pi(theta_w) = theta_w for w >= 2, theta_w pi(b theta_T de_d) =
        +-pi(b theta_(T + w) de_d) for w not in T, and every T of size
        j - 1 >= 1 is some w added to a smaller set, the (i, j) row space is
        the sum over w of theta_w times the (i, j - 1) row space.  The rows
        kept at (i, j - 1) span that space (a block that stops early at full
        rank is the whole component), so a block with j >= 2 builds only the
        rows of the keys (T + w, d, b) for each kept key (T, d, b) and each
        w in {2..n} - T.  The kept keys of a block wait in ``_kept_keys``
        until the block one theta-degree up has used them.  Rows are
        eliminated sparsest first; the pivot columns (and so the rank and
        the coset representatives) depend only on the row space.
        """
        key = (i, j)
        if key in self._echelons:
            return self._echelons[key]
        n = self.n
        basis, index = self.reduced_basis(i, j)
        ech = _IntEchelon()
        kept = []
        if j >= 1 and basis:
            # the theta-subsets T to build for each (d, b) at j >= 2
            if j >= 2:
                self.ideal_echelon(i, j - 1)
                wanted = {}
                # popped: (i, j) is built once, and no other block reads them
                for ts, d, b in self._kept_keys.pop((i, j - 1)):
                    tset = wanted.setdefault((d, b), set())
                    for w in range(2, n + 1):
                        tw, sign = _merge_thetas(ts, (w,))
                        if sign:
                            tset.add(tw)
            # per theta_T: (w - 2, sign, column of a theta_(T + w) for each
            # a), shared by every d and b
            arts = self.artin_by_deg[i]
            merges = {}
            for ts in combinations(range(2, n + 1), j - 1):
                per_ts = []
                for w in range(2, n + 1):
                    tw, sign = _merge_thetas(ts, (w,))
                    if sign:
                        per_ts.append((w - 2, sign,
                                       {a: index[(a, tw)] for a in arts}))
                merges[ts] = per_ts
            rows = []
            for d in range(2, n + 1):
                bdeg = i - (d - 1)
                if bdeg < 0 or bdeg > self.top:
                    continue
                for b in self.artin_by_deg[bdeg]:
                    tsets = [()] if j == 1 else sorted(wanted.get((d, b), ()))
                    if not tsets:
                        continue
                    partials = [self._nf_times_partial(b, w, d)
                                for w in range(2, n + 1)]
                    for ts in tsets:
                        row = {}
                        for w, sign, cols in merges[ts]:
                            for a, c in partials[w].items():
                                row[cols[a]] = sign * c
                        if row:
                            rows.append((row, (ts, d, b)))
            rows.sort(key=lambda r: len(r[0]))
            for row, gen in rows:
                if ech.add(row):
                    kept.append(gen)
                    if ech.rank == len(basis):
                        break
        self._kept_keys[key] = kept
        self._echelons[key] = (ech, basis, index)
        return self._echelons[key]

    def quotient_dim(self, i, j):
        ech, basis, _ = self.ideal_echelon(i, j)
        return len(basis) - ech.rank

    def coset_representatives(self, i, j):
        """Basis keys of the quotient component: non-pivot columns of the
        deterministic ideal echelon."""
        ech, basis, _ = self.ideal_echelon(i, j)
        return [basis[c] for c in range(len(basis)) if c not in ech.pivots]


def _cache_path(cache_dir, spec, digest, i, j):
    name = f"{spec.tag}_n{spec.n}_{i}_{j}_{digest}.json"
    return os.path.join(cache_dir, name)


CACHE_STATS = {"hits": 0, "misses": 0, "rejects": 0}


def _cache_entry_ok(data, spec, digest, i, j):
    """A cache entry is trusted only if it names this request and its rank
    and dimension split the superspace component exactly."""
    if not isinstance(data, dict):
        return False
    if (data.get("hash") != digest or data.get("n") != spec.n
            or data.get("tag") != spec.tag or data.get("i") != i
            or data.get("j") != j):
        return False
    rank, dim = data.get("rank"), data.get("dim")
    if not all(type(v) is int and v >= 0 for v in (rank, dim)):
        return False
    return rank + dim == omega_dimension(spec.n, i, j)


def _cache_read(cache_dir, spec, digest, i, j):
    """The cached entry for (i, j), or None.  An unreadable or inconsistent
    entry counts as a reject; the caller recomputes and rewrites it."""
    if not cache_dir:
        return None
    path = _cache_path(cache_dir, spec, digest, i, j)
    if not os.path.exists(path):
        CACHE_STATS["misses"] += 1
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = None
    if not _cache_entry_ok(data, spec, digest, i, j):
        CACHE_STATS["rejects"] += 1
        return None
    CACHE_STATS["hits"] += 1
    return data


def _cache_write(cache_dir, spec, digest, i, j, rank, dim):
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, spec, digest, i, j)
    # write-once with atomic rename so concurrent workers never see partials
    tmp = path + f".tmp{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump({"n": spec.n, "tag": spec.tag, "i": i, "j": j,
                       "rank": rank, "dim": dim,
                       "hash": digest}, fh)
        os.replace(tmp, path)
    except OSError:
        # an entry that cannot be written (say, a directory in its place)
        # is left out: the value was computed, not read, so the run goes on
        with suppress(OSError):
            os.unlink(tmp)


def quotient_hilbert(eng, cache_dir=None):
    """Bigraded Hilbert table of the engine's superspace coinvariant
    quotient by the reduced route, cached under the superspace ideal.

    Bosonic degrees run two rows past the top substaircase degree; those
    rows must vanish, as the engine's staircase certificate proves for
    every degree above the top.
    """
    n, top = eng.n, eng.top
    spec = superspace_ideal(n)
    digest = spec.content_hash() if cache_dir else None
    dims = {}
    for i in range(top + 3):
        for j in range(n + 1):
            cached = _cache_read(cache_dir, spec, digest, i, j)
            if cached is not None:
                dims[(i, j)] = cached["dim"]
                continue
            dim = dims[(i, j)] = eng.quotient_dim(i, j)
            _cache_write(cache_dir, spec, digest, i, j,
                         omega_dimension(n, i, j) - dim, dim)
    table = BidegreeTable(n, dims)
    for (i, j), v in table.terms.items():
        if i > top:
            raise VerificationFailure(
                f"nonzero quotient dimension {v} at bidegree ({i},{j})"
                " above the claimed bosonic bound")
    return table


def operator_closure(n):
    """Bigraded dimensions of the smallest space containing the Vandermonde
    that is closed under d_1..d_(n-1) and all partial x-derivatives.

    d/dx_v commutes with every d_j, the d_j anticommute and d_j d_j = 0, so
    the closure is spanned by the x-derivatives of the seeds d_K Vandermonde
    (``euler_chain``) over K inside {1..n-1}, and its (i, j) component by
    the seeds of that bidegree and d/dx_v of the (i + 1, j) component.  Each
    j walks i down from its top seed on one ``omega_basis`` echelon at a
    time, fed the seeds and the derivatives of the elements kept one level
    up; only those are carried to the next level.
    """
    delta = vandermonde(n)
    top = n * (n - 1) // 2
    dims = {}
    for j in range(n):
        seeds = {}
        for K in combinations(range(1, n), j):
            seeds.setdefault(top - sum(K), []).append(euler_chain(K, delta))
        kept = []
        for i in range(max(seeds), -1, -1):
            index = {key: c for c, key in enumerate(omega_basis(n, i, j))}
            ech = _IntEchelon()
            feed = chain(seeds.get(i, ()), (partial_x(v, e) for e in kept
                                             for v in range(1, n + 1)))
            kept = [e for e in feed if ech.add(element_coords(e, index))]
            dims[(i, j)] = ech.rank
    return BidegreeTable(n, dims)


def _catalecticants(j_subset, degrees):
    """{d: (rows, columns)} for each distinct d in degrees, in increasing
    order: rows[a] is the image (x^a f_J) (.) Vandermonde as an integer row,
    and columns[c] is the column of the exponent c there.

    x acts by derivatives, so (p f_J) (.) Vandermonde = p(d) g_J with
    g_J = f_J (.) Vandermonde, computed once here.  Row a of the degree-d
    catalecticant of g_J holds c_b b!/c! at column c = b - a for every term
    c_b x^b of g_J with a <= b; exponents a without such a term have a zero
    image and no row.  The divisors a <= b of each term are walked once, in
    lex order, by extending them one coordinate at a time: a partial
    divisor carries the prefixes of a and of c, |a|, and c_b times the
    falling factorials so far, which the next coordinate extends by one
    factor per step, so a divisor costs one multiply.  A prefix whose |a|
    already passes the highest requested degree goes no further.  Each full
    divisor lands in the catalecticant of degree |a| if that one is asked
    for; the columns of each degree are numbered in order of first
    appearance.  Every requested degree is built before the return, so the
    memory peak is the sum of their sizes, not the largest.
    """
    g = odot(f_J(j_subset), vandermonde(j_subset.n))
    if any(ts for _, ts in g.terms):
        raise IntegrityError(f"theta term in f_J (.) Vandermonde for"
                             f" J={j_subset.elems}")
    wanted = {d: ({}, {}) for d in sorted(set(degrees))}
    high = max(wanted, default=-1)
    for (b, _), c in g.terms.items():
        walk = [((), (), 0, c)]
        for x in b:
            step = []
            for a, rest, s, v in walk:
                for y in range(min(x, high - s) + 1):
                    step.append((a + (y,), rest + (x - y,), s + y, v))
                    v *= x - y
            walk = step
        for a, rest, s, v in walk:
            bucket = wanted.get(s)
            if bucket is not None:
                rows, columns = bucket
                col = columns.setdefault(rest, len(columns))
                rows.setdefault(a, {})[col] = v
    return wanted


def _image(p, rows):
    """The combination of the catalecticant rows of p's terms."""
    return collect((col, c * v) for a, c in p.terms.items()
                   for col, v in rows.get(a, {}).items())


def steinberg_independence(poly_sets, j_subset):
    """Ranks of the images (p * f_J) (.) Vandermonde of lists of
    homogeneous polynomials modulo the colon ideal, one per list, each on
    its own echelon.  The catalecticants are built once for all the lists,
    and an image is the combination of its terms' rows; images of different
    degrees share no column, so a rank is the sum of the per-degree ranks.
    Zero polynomials are skipped; an inhomogeneous polynomial raises
    ValueError."""
    by_degree = {}
    for k, polys in enumerate(poly_sets):
        for p in polys:
            degrees = {sum(e) for e in p.terms}
            if len(degrees) > 1:
                raise ValueError(f"colon image of an inhomogeneous"
                                 f" polynomial (degrees {sorted(degrees)})")
            if degrees:
                by_degree.setdefault(degrees.pop(),
                                     [[] for _ in poly_sets])[k].append(p)
    ranks = [0] * len(poly_sets)
    for d, (rows, _) in _catalecticants(j_subset, by_degree).items():
        for k, polys in enumerate(by_degree[d]):
            ech = _IntEchelon()
            for p in polys:
                ech.add(_image(p, rows))
            ranks[k] += ech.rank
    return ranks


def verify_colon_basis(j_subset):
    """Check the substaircase monomials A_n(J) form a graded basis of the
    colon quotient.  Returns True or raises VerificationFailure.

    g_J is homogeneous of degree D = top.  Its term c_b x^b, b = a + c, puts
    c_b b!/c! at C_d[a][c] and c_b b!/a! at C_(D-d)[c][a], so C_d =
    diag(a!) C_(D-d)^T diag(1/c!): rank C_(D-d) = rank C_d, and rows of
    C_(D-d) are independent exactly when the columns of C_d at the same
    exponents are.  So only C_d with d <= D/2 is built.  Its candidate rows
    go in first, each kept, then the others, none kept: A_d is a basis.  For
    e = D - d != d, the columns at A_e go on a fresh echelon, each kept (no
    column is a zero image), and |A_e| = rank C_d: A_e is a basis.  None
    may lie above D.
    """
    n = j_subset.n
    top = n * (n - 1) // 2 - f_J(j_subset).bosonic_part().degree()
    by_degree = {}
    for a in enumerate_artin(j_subset):
        by_degree.setdefault(sum(a), []).append(a)

    def dependent(a):
        return VerificationFailure(
            f"A_n(J) monomial {a} is dependent modulo the colon ideal for"
            f" J={j_subset.elems}")

    for d, (rows, columns) in _catalecticants(j_subset,
                                              range(top // 2 + 1)).items():
        if any(sum(c) != top - d for c in columns):
            raise IntegrityError(f"f_J (.) Vandermonde is not homogeneous of"
                                 f" degree {top} for J={j_subset.elems}")
        ech = _IntEchelon()
        candidates = by_degree.pop(d, [])
        for a in candidates:
            if a not in rows or not ech.add(rows[a]):
                raise dependent(a)
        kept = set(candidates)
        for a, row in rows.items():
            if a not in kept and ech.add(row):
                raise VerificationFailure(
                    f"A_n(J) does not span the colon quotient in degree {d}"
                    f" for J={j_subset.elems}: x^{a} is independent of it")
        e = top - d
        if e == d:
            continue
        candidates = by_degree.pop(e, [])
        # each candidate's column of C_d, indexed by row position
        dual, image = _IntEchelon(), list(rows.values())
        for a in candidates:
            col = columns.get(a)
            if col is None or not dual.add(
                    {k: row[col] for k, row in enumerate(image) if col in row}):
                raise dependent(a)
        if len(candidates) != ech.rank:
            raise VerificationFailure(
                f"A_n(J) does not span the colon quotient in degree {e}"
                f" for J={j_subset.elems}: {len(candidates)} independent,"
                f" rank {ech.rank}")
    if by_degree:
        raise VerificationFailure(
            f"A_n(J) monomials of degrees {sorted(by_degree)} lie above the"
            f" colon degree bound {top} for J={j_subset.elems}")
    return True


def epsilon_dims(eng, mu):
    """Bigraded dimensions of the antisymmetric isotypic slice for the parts
    mu: the rank of eps_mu applied to quotient coset representatives, modulo
    the ideal.  Each table is computed once per engine and kept on it; a
    table is an immutable value, so the kept one is returned."""
    n = eng.n
    if sum(mu) != n:
        raise ValueError("mu must be a partition of n")
    table = eng._eps_tables.get(mu)
    if table is None:
        counts = {}
        for i in range(eng.top + 1):
            for j in range(n + 1):
                ech, _, index = eng.ideal_echelon(i, j)
                reps = eng.coset_representatives(i, j)
                counts[(i, j)] = sum(map(ech.fork().add,
                                         _eps_rows(eng, mu, reps, index)))
        table = eng._eps_tables[mu] = BidegreeTable(n, counts)
    return table


def _eps_rows(eng, mu, keys, index):
    """Reduced coordinates of eps_mu (x^a theta_ts) for each key (a, ts)."""
    for a, ts in keys:
        elem = antisymmetrize(mu, SuperElement.monomial(eng.n, a, ts))
        yield eng.reduced_coords(elem, index)


def verify_parabolic_basis(eng, mu):
    """Check that eps_mu applied to the signed substaircase monomials gives
    a basis of the antisymmetric slice of the quotient: in each bidegree the
    elements are independent on a fork of the ideal echelon, and as many as
    the slice dimension in ``epsilon_dims``.  At mu = (1^n) this is the
    substaircase basis of the whole quotient."""
    dims = epsilon_dims(eng, mu)
    by_bideg = {}
    for sp in signed_partitions(eng.n):
        if sp.mu == mu:
            ts = j_of_signed(sp).elems
            for a in enumerate_signed_artin(sp):
                by_bideg.setdefault((sum(a), len(ts)), []).append((a, ts))
    for i in range(eng.top + 1):
        for j in range(eng.n + 1):
            ech, _, index = eng.ideal_echelon(i, j)
            seeded = ech.fork()
            group = by_bideg.pop((i, j), [])
            rows = _eps_rows(eng, mu, group, index)
            for (a, ts), row in zip(group, rows):
                if not seeded.add(row):
                    raise VerificationFailure(
                        f"parabolic element for mu={mu}, J={ts},"
                        f" exponents {a} is zero or dependent modulo the"
                        " ideal")
            dim = dims.get(i, j)
            if len(group) != dim:
                raise VerificationFailure(
                    f"parabolic elements for mu={mu} do not span the"
                    f" antisymmetric slice at bidegree ({i},{j}):"
                    f" {len(group)} independent, slice dimension {dim}")
    if by_bideg:
        raise VerificationFailure(
            f"parabolic elements for mu={mu} at bidegrees"
            f" {sorted(by_bideg)} lie above the bosonic bound {eng.top}")
    return True


def frobenius_reconstruct(eng):
    """The bigraded Frobenius image, a Schur expansion over Z[q, z], from
    the engine's antisymmetric slice dimensions: per bidegree b_mu =
    sum_nu y_nu K_{nu, mu}, y_nu the coefficient of s_{nu'}, solved by
    forward substitution over ``partitions`` once K is checked
    unitriangular in that order."""
    n = eng.n
    parts, K = kostka_matrix(n)
    for c, mu in enumerate(parts):
        if K[mu][mu] != 1 or any(K[nu][mu] for nu in parts[c + 1:]):
            raise IntegrityError(f"Kostka matrix of n={n} is not"
                                 f" unitriangular in column {mu}")
    tables = {mu: epsilon_dims(eng, mu) for mu in parts}
    bidegrees = set()
    for t in tables.values():
        bidegrees.update(t.terms)

    def terms():
        for (i, j) in sorted(bidegrees):
            y = {}  # the partitions before mu
            for mu in parts:
                y[mu] = tables[mu].get(i, j) - sum(
                    y[nu] * K[nu][mu] for nu in y)
            for lam in parts:
                v = y[conjugate(lam)]
                if v < 0:
                    raise VerificationFailure(
                        f"negative Schur coefficient {v} for {lam} at"
                        f" bidegree ({i},{j})")
                if v:
                    yield lam, QZPolynomial.monomial(i, j, v)

    return Schur(n, collect(terms()))
