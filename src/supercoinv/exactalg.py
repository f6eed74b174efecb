"""Exact arithmetic substrate: sparse multivariate polynomials, and
matrices over Q or over polynomial rings.

``SparseTerms`` is the one sparse-term algebra.  Five classes subclass it:
``MPoly``, the superspace ``SuperElement``, the bigraded ``QZPolynomial``,
the symmetric functions ``SymFn`` (``Schur`` and ``Monomial``) and the
Hilbert and slice tables ``BidegreeTable``.  They share its sums,
negation, scaling, equality, hashing, result construction (``_like``) and
rendering; each keeps only its product and key-specific methods.  Every
element is an immutable value: no method changes ``terms`` after
construction.

``collect`` is the one place a coefficient is summed by key and a zero sum
is dropped: every sum, product, derivative, group action and normal form
of the package lists its (key, coefficient) contributions and builds its
terms with it, so no stored coefficient is ever zero.  The elimination
kernel ``_IntEchelon.reduce`` works on a dense working list of its own
and keeps only the nonzero entries of its result.

Every computation in this package is exact.  No floating point appears
anywhere; coefficients are arbitrary-precision integers throughout, and
every elimination runs on one kernel, ``_IntEchelon``, over Z.
Polynomial determinants expand by cofactors, so the polynomial layer never
divides.  ``Fraction`` appears only in the back-substitution of
``QMatrix.solve`` and ``QMatrix.kernel_basis``.  Pivots are the leading
columns of the row space, so repeated runs produce identical pivot sets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add


def collect(pairs, out=None):
    """Sum (key, coefficient) pairs into the dict ``out`` (a new one by
    default) and return it.  A key whose sum reaches 0 is removed, and a
    zero contribution leaves the dict unchanged."""
    if out is None:
        out = {}
    for key, c in pairs:
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


class SparseTerms:
    """A sparse sum of terms: a dict ``terms`` from hashable keys to
    nonzero coefficients (kept as given: integers stay integers) in
    ``nvars`` variables.

    The base holds everything that never looks inside a key: building a
    result (``_like``), sums, negation, scaling, equality, hashing and
    rendering.  A subclass gives the key normalisation ``_key``, its
    product and ``render``.  Two elements are equal only when they have
    the same type, variable count and terms, and only such two can be
    added.  A zero element is false, so a zero coefficient that is itself
    sparse is dropped like an integer 0, and 0 + x is x, so ``sum`` works.
    """

    __slots__ = ("nvars", "terms")

    _key = tuple

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        key = self._key
        self.terms = ({key(k): c for k, c in terms.items() if c}
                      if terms else {})

    def _like(self, terms):
        """An element of this type and variable count holding ``terms``
        as given; every coefficient must be nonzero."""
        r = object.__new__(type(self))
        r.nvars = self.nvars
        r.terms = terms
        return r

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (type(other) is type(self) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if type(other) is not type(self) or other.nvars != self.nvars:
            raise ValueError("sum of elements of different types or"
                             " variable counts")
        return self._like(collect(other.terms.items(), dict(self.terms)))

    def __radd__(self, other):
        # 0 + x, as in sum(...) and in collect
        return self if other == 0 else NotImplemented

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._like({k: c * v for k, v in self.terms.items()}
                          if c else {})

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"

    @staticmethod
    def powers(exp, names=None):
        """The factors of the monomial with exponents ``exp``, skipping
        zero exponents: ``x2``, ``x3^2`` (``names[i]`` in place of
        x_(i+1) when given)."""
        out = []
        for i, a in enumerate(exp):
            if a:
                name = names[i] if names else f"x{i + 1}"
                out.append(name if a == 1 else f"{name}^{a}")
        return out

    @staticmethod
    def format_terms(pairs, plus="+", times="*"):
        """Render (coefficient, factors) pairs as a signed sum: a term is
        its coefficient alone when it has no factor, its factors joined by
        ``times`` behind the coefficient otherwise (the coefficient 1 is
        left out, -1 leaves its sign); terms after the first are joined by
        ``plus``, a negative one by ``plus`` with its "+" turned into its
        minus sign, so " + " pairs with " - "; no pairs give "0"."""
        s = ""
        for c, factors in pairs:
            if not factors:
                body = str(c)
            elif c == 1:
                body = times.join(factors)
            elif c == -1:
                body = "-" + times.join(factors)
            else:
                body = str(c) + times + times.join(factors)
            if not s:
                s = body
            elif body.startswith("-"):
                s += plus.replace("+", "-") + body[1:]
            else:
                s += plus + body
        return s or "0"


class MPoly(SparseTerms):
    """Sparse multivariate polynomial over Q.

    Terms map exponent tuples (length ``nvars``) to nonzero coefficients.
    Variables are 1-indexed in the public interface: ``MPoly.var(n, i)``
    is x_i.
    """

    __slots__ = ()

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars, i):
        """The variable x_i, 1 <= i <= nvars."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range")
        exp = [0] * nvars
        exp[i - 1] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, exp, c=1):
        return cls(len(exp), {tuple(exp): c})

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(other)
        return self._like(collect(
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, k):
        result = MPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def partial(self, i):
        """Partial derivative with respect to x_i (1-indexed)."""
        idx = i - 1
        return self._like(collect(
            (exp[:idx] + (exp[idx] - 1,) + exp[idx + 1:], c * exp[idx])
            for exp, c in self.terms.items() if exp[idx]))

    def rename_vars(self, mapping):
        """Substitute x_i -> x_{mapping[i]} (dict of 1-indexed variables).

        Unmapped variables are left in place.  The image polynomial lives
        in the same number of variables.
        """
        def renamed():
            for exp, c in self.terms.items():
                new = [0] * self.nvars
                for pos, a in enumerate(exp):
                    if a:
                        new[mapping.get(pos + 1, pos + 1) - 1] += a
                yield tuple(new), c

        return self._like(collect(renamed()))

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    def render(self):
        return self.format_terms((c, self.powers(exp))
                                 for exp, c in self.sorted_terms())


def _int_row(row):
    """Clear the denominators of a dict row of rationals."""
    denom = lcm(*(c.denominator for c in row.values()))
    return {j: int(c * denom) for j, c in row.items()}


class _IntEchelon:
    """Incremental sparse echelon form over Z, for rank computations.

    Rows are dicts mapping column index to a nonzero integer; a column
    index is a non-negative int, since it indexes the working list of
    ``reduce``.  Each stored row is primitive, holds its columns in
    ascending order and has a distinct pivot (its smallest column); rows
    are combined by cross-multiplication so all arithmetic stays in Z.
    """

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Reduce the integer ``row`` against the stored rows until its
        leading column is not a pivot; return it divided by its content,
        columns ascending (empty if the row lies in the span).  ``row`` is
        left unchanged.

        The row is spread into a dense working list.  At leading column j
        with entry a and pivot entry b, a step subtracts (a // b) times the
        pivot row over the pivot row's own columns when b divides a, and
        otherwise first scales the tail from j by b / gcd(a, b).  Every
        change lies right of j, so the next leading column is the first
        nonzero found scanning on from j + 1.  The result takes its column
        keys from ``row`` and the pivot rows used, so a stored row shares
        their key objects.
        """
        if not row:
            return {}
        pivots = self.pivots
        dense = [0] * (max(row) + 1)
        for k, v in row.items():
            dense[k] = v
        width = len(dense)
        j = min(row)
        used = []
        while True:
            prow = pivots.get(j)
            if prow is None:
                break
            a = dense[j]
            b = prow[j]
            if a % b:
                g = gcd(a, b)
                m = b // g
                dense[j:] = [v * m for v in dense[j:]]
                q = a // g
            else:
                q = a // b
            last = next(reversed(prow))
            if last >= width:
                dense.extend([0] * (last + 1 - width))
                width = last + 1
            for k, v in prow.items():
                dense[k] -= q * v
            used.append(prow)
            j += 1
            while j < width and not dense[j]:
                j += 1
            if j == width:
                return {}
        out = {k: dense[k] for k in sorted(set(row).union(*used))
               if k >= j and dense[k]}
        g = gcd(*out.values())
        if g > 1:
            out = {k: v // g for k, v in out.items()}
        return out

    def add(self, row):
        """Reduce the integer ``row`` against the echelon; store it and
        return True if nonzero."""
        row = self.reduce(row)
        if not row:
            return False
        self.pivots[next(iter(row))] = row
        return True

    def fork(self):
        """A copy that shares the stored rows (never mutated in place), so
        rows added to the copy leave this echelon unchanged."""
        other = _IntEchelon()
        other.pivots = dict(self.pivots)
        return other


class QMatrix:
    """Matrix over Q with exact elimination.

    Rows are stored sparsely as dicts mapping column index to a nonzero
    integer or Fraction.  Every method clears the denominators of each row
    and eliminates on ``_IntEchelon``, whose pivots are the leading columns
    of the row space, so results are deterministic; ``solve`` and
    ``kernel_basis`` then back-substitute in Fraction.
    """

    def __init__(self, nrows, ncols, rows):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @staticmethod
    def _echelon(rows):
        ech = _IntEchelon()
        for r in rows:
            if r:
                ech.add(_int_row(r))
        return ech

    def rank(self):
        return self._echelon(self.rows).rank

    def kernel_basis(self):
        """Basis of the right kernel {v : M v = 0}, as dense Fraction vectors.

        One basis vector per free column, in increasing column order; the
        vector for free column f has a 1 in position f and a 0 in every
        other free column.
        """
        pivots = self._echelon(self.rows).pivots
        basis = []
        for f in range(self.ncols):
            if f in pivots:
                continue
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            basis.append(_back_substitute(pivots, v))
        return basis

    def solve(self, b):
        """Solve M x = b exactly; returns a dense solution vector or None.

        The rows [M | -b] are eliminated; the system is inconsistent when
        the last column is a pivot.  Free variables are set to 0.
        """
        aug = []
        for r, bi in zip(self.rows, b):
            row = dict(r)
            if bi:
                row[self.ncols] = -bi
            aug.append(row)
        pivots = self._echelon(aug).pivots
        if self.ncols in pivots:
            return None
        x = [Fraction(0)] * self.ncols + [Fraction(1)]
        return _back_substitute(pivots, x)[:self.ncols]


def _back_substitute(pivots, x):
    """Fill x at every pivot column, highest pivot first, so that each
    echelon row vanishes on x; the other entries of x are given."""
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        s = sum(c * x[k] for k, c in row.items() if k != p)
        x[p] = Fraction(-s, row[p])
    return x


class PolyMatrix:
    """Dense matrix with MPoly entries."""

    def __init__(self, grid):
        self.grid = [list(row) for row in grid]
        self.nrows = len(self.grid)
        self.ncols = len(self.grid[0]) if self.grid else 0

    def mul(self, other):
        nv = self.grid[0][0].nvars
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                s = MPoly.zero(nv)
                for k in range(self.ncols):
                    s = s + self.grid[i][k] * other.grid[k][j]
                row.append(s)
            out.append(row)
        return PolyMatrix(out)

    def submatrix(self, row_idx, col_idx):
        return PolyMatrix([[self.grid[i][j] for j in col_idx] for i in row_idx])

    def minor(self, row_idx, col_idx):
        return self.submatrix(row_idx, col_idx).det()

    def det(self):
        """Determinant by cofactor expansion along the first row, skipping
        zero entries.  No division: integer polynomial entries give an
        integer polynomial.

        The expansion stays small for its callers.  The H-minors of
        ``apply_D`` are submatrices of rows of the lower unitriangular
        C(mu)^(-1), so most entries are zero, and the dense minors of
        ``ptj_determinant`` are r x r with r <= n (r = 3 in the worked
        example).
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if not self.nrows:
            raise ValueError("determinant of an empty matrix")
        grid = self.grid
        last = self.nrows - 1

        def expand(i, cols):
            if i == last:
                return grid[i][cols[0]]
            total = MPoly.zero(grid[0][0].nvars)
            for pos, j in enumerate(cols):
                a = grid[i][j]
                if a.is_zero():
                    continue
                term = a * expand(i + 1, cols[:pos] + cols[pos + 1:])
                total = total - term if pos % 2 else total + term
            return total

        return expand(0, tuple(range(self.ncols)))
