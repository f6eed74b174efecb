"""Combinatorial objects and enumerations: partitions, subsets in Gale order,
staircases, signed partitions, ordered (multi)set partitions, standard
tableaux, and polynomials in q and z.

A partition, a standard tableau and an ordered (multi)set partition are
plain tuples: the parts, largest first; the rows, each a tuple of entries;
the blocks, each a sorted tuple.  The enumerations build them valid, and
``check_partition`` validates parts given from outside.

This module is the one home of the substaircase and block enumerations.
Within each mu-block of J(mu, gamma) the staircase bounds are those of the
block's I-sequences, so the signed substaircase set is the product, over
the blocks, of ``enumerate_I(m_j, gamma_j, t_{j-1})`` with the heights t of
``block_parameters``.

All enumerations return results in a fixed deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import (accumulate, combinations,
                       combinations_with_replacement, product)
from math import comb, prod
from operator import gt, lt

from .exactalg import SparseTerms, collect


class IntegrityError(Exception):
    """An internal certification failed; results cannot be trusted."""


class QZPolynomial(SparseTerms):
    """Polynomial in q and z with integer coefficients.

    q tracks bosonic (polynomial) degree, z tracks fermionic degree.
    Stored sparsely as {(q_exp, z_exp): coeff}, in two variables.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__(2, terms)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, qe, ze, c=1):
        return cls({(qe, ze): c})

    @classmethod
    def q_int(cls, k):
        """[k]_q = 1 + q + ... + q^(k-1)."""
        return cls({(i, 0): 1 for i in range(k)})

    @classmethod
    def q_factorial(cls, k):
        out = cls.one()
        for i in range(1, k + 1):
            out = out * cls.q_int(i)
        return out

    @classmethod
    def q_binomial(cls, n, k):
        """Gaussian binomial [n choose k]_q; zero when k < 0 or k > n.  By
        q-Pascal, [m, r] = [m - 1, r - 1] + q^r [m - 1, r], one row m at a
        time for r <= k."""
        if k < 0 or k > n:
            return cls.zero()
        row = [cls.one()]           # [m, r] for r = 0..min(m, k)
        for m in range(1, n + 1):
            prev = row + [cls.zero()]
            row = [cls.one()] + [prev[r - 1] + cls.monomial(r, 0) * prev[r]
                                 for r in range(1, min(m, k) + 1)]
        return row[k]

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return self._like(collect(((a + d, b + e), c1 * c2)
                                  for (a, b), c1 in self.terms.items()
                                  for (d, e), c2 in other.terms.items()))

    __rmul__ = __mul__

    def eval_ones(self):
        """Value at q = z = 1."""
        return sum(self.terms.values())

    def render(self):
        return self.format_terms(
            ((self.terms[k], self.powers(k, "qz"))
             for k in sorted(self.terms, key=lambda k: (k[1], k[0]))),
            plus=" + ")


def check_partition(parts):
    """``parts`` as a tuple, checked to be weakly decreasing positive
    integers; raises ValueError otherwise."""
    parts = tuple(parts)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"parts {parts} not weakly decreasing")
    if parts and parts[-1] <= 0:
        raise ValueError("parts must be positive")
    return parts


def conjugate(lam):
    """The conjugate of the partition lam: its column lengths."""
    width = lam[0] if lam else 0
    return tuple(sum(1 for p in lam if p > i) for i in range(width))


def partitions(n, max_part=None):
    """All partitions of n, largest part first, in reverse lexicographic order."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, max_part), 0, -1)
            for rest in partitions(n - first, first)]


@dataclass(frozen=True)
class SubsetOfN:
    """A subset of {1, ..., n}, stored as a sorted tuple."""

    n: int
    elems: tuple

    def __post_init__(self):
        elems = tuple(sorted(self.elems))
        object.__setattr__(self, "elems", elems)
        if len(set(elems)) != len(elems):
            raise ValueError("repeated elements")
        if elems and not (1 <= elems[0] and elems[-1] <= self.n):
            raise ValueError(f"elements {elems} outside 1..{self.n}")


def subsets(n, size=None):
    """All subsets of {1..n}, optionally of a fixed size, in lex order."""
    out = []
    sizes = [size] if size is not None else range(n + 1)
    for k in sizes:
        for c in combinations(range(1, n + 1), k):
            out.append(SubsetOfN(n, c))
    return out


def gale_leq(a, b):
    """Gale order on equal-size subsets: elementwise <= after sorting."""
    if len(a.elems) != len(b.elems):
        raise ValueError("Gale order compares equal-size subsets")
    return all(x <= y for x, y in zip(a.elems, b.elems))


def staircase(j_subset):
    """The staircase attached to a subset J of {1..n}.

    st_1 is 0 if 1 is in J else 1; thereafter st_i repeats the previous
    value when i is in J and increments it when i is not.
    """
    n = j_subset.n
    present = set(j_subset.elems)
    st = []
    prev = 0
    for i in range(1, n + 1):
        prev = prev if i in present else prev + 1
        st.append(prev)
    return tuple(st)


@dataclass(frozen=True)
class SignedPartition:
    """A pair (mu, gamma) with mu a partition of n and 0 <= gamma_i <= mu_i."""

    mu: tuple
    gamma: tuple

    def __post_init__(self):
        mu = check_partition(self.mu)
        gamma = tuple(self.gamma)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "gamma", gamma)
        if len(gamma) != len(mu):
            raise ValueError("gamma must have the same length as mu")
        for m, g in zip(mu, gamma):
            if not 0 <= g <= m:
                raise ValueError(f"gamma {gamma} not within mu {mu}")


def signed_partitions(n):
    """All signed partitions (mu, gamma) with mu a partition of n."""
    return [SignedPartition(mu, gamma) for mu in partitions(n)
            for gamma in product(*(range(m + 1) for m in mu))]


@dataclass(frozen=True)
class TranslationSequence:
    """A list of sets T_j, one per part of mu, with T_j inside the j-th
    mu-interval of {1..n}."""

    mu: tuple
    sets: tuple

    def __post_init__(self):
        mu = check_partition(self.mu)
        sets = tuple(tuple(sorted(s)) for s in self.sets)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sets", sets)
        if len(sets) != len(mu):
            raise ValueError("one set per part of mu required")
        for block, s in zip(mu_blocks(mu), sets):
            if not set(s) <= set(block):
                raise ValueError(f"set {s} escapes its mu-interval")

    def gamma(self):
        return tuple(len(s) for s in self.sets)

    def union_set(self):
        return tuple(sorted(x for s in self.sets for x in s))


def all_translation_sequences(mu):
    """Every mu-translation sequence, in a fixed deterministic order."""
    mu = tuple(mu)
    per_block = [[c for k in range(len(block) + 1)
                  for c in combinations(block, k)] for block in mu_blocks(mu)]
    return [TranslationSequence(mu, sets) for sets in product(*per_block)]


def mu_blocks(mu):
    """The consecutive intervals of {1..n} cut out by mu, as ranges."""
    return [range(end - m + 1, end + 1) for m, end in zip(mu, accumulate(mu))]


def j_of_signed(sp):
    """The subset J(mu, gamma): the top gamma_j entries of each mu-interval."""
    elems = []
    for block, g in zip(mu_blocks(sp.mu), sp.gamma):
        if g:
            elems.extend(block[-g:])
    return SubsetOfN(sum(sp.mu), tuple(elems))


def enumerate_artin(j_subset):
    """Exponent tuples of the substaircase monomials for J: 0 <= a_i < st_i.

    Returned in lexicographic order.  Empty when 1 is in J (st_1 = 0).
    """
    return list(product(*map(range, staircase(j_subset))))


def block_parameters(sp):
    """(m_j, gamma_j, t_{j-1}) per block: t_{j-1} is the staircase height of
    J(mu, gamma) before block j, the sum of m_i - gamma_i over the earlier
    blocks (J holds the top gamma_i entries of each block)."""
    heights = accumulate((m - g for m, g in zip(sp.mu, sp.gamma)), initial=0)
    return list(zip(sp.mu, sp.gamma, heights))


def enumerate_signed_artin(sp):
    """Substaircase exponent tuples for J(mu, gamma) with the block shuffle
    conditions: within each mu-interval the first mu_j - gamma_j exponents
    strictly increase and the last gamma_j weakly increase.

    Under the staircase of J(mu, gamma) block j has the bounds
    t+1, ..., t+m-gamma, then gamma repeats of t+m-gamma, with t = t_{j-1}:
    exactly ``sequence_bound(m, gamma, t)``, so the set is the product of
    the blocks' I-sequences, in lexicographic order.
    """
    blocks = [enumerate_I(m, g, t) for m, g, t in block_parameters(sp)]
    return [sum(parts, ()) for parts in product(*blocks)]


def count_signed_artin_product(sp):
    """Closed product formula for the number of signed substaircase
    monomials: the product of the blocks' I-sequence counts."""
    return prod(count_I(*p) for p in block_parameters(sp))


def q_stirling(n, k):
    """q-Stirling number of the second kind, Stir_q(n, k), one row m at a
    time by Stir_q(m, r) = Stir_q(m - 1, r - 1) + [r]_q Stir_q(m - 1, r)
    from Stir_q(0, r) = [r = 0]."""
    if k < 0 or k > n:
        return QZPolynomial.zero()
    row = [QZPolynomial.one()] + [QZPolynomial.zero()] * k
    for _ in range(n):
        row = [QZPolynomial.zero()] + [
            row[r - 1] + QZPolynomial.q_int(r) * row[r]
            for r in range(1, k + 1)]
    return row[k]


def fields1_formula(n):
    """The closed bigraded Hilbert series: sum_k z^(n-k) [k]!_q Stir_q(n, k)."""
    total = QZPolynomial.zero()
    for k in range(1, n + 1):
        total = total + (QZPolynomial.monomial(0, n - k)
                         * QZPolynomial.q_factorial(k) * q_stirling(n, k))
    return total


def enumerate_osp(n, k=None):
    """Ordered set partitions of {1..n}, each a tuple of disjoint nonempty
    sorted blocks whose union is {1..n}, optionally with exactly k blocks:
    the ordered multiset partitions of content (1^n)."""
    ks = range(n + 1) if k is None else (k,)
    return [osp for j in ks for osp in enumerate_omp((1,) * n, j)]


def count_osp(n, mu=None):
    """Number of ordered set partitions of {1..n} compatible with mu (no mu
    is mu = (1^n), which imposes nothing): the elements of each mu-interval
    lie in weakly increasing block positions, read along the interval.

    With k blocks an interval of length m has C(m + k - 1, m) weakly
    increasing maps to the positions; inclusion-exclusion over the s
    positions left empty counts the maps onto all of them:
    sum_{k=0..n} sum_{s=0..k} (-1)^s C(k, s) prod_i C(mu_i + k - s - 1, mu_i)
    (the k = 0 term counts the empty partition of n = 0)."""
    if mu is None:
        mu = (1,) * n
    elif sum(mu) != n:
        raise ValueError("mu must be a partition of n")
    return sum((-1) ** s * comb(k, s)
               * prod(comb(m + k - s - 1, m) for m in mu)
               for k in range(n + 1) for s in range(k + 1))


def enumerate_omp(content, k):
    """Ordered multiset partitions with k blocks in which letter i lies in
    exactly content[i-1] blocks: tuples of nonempty sorted blocks, a letter
    repeating across blocks but not within one.

    Blocks are filled left to right.  A letter whose remaining count equals
    the number of blocks still to fill goes into the current block, and a
    block leaves at least one letter for every later block, so every branch
    ends in a result.  The block sequences that fill the blocks left after a
    given remaining content are built once per call and shared as suffixes.
    """
    letters = range(1, len(content) + 1)
    suffixes = {}

    def fill(remaining, blocks_left):
        """The block sequences, as tuples, that use up ``remaining`` in
        ``blocks_left`` blocks."""
        if blocks_left == 0:
            return [()]
        key = (remaining, blocks_left)
        if key in suffixes:
            return suffixes[key]
        forced = [x for x in letters if remaining[x - 1] == blocks_left]
        optional = [x for x in letters if 0 < remaining[x - 1] < blocks_left]
        room = sum(remaining) - (blocks_left - 1) - len(forced)
        out = []
        for extra in range(0 if forced else 1, min(len(optional), room) + 1):
            for chosen in combinations(optional, extra):
                block = tuple(sorted(forced + list(chosen)))
                rest = list(remaining)
                for x in block:
                    rest[x - 1] -= 1
                out.extend((block,) + tail
                           for tail in fill(tuple(rest), blocks_left - 1))
        suffixes[key] = out
        return out

    if not max(content, default=0) <= k <= sum(content):
        return []
    return fill(tuple(content), k)


def _word_maj(w):
    return sum(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def omp_minimaj(blocks):
    """Minimum major index over all words obtained by ordering each block.

    The minimising word is built from the right: the last block in
    increasing order, then each earlier block prepended as two increasing
    runs, first its letters greater than r and then its letters at most r,
    where r is the first letter of the word built so far.
    """
    word = []
    for b in reversed(blocks):
        r = word[0] if word else b[-1]
        word = [x for x in b if x > r] + [x for x in b if x <= r] + word
    return _word_maj(word)


def omp_inv(blocks):
    """Inversions: pairs (a, b) with a in an earlier block, b the minimum
    of a later block, and a > b."""
    total = 0
    mins = [min(b) for b in blocks]
    for i, b in enumerate(blocks):
        for a in b:
            for j in range(i + 1, len(blocks)):
                if a > mins[j]:
                    total += 1
    return total


def omp_maj(blocks):
    """Major index: blocks are read in decreasing order; each descent of the
    resulting word contributes the number of blocks whose final letter sits
    weakly left of the descent position.

    Inside the block read after ``finished`` whole blocks every adjacent
    pair is a descent worth ``finished``; where one block meets the next
    there is a descent, worth the blocks finished by then, when the
    earlier block's least letter exceeds the later block's greatest."""
    total = 0
    finished = 0
    last = None
    for b in blocks:
        total += finished * (len(b) - 1)
        if last is not None and last > max(b):
            total += finished
        last = min(b)
        finished += 1
    return total


def omp_dinv(blocks):
    """Diagonal inversions: blocks as columns with entries decreasing upward
    from the base row; count same-row pairs a > b (a left of b) and
    adjacent-row pairs a < b with a one row above b."""
    cols = [sorted(b, reverse=True) for b in blocks]
    total = 0
    for i, ci in enumerate(cols, 1):
        above = ci[1:]
        for cj in cols[i:]:
            total += sum(map(gt, ci, cj)) + sum(map(lt, above, cj))
    return total


OMP_STATISTICS = {
    "inv": omp_inv,
    "maj": omp_maj,
    "dinv": omp_dinv,
    "minimaj": omp_minimaj,
}


def omp_statistic(blocks, stat):
    try:
        fn = OMP_STATISTICS[stat]
    except KeyError:
        raise ValueError(f"unknown statistic {stat!r}") from None
    return fn(blocks)


def descents(t):
    """The entries i of the standard tableau t (a tuple of rows) such that
    i+1 lies in a strictly lower row."""
    row = {x: i for i, r in enumerate(t) for x in r}
    return tuple(i for i in range(1, len(row)) if row[i + 1] > row[i])


def enumerate_syt_all(n):
    """All standard Young tableaux with n boxes, grown one entry at a time:
    v goes at the end of row i when i = 0 or row i - 1 is longer, or
    starts a new row."""
    tableaux = [()]
    for v in range(1, n + 1):
        tableaux = [t[:i] + (row + (v,),) + t[i + 1:]
                    for t in tableaux for i, row in enumerate(t + ((),))
                    if i == 0 or len(t[i - 1]) > len(row)]
    return tableaux


def enumerate_ssyt(shape, max_entry):
    """Semistandard tableaux of a shape (a tuple of parts) with entries in
    1..max_entry."""
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


def horizontal_strips(lam, size):
    """Partitions nu (as tuples without trailing zeros) with lam/nu a
    horizontal strip of the given size: lam_1 >= nu_1 >= lam_2 >= nu_2 ...
    and |lam| - |nu| = size; lam is a tuple."""
    out = []

    def rec(i, left, acc):
        if i == len(lam):
            if left == 0:
                out.append(tuple(p for p in acc if p))
            return
        low = lam[i + 1] if i + 1 < len(lam) else 0
        for p in range(lam[i], low - 1, -1):
            removed = lam[i] - p
            if removed > left:
                break
            acc.append(p)
            rec(i + 1, left - removed, acc)
            acc.pop()

    rec(0, size, [])
    return out


def kostka(lam, mu):
    """Kostka number: semistandard tableaux of shape lam and content mu,
    both tuples of parts.

    The entries equal to the last letter l = len(mu) form a horizontal strip
    lam/nu of size mu_l, and the rest is a tableau of shape nu and content
    (mu_1, ..., mu_{l-1}), so K(lam, mu) sums K(nu, mu[:-1]) over those nu
    (Pieri).  The values are memoized for the call.
    """
    if sum(lam) != sum(mu):
        return 0
    memo = {}

    def count(shape, letters):
        if len(shape) > letters:
            return 0
        if letters == 0:
            return 1
        key = (shape, letters)
        if key not in memo:
            memo[key] = sum(count(nu, letters - 1) for nu in
                            horizontal_strips(shape, mu[letters - 1]))
        return memo[key]

    return count(tuple(p for p in lam if p), len(mu))


def count_I(m, k, t):
    """Closed count of bounded shuffle sequences: binom(m+t-k, t) * binom(m+t-1, k)."""
    return comb(m + t - k, t) * comb(m + t - 1, k)


def count_L(m, k, t):
    """Closed count of the spanning-label set for parameters (m, k, t)."""
    return (comb(m + t - 1, m) * comb(m, k)
            + comb(m + t - 1, m - 1) * comb(m - 1, k))


def sequence_bound(m, k, t):
    """The entrywise bound (t, t+1, ..., t+m-k-1, repeated top) of length m."""
    top = t + m - k - 1
    return tuple(list(range(t, t + m - k)) + [top] * k)


def enumerate_I(m, k, t):
    """Sequences c_1 < ... < c_{m-k}, c_{m-k+1} <= ... <= c_m of nonnegative
    integers under the entrywise bound for (m, k, t)."""
    bound = sequence_bound(m, k, t)
    strict_part = list(combinations(range(t + m - k), m - k))
    weak_part = list(combinations_with_replacement(range(t + m - k), k))
    # a sequence is in bounds iff both of its parts are, so check each once
    for part, part_bound in ((strict_part, bound[:m - k]),
                             (weak_part, bound[m - k:])):
        for seq in part:
            if any(c > b for c, b in zip(seq, part_bound)):
                raise IntegrityError(
                    f"sequence part {seq} exceeds the bound {bound} for"
                    f" (m, k, t) = ({m}, {k}, {t})")
    return [s + w for s in strict_part for w in weak_part]
