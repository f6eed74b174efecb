"""The sparse-term operations pinned by digest on seeded inputs, many of
them built so that terms cancel: products with repeated or negated
factors, d_j applied twice, eps_mu of a symmetric element, a renaming that
merges variables, Schur expansions with signed coefficients, and normal
forms of products whose terms reduce to cancelling substaircase terms.  The
digests depend on the values only (terms sorted), not on how the
operations build them."""

import hashlib
import json
import random
from itertools import permutations

from supercoinv.coinvariant import (CoinvariantEngine, element_coords,
                                    monomials, omega_basis)
from supercoinv.combinatorics import (OMP_STATISTICS, QZPolynomial,
                                      partitions)
from supercoinv.exactalg import MPoly, SparseTerms
from supercoinv.superspace import (SuperElement, act, antisymmetrize,
                                   coinvariant_generators, euler_d, odot,
                                   partial_x, vandermonde)
from supercoinv.symfunc import (Schur, cnk_omp, cnk_syt, e_perp,
                                schur_poly, to_basis)


def _plain(x):
    """A JSON-ready form of a value: a sparse element becomes its type,
    variable count and sorted terms, a dict its sorted items."""
    if isinstance(x, SparseTerms):
        return [type(x).__name__, x.nvars, _plain(x.terms)]
    if isinstance(x, dict):
        return sorted(json.dumps([k, _plain(c)]) for k, c in x.items())
    return x


def _digest(values):
    return hashlib.sha256(
        json.dumps([_plain(v) for v in values]).encode()).hexdigest()


def _mpoly(rng, n):
    return MPoly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                     rng.choice((-2, -1, 1, 2)) for _ in range(4)})


def _super(rng, n):
    f = SuperElement.zero(n)
    for _ in range(rng.randint(1, 5)):
        f = f + SuperElement.monomial(
            n, tuple(rng.randint(0, 2) for _ in range(n)),
            rng.sample(range(1, n + 1), rng.randint(0, n)),
            rng.choice((-2, -1, 1, 2)))
    return f


def _qz(rng):
    return QZPolynomial({(rng.randint(0, 2), rng.randint(0, 1)):
                         rng.choice((-2, -1, 1, 2)) for _ in range(3)})


def _superspace_values(rng):
    out = {"mul": [], "odot": [], "euler_d": [], "act": [],
           "antisymmetrize": [], "partial_x": []}
    for n in (2, 3, 3, 4):
        for _ in range(12):
            f, g = _super(rng, n), _super(rng, n)
            x1 = SuperElement.from_mpoly(MPoly.var(n, 1))
            # f f cancels the odd-odd cross terms; (f + x1)(f - x1) the
            # products with x1
            out["mul"] += [f * g, f * f, (f + x1) * (f - x1), g * f]
            out["odot"] += [odot(f, g), odot(g, f), odot(f, f * g)]
            for j in (1, 2):
                # d_j d_j = 0, so the second application cancels entirely
                once = euler_d(j, f)
                out["euler_d"] += [once, euler_d(j, once),
                                   euler_d(j, f + g)]
            for v in range(1, n + 1):
                out["partial_x"].append(partial_x(v, f * g))
            ws = list(permutations(range(1, n + 1)))
            out["act"] += [act(w, f)
                           for w in rng.sample(ws, min(3, len(ws)))]
            sym = sum((act(w, f) for w in ws), SuperElement.zero(n))
            for mu in partitions(n):
                out["antisymmetrize"] += [antisymmetrize(mu, f),
                                          antisymmetrize(mu, sym)]
        delta = vandermonde(n)
        out["odot"] += [odot(e, delta) for e in coinvariant_generators(n)]
    return out


def _mpoly_values(rng):
    out = {"mpoly_mul": [], "mpoly_partial": [], "rename_vars": [],
           "qz_mul": []}
    for n in (1, 2, 3, 4):
        for _ in range(12):
            p, q = _mpoly(rng, n), _mpoly(rng, n)
            x1 = MPoly.var(n, 1)
            out["mpoly_mul"] += [p * q, (p + x1) * (p - x1), p * p]
            out["mpoly_partial"] += [(p * q).partial(v)
                                     for v in range(1, n + 1)]
            if n >= 2:
                # x_1 -> x_2 merges the terms of x_1 - x_2 into zero
                out["rename_vars"] += [
                    (p * (x1 - MPoly.var(n, 2))).rename_vars({1: 2}),
                    p.rename_vars({1: n, n: 1}), q.rename_vars({2: 1})]
    for _ in range(40):
        a, b = _qz(rng), _qz(rng)
        out["qz_mul"] += [a * b, (a + b) * (a - b), a * a]
    one_minus_q = QZPolynomial({(0, 0): 1, (1, 0): -1})
    out["qz_mul"].append(one_minus_q * QZPolynomial.q_int(5))
    return out


def _symfunc_values(rng):
    out = {"schur_poly": [], "to_basis": [], "e_perp": [], "cnk_syt": [],
           "cnk_omp": []}
    for n in range(1, 6):
        for nu in partitions(n):
            out["schur_poly"] += [schur_poly(nu, 4),
                                  schur_poly(nu, 5, (2, 4, 5))]
        for _ in range(6):
            f = Schur(n, {lam: _qz(rng) for lam in partitions(n)
                          if rng.random() < 0.6})
            out["to_basis"].append(to_basis(f, "m"))
            out["e_perp"] += [e_perp(mu, f) for mu in partitions(n)]
        for k in range(1, n + 1):
            out["cnk_syt"].append(cnk_syt(n, k))
            if n <= 4:
                out["cnk_omp"] += [cnk_omp(n, k, stat)
                                   for stat in sorted(OMP_STATISTICS)]
    # s_2 = m_2 + m_11 and s_11 = m_11, so s_2 - s_11 has no m_11 term,
    # and e_1-perp of it cancels to zero
    diff = Schur(2, {(2,): QZPolynomial.one(),
                     (1, 1): QZPolynomial.monomial(0, 0, -1)})
    out["to_basis"].append(to_basis(diff, "m"))
    out["e_perp"].append(e_perp((1,), diff))
    return out


def _coinvariant_values(rng):
    out = {"nf": [], "element_coords": [], "reduced_coords": []}
    n = 4
    eng = CoinvariantEngine(n)
    for d in range(eng.top + 2):
        out["nf"] += [eng.nf(e) for e in monomials(n, d)]
    gens = coinvariant_generators(n)
    for _ in range(30):
        # a product of a monomial and a sum of two generators of one
        # bidegree, so the normal forms of its terms partly cancel
        d = rng.randint(2, n)
        g = gens[n + d - 1] + gens[n + d - 1].scale(rng.choice((-1, 2)))
        exp = tuple(rng.randint(0, 2) for _ in range(n))
        ts = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, 2))))
        m = SuperElement.monomial(n, exp, ts)
        x21 = SuperElement.from_mpoly(MPoly.var(n, 2) - MPoly.var(n, 1))
        for elem in (m * g, m * x21):
            if not elem:
                continue
            (i, j), = elem.bidegrees()
            index = {key: c for c, key in enumerate(omega_basis(n, i, j))}
            out["element_coords"].append(element_coords(elem, index))
            out["reduced_coords"].append(
                eng.reduced_coords(elem, eng.reduced_basis(i, j)[1]))
    return out


def test_sparse_term_outputs_pinned():
    rng = random.Random(24)
    values = {**_superspace_values(rng), **_mpoly_values(rng),
              **_symfunc_values(rng), **_coinvariant_values(rng)}
    assert {name: _digest(vs) for name, vs in values.items()} == {
        "mul": "333dac876e91a84852c579acf0f09754"
               "3c881cf5dd53a947935410075272e0ac",
        "odot": "eb3ca95ce33e1ad3a6cfd185c0ebfa2d"
                "bf4cf95b4322c6beb4dc42c738984689",
        "euler_d": "d8b503888153df8d2609a34eb5997897"
                   "ab8714ac39d37e361e35002babbcac44",
        "act": "dbff1bc69e08994673526125bfce25eb"
               "ba864d948d33dd294a609325f9fb4c8a",
        "antisymmetrize": "d37e0141322a8afcb5ad6f02189e33ca"
                          "4fffd373779e5ee3dc4c82364f66ddea",
        "partial_x": "be2d0c2b104acfb57421229e10495216"
                     "f55f7d508bc49af3a69c127f862235f0",
        "mpoly_mul": "e6535d26c4273d6b5466332a1efc2a33"
                     "88d23d6b0da767d7362ce27d128caa0d",
        "mpoly_partial": "0b79d5a99724a2d544d56c9694fc3d3c"
                         "3631a677b622bdf517779496e0033d2f",
        "rename_vars": "90a8ea638fa595908209169273b354bb"
                       "bf4579b18eb113d36a046b65f7d33986",
        "qz_mul": "2d79bb85a5114af1aa20c5503afbb8e5"
                  "063feb75ab5b62dcf9f9cc5204d3d3ab",
        "schur_poly": "83608b161d0bfa98f4a98bbd15d4f398"
                      "80f738f202416c37d271653f6574b50a",
        "to_basis": "2709f1a687736c49426eb9aae3bef7ce"
                    "a05cd1d612c8378036e62c6d04704be5",
        "e_perp": "5be53571c0e04cd88988b82183157635"
                  "489f2bd728cba508163881be0be1eeed",
        "cnk_syt": "83b88155226ddee6c053008b6f9578df"
                   "34c439799b8b33709f4540aeddec58af",
        "cnk_omp": "dfca4bab3ee0ad3f68fd4c397d0fdfd8"
                   "cfcd2e58509e8a6e9c0df849cba61b32",
        "nf": "d396f4dd920d9cebfe33939901218222"
              "c809c6a91a370a51be8cf77b2041f712",
        "element_coords": "b9d7b3e84a990feea5edadb769b461f9"
                          "bc01ea0d9c57f8339defa79089148c4a",
        "reduced_coords": "dcad4fe26d9e2bd86c45a615951cde2d"
                          "2c34123f65da05925c392a97ff5f7e99"}
