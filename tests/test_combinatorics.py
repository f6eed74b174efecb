"""Combinatorial objects and q-analogs."""

from collections import Counter
from itertools import combinations, permutations, product
from math import comb, factorial, prod

import pytest

from supercoinv import combinatorics
from supercoinv.combinatorics import (IntegrityError, QZPolynomial,
                                      SignedPartition, SubsetOfN,
                                      TranslationSequence,
                                      all_translation_sequences,
                                      block_parameters, check_partition,
                                      conjugate, count_I,
                                      count_L, count_osp,
                                      count_signed_artin_product,
                                      descents, enumerate_artin, enumerate_I,
                                      enumerate_omp, enumerate_osp,
                                      enumerate_signed_artin,
                                      enumerate_ssyt, enumerate_syt_all,
                                      fields1_formula, gale_leq, j_of_signed,
                                      kostka, mu_blocks, omp_dinv, omp_maj,
                                      omp_minimaj, partitions, q_stirling,
                                      sequence_bound, signed_partitions,
                                      staircase, subsets)


def test_q_binomial_specializes_to_binomial():
    for n in range(8):
        for k in range(n + 1):
            assert QZPolynomial.q_binomial(n, k).eval_ones() == comb(n, k)


def test_q_binomial_symmetry():
    for n in range(8):
        for k in range(n + 1):
            assert QZPolynomial.q_binomial(n, k) \
                == QZPolynomial.q_binomial(n, n - k)


def test_q_binomial_times_q_factorials_is_q_factorial():
    # [n choose k]_q [k]!_q [n-k]!_q = [n]!_q, checked without dividing
    fact = QZPolynomial.q_factorial
    for n in range(8):
        for k in range(n + 1):
            assert QZPolynomial.q_binomial(n, k) * fact(k) * fact(n - k) \
                == fact(n)


def test_q_factorial_specializes():
    for k in range(7):
        assert QZPolynomial.q_factorial(k).eval_ones() == factorial(k)


def _set_partition_count(n, k):
    """Stirling number oracle: ordered set partitions divided by k!."""
    return len(enumerate_osp(n, k=k)) // factorial(k)


def test_q_stirling_specializes_to_partition_counts():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert q_stirling(n, k).eval_ones() == _set_partition_count(n, k)


def test_partition_counts():
    assert [len(partitions(n)) for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]


def test_conjugate_is_an_involution():
    for n in range(1, 7):
        for lam in partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_kostka_spot_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((1, 1, 1), (2, 1)) == 0


def _kostka_by_tableaux(lam, mu):
    """Semistandard tableaux of shape lam with entries <= len(mu),
    filtered by content mu."""
    count = 0
    for t in enumerate_ssyt(lam, len(mu)):
        content = [0] * len(mu)
        for row in t:
            for v in row:
                content[v - 1] += 1
        count += tuple(content) == mu
    return count


def test_kostka_by_strips_matches_filtered_tableaux():
    for n in range(7):
        for lam in partitions(n):
            for mu in partitions(n):
                assert kostka(lam, mu) == _kostka_by_tableaux(
                    lam, mu), (lam, mu)
    for lam, mu in (((2, 1), (2,)), ((1,), ()), ((), (1,)), ((3, 2), (2, 2))):
        assert kostka(lam, mu) == 0


def test_syt_counts_match_involutions():
    # tableaux with n boxes are counted by involutions of S_n
    for n in range(1, 6):
        invol = sum(1 for w in permutations(range(n))
                    if all(w[w[i]] == i for i in range(n)))
        assert len(enumerate_syt_all(n)) == invol


def _hook_product(lam):
    lam_c = conjugate(lam)
    return prod(lam[i] - j + lam_c[j] - i - 1
                for i in range(len(lam)) for j in range(lam[i]))


def test_grown_tableaux_are_distinct_and_counted_by_the_hook_formula():
    for n in range(9):
        tableaux = enumerate_syt_all(n)
        assert len(set(tableaux)) == len(tableaux), n
        by_shape = Counter(tuple(map(len, t)) for t in tableaux)
        assert set(by_shape) == set(partitions(n)), n
        for lam, count in by_shape.items():
            assert count == factorial(n) // _hook_product(lam), lam


def test_partitions_are_weakly_decreasing_positive_tuples():
    for n in range(8):
        for lam in partitions(n):
            assert type(lam) is tuple and sum(lam) == n
            assert check_partition(lam) == lam


def test_check_partition_rejects_what_is_not_a_partition():
    assert check_partition([3, 1, 1]) == (3, 1, 1)
    assert check_partition(()) == ()
    for bad in ((1, 2), (2, 0), (0,), (-1,), (2, 3, 1)):
        with pytest.raises(ValueError):
            check_partition(bad)
    with pytest.raises(ValueError):
        SignedPartition((1, 2), (0, 0))
    with pytest.raises(ValueError):
        TranslationSequence((1, 2), ((), ()))


def test_standard_tableaux_meet_the_definition():
    for n in range(7):
        for t in enumerate_syt_all(n):
            assert sorted(x for row in t for x in row) \
                == list(range(1, n + 1)), t
            shape = tuple(map(len, t))
            assert all(shape) and check_partition(shape) == shape, t
            for row in t:
                assert all(a < b for a, b in zip(row, row[1:])), t
            for upper, lower in zip(t, t[1:]):
                assert all(a < b for a, b in zip(upper, lower)), t


def _descents_by_row_scan(t):
    """Entries i whose successor i+1 is found in a later row than i when
    the rows are scanned top to bottom."""
    def row_of(x):
        for i, row in enumerate(t):
            if x in row:
                return i
    n = sum(map(len, t))
    return tuple(i for i in range(1, n) if row_of(i + 1) > row_of(i))


def test_descents_match_the_row_scan():
    for n in range(7):
        for t in enumerate_syt_all(n):
            assert descents(t) == _descents_by_row_scan(t), t


def test_ordered_set_partitions_split_n_into_sorted_blocks():
    for n in range(6):
        for osp in enumerate_osp(n):
            assert all(osp), osp
            assert all(list(b) == sorted(set(b)) for b in osp), osp
            assert sorted(x for b in osp for x in b) \
                == list(range(1, n + 1)), osp


def test_syt_maj_generating_function():
    gens = {}
    for t in enumerate_syt_all(3):
        if tuple(map(len, t)) != (2, 1):
            continue
        maj = sum(descents(t))
        gens[maj] = gens.get(maj, 0) + 1
    assert gens == {1: 1, 2: 1}


def test_staircase_example():
    J = SubsetOfN(8, (3, 5, 6))
    assert staircase(J) == (1, 2, 2, 3, 3, 3, 4, 5)


def test_staircase_starts_at_zero_iff_one_in_j():
    for n in range(1, 6):
        for J in subsets(n):
            st = staircase(J)
            assert (st[0] == 0) == (1 in J.elems)
            assert all(0 <= a <= b for a, b in zip(st, st[1:]))


def test_artin_sets_tile_the_quotient_count():
    for n in range(1, 6):
        total = sum(len(enumerate_artin(J)) for J in subsets(n))
        assert total == count_osp(n)


def test_artin_set_split_at_n_three():
    sizes = {J.elems: len(enumerate_artin(J)) for J in subsets(3)}
    assert sizes[()] == 6
    assert sizes[(3,)] == 4
    assert sizes[(2,)] == 2
    assert sizes[(2, 3)] == 1
    for elems, size in sizes.items():
        if 1 in elems:
            assert size == 0


def test_fields1_formula_totals():
    assert [fields1_formula(n).eval_ones() for n in range(1, 7)] \
        == [1, 3, 13, 75, 541, 4683]


def test_signed_artin_count_matches_product_formula():
    for n in range(1, 6):
        for sp in signed_partitions(n):
            assert len(enumerate_signed_artin(sp)) \
                == count_signed_artin_product(sp)


def test_signed_artin_chain_at_three_three_two():
    sp = SignedPartition((3, 3, 2), (1, 2, 0))
    assert count_signed_artin_product(sp) == 360
    blocks = []
    s_prev = 0
    for m, g in zip(sp.mu, sp.gamma):
        blocks.append(comb(s_prev + (m - g), m - g) * comb(s_prev + m - 1, g))
        s_prev += m - g
    assert blocks == [2, 18, 10]


def test_signed_artin_lies_under_its_staircase():
    for n in range(1, 6):
        for sp in signed_partitions(n):
            st = staircase(j_of_signed(sp))
            for a in enumerate_signed_artin(sp):
                assert all(x < s for x, s in zip(a, st))


def test_batch_osp_anchor():
    assert count_osp(3, mu=(3,)) == 4


def test_batch_osp_totals_match_antisymmetric_count():
    # mu = (1,..,1) imposes nothing, so both count every ordered set
    # partition: the ordered Bell numbers, a(n) = sum_{k>=1} C(n, k) a(n - k)
    # by the size k of the first block
    ordered_bell = [1]
    for n in range(1, 9):
        ordered_bell.append(sum(comb(n, k) * ordered_bell[n - k]
                                for k in range(1, n + 1)))
        assert count_osp(n) == ordered_bell[n]
        assert count_osp(n, mu=(1,) * n) == ordered_bell[n]
    assert ordered_bell[1:] == [1, 3, 13, 75, 541, 4683, 47293, 545835]


def _mu_compatible(osp, mu):
    """Every mu-interval lies in weakly increasing block positions."""
    pos = {x: p for p, block in enumerate(osp) for x in block}
    return all(pos[a] <= pos[b] for block in mu_blocks(mu)
               for a, b in zip(block, block[1:]))


def test_osp_count_closed_form_matches_the_filtered_enumeration():
    for n in range(7):
        osps = enumerate_osp(n)
        for mu in partitions(n):
            assert count_osp(n, mu) \
                == sum(_mu_compatible(osp, mu) for osp in osps), mu
    with pytest.raises(ValueError):
        count_osp(3, (2,))


def test_osp_count_closed_form_matches_the_enumeration():
    for n in range(8):
        assert count_osp(n) == len(enumerate_osp(n)), n


def test_translation_sequences_count_and_shape():
    for mu in [(1,), (2,), (2, 1), (3, 3, 2)]:
        seqs = all_translation_sequences(mu)
        assert len(seqs) == 2 ** sum(mu)
        assert len(set(seqs)) == len(seqs)
        for tt in seqs:
            for block, T in zip(mu_blocks(mu), tt.sets):
                assert set(T) <= set(block)
            assert tt.gamma() == tuple(len(s) for s in tt.sets)


def test_mu_blocks_cut_one_to_n_into_consecutive_intervals():
    for n in range(1, 7):
        for mu in partitions(n):
            blocks = mu_blocks(mu)
            assert [len(block) for block in blocks] == list(mu)
            assert [v for block in blocks for v in block] \
                == list(range(1, n + 1))


def test_translation_sequence_rejects_out_of_block_entries():
    with pytest.raises(ValueError):
        TranslationSequence((2, 1), ((3,), ()))


def test_gale_comparison_is_componentwise():
    a = SubsetOfN(5, (1, 3))
    b = SubsetOfN(5, (2, 5))
    assert gale_leq(a, b)
    assert not gale_leq(b, a)
    assert not gale_leq(SubsetOfN(5, (2, 3)), SubsetOfN(5, (1, 5)))


def test_j_of_signed_picks_block_tails():
    sp = SignedPartition((3, 3, 2), (1, 2, 0))
    assert j_of_signed(sp).elems == (3, 5, 6)


def test_sequence_bound_anchor():
    assert sequence_bound(5, 2, 2) == (2, 3, 4, 4, 4)


def test_sequence_counts_agree():
    for m in range(1, 7):
        for k in range(m + 1):
            for t in range(4):
                seqs = enumerate_I(m, k, t)
                assert len(seqs) == count_I(m, k, t) == count_L(m, k, t)
                bound = sequence_bound(m, k, t)
                for s in seqs:
                    assert all(0 <= a <= b for a, b in zip(s, bound))
    assert count_L(5, 2, 2) == 150


@pytest.mark.parametrize("entry", [1, 4])
def test_enumerate_I_raises_under_a_too_tight_bound(monkeypatch, entry):
    # entry 1 lies in the strict part of (5, 2, 2), entry 4 in the weak part
    real = combinatorics.sequence_bound

    def tight(m, k, t):
        bound = list(real(m, k, t))
        bound[entry] -= 1
        return tuple(bound)

    monkeypatch.setattr(combinatorics, "sequence_bound", tight)
    with pytest.raises(IntegrityError):
        enumerate_I(5, 2, 2)


def _contents(n):
    """Every content of size n over the letters 1..n."""
    return [c for c in product(range(n + 1), repeat=n) if sum(c) == n]


def _content_of(blocks, letters):
    return tuple(sum(x in b for b in blocks) for x in range(1, letters + 1))


def test_omp_enumeration_by_content_matches_filtered_products():
    # reference: every k-tuple of nonempty blocks over 1..n, grouped by content
    for n in range(1, 5):
        nonempty = [b for size in range(1, n + 1)
                    for b in combinations(range(1, n + 1), size)]
        for k in range(1, n + 1):
            by_content = {}
            for blocks in product(nonempty, repeat=k):
                if sum(map(len, blocks)) == n:
                    by_content.setdefault(_content_of(blocks, n),
                                          []).append(blocks)
            for content in _contents(n):
                got = [m for m in enumerate_omp(content, k)]
                assert len(set(got)) == len(got), (content, k)
                assert sorted(got) == sorted(by_content.get(content, [])), \
                    (content, k)


def _omp_by_recursion(content, k):
    """Block sequences of the k-block multiset partitions of a content, by
    the plain left-to-right recursion with one branch per block choice."""
    results = []
    letters = range(1, len(content) + 1)

    def rec(remaining, total, blocks_left, acc):
        if blocks_left == 0:
            results.append(tuple(tuple(sorted(b)) for b in acc))
            return
        forced = tuple(x for x in letters if remaining[x - 1] == blocks_left)
        optional = [x for x in letters if 0 < remaining[x - 1] < blocks_left]
        room = total - (blocks_left - 1) - len(forced)
        for extra in range(0 if forced else 1, min(len(optional), room) + 1):
            for chosen in combinations(optional, extra):
                block = forced + chosen
                for x in block:
                    remaining[x - 1] -= 1
                acc.append(block)
                rec(remaining, total - len(block), blocks_left - 1, acc)
                acc.pop()
                for x in block:
                    remaining[x - 1] += 1

    if max(content, default=0) <= k <= sum(content):
        rec(list(content), sum(content), k, [])
    return results


def test_omp_enumeration_matches_the_plain_recursion_in_order():
    for n in range(7):
        for mu in partitions(n):
            for k in range(n + 2):
                got = [m for m in enumerate_omp(mu, k)]
                assert got == _omp_by_recursion(mu, k), (mu, k)


def test_set_contents_count_ordered_set_partitions():
    for n in range(1, 7):
        assert sum(len(enumerate_omp((1,) * n, k))
                   for k in range(1, n + 1)) == count_osp(n)
    assert sum(len(enumerate_omp((1,) * 7, k)) for k in range(1, 8)) == 47293


def _maj_by_descent_scan(m):
    """omp_maj read off the word: each descent adds the number of blocks
    ending weakly left of it."""
    word, ends = [], []
    for b in m:
        word.extend(sorted(b, reverse=True))
        ends.append(len(word))
    return sum(sum(1 for e in ends if e <= i + 1)
               for i in range(len(word) - 1) if word[i] > word[i + 1])


def test_omp_maj_matches_the_descent_scan():
    for n in range(1, 6):
        for content in _contents(n):
            for k in range(1, n + 1):
                for m in enumerate_omp(content, k):
                    assert omp_maj(m) == _maj_by_descent_scan(m), m


def _brute_minimaj(m):
    """Minimum major index over every ordering of every block."""
    def maj(w):
        return sum(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])
    return min(maj([x for part in words for x in part])
               for words in product(*(permutations(b) for b in m)))


def test_direct_minimaj_matches_brute_force():
    seen = 0
    for n in range(1, 6):
        for content in _contents(n):
            for k in range(1, n + 1):
                for m in enumerate_omp(content, k):
                    assert omp_minimaj(m) == _brute_minimaj(m), m
                    seen += 1
    # every ordered multiset partition over the letters 1..n, n <= 5
    assert seen == 11291


def _dinv_by_cell_pairs(m):
    """omp_dinv over every pair of cells in two columns: same-row pairs
    a > b and pairs with a one row above b and a < b."""
    cols = [sorted(b, reverse=True) for b in m]
    total = 0
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            for ra, a in enumerate(cols[i]):
                for rb, b in enumerate(cols[j]):
                    if ra == rb and a > b:
                        total += 1
                    elif ra == rb + 1 and a < b:
                        total += 1
    return total


def test_omp_dinv_matches_the_cell_pair_count():
    for n in range(1, 7):
        for mu in partitions(n):
            for k in range(1, n + 1):
                for m in enumerate_omp(mu, k):
                    assert omp_dinv(m) == _dinv_by_cell_pairs(m), m


def test_signed_substaircase_at_the_trivial_subgroup_is_the_artin_set():
    # every block of mu = (1^n) has size 1, so the shuffle conditions are
    # empty and each (mu, gamma) gives A_n(J) for its J
    for n in range(1, 6):
        signed = sorted((a, j_of_signed(sp).elems)
                        for sp in signed_partitions(n)
                        if sp.mu == (1,) * n
                        for a in enumerate_signed_artin(sp))
        plain = sorted((a, J.elems) for J in subsets(n)
                       for a in enumerate_artin(J))
        assert signed == plain, n


def _signed_artin_by_definition(sp):
    """Substaircase tuples for J(mu, gamma) whose first m - gamma entries
    strictly increase in each block and whose last gamma weakly increase."""
    def shuffled(a):
        for block, m, g in zip(mu_blocks(sp.mu), sp.mu, sp.gamma):
            seq = [a[p - 1] for p in block]
            strict, weak = seq[:m - g], seq[m - g:]
            if any(x >= y for x, y in zip(strict, strict[1:])) \
                    or any(x > y for x, y in zip(weak, weak[1:])):
                return False
        return True
    st = staircase(j_of_signed(sp))
    return [a for a in product(*map(range, st)) if shuffled(a)]


def test_signed_artin_matches_the_filtered_staircase_in_order():
    for n in range(1, 7):
        for sp in signed_partitions(n):
            assert enumerate_signed_artin(sp) \
                == _signed_artin_by_definition(sp), (sp.mu, sp.gamma)


def test_artin_matches_nested_loops_in_order():
    for n in range(1, 7):
        for J in subsets(n):
            want = [()]
            for s in staircase(J):
                want = [a + (x,) for a in want for x in range(s)]
            assert enumerate_artin(J) == want, J.elems


def test_block_heights_are_the_staircase_before_each_block():
    for n in range(1, 7):
        for sp in signed_partitions(n):
            st = staircase(j_of_signed(sp))
            starts = [block[0] for block in mu_blocks(sp.mu)]
            want = [st[s - 2] if s > 1 else 0 for s in starts]
            params = block_parameters(sp)
            assert [t for _, _, t in params] == want, (sp.mu, sp.gamma)
            assert [(m, g) for m, g, _ in params] \
                == list(zip(sp.mu, sp.gamma))
