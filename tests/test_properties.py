"""Standalone randomized property suites with a fixed seed."""

from _suites import (suite_gale, suite_kostka, suite_rank_nullity,
                     suite_sparse_terms, suite_superspace)

CASES = 1000
SEED = 20240817


def test_sparse_term_arithmetic():
    assert suite_sparse_terms(CASES, SEED) == CASES


def test_superspace_algebra_relations():
    assert suite_superspace(CASES, SEED) == CASES


def test_gale_partial_order_axioms():
    assert suite_gale(CASES, SEED) == CASES


def test_kostka_unitriangularity():
    assert suite_kostka(CASES, SEED) == CASES


def test_rank_nullity():
    assert suite_rank_nullity(CASES, SEED) == CASES
