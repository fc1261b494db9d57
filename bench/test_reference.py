"""The benchmark's reference module against closed forms."""

import math

import numpy as np
import pytest

import reference as ref


def test_hermite_one_letter_moments():
    fam = ref.free_family([ref.recurrence("hermite", 5)], 5)
    table = ref.moment_table(fam, 11)
    for n in range(12):
        expected = ref.double_factorial_odd(n // 2) if n % 2 == 0 else 0.0
        assert table[n] == pytest.approx(expected, rel=1e-13, abs=1e-12)


def test_free_semicircular_pair_counts_coloured_noncrossing_pairings():
    semi = ref.recurrence("semicircle", 4)
    fam = ref.free_family([semi, semi], 4)
    table = ref.moment_table(fam, 9)
    words = ref.words_up_to(2, 9)
    pairings = np.array([ref.nc_pairings(w) for w in words], dtype=float)
    assert np.array_equal(table, pairings)
    named = {(1, 1, 1, 1): 2, (1, 1, 1, 1, 1, 1): 5, (1, 1, 2, 2, 1, 1): 2,
             (1, 2, 2, 1): 1, (1, 2, 1, 2): 0}
    for word, count in named.items():
        assert ref.nc_pairings(word) == count
        assert table[ref.graded_rank(word, 2)] == count


def test_single_letter_pairings_are_catalan_numbers():
    for m in range(6):
        assert ref.nc_pairings((1,) * (2 * m)) == math.comb(2 * m, m) // (m + 1)
        assert ref.nc_pairings((1,) * (2 * m + 1)) == 0


@pytest.mark.parametrize("N,d", [(2, 3), (3, 2)])
def test_table_matches_plain_operator_products(N, d):
    fam = ref.dense_family(np.random.default_rng(5), N, d)
    table = ref.moment_table(fam, 2 * d + 1)
    for w, value in zip(ref.words_up_to(N, 2 * d + 1), table):
        assert value == pytest.approx(ref.moment(fam, w), rel=1e-12, abs=1e-12)
        assert value == table[ref.graded_rank(w[::-1], N)]


def test_gram_entries_and_positivity():
    N, d = 2, 2
    fam = ref.dense_family(np.random.default_rng(3), N, d)
    table = ref.moment_table(fam, 2 * d + 1)
    g = ref.gram(table, N, d)
    words = ref.words_up_to(N, d)
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            assert g[i, j] == table[ref.graded_rank(b[::-1] + a, N)]
    assert np.array_equal(g, g.T)
    np.linalg.cholesky(g)
    assert ref.condition(table, N, d) >= 1.0


def test_dense_family_is_admissible():
    fam = ref.dense_family(np.random.default_rng(0), 3, 3)
    for n in range(1, 4):
        a = np.hstack([fam.A[(n, k)] for k in range(1, 4)])
        assert a.shape == (3**n, 3**n)
        assert not np.any(np.tril(a, -1))
        assert np.all((np.diag(a) >= 0.5) & (np.diag(a) <= 2.0))
    for b in fam.B.values():
        assert np.array_equal(b, b.T)


def test_motzkin_numbers():
    assert [ref.motzkin(n) for n in range(9)] == [1, 1, 2, 4, 9, 21, 51, 127, 323]
