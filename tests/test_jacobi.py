import math

import numpy as np
import pytest

from ncjacobi import (
    AdmissibleFamily,
    NotStrictlyPositiveError,
    Word,
    build_free_product,
    classical_coefficients,
    coefficient_oracle,
    extract_recurrence,
    favard_moments,
    moments_from_paths,
    operator_moment,
    orthonormalize,
    random_admissible_family,
    validate,
    words_up_to,
)

from ncjacobi.freeproduct import parse_recurrence_spec
from ncjacobi.jacobi import sections
from ncjacobi.words import enumerate_words

from conftest import GAUSSIAN_MOMENTS, per_letter_fock

SQRT2 = math.sqrt(2.0)


def chebyshev_family(depth=5):
    return build_free_product([classical_coefficients("chebyshev_t", depth + 1)], depth)


# -- validation ---------------------------------------------------------------


def test_validate_free_product_family(hermite2_family):
    report = validate(hermite2_family)
    assert report.ok and not report.violations


def test_validate_flags_asymmetric_b(hermite2_family):
    bad = AdmissibleFamily(
        hermite2_family.alphabet,
        hermite2_family.depth,
        dict(hermite2_family.A),
        {**hermite2_family.B, (1, 1): np.array([[0.0, 1.0], [0.0, 0.0]])},
    )
    report = validate(bad)
    assert not report.ok
    assert any("B[1,1] not symmetric" in v for v in report.violations)


def test_validate_flags_nonpositive_diagonal():
    a = {
        (1, 1): np.array([[0.0], [0.0]]),
        (1, 2): np.array([[0.0], [1.0]]),
    }
    b = {(n, k): np.zeros((2**n, 2**n)) for n in (0, 1) for k in (1, 2)}
    report = validate(AdmissibleFamily(2, 1, a, b))
    assert not report.ok
    assert any("diagonal not strictly positive" in v for v in report.violations)


def test_validate_flags_lower_entries():
    a = {
        (1, 1): np.array([[1.0], [0.5]]),
        (1, 2): np.array([[0.0], [1.0]]),
    }
    b = {(n, k): np.zeros((2**n, 2**n)) for n in (0, 1) for k in (1, 2)}
    report = validate(AdmissibleFamily(2, 1, a, b))
    assert not report.ok
    assert any("not upper triangular" in v for v in report.violations)


@pytest.mark.parametrize("side, key", [("B", (1, 1)), ("A", (2, 2))])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_flags_non_finite_entries(hermite2_family, side, key, value):
    blocks = {"A": dict(hermite2_family.A), "B": dict(hermite2_family.B)}
    blocks[side][key] = blocks[side][key].copy()
    blocks[side][key][0, 0] = value
    bad = AdmissibleFamily(2, hermite2_family.depth, blocks["A"], blocks["B"])
    report = validate(bad)
    assert not report.ok
    assert any("non-finite" in v for v in report.violations)


def test_family_shape_checks():
    with pytest.raises(ValueError, match="missing block"):
        AdmissibleFamily(1, 1, {}, {(0, 1): np.zeros((1, 1)), (1, 1): np.zeros((1, 1))})
    with pytest.raises(ValueError, match="shape"):
        AdmissibleFamily(
            1,
            1,
            {(1, 1): np.zeros((2, 2))},
            {(0, 1): np.zeros((1, 1)), (1, 1): np.zeros((1, 1))},
        )


def test_random_family_is_admissible():
    for seed in range(5):
        fam = random_admissible_family(2, 3, seed=seed)
        assert validate(fam).ok


# -- truncation -----------------------------------------------------------------


def test_truncate_hermite_example(hermite_family):
    t = sections(hermite_family.alphabet, hermite_family.A, hermite_family.B, 2)[0]
    assert np.allclose(
        t,
        [[0.0, 1.0, 0.0], [1.0, 0.0, SQRT2], [0.0, SQRT2, 0.0]],
        atol=1e-15,
    )


def test_truncate_level_zero(hermite2_family):
    t = sections(hermite2_family.alphabet, hermite2_family.A, hermite2_family.B, 0)[1]
    assert t.shape == (1, 1)
    assert t[0, 0] == hermite2_family.B[(0, 2)][0, 0]


def test_truncate_laguerre_pair_example():
    fam = build_free_product([classical_coefficients("laguerre", 3)] * 2, 2)
    t = sections(fam.alphabet, fam.A, fam.B, 1)[0]
    assert np.allclose(
        t,
        [[1.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]],
        atol=1e-15,
    )


def test_truncate_is_symmetric_block_tridiagonal():
    fam = random_admissible_family(2, 3, seed=8)
    t = sections(fam.alphabet, fam.A, fam.B, 3)[0]
    assert np.array_equal(t, t.T)
    # zero outside the three block diagonals: entries between level 0 and 2+
    assert np.all(t[0, 3:] == 0.0)
    assert np.all(t[1:3, 7:] == 0.0)


# -- operator moments --------------------------------------------------------------


def test_operator_moment_hermite_fourth(hermite_family):
    assert operator_moment(hermite_family, Word((1, 1, 1, 1), 1)) == pytest.approx(
        3.0, abs=1e-12
    )


def test_operator_moment_single_letter_zero_diagonal(hermite2_family):
    assert operator_moment(hermite2_family, Word((2,), 2)) == 0.0


def test_operator_moment_chebyshev_example():
    fam = chebyshev_family()
    assert operator_moment(fam, Word((1, 1, 1, 1), 1)) == pytest.approx(
        3.0 / 8.0, abs=1e-14
    )


def test_operator_moment_truncation_stability():
    # <J_w e0, e0> is the same on every section through a level >= |w| // 2
    fam = random_admissible_family(2, 5, seed=13)
    for letters in [(1, 1), (1, 2, 1), (2, 2, 1, 1), (1, 2, 2, 1, 2)]:
        w = Word(letters, 2)
        base = len(w) // 2
        values = {operator_moment(fam, w)}
        for lvl in range(base, min(base + 3, fam.depth) + 1):
            J = sections(fam.alphabet, fam.A, fam.B, lvl)
            v = np.eye(len(J[0]), 1)
            for k in reversed(letters):
                v = J[k - 1] @ v
            values.add(float(v[0, 0]))
        assert max(values) - min(values) <= 1e-10


def test_moments_follow_an_edited_family():
    # moments are functions of the blocks as they are now, not as first seen
    fam = random_admissible_family(2, 2, seed=1)
    w = Word((1, 1, 1, 1), 2)
    before = favard_moments(fam, 2)
    operator_moment(fam, w)
    fam.B[(1, 1)][0, 0] += 0.5
    after = favard_moments(fam, 2)
    assert after.moment(w) == pytest.approx(moments_from_paths(fam, w), abs=1e-12)
    assert abs(after.moment(w) - before.moment(w)) > 0.1
    assert operator_moment(fam, w) == pytest.approx(moments_from_paths(fam, w), abs=1e-12)
    for u in words_up_to(2, 5):
        assert after.moment(u) == pytest.approx(moments_from_paths(fam, u), abs=1e-10)
    assert np.array_equal(sections(fam.alphabet, fam.A, fam.B, 1)[0][1:3, 1:3], fam.B[(1, 1)])


def test_operator_moment_insufficient_depth():
    fam = random_admissible_family(2, 1, seed=0)
    with pytest.raises(ValueError, match="level|depth"):
        operator_moment(fam, Word((1, 1, 1, 1), 2))


# -- favard moments ------------------------------------------------------------------


def test_favard_hermite_moments(hermite_family):
    phi = favard_moments(hermite_family, 2)
    got = [phi.moment(Word((1,) * n, 1)) for n in range(5)]
    assert got == pytest.approx(list(GAUSSIAN_MOMENTS[:5]), abs=1e-12)


def test_favard_includes_odd_top_level(hermite_family):
    phi = favard_moments(hermite_family, 2)
    assert phi.word_bound == 5
    assert phi.moment(Word((1,) * 5, 1)) == pytest.approx(0.0, abs=1e-12)


def test_favard_hermite_pair_moments(hermite2_family):
    phi = favard_moments(hermite2_family, 2)
    assert phi.moment(Word((1, 1, 2, 2), 2)) == pytest.approx(1.0, abs=1e-12)
    assert phi.moment(Word((1, 2), 2)) == 0.0
    # alternating product of two independent centered variables: inner products
    # of distinct basis words vanish, so this mixed moment is zero
    assert phi.moment(Word((1, 2, 1, 2), 2)) == pytest.approx(0.0, abs=1e-12)


def test_favard_is_strictly_positive():
    fam = random_admissible_family(2, 3, seed=29)
    phi = favard_moments(fam, 3)
    assert phi.is_strictly_positive(3)


def test_favard_depth_precondition():
    fam = random_admissible_family(2, 2, seed=1)
    with pytest.raises(ValueError, match="depth"):
        favard_moments(fam, 3)


def test_favard_agrees_with_path_sums():
    fam = random_admissible_family(2, 3, seed=31)
    phi = favard_moments(fam, 3)
    for w in words_up_to(2, 6):
        assert phi.moment(w) == pytest.approx(moments_from_paths(fam, w), abs=1e-10)


def test_round_trip_through_gram_schmidt():
    fam = random_admissible_family(2, 3, seed=37)
    phi = favard_moments(fam, 3)
    basis = orthonormalize(phi, 3)
    recovered = extract_recurrence(basis, phi)
    assert fam.blocks_close(recovered) <= 1e-8


# -- serialization ---------------------------------------------------------------------


def test_family_json_round_trip():
    fam = random_admissible_family(2, 3, seed=41)
    back = AdmissibleFamily.from_json_obj(fam.to_json_obj())
    assert back.alphabet == fam.alphabet and back.depth == fam.depth
    assert fam.blocks_close(back) == 0.0


@pytest.mark.parametrize("alphabet, depth, seed", [(2, 6, 1), (3, 4, 13)])
def test_favard_accepts_ill_conditioned_admissible_family(alphabet, depth, seed):
    # the float64 Gram matrix of these tables has Cholesky pivots down to -35;
    # the Fock factor's QR pivots are min diag(V)^2, 0.59 and 0.26
    fam = random_admissible_family(alphabet, depth, seed=seed)
    phi = favard_moments(fam, depth)
    words = words_up_to(alphabet, phi.word_bound)
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(words), size=40, replace=False):
        w = words[i]
        ref = operator_moment(fam, w)
        assert phi.moment(w) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_favard_rejects_zero_a_diagonal():
    fam = random_admissible_family(2, 3, seed=3)
    fam.A[(2, 1)][0, 0] = 0.0  # the pivot of the word 11
    assert not validate(fam).ok
    with pytest.raises(NotStrictlyPositiveError, match="strict positivity"):
        favard_moments(fam, 3)


# -- the Fock matrix is the Gram factor ---------------------------------------------

EPS = np.finfo(float).eps
FOCK_CASES = [
    (2, 3, 1), (3, 3, 2), ("hermite,legendre", 4), ("chebyshev_t,laguerre(0.5),hermite", 3)
]


def fock_case(case):
    """A seeded (N, depth, seed) family, or a free product from a spec, at a depth."""
    if isinstance(case[0], int):
        N, depth, seed = case
        return random_admissible_family(N, depth, seed=seed), depth
    spec, depth = case
    return build_free_product(parse_recurrence_spec(spec, depth + 1), depth), depth


def fock_matrix(fam, d):
    """V = [J_w e0] over the words w of length <= d, in rank order."""
    return np.hstack(per_letter_fock(sections(fam.alphabet, fam.A, fam.B, d), d))


@pytest.mark.parametrize("case", FOCK_CASES)
def test_fock_matrix_is_gram_factor(case):
    # V = [J_w e0] over |w| <= d is upper triangular, so its QR changes nothing
    # and favard_moments reads the positivity pivots off diag(V)
    fam, d = fock_case(case)
    v = fock_matrix(fam, d)
    assert np.all(np.tril(v, -1) == 0.0)
    assert np.array_equal(np.linalg.qr(v, mode="r"), v)
    report = favard_moments(fam, d).gram(d)
    bound = np.linalg.cond(report.gram) * EPS
    assert np.max(np.abs(report.factor - v)) <= bound * np.max(np.abs(v))


def per_letter_table(fam, d):
    """The moment table s_{ab} = <J_{I(a)} e0, J_b e0>, |a| = |ab| // 2, one level
    product per word length from the per-letter Fock levels, each reversal orbit
    read at its smaller word."""
    N = fam.alphabet
    fock = per_letter_fock(sections(N, fam.A, fam.B, d), d + 1)
    table = {}
    for n in range(2 * d + 2):
        firsts, lasts = enumerate_words(N, n // 2), enumerate_words(N, n - n // 2)
        left = fock[n // 2][:, [a.involute().rank() for a in firsts]]
        products = left.T @ fock[n - n // 2]
        for i, a in enumerate(firsts):
            for j, b in enumerate(lasts):
                table[a.concat(b)] = products[i, j]
    return np.array([table[min(w, w.involute())] for w in words_up_to(N, 2 * d + 1)])


@pytest.mark.parametrize("case", [(2, 4, seed) for seed in range(5)] + FOCK_CASES)
def test_favard_table_is_the_per_letter_fock_table(case):
    # bit for bit: any other summation order in the Fock products (an einsum over
    # the stack, say) moves entries of every dense (2,4) table
    fam, d = fock_case(case)
    assert np.array_equal(favard_moments(fam, d).values, per_letter_table(fam, d))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("N,d", [(2, 3), (3, 3), (2, 5), (3, 4)])
def test_fock_diagonal_is_product_of_a_diagonals(N, d, seed):
    # the level-n part of J_k J_{w'} e0 is A_{n,k} times the level-(n-1) part of
    # J_{w'} e0, and both factors are triangular: d_{kw'} = A_n[c, c] d_{w'} with
    # c the level rank of k w', the other terms of the sum being exact zeros
    fam = random_admissible_family(N, d, seed=seed)
    expected = np.ones(1)
    for n in range(1, d + 1):
        level = np.diag(fam.concat_A(n)) * np.tile(expected[-(N ** (n - 1)) :], N)
        expected = np.concatenate([expected, level])
    assert np.array_equal(np.diag(fock_matrix(fam, d)), expected)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("N,d", [(1, 3), (2, 2), (3, 1), (2, 3)])
def test_fock_diagonal_gives_leading_coefficients_and_minors(N, d, seed):
    # G = V^T V with V upper triangular: the orthonormal polynomial p_a has
    # leading coefficient 1 / diag(V)_a, and the leading minor D_a of G over the
    # words up to a is the product of diag(V)^2 over those words
    fam = random_admissible_family(N, d, seed=seed)
    diag = np.diag(fock_matrix(fam, d))
    phi = favard_moments(fam, d)
    g = phi.gram(d).gram
    bound = np.linalg.cond(g) * EPS
    for i, a in enumerate(words_up_to(N, d)):
        assert abs(coefficient_oracle(phi, a, a) * diag[i] - 1.0) <= bound
    minors = [np.linalg.det(g[: i + 1, : i + 1]) for i in range(len(g))]
    assert np.allclose(minors, np.cumprod(diag**2), rtol=bound, atol=0.0)
