import json
import math
import re

import numpy as np
import pytest

from ncjacobi import (
    NcPolynomial,
    NotStrictlyPositiveError,
    ResidualError,
    Word,
    build_free_product,
    classical_coefficients,
    coefficient_oracle,
    enumerate_words,
    extract_recurrence,
    favard_moments,
    functional_free_product,
    orthonormalize,
    product_basis,
    random_admissible_family,
    validate,
    verify_three_term,
)
from ncjacobi.freeproduct import build, parse_recurrence_spec
from ncjacobi.orthopoly import RECOVERY_LIMIT, OrthonormalBasis, three_term_residuals
from ncjacobi.words import SizeError, kernel_index, level_offsets, prepend_index

from conftest import (
    EXPONENTIAL_MOMENTS,
    GAUSSIAN_MOMENTS,
    dense_recurrence_b,
    kron_a_matrix,
    one_dim_functional,
    per_letter_residuals,
    refusal,
    singular_pair,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def random_setup():
    fam = random_admissible_family(2, 3, seed=11)
    phi = favard_moments(fam, 3)
    basis = orthonormalize(phi, 3)
    return fam, phi, basis


# -- orthonormalize ------------------------------------------------------------


def test_gaussian_basis_matches_hand_gram_schmidt(gaussian_phi):
    basis = orthonormalize(gaussian_phi, 2)
    e, x, xx = Word((), 1), Word((1,), 1), Word((1, 1), 1)
    assert basis.polynomial(e) == NcPolynomial.one(1)
    p1 = basis.polynomial(x)
    assert p1.coefficient(x) == pytest.approx(1.0, abs=1e-12)
    assert p1.coefficient(e) == pytest.approx(0.0, abs=1e-12)
    p2 = basis.polynomial(xx)
    assert p2.coefficient(xx) == pytest.approx(1 / SQRT2, abs=1e-12)
    assert p2.coefficient(e) == pytest.approx(-1 / SQRT2, abs=1e-12)
    assert p2.coefficient(x) == pytest.approx(0.0, abs=1e-12)


def test_depth_zero_basis(gaussian_phi):
    basis = orthonormalize(gaussian_phi, 0)
    assert basis.polynomial(Word((), 1)) == NcPolynomial.one(1)


def test_hermite_pair_product_word(hermite2_family):
    phi = favard_moments(hermite2_family, 2)
    basis = orthonormalize(phi, 2)
    assert basis.polynomial(Word((1, 2), 2)) == NcPolynomial.monomial(Word((1, 2), 2))


def test_orthonormality_and_triangularity(random_setup):
    _, phi, basis = random_setup
    n = len(basis.words)
    for i, a in enumerate(basis.words):
        pa = basis.polynomial(a)
        assert basis.coeffs[i, i] > 0
        assert np.all(basis.coeffs[i, i + 1 :] == 0.0)
        assert all(not (w > a) for w in pa.support())
        for j, b in enumerate(basis.words):
            expected = 1.0 if i == j else 0.0
            assert phi.inner(pa, basis.polynomial(b)) == pytest.approx(
                expected, abs=1e-9
            )


def test_orthonormalize_rejects_singular_functional():
    g = one_dim_functional(GAUSSIAN_MOMENTS[:6], 2)
    e = one_dim_functional(EXPONENTIAL_MOMENTS[:6], 2)
    with pytest.raises(NotStrictlyPositiveError):
        orthonormalize(functional_free_product([g, e]), 2)


# -- determinant oracle ----------------------------------------------------------


def test_oracle_trivial_and_gaussian_values(gaussian_phi):
    e, x, xx = Word((), 1), Word((1,), 1), Word((1, 1), 1)
    assert coefficient_oracle(gaussian_phi, e, e) == pytest.approx(1.0, abs=1e-14)
    assert coefficient_oracle(gaussian_phi, x, x) == pytest.approx(1.0, abs=1e-14)
    assert coefficient_oracle(gaussian_phi, xx, e) == pytest.approx(
        -1 / SQRT2, abs=1e-12
    )


def test_oracle_sign_on_laguerre_linear_term():
    # second orthonormal polynomial of the unit exponential weight is
    # (x^2 - 4x + 2)/2: the linear coefficient -2 pins the cofactor sign
    phi = one_dim_functional(EXPONENTIAL_MOMENTS[:5], 2)
    assert coefficient_oracle(phi, Word((1, 1), 1), Word((1,), 1)) == pytest.approx(
        -2.0, abs=1e-12
    )


def test_oracle_requires_comparable_pair(gaussian_phi):
    with pytest.raises(ValueError, match="beta"):
        coefficient_oracle(gaussian_phi, Word((), 1), Word((1,), 1))


def test_oracle_matches_triangular_route(random_setup):
    _, phi, basis = random_setup
    for a in basis.words:
        for b in basis.words:
            if b > a:
                continue
            assert coefficient_oracle(phi, a, b) == pytest.approx(
                basis.coefficient(a, b), abs=1e-8
            )


# -- recurrence extraction ----------------------------------------------------------


def test_extract_gaussian_recurrence(gaussian_phi):
    basis = orthonormalize(gaussian_phi, 2)
    fam = extract_recurrence(basis, gaussian_phi)
    assert fam.A[(1, 1)][0, 0] == pytest.approx(1.0, abs=1e-12)
    assert fam.A[(2, 1)][0, 0] == pytest.approx(SQRT2, abs=1e-12)
    assert fam.B[(0, 1)][0, 0] == 0.0


def test_extract_level_zero_is_first_moment(random_setup):
    _, phi, basis = random_setup
    fam = extract_recurrence(basis, phi)
    for k in (1, 2):
        assert fam.B[(0, k)][0, 0] == phi.moment(Word((k,), 2))


def test_extract_chebyshev_pair_level_one():
    fam = build_free_product([classical_coefficients("chebyshev_t", 4)] * 2, 3)
    phi = favard_moments(fam, 2)
    basis = orthonormalize(phi, 2)
    rec = extract_recurrence(basis, phi)
    a1 = np.hstack([rec.A[(1, 1)], rec.A[(1, 2)]])
    assert np.allclose(a1, np.diag([1 / SQRT2, 1 / SQRT2]), atol=1e-10)


def test_extract_round_trips_random_family(random_setup):
    fam, phi, basis = random_setup
    recovered = extract_recurrence(basis, phi)
    assert fam.blocks_close(recovered) <= 1e-8


def test_basis_refuses_a_negative_depth():
    with pytest.raises(SizeError, match="depth must be >= 0"):
        OrthonormalBasis(2, -1, np.zeros((0, 0)))


def test_gram_builds_no_letter_rows_and_extract_builds_them():
    # gram reads only the rows |a| <= depth; the letter rows are extract's alone
    phi = favard_moments(random_admissible_family(3, 2, seed=4), 2)
    kernel_index.cache_clear()
    prepend_index.cache_clear()
    basis = orthonormalize(phi, 2)
    assert kernel_index.cache_info().currsize == 1
    assert kernel_index(3, 2, 2).shape == (13, 13)
    extract_recurrence(basis, phi)
    assert kernel_index.cache_info().currsize == 2
    assert kernel_index(3, 2, 3).shape == (40, 13)
    # the residual check reads the prepend table that gathered the letter rows
    assert prepend_index.cache_info().currsize == 1


def test_extract_detects_mismatched_functional(random_setup):
    _, phi, basis = random_setup
    other = favard_moments(random_admissible_family(2, 3, seed=99), 3)
    with pytest.raises(ResidualError, match="three-term residual"):
        extract_recurrence(basis, other)


def test_extract_reads_the_factor_of_an_orthonormalized_basis(random_setup, monkeypatch):
    # orthonormalize hands the basis its Gram factor R, whose diagonal blocks are the
    # A~_n that extract_recurrence needs: it inverts nothing
    _, phi, _ = random_setup
    basis = orthonormalize(phi, 3)

    def inverse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", inverse)
    extract_recurrence(basis, phi)


def test_a_basis_from_coefficients_alone_recovers_the_factor_routes_blocks():
    # such a basis derives R = C^-T on first use: blocks within eps cond(G)
    eps = np.finfo(float).eps
    recs = parse_recurrence_spec("chebyshev_t,laguerre(0.5),hermite", 3)
    random_phi = favard_moments(random_admissible_family(2, 3, seed=11), 3)
    product_phi = favard_moments(build(recs, 3), 3)
    for phi, bare in [(random_phi, lambda b: OrthonormalBasis(2, 3, b.coeffs)),
                      (product_phi, lambda b: product_basis(recs, 3))]:
        factored = orthonormalize(phi, 3)
        basis = bare(factored)
        assert "factor" not in vars(basis)
        error = extract_recurrence(basis, phi).blocks_close(extract_recurrence(factored, phi))
        assert error <= eps * np.linalg.cond(phi.gram(3).gram)


def test_a_basis_from_coefficients_alone_refuses_as_the_factor_route():
    phi = favard_moments(random_admissible_family(2, 3, seed=11), 3)
    other = favard_moments(random_admissible_family(2, 3, seed=99), 3)
    unrecoverable = favard_moments(random_admissible_family(3, 4, seed=7), 4)
    recs = parse_recurrence_spec("hermite,legendre", 3)
    rebuilt = lambda b: OrthonormalBasis(b.alphabet, b.depth, b.coeffs)  # noqa: E731
    cases = [
        (orthonormalize(phi, 3), rebuilt, other, "three-term residual"),
        (orthonormalize(unrecoverable, 4), rebuilt, unrecoverable, "recovery condition estimate"),
        (orthonormalize(favard_moments(build(recs, 3), 3), 3), lambda b: product_basis(recs, 3),
         other, "three-term residual"),
    ]
    for factored, bare, table, cause in cases:
        kind, text = refusal(lambda: extract_recurrence(factored, table))
        assert kind is ResidualError and text.startswith(cause), text
        assert refusal(lambda: extract_recurrence(bare(factored), table)) == (kind, text)


@pytest.mark.parametrize("alphabet, depth", [(2, 5), (3, 3), (3, 4), (2, 6)])
def test_accepted_recovery_is_within_its_estimate(alphabet, depth):
    # the sweep behind RECOVERY_LIMIT: every table extract_recurrence accepts
    # recovers the family within eps * est and within 1e-2; every table it refuses
    # names the estimate.  Refusals cover most of (3,4) and all of (2,6) here
    eps = np.finfo(float).eps
    for seed in range(1000, 1100):
        fam = random_admissible_family(alphabet, depth, seed=seed)
        try:
            phi = favard_moments(fam, depth)
            basis = orthonormalize(phi, depth)
        except NotStrictlyPositiveError:
            continue
        c, g = basis.coeffs, np.diag(phi.gram(depth).gram)
        est = len(c) * np.sum(c * c * g)
        if eps * est > RECOVERY_LIMIT:
            with pytest.raises(ResidualError, match="recovery condition estimate"):
                extract_recurrence(basis, phi)
        else:
            error = fam.blocks_close(extract_recurrence(basis, phi))
            assert error <= min(eps * est, 1e-2)


def test_low_degree_components_vanish(random_setup):
    # X_k p_tau never reaches more than one degree below tau
    _, phi, basis = random_setup
    xs = {k: NcPolynomial.variable(2, k) for k in (1, 2)}
    for tau in enumerate_words(2, 3):
        for k in (1, 2):
            xp = xs[k] * basis.polynomial(tau)
            for sigma in basis.words:
                if len(sigma) < 2:
                    assert phi.inner(xp, basis.polynomial(sigma)) == pytest.approx(
                        0.0, abs=1e-9
                    )


# -- coefficient route to the concatenated blocks --------------------------------------


def test_a_matrix_gaussian(gaussian_phi):
    basis = orthonormalize(gaussian_phi, 2)
    assert extract_recurrence(basis, gaussian_phi).a_levels[0] == pytest.approx(
        np.array([[1.0]]), abs=1e-12
    )


def test_a_matrix_hermite_pair_identity(hermite2_family):
    phi = favard_moments(hermite2_family, 2)
    basis = orthonormalize(phi, 2)
    assert np.allclose(extract_recurrence(basis, phi).a_levels[0], np.eye(2), atol=1e-12)


def test_a_matrix_matches_inner_product_route(random_setup):
    # the blocks are <X_k p_tau, p_sigma>, here expanded as polynomials
    _, phi, basis = random_setup
    fam = extract_recurrence(basis, phi)
    xs = {k: NcPolynomial.variable(2, k) for k in (1, 2)}

    def inner_products(rows, cols):
        return np.array(
            [
                [
                    phi.inner(xs[k] * basis.polynomial(tau), basis.polynomial(sigma))
                    for k in (1, 2)
                    for tau in cols
                ]
                for sigma in rows
            ]
        )

    for n in (1, 2, 3):
        concat = inner_products(enumerate_words(2, n), enumerate_words(2, n - 1))
        direct = fam.a_levels[n - 1]
        assert np.allclose(direct, concat, atol=1e-8)
        assert np.array_equal(direct, np.hstack([fam.A[(n, k)] for k in (1, 2)]))
        assert np.allclose(direct, np.triu(direct), atol=1e-10)
        assert np.min(np.diag(direct)) > 0
    for n in (0, 1, 2, 3):
        words = enumerate_words(2, n)
        concat = inner_products(words, words)
        assert np.allclose(np.hstack([fam.B[(n, k)] for k in (1, 2)]), concat, atol=1e-8)


@pytest.mark.parametrize(
    "alphabet, depth, seed", [(2, 4, 7), (3, 3, 2), (3, 3, 3), (3, 3, 4), (3, 3, 5)]
)
def test_extract_round_trips_ill_conditioned_tables(alphabet, depth, seed):
    # cond(G) reaches 1.5e10 here, and the three-term residual grows with it
    fam = random_admissible_family(alphabet, depth, seed=seed)
    phi = favard_moments(fam, depth)
    recovered = extract_recurrence(orthonormalize(phi, depth), phi)
    cond = np.linalg.cond(phi.gram(depth).gram)
    assert fam.blocks_close(recovered) <= cond * np.finfo(float).eps
    assert validate(recovered).ok


@pytest.mark.parametrize("alphabet, depth, seed", [(2, 4, 7), (3, 3, 2), (2, 5, 1)])
def test_a_matrix_and_basis_exactly_triangular(alphabet, depth, seed):
    phi = favard_moments(random_admissible_family(alphabet, depth, seed=seed), depth)
    basis = orthonormalize(phi, depth)
    assert np.all(np.triu(basis.coeffs, 1) == 0.0)
    for a in extract_recurrence(basis, phi).a_levels:
        assert np.all(np.tril(a, -1) == 0.0)


def bitwise_equal(x, y):
    """Equal arrays, down to the sign of every zero."""
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


FREE_CASES = [("hermite,legendre", 4), ("chebyshev_t,laguerre(0.5),hermite", 3)]
ORACLE_CASES = [
    *((N, d, seed) for N, d in [(2, 3), (3, 2), (2, 4), (3, 3)] for seed in range(5)),
    (2, 0, 0),
    (3, 0, 1),
    *FREE_CASES,
]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=str)
def test_batched_recurrence_helpers_match_per_letter_oracles(case):
    # the one-pass three-term check does the arithmetic of the per-letter loop, so
    # the residuals agree bit for bit; A_n, taken from A~_n = C_n^{-T} by the level
    # step, agrees with the np.kron solve to rounding, scaled by cond(C_n)
    if isinstance(case[0], str):
        spec, depth = case
        fam = build_free_product(parse_recurrence_spec(spec, depth + 1), depth)
    else:
        alphabet, depth, seed = case
        fam = random_admissible_family(alphabet, depth, seed=seed)
    N = fam.alphabet
    phi = favard_moments(fam, depth)
    basis = orthonormalize(phi, depth)
    extracted = extract_recurrence(basis, phi)
    for family in (fam, extracted):
        residuals = three_term_residuals(basis.coeffs, family)
        expected = per_letter_residuals(basis.coeffs, family)
        assert np.array_equal(residuals, expected)
        assert residuals.shape == (depth, N)
    assert len(extracted.A) == N * depth
    offs = level_offsets(N, depth)
    for n in range(1, depth + 1):
        direct, expected = extracted.a_levels[n - 1], kron_a_matrix(basis, n)
        c_n = basis.coeffs[offs[n] : offs[n + 1], offs[n] : offs[n + 1]]
        scale = 4 * np.finfo(float).eps * np.linalg.cond(c_n) * np.max(np.abs(expected))
        assert np.max(np.abs(direct - expected)) <= scale
        assert np.all(np.tril(direct, -1) == 0.0)
        for k, block in enumerate(np.hsplit(direct, N), start=1):
            assert bitwise_equal(extracted.A[(n, k)], block)
    # B is formed from the nonzero columns of each level only, so it may differ
    # from the full product by rounding
    dense = dense_recurrence_b(basis, phi)
    assert extracted.B.keys() == dense.keys()
    cond = np.linalg.cond(phi.gram(depth).gram)
    for key, block in extracted.B.items():
        assert np.array_equal(block, block.T)
        assert np.max(np.abs(block - dense[key])) <= np.finfo(float).eps * cond
    if depth == 0:
        assert list(extracted.B) == [(0, k) for k in range(1, N + 1)]
        for k in range(1, N + 1):
            assert np.array_equal(extracted.B[(0, k)], [[phi.values[k]]])


@pytest.mark.parametrize("spec, depth", FREE_CASES)
def test_verify_three_term_matches_per_letter_oracle(spec, depth):
    recs = parse_recurrence_spec(spec, depth + 1)
    family = build(recs, depth)
    c = product_basis(recs, depth).coeffs
    expected = per_letter_residuals(c, family)
    report = verify_three_term(recs, depth)
    assert np.array_equal(report.residuals, expected)
    assert report.max_residual == expected.max()


def test_basis_json_matches_polynomial_route(random_setup):
    recs = [classical_coefficients(kind, 4) for kind in ("laguerre", "legendre")]
    for basis in (random_setup[2], product_basis(recs, 3)):
        expected = {
            "N": basis.alphabet,
            "depth": basis.depth,
            "basis": [
                {"word": list(w.letters), "terms": basis.polynomial(w).to_json_obj()}
                for w in basis.words
            ],
        }
        assert json.dumps(basis.to_json_obj()) == json.dumps(expected)


@pytest.mark.parametrize(
    "call, error, pattern",
    [
        pytest.param(lambda: OrthonormalBasis(2, 1, np.zeros((2, 2))), ValueError,
                     re.escape("coefficient matrix shape (2, 2) does not match 3 words"),
                     id="basis-shape"),
        pytest.param(lambda: OrthonormalBasis(2, 1, np.eye(3), factor=np.eye(2)), ValueError,
                     re.escape("Gram factor shape (2, 2) does not match 3 words"),
                     id="basis-factor-shape"),
        pytest.param(lambda: OrthonormalBasis(0, 3, np.eye(1)), SizeError,
                     re.escape("alphabet size must be >= 1, got 0"), id="basis-alphabet-0"),
        # the determinant of a singular matrix is 0 up to rounding, whose sign varies
        pytest.param(lambda: coefficient_oracle(singular_pair(), Word((1, 2), 2), Word((1, 2), 2)),
                     NotStrictlyPositiveError,
                     re.escape("singular or indefinite leading minor at Word(12; N=2): D = ")
                     + r"-?\d\.\d{3}e[+-]\d+" + re.escape(", previous 2.000e+00"),
                     id="oracle-singular-kernel"),
        pytest.param(
            lambda: extract_recurrence(
                orthonormalize(one_dim_functional(GAUSSIAN_MOMENTS[:4], 1), 1), singular_pair()),
            ValueError, re.escape("basis and functional alphabets differ"), id="extract-alphabets"),
    ],
)
def test_refusals_name_their_cause(call, error, pattern):
    kind, text = refusal(call)
    assert kind is error and re.fullmatch(pattern, text), text
