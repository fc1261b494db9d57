import math

import numpy as np
import pytest

from ncjacobi import (
    MomentFunctional,
    NcPolynomial,
    Word,
    block_decompose,
    build_free_product,
    classical_coefficients,
    favard_moments,
    random_admissible_family,
)
from ncjacobi.freeproduct import _univariate_coeffs

# frozen one-variable moment sequences, checked against numerical quadrature
# of the defining weights in test_freeproduct.py
GAUSSIAN_MOMENTS = (1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0)
EXPONENTIAL_MOMENTS = (1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0)
ARCSINE_MOMENTS = (1.0, 0.0, 0.5, 0.0, 0.375, 0.0, 0.3125)
UNIFORM_MOMENTS = (1.0, 0.0, 1 / 3, 0.0, 1 / 5, 0.0, 1 / 7)


def one_dim_functional(moments, max_degree):
    table = {Word((1,) * n, 1): m for n, m in enumerate(moments)}
    return MomentFunctional(1, max_degree, table)


@pytest.fixture
def gaussian_phi():
    """Standard normal moments to degree 2 plus the odd top level."""
    return one_dim_functional(GAUSSIAN_MOMENTS[:6], 2)


@pytest.fixture
def hermite_family():
    return build_free_product([classical_coefficients("hermite", 6)], 5)


@pytest.fixture
def hermite2_family():
    return build_free_product([classical_coefficients("hermite", 6)] * 2, 4)


@pytest.fixture
def laguerre_family():
    return build_free_product([classical_coefficients("laguerre", 6)], 5)


@pytest.fixture
def random_phi():
    """Strictly positive N=2 moment table from a seeded random family."""
    return favard_moments(random_admissible_family(2, 3, seed=11), 3)


def max_block_diff(fam_a, fam_b, depth=None):
    return fam_a.blocks_close(fam_b, depth=depth)


def random_polynomial(rng, alphabet=2, max_degree=3, n_terms=5):
    from ncjacobi import NcPolynomial

    terms = {}
    for _ in range(n_terms):
        length = int(rng.integers(0, max_degree + 1))
        letters = tuple(int(x) for x in rng.integers(1, alphabet + 1, size=length))
        terms[Word(letters, alphabet)] = float(rng.uniform(-2, 2))
    return NcPolynomial(alphabet, terms)


def row_loop_cholesky(mat, tol):
    """Oracle for ``upper_cholesky``: the row-by-row factorization, reading the
    upper triangle and stopping at the first pivot that is not > tol."""
    a = np.asarray(mat, dtype=float)
    n = a.shape[0]
    r = np.zeros((n, n))
    pivots = []
    for j in range(n):
        d = a[j, j] - r[:j, j] @ r[:j, j]
        pivots.append(float(d))
        if not d > tol:
            return None, pivots, False
        r[j, j] = math.sqrt(d)
        r[j, j + 1 :] = (a[j, j + 1 :] - r[:j, j] @ r[:j, j + 1 :]) / r[j, j]
    return r, pivots, True


def substitution_solve(t, b):
    """Oracle for ``solve_triangular``: T^{-1} B for upper triangular T by
    row-by-row back substitution."""
    x = np.array(b, dtype=float)
    for i in range(len(t) - 1, -1, -1):
        x[i] = (x[i] - t[i, i + 1 :] @ x[i + 1 :]) / t[i, i]
    return x


def run_form_product(recurrences, sigma):
    """Oracle for ``product_basis``: the product of p_e(X_k) over the maximal
    runs k^e of ``sigma``, left to right, in ``NcPolynomial`` arithmetic."""
    N = len(recurrences)
    result = NcPolynomial.one(N)
    if sigma.is_empty:
        return result
    for letter, exp in block_decompose(sigma).blocks:
        coeffs = _univariate_coeffs(recurrences[letter - 1], exp)[exp]
        xk = NcPolynomial.variable(N, letter)
        factor = NcPolynomial.constant(N, coeffs[0])
        power = NcPolynomial.one(N)
        for c in coeffs[1:]:
            power = power * xk
            if c != 0.0:
                factor = factor + c * power
        result = result * factor
    return result
