import itertools
import math

import numpy as np
import pytest

from ncjacobi import (
    MomentFunctional,
    NcPolynomial,
    Word,
    build_free_product,
    classical_coefficients,
    favard_moments,
    random_admissible_family,
)
from ncjacobi.freeproduct import _univariate_coeffs
from ncjacobi.jacobi import sections
from ncjacobi.words import kernel_index, level_offsets, prepend_index

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
    """Oracle for ``np.linalg.solve`` on an upper triangular T: T^{-1} B by
    row-by-row back substitution."""
    x = np.array(b, dtype=float)
    for i in range(len(t) - 1, -1, -1):
        x[i] = (x[i] - t[i, i + 1 :] @ x[i + 1 :]) / t[i, i]
    return x


def per_letter_fock(J, top):
    """Oracle for the Fock levels of ``favard_moments``: [V_0 .. V_top], V_n holding
    J_w e0 for |w| = n as columns in rank order, J_{kt} e0 = J_k (J_t e0) formed
    with one 2-D product per letter of the stacked sections J."""
    fock = [np.eye(J.shape[1], 1)]
    for _ in range(top):
        fock.append(np.hstack([J[k] @ fock[-1] for k in range(len(J))]))
    return fock


def per_letter_residuals(c, N, A, B):
    """Oracle for ``three_term_residuals``: one letter at a time, each through the
    dense section J_k and an explicitly shifted copy of the coefficients."""
    depth = len(B) // N - 1
    offs = level_offsets(N, depth)
    rows, prepend = offs[depth], prepend_index(N, depth - 1)
    J, residuals = sections(N, A, B, depth), {}
    for k in range(1, N + 1):
        shifted = np.zeros((rows, len(c)))
        shifted[:, prepend[k - 1]] = c[:rows, :rows]
        resid = np.abs(shifted - J[k - 1, :rows] @ c)
        for n in range(depth):
            residuals[(n, k)] = float(np.max(resid[offs[n] : offs[n + 1]]))
    return residuals


def dense_recurrence_b(basis, phi):
    """Oracle for the B blocks of ``extract_recurrence``: the symmetrised
    level-diagonal blocks of the full product C G_k C^T, one letter at a time."""
    N, depth, c = basis.alphabet, basis.depth, basis.coeffs
    offs = level_offsets(N, depth)
    B = {}
    for k in range(1, N + 1):
        m = c @ phi.values[kernel_index(N, depth, k)] @ c.T
        for n in range(depth + 1):
            b = m[offs[n] : offs[n + 1], offs[n] : offs[n + 1]]
            B[(n, k)] = (b + b.T) / 2.0
    return B


def kron_a_matrix(basis, n):
    """Oracle for ``a_matrix_from_coefficients``: the right-hand side
    I_N (x) C_{n-1}^T built by ``np.kron``."""
    rhs = np.kron(np.eye(basis.alphabet), basis.diag_block(n - 1).T)
    return np.linalg.solve(basis.diag_block(n).T, rhs)


def run_form_product(recurrences, sigma):
    """Oracle for ``product_basis``: the product of p_e(X_k) over the maximal
    runs k^e of ``sigma``, left to right, in ``NcPolynomial`` arithmetic."""
    N = len(recurrences)
    result = NcPolynomial.one(N)
    for letter, run in itertools.groupby(sigma.letters):
        exp = len(list(run))
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
