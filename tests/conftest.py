import functools
import itertools
import math

import numpy as np
import pytest

from ncjacobi import (
    AdmissibleFamily,
    MomentFunctional,
    NcPolynomial,
    Word,
    build_free_product,
    classical_coefficients,
    favard_moments,
    functional_free_product,
    graded_rank,
    random_admissible_family,
    words_up_to,
)
from ncjacobi.freeproduct import _univariate_coeffs
from ncjacobi.jacobi import sections
from ncjacobi.words import level_offsets, prepend_index

# frozen one-variable moment sequences, checked against numerical quadrature
# of the defining weights in test_freeproduct.py
GAUSSIAN_MOMENTS = (1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0)
EXPONENTIAL_MOMENTS = (1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0)
ARCSINE_MOMENTS = (1.0, 0.0, 0.5, 0.0, 0.375, 0.0, 0.3125)
UNIFORM_MOMENTS = (1.0, 0.0, 1 / 3, 0.0, 1 / 5, 0.0, 1 / 7)


def one_dim_functional(moments, max_degree):
    table = {Word((1,) * n, 1): m for n, m in enumerate(moments)}
    return MomentFunctional(1, max_degree, table)


def singular_pair():
    """Gaussian x exponential: second factor has nonzero first moment."""
    g = one_dim_functional(GAUSSIAN_MOMENTS[:6], 2)
    e = one_dim_functional(EXPONENTIAL_MOMENTS[:6], 2)
    return functional_free_product([g, e])


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


def refusal(call):
    """The type and text of the exception that ``call()`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


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
            return None, pivots
        r[j, j] = math.sqrt(d)
        r[j, j + 1 :] = (a[j, j + 1 :] - r[:j, j] @ r[:j, j + 1 :]) / r[j, j]
    return r, pivots


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


def per_letter_residuals(c, family):
    """Oracle for ``three_term_residuals``: one letter at a time, each through the
    dense section J_k and an explicitly shifted copy of the coefficients."""
    N, depth = family.alphabet, family.depth
    offs = level_offsets(N, depth)
    rows = offs[depth]
    prepend = prepend_index(N, depth)[:, :rows]
    J, residuals = sections(family, depth), np.empty((depth, N))
    for k in range(1, N + 1):
        shifted = np.zeros((rows, len(c)))
        shifted[:, prepend[k - 1]] = c[:rows, :rows]
        resid = np.abs(shifted - J[k - 1, :rows] @ c)
        for n in range(depth):
            residuals[n, k - 1] = float(np.max(resid[offs[n] : offs[n + 1]]))
    return residuals


def per_block_random_family(alphabet, depth, seed):
    """Oracle for ``random_admissible_family``: the blocks drawn one (n, k) at a
    time into dicts, A_{n,k} split off the drawn A_n, then stacked by the
    ``AdmissibleFamily`` constructor."""
    rng, N = np.random.default_rng(seed), alphabet
    A, B = {}, {}
    for n in range(1, depth + 1):
        m = np.triu(rng.uniform(-1.0, 1.0, size=(N**n, N**n)), k=1)
        np.fill_diagonal(m, rng.uniform(0.5, 2.0, size=N**n))
        for k, a in enumerate(np.hsplit(m, N), start=1):
            A[(n, k)] = a
    for n in range(depth + 1):
        for k in range(1, N + 1):
            s = rng.uniform(-1.0, 1.0, size=(N**n, N**n))
            B[(n, k)] = s + s.T
    return AdmissibleFamily(alphabet, depth, A, B)


def per_block_free_product(recurrences, depth):
    """Oracle for ``build_free_product``: per letter k, B_{n,k} diagonal with b at
    each word's leading run of k, and A_{n+1,k} sending column t to row kt with a
    at that run plus one, found by walking the letters of each word."""
    N = len(recurrences)
    A, B = {}, {}
    for n in range(depth + 1):
        words = list(itertools.product(range(1, N + 1), repeat=n))
        for k, rec in enumerate(recurrences, start=1):
            runs = [next((i for i, c in enumerate(w) if c != k), n) for w in words]
            B[(n, k)] = np.diag([rec.b[r] for r in runs])
            if n < depth:
                m = np.zeros((N ** (n + 1), N**n))
                for t, r in enumerate(runs):
                    m[(k - 1) * N**n + t, t] = rec.a[r]
                A[(n + 1, k)] = m
    return AdmissibleFamily(N, depth, A, B)


def dense_recurrence_b(basis, phi):
    """Oracle for the B blocks of ``extract_recurrence``: the symmetrised
    level-diagonal blocks of the full product C G_k C^T, one letter at a time,
    with G_k = [s_{I(b) k a}] ranked word by word."""
    N, depth, c = basis.alphabet, basis.depth, basis.coeffs
    offs = level_offsets(N, depth)
    words = words_up_to(N, depth)
    B = {}
    for k in range(1, N + 1):
        mid = Word((k,), N)
        index = [[graded_rank(b.involute().concat(mid).concat(a)) for b in words] for a in words]
        m = c @ phi.values[index] @ c.T
        for n in range(depth + 1):
            b = m[offs[n] : offs[n + 1], offs[n] : offs[n + 1]]
            B[(n, k)] = (b + b.T) / 2.0
    return B


def kron_a_matrix(basis, n):
    """Oracle for the A_n of ``extract_recurrence``: the solve of
    C_n^T A_n = I_N (x) C_{n-1}^T, with C_m the level-m diagonal block of the
    coefficients and the right-hand side built by ``np.kron``."""
    prev, lo, hi = level_offsets(basis.alphabet, n)[-3:]
    rhs = np.kron(np.eye(basis.alphabet), basis.coeffs[prev:lo, prev:lo].T)
    return np.linalg.solve(basis.coeffs[lo:hi, lo:hi].T, rhs)


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


def classical_moments(token, length):
    """Oracle input: the moments m_0..m_length, in closed form, of the probability
    measure of one classical family token: the standard normal (``hermite``), the
    arcsine (``chebyshev_t``) and uniform (``legendre``) laws on [-1, 1], and
    x^alpha e^-x / Gamma(alpha + 1) on (0, inf) (``laguerre(alpha)``)."""
    if token.startswith("laguerre("):
        alpha = float(token[len("laguerre(") : -1])
        return [math.prod(alpha + i for i in range(1, n + 1)) for n in range(length + 1)]
    even = {
        "hermite": lambda n: float(math.prod(range(n - 1, 0, -2))),
        "chebyshev_t": lambda n: math.comb(n, n // 2) / 2.0**n,
        "legendre": lambda n: 1.0 / (n + 1),
    }[token]
    return [0.0 if n % 2 else even(n) for n in range(length + 1)]


def free_cumulants(moments):
    """Free cumulants k_0..k_L (k_0 = 0) of one variable from its moments m_0..m_L.

    In m_n = sum over non-crossing partitions of the product of the blocks'
    cumulants, the block of the first point has some s points, and the s gaps
    after them hold independent partitions: m_n = sum_s k_s [x^(n-s)] M(x)^s with
    M(x) = sum_j m_j x^j (Nica and Speicher, Lectures 10-11).
    """
    top = len(moments) - 1
    kappa = [0.0] * (top + 1)
    for n in range(1, top + 1):
        power, lower = np.ones(1), 0.0
        for s in range(1, n):
            power = np.convolve(power, moments)[: top + 1]
            lower += kappa[s] * power[n - s]
        kappa[n] = float(moments[n] - lower)
    return kappa


def free_word_moments(cumulants, max_length):
    """Oracle for the tables of ``build_free_product`` families: the moments of
    freely independent variables, letter k having the one-variable free
    cumulants ``cumulants[k - 1]``, for every word up to ``max_length`` in graded
    rank order.

    Mixed free cumulants vanish, so s_w is the sum, over the non-crossing
    partitions of the positions of w whose blocks each hold one letter, of the
    product of the blocks' cumulants.  The sum runs as a dynamic program over
    intervals of w: the block through an interval's first point either ends there
    or goes on at a later point of the same letter, and the gap between two
    points of a block is an interval of its own.  Intervals are memoized by their
    letters, so the work is polynomial in the word length.
    """

    @functools.cache
    def moment(word):
        return block(word, 1) if word else 1.0

    @functools.cache
    def block(word, size):
        # word[0] is point number `size` of a block of its letter
        first, rest = word[0], word[1:]
        total = cumulants[first - 1][size] * moment(rest)
        for q, letter in enumerate(rest):
            if letter == first:
                total += moment(rest[:q]) * block(rest[q:], size + 1)
        return total

    letters = range(1, len(cumulants) + 1)
    return np.array([
        moment(word)
        for n in range(max_length + 1)
        for word in itertools.product(letters, repeat=n)
    ])
