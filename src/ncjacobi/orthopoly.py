"""Orthonormal polynomials of a strictly positive functional.

The monomial basis up to a degree is orthonormalized against the Gram matrix
G = R^T R: the coefficient rows are the rows of R^{-T}, so each polynomial is
supported on words at or below its own index and has a positive leading
coefficient.  A determinant formula provides a slow independent route to the
same coefficients, and the three-term blocks fall out as inner products.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .functional import MomentFunctional, NotStrictlyPositiveError
from .jacobi import AdmissibleFamily
from .ncpoly import NcPolynomial
from .words import Word, enumerate_words, graded_rank, words_up_to


class ResidualError(RuntimeError):
    """A three-term residual exceeded tolerance: basis and functional disagree."""


class OrthonormalBasis:
    """Lower-triangular coefficient matrix over words in graded-lex order.

    Row alpha holds the coefficients of the polynomial indexed by alpha;
    entry (alpha, beta) is nonzero only for beta <= alpha and the diagonal is
    strictly positive.
    """

    def __init__(self, alphabet: int, depth: int, coeffs: np.ndarray):
        self.alphabet = alphabet
        self.depth = depth
        self.words = words_up_to(alphabet, depth)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(self.words), len(self.words)):
            raise ValueError(
                f"coefficient matrix shape {coeffs.shape} does not match "
                f"{len(self.words)} words"
            )
        self.coeffs = coeffs
        self._index = {w: i for i, w in enumerate(self.words)}

    def coefficient(self, alpha: Word, beta: Word) -> float:
        return float(self.coeffs[self._index[alpha], self._index[beta]])

    def polynomial(self, alpha: Word) -> NcPolynomial:
        i = self._index[alpha]
        terms = {
            w: c for w, c in zip(self.words, self.coeffs[i, :]) if c != 0.0
        }
        return NcPolynomial(self.alphabet, terms)

    def monic_polynomial(self, alpha: Word) -> NcPolynomial:
        """The same polynomial rescaled to leading coefficient 1."""
        return self.polynomial(alpha).scale(1.0 / self.coefficient(alpha, alpha))

    def diag_block(self, n: int) -> np.ndarray:
        """Square coefficient block [a_{alpha,beta}] over words of length n."""
        lo = graded_rank(Word((1,) * n, self.alphabet)) if n else 0
        hi = lo + self.alphabet**n
        return self.coeffs[lo:hi, lo:hi]

    def to_json_obj(self) -> dict:
        return {
            "N": self.alphabet,
            "depth": self.depth,
            "basis": [
                {"word": list(w.letters), "terms": self.polynomial(w).to_json_obj()}
                for w in self.words
            ],
        }


def orthonormalize(
    phi: MomentFunctional, depth: int, tol: float = 1e-10
) -> OrthonormalBasis:
    """Gram-Schmidt over monomials up to ``depth`` in graded-lex order."""
    report = phi.gram(depth, tol=tol)
    if not report.positive:
        raise NotStrictlyPositiveError(
            f"functional not strictly positive at depth {depth}: Gram pivot "
            f"{report.pivots[-1]:.3e} <= {tol}"
        )
    r = report.factor
    rinv = solve_triangular(r, np.eye(r.shape[0]), lower=False)
    return OrthonormalBasis(phi.alphabet, depth, rinv.T)


def coefficient_oracle(phi: MomentFunctional, alpha: Word, beta: Word) -> float:
    """Determinant route to a single coefficient; slow but independent.

    With D_w the kernel determinant over all words <= w (D of the empty index
    set being 1), the coefficient at (alpha, beta) is the signed minor of the
    kernel over rows < alpha and columns <= alpha without beta, scaled by
    (D_{alpha-1} D_alpha)^{-1/2}; the cofactor sign fixes the convention that
    diagonal coefficients are positive.
    """
    if beta > alpha:
        raise ValueError("coefficient defined only for beta <= alpha")
    universe = [w for w in words_up_to(phi.alphabet, len(alpha)) if w <= alpha]
    g = np.array(
        [[phi.kernel_eval(a, b) for b in universe] for a in universe]
    )
    d_alpha = float(np.linalg.det(g))
    d_prev = float(np.linalg.det(g[:-1, :-1])) if len(universe) > 1 else 1.0
    if d_alpha <= 0.0 or d_prev <= 0.0:
        raise NotStrictlyPositiveError(
            f"singular or indefinite leading minor at {alpha}: "
            f"D = {d_alpha:.3e}, previous {d_prev:.3e}"
        )
    i = len(universe) - 1  # row index of alpha
    j = universe.index(beta)
    rows = [r for r in range(len(universe)) if r != i]
    cols = [c for c in range(len(universe)) if c != j]
    if rows:
        minor = float(np.linalg.det(g[np.ix_(rows, cols)]))
    else:
        minor = 1.0
    sign = -1.0 if (i + j) % 2 else 1.0
    return sign * minor / np.sqrt(d_prev * d_alpha)


def extract_recurrence(
    basis: OrthonormalBasis,
    phi: MomentFunctional,
    residual_tol: float = 1e-10,
) -> AdmissibleFamily:
    """Three-term blocks as inner products against the orthonormal basis.

    A_{n,k}[sigma, tau] = <X_k p_tau, p_sigma> with |sigma| = n, |tau| = n-1,
    and likewise B_{n,k} on equal lengths.  The expansion of each X_k p_tau
    against the three neighbouring degrees must reproduce it exactly; the
    largest leftover coefficient is checked against ``residual_tol``.
    """
    if basis.alphabet != phi.alphabet:
        raise ValueError("basis and functional alphabets differ")
    depth = basis.depth
    if phi.word_bound < 2 * depth + 1:
        raise ValueError(
            f"moment table stores words up to length {phi.word_bound}; extracting "
            f"level-{depth} blocks needs length {2 * depth + 1}"
        )
    N = basis.alphabet
    polys = {w: basis.polynomial(w) for w in basis.words}
    xk = {k: NcPolynomial.variable(N, k) for k in range(1, N + 1)}

    A: dict[tuple[int, int], np.ndarray] = {}
    B: dict[tuple[int, int], np.ndarray] = {}
    for n in range(0, depth + 1):
        rows_n = enumerate_words(N, n)
        for k in range(1, N + 1):
            b = np.empty((len(rows_n), len(rows_n)))
            for j, tau in enumerate(rows_n):
                xp = xk[k] * polys[tau]
                for i, sigma in enumerate(rows_n):
                    b[i, j] = phi.inner(xp, polys[sigma])
            B[(n, k)] = b
    for n in range(1, depth + 1):
        rows_n = enumerate_words(N, n)
        cols = enumerate_words(N, n - 1)
        for k in range(1, N + 1):
            a = np.empty((len(rows_n), len(cols)))
            for j, tau in enumerate(cols):
                xp = xk[k] * polys[tau]
                for i, sigma in enumerate(rows_n):
                    a[i, j] = phi.inner(xp, polys[sigma])
            A[(n, k)] = a

    family = AdmissibleFamily(N, depth, A, B)

    # relative residual: each coefficient is a sum of terms |weight| * |coeff|,
    # so round-off grows with the largest such term, not with 1
    worst = 0.0
    for n in range(0, depth):
        rows_up = enumerate_words(N, n + 1)
        rows_n = enumerate_words(N, n)
        rows_dn = enumerate_words(N, n - 1) if n >= 1 else []
        for k in range(1, N + 1):
            for j, tau in enumerate(rows_n):
                resid = xk[k] * polys[tau]
                scale = max(1.0, resid.max_abs_coefficient())
                terms = (
                    [(A[(n + 1, k)][i, j], rows_up[i]) for i in range(len(rows_up))]
                    + [(B[(n, k)][i, j], rows_n[i]) for i in range(len(rows_n))]
                    + [(A[(n, k)][j, i], rows_dn[i]) for i in range(len(rows_dn))]
                )
                for weight, sigma in terms:
                    resid = resid - weight * polys[sigma]
                    scale = max(scale, abs(weight) * polys[sigma].max_abs_coefficient())
                worst = max(worst, resid.max_abs_coefficient() / scale)
    if worst > residual_tol:
        raise ResidualError(
            f"relative three-term residual {worst:.3e} exceeds {residual_tol}; "
            f"basis and functional are inconsistent"
        )
    return family


def a_matrix_from_coefficients(basis: OrthonormalBasis, n: int) -> np.ndarray:
    """[A_{n,1} ... A_{n,N}] from coefficient blocks alone.

    Matching degree-n homogeneous parts in the three-term relation gives
    C_n^T A_n = (I_N (x) C_{n-1}^T) in the prepend-letter column layout, with
    C_m the square coefficient block of degree m.
    """
    if not (1 <= n <= basis.depth):
        raise ValueError(f"level {n} outside 1..{basis.depth}")
    c_n = basis.diag_block(n)
    c_prev = basis.diag_block(n - 1)
    rhs = np.kron(np.eye(basis.alphabet), c_prev.T)
    return solve_triangular(c_n.T, rhs, lower=False)
