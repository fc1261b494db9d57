"""Orthonormal polynomials of a strictly positive functional.

The monomial basis up to a degree is orthonormalized against the Gram matrix
G = R^T R: the coefficient rows are the rows of R^{-T}, so each polynomial is
supported on words at or below its own index and has a positive leading
coefficient.  A determinant formula provides a slow independent route to the
same coefficients.  The three-term blocks are sub-blocks of C G_k C^T, with C
the coefficient matrix and G_k the moment kernel with letter k in the middle:
the block, non-commuting form of Golub-Welsch.
"""

from __future__ import annotations

import functools

import numpy as np

from .functional import POSITIVITY_TOL, MomentFunctional, NotStrictlyPositiveError
from .jacobi import AdmissibleFamily, sections
from .ncpoly import NcPolynomial
from .words import Word, kernel_index, letters_up_to, level_offsets, prepend_index
from .words import words_up_to


# eps times the recovery condition estimate must not exceed this; on 1600 seeded
# dense tables at (N, d) = (2,5), (3,3), (3,4), (2,6) the block error stayed
# below 0.1 eps est, so an accepted recovery is good to about 1e-2
RECOVERY_LIMIT = 0.1


class ResidualError(RuntimeError):
    """Recovered blocks that cannot be trusted: a three-term residual exceeded its
    bound (basis and functional disagree), or the table is too ill-conditioned
    for float64 moments to determine the blocks (``RECOVERY_LIMIT``)."""


class OrthonormalBasis:
    """Lower-triangular coefficient matrix over words in graded-lex order.

    Row alpha holds the coefficients of the polynomial indexed by alpha;
    entry (alpha, beta) is nonzero only for beta <= alpha and the diagonal is
    strictly positive.
    """

    def __init__(self, alphabet: int, depth: int, coeffs: np.ndarray):
        self.alphabet = alphabet
        self.depth = depth
        size = level_offsets(alphabet, depth)[-1]
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (size, size):
            raise ValueError(
                f"coefficient matrix shape {coeffs.shape} does not match {size} words"
            )
        self.coeffs = coeffs

    @functools.cached_property
    def words(self) -> list[Word]:
        return words_up_to(self.alphabet, self.depth)

    @functools.cached_property
    def _index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.words)}

    def coefficient(self, alpha: Word, beta: Word) -> float:
        return float(self.coeffs[self._index[alpha], self._index[beta]])

    def polynomial(self, alpha: Word) -> NcPolynomial:
        i = self._index[alpha]
        terms = {
            w: c for w, c in zip(self.words, self.coeffs[i, :]) if c != 0.0
        }
        return NcPolynomial(self.alphabet, terms)

    def diag_block(self, n: int) -> np.ndarray:
        """Square coefficient block [a_{alpha,beta}] over words of length n."""
        lo, hi = level_offsets(self.alphabet, n)[-2:]
        return self.coeffs[lo:hi, lo:hi]

    def to_json_obj(self) -> dict:
        """Each row's nonzero coefficients, word by word in graded-lex order."""
        letters = list(letters_up_to(self.alphabet, self.depth))
        basis = []
        for word, row in zip(letters, self.coeffs.tolist()):
            terms = [{"word": list(w), "coeff": c} for w, c in zip(letters, row) if c != 0.0]
            basis.append({"word": list(word), "terms": terms})
        return {"N": self.alphabet, "depth": self.depth, "basis": basis}


def orthonormalize(phi: MomentFunctional, depth: int) -> OrthonormalBasis:
    """Gram-Schmidt over monomials up to ``depth`` in graded-lex order."""
    report = phi.gram(depth)
    if not report.positive:
        raise NotStrictlyPositiveError(
            f"functional not strictly positive at depth {depth}: Gram pivot "
            f"{report.pivots[-1]:.3e} <= {POSITIVITY_TOL}"
        )
    return OrthonormalBasis(phi.alphabet, depth, np.linalg.inv(report.factor).T)


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


def extract_recurrence(basis: OrthonormalBasis, phi: MomentFunctional) -> AdmissibleFamily:
    """Three-term blocks of the orthonormal basis under the functional.

    With C the coefficient matrix and G_k = [<X_k X_a, X_b>], the matrix
    M_k = C G_k C^T holds <X_k p_tau, p_sigma> at (sigma, tau); B_{n,k} is its
    symmetrised level-n diagonal block C_n G_k C_n^T, formed over the columns up
    to level n only, since C_n, the level-n rows of C, vanishes beyond them.
    A_n comes from the coefficient diagonal blocks alone
    (``a_matrix_from_coefficients``), so it is exactly upper triangular.  The
    blocks must reproduce X_k p_tau = sum_sigma J_k[sigma, tau] p_sigma for
    |tau| < depth, with J_k the finite section they assemble; the largest
    coefficient of the difference must stay within
    eps * ||R||_F^2 * ||R^{-1}||_F^2, where G = R^T R and C = R^{-T}.

    The table is refused before any block is formed when eps * est exceeds
    RECOVERY_LIMIT, with est = n sum_ij G_jj C_ij^2 over the n basis words.  It
    bounds the condition number of the diagonally scaled Gram matrix D G D,
    D = diag(G)^(-1/2), which is what limits the accuracy of the blocks.
    """
    if basis.alphabet != phi.alphabet:
        raise ValueError("basis and functional alphabets differ")
    N, depth, c = basis.alphabet, basis.depth, basis.coeffs
    if phi.word_bound < 2 * depth + 1:
        raise ValueError(
            f"moment table stores words up to length {phi.word_bound}; extracting "
            f"level-{depth} blocks needs length {2 * depth + 1}"
        )
    eps = np.finfo(float).eps
    g_diag = phi.values[np.diag(kernel_index(N, depth))]
    # ||R D||_F^2 ||(R D)^-1||_F^2 >= cond(D G D), where ||R D||_F^2 = trace(D G D)
    # = n and (R D)^-1 = D^-1 C^T
    c2 = c * c
    est = len(c) * float(np.sum(c2 @ g_diag))
    if not eps * est <= RECOVERY_LIMIT:
        raise ResidualError(
            f"recovery condition estimate eps n sum G_jj C_ij^2 = {eps * est:.3e} "
            f"exceeds {RECOVERY_LIMIT:g}: float64 moments do not determine the "
            f"depth-{depth} blocks"
        )
    offs = level_offsets(N, depth)
    A: dict[tuple[int, int], np.ndarray] = {}
    B: dict[tuple[int, int], np.ndarray] = {}
    for n in range(1, depth + 1):
        # column block k of [A_{n,1} .. A_{n,N}], as views
        a = a_matrix_from_coefficients(basis, n)
        for k, block in enumerate(a.reshape(len(a), N, -1).swapaxes(0, 1), start=1):
            A[(n, k)] = block
    g = np.empty((N, len(c), len(c)))  # G_k, stacked over k
    for k in range(1, N + 1):
        np.take(phi.values, kernel_index(N, depth, k), out=g[k - 1])
    for n in range(depth + 1):
        lo, hi = offs[n], offs[n + 1]
        c_n = c[lo:hi, :hi]
        b = c_n @ g[:, :hi, :hi] @ c_n.T
        b = (b + b.swapaxes(1, 2)) / 2.0
        for k in range(1, N + 1):
            B[(n, k)] = b[k - 1]
    del g
    worst = float(np.max(list(three_term_residuals(c, N, A, B).values()), initial=0.0))
    # eps ||R||_F^2 ||R^{-1}||_F^2 >= eps cond(G), the accuracy scale of any
    # recovery from moments; ||R||_F^2 = trace(G) and R^{-1} = C^T
    bound = eps * float(np.sum(g_diag)) * float(np.sum(c2))
    if not worst <= bound:
        raise ResidualError(
            f"three-term residual {worst:.3e} exceeds eps ||R||_F^2 ||R^-1||_F^2 = "
            f"{bound:.3e}; basis and functional are inconsistent"
        )
    return AdmissibleFamily(N, depth, A, B)


def three_term_residuals(c: np.ndarray, N: int, A: dict, B: dict) -> dict:
    """Largest coefficient of X_k p_tau - sum_sigma J_k[sigma, tau] p_sigma over the
    words tau of level n, at (n, k) for each level n below the depth of the blocks.

    Row tau of ``c`` holds the coefficients of p_tau by graded rank; J_k is the
    section that A and B assemble.  All letters are checked in one pass.
    """
    depth = len(B) // N - 1
    offs = level_offsets(N, depth)
    rows = offs[depth]
    # the rows of the sections J_k below the top level
    resid = sections(N, A, B, depth)[:, :rows] @ c
    # the coefficients of X_k p_tau are those of p_tau moved to the prepended words
    letters = np.arange(N)[:, None]
    resid[letters, :, prepend_index(N, depth - 1)] -= c[:rows, :rows].T
    np.abs(resid, out=resid)
    worst = np.maximum.reduceat(resid.max(axis=2), offs[:depth], axis=1)
    return {(n, k): float(worst[k - 1, n]) for k in range(1, N + 1) for n in range(depth)}


def a_matrix_from_coefficients(basis: OrthonormalBasis, n: int) -> np.ndarray:
    """[A_{n,1} ... A_{n,N}] from coefficient blocks alone.

    Matching degree-n homogeneous parts in the three-term relation gives
    C_n^T A_n = (I_N (x) C_{n-1}^T) in the prepend-letter column layout, with
    C_m the square coefficient block of degree m.
    """
    if not (1 <= n <= basis.depth):
        raise ValueError(f"level {n} outside 1..{basis.depth}")
    N, c_n = basis.alphabet, basis.diag_block(n)
    c_prev = basis.diag_block(n - 1).T
    size = N * len(c_prev)
    # I_N (x) C_{n-1}^T as one broadcast product, with the signed zeros of np.kron
    rhs = (_identity_blocks(N) * c_prev[:, None, :]).reshape(size, size)
    # LAPACK's LU pivots nothing on the upper triangular C_n^T, so the solve is
    # back substitution: the entries of A_n below the diagonal come out exactly 0
    return np.linalg.solve(c_n.T, rhs)


@functools.lru_cache(maxsize=8)
def _identity_blocks(N: int) -> np.ndarray:
    """I_N at [i, 0, j, 0], to broadcast against a square block as np.kron does."""
    eye = np.eye(N)[:, None, :, None]
    eye.flags.writeable = False
    return eye
