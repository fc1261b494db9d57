"""Orthonormal polynomials of a strictly positive functional.

The monomial basis up to a degree is orthonormalized against the Gram matrix
G = R^T R: the coefficient rows are the rows of R^{-T}, so each polynomial is
supported on words at or below its own index and has a positive leading
coefficient.  A determinant formula provides a slow independent route to the
same coefficients.  Of the three-term blocks, B_{n,k} is the level-n diagonal
block of C G_k C^T, with C the coefficient matrix and G_k the rows of the moment
kernel at the words k a: the block, non-commuting form of Golub-Welsch.  A_n
comes from the level-n diagonal block A~_n = A_n (I_N (x) A~_{n-1}) of R.
"""

from __future__ import annotations

import functools

import numpy as np

from .functional import MomentFunctional, NotStrictlyPositiveError, require_positive
from .jacobi import AdmissibleFamily, _letter_blocks, sections
from .ncpoly import NcPolynomial
from .words import SizeError, Word, _check_sizes, _require_alphabet, graded_rank, kernel_index
from .words import letters_up_to, level_offsets, prepend_index, words_up_to


EPS = np.finfo(float).eps

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
    strictly positive.  ``factor`` is the Gram factor R (coeffs = R^{-T}), derived if not given.
    """

    def __init__(self, alphabet: int, depth: int, coeffs: np.ndarray, factor=None):
        _check_sizes(alphabet, depth=depth)
        self.alphabet, self.depth = alphabet, depth
        size = level_offsets(alphabet, depth)[-1]
        coeffs = np.asarray(coeffs, dtype=float)
        factor = None if factor is None else np.asarray(factor, dtype=float)
        for what, m in (("coefficient matrix", coeffs), ("Gram factor", factor)):
            if m is not None and m.shape != (size, size):
                raise ValueError(f"{what} shape {m.shape} does not match {size} words")
        self.coeffs = coeffs
        if factor is not None:
            self.factor = factor

    @functools.cached_property
    def factor(self) -> np.ndarray:
        return np.linalg.inv(self.coeffs).T

    @functools.cached_property
    def words(self) -> list[Word]:
        return words_up_to(self.alphabet, self.depth)

    def _rank(self, w: Word) -> int:
        """The row and column of ``w``, a word the basis stores."""
        what = f"word {w}"
        _require_alphabet(self.alphabet, w, what)
        if len(w) > self.depth:
            raise SizeError(f"basis stores words up to length {self.depth}, not {what}")
        return graded_rank(w)

    def coefficient(self, alpha: Word, beta: Word) -> float:
        return float(self.coeffs[self._rank(alpha), self._rank(beta)])

    def polynomial(self, alpha: Word) -> NcPolynomial:
        i = self._rank(alpha)
        terms = {
            w: c for w, c in zip(self.words, self.coeffs[i, :]) if c != 0.0
        }
        return NcPolynomial(self.alphabet, terms)

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
        require_positive(report.pivots, f"depth {depth}")
    r = report.factor
    return OrthonormalBasis(phi.alphabet, depth, np.linalg.inv(r).T, factor=r)


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
    A_n comes from the diagonal blocks alone: the level-n diagonal block of the
    basis's Gram factor R is A~_n = A_n (I_N (x) A~_{n-1}), as in the path peel,
    and A~_{n-1}^{-1} = C_{n-1}^T, with C_{n-1} the level-(n-1) diagonal block of
    C; all three are upper triangular, so A_n is exactly upper triangular.  The
    blocks must reproduce X_k p_tau = sum_sigma J_k[sigma, tau] p_sigma for
    |tau| < depth, with J_k the finite section they assemble; the largest
    coefficient of the difference must stay within
    eps * ||R||_F^2 * ||R^{-1}||_F^2, where G = R^T R and C = R^{-T}.

    The table is refused before any block is formed when eps * est exceeds
    RECOVERY_LIMIT, with est = n sum_ij G_jj C_ij^2 over the n basis words.  It
    bounds the condition number of the diagonally scaled Gram matrix D G D,
    D = diag(G)^(-1/2), which is what limits the accuracy of the blocks.
    """
    _require_alphabet(phi.alphabet, basis, "the basis")
    N, depth, c = basis.alphabet, basis.depth, basis.coeffs
    phi._require_words(2 * depth + 1, f"extracting level-{depth} blocks")
    kernel = kernel_index(N, depth, depth + 1)
    g_diag = phi.values[kernel.diagonal()]
    # ||R D||_F^2 ||(R D)^-1||_F^2 >= cond(D G D), where ||R D||_F^2 = trace(D G D)
    # = n and (R D)^-1 = D^-1 C^T
    c2 = c * c
    est = len(c) * float((c2 @ g_diag).sum())
    if not EPS * est <= RECOVERY_LIMIT:
        raise ResidualError(
            f"recovery condition estimate eps n sum G_jj C_ij^2 = {EPS * est:.3e} "
            f"exceeds {RECOVERY_LIMIT:g}: float64 moments do not determine the "
            f"depth-{depth} blocks"
        )
    offs, r = level_offsets(N, depth), basis.factor
    g = phi.values[kernel[prepend_index(N, depth)]]  # G_k, the kernel's rows at k a, over k
    a_levels, b_levels = [], []
    for n, (lo, hi) in enumerate(zip(offs, offs[1:])):
        if n:
            # C_m^T = A~_m^{-1}, where A~_m is the level-m diagonal block of R
            a_levels.append(_letter_blocks(r[lo:hi, lo:hi], c[prev:lo, prev:lo].T))
        prev = lo
        b = c[lo:hi, :hi] @ g[:, :hi, :hi] @ c[lo:hi, :hi].T
        b = b + b.swapaxes(1, 2)  # not +=, which buffers the overlapping operand
        b *= 0.5
        b_levels.append(b)
    del g
    family = AdmissibleFamily.from_levels(a_levels, b_levels)
    worst = float(three_term_residuals(c, family).max(initial=0.0))
    # eps ||R||_F^2 ||R^{-1}||_F^2 >= eps cond(G), the accuracy scale of any
    # recovery from moments; ||R||_F^2 = trace(G) and R^{-1} = C^T
    bound = EPS * float(g_diag.sum()) * float(c2.sum())
    if not worst <= bound:
        raise ResidualError(
            f"three-term residual {worst:.3e} exceeds eps ||R||_F^2 ||R^-1||_F^2 = "
            f"{bound:.3e}; basis and functional are inconsistent"
        )
    return family


def three_term_residuals(c: np.ndarray, family: AdmissibleFamily) -> np.ndarray:
    """Largest coefficient of X_k p_tau - sum_sigma J_k[sigma, tau] p_sigma over the
    words tau of level n, at [n, k - 1] for each level n below the family's depth.

    Row tau of ``c`` holds the coefficients of p_tau by graded rank; J_k is the
    section of the family.  All letters are checked in one pass.
    """
    N, depth = family.alphabet, family.depth
    offs = level_offsets(N, depth)
    rows = offs[depth]
    # the rows of the sections J_k below the top level
    resid = sections(family, depth)[:, :rows] @ c
    # the coefficients of X_k p_tau are those of p_tau moved to the prepended words
    resid[np.arange(N)[:, None], :, prepend_index(N, depth)[:, :rows]] -= c[:rows, :rows].T
    np.abs(resid, out=resid)
    return np.maximum.reduceat(resid.max(axis=2), offs[:depth], axis=1).T

