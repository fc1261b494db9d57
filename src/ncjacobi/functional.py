"""Moment functionals, the induced Hankel-type kernel, and Gram positivity.

A moment functional is a unital linear map on the polynomial algebra, stored
as a dense table s_w over all words up to a length bound.  The kernel
K(a, b) = s_{I(a)b} is of Hankel type: K(aw, t) = K(w, I(a)t) holds
identically.  Strict positivity is certified through the pivots of a
symmetric triangular factorization of the Gram matrix of monomials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .ncpoly import NcPolynomial
from .words import Word, enumerate_words, graded_rank, kernel_index, letters_up_to
from .words import level_offsets, reversal_index, word_at, words_up_to

POSITIVITY_TOL = 1e-10  # a Gram pivot must exceed this
SYMMETRY_TOL = 1e-12  # relative reversal-symmetry and unit-mass bound of a table


class NotStrictlyPositiveError(ValueError):
    """A Gram pivot fell below tolerance where strict positivity was required."""


def upper_cholesky(mat: np.ndarray):
    """Factor a symmetric matrix as R^T R with R upper triangular, diag(R) > 0.

    Returns ``(R, pivots, completed)``.  ``pivots`` are the successive Schur
    complements of the diagonal (the LDL^T diagonal); the factorization stops
    at the first pivot that is not > POSITIVITY_TOL (a NaN pivot included), in
    which case ``R`` is None and ``completed`` is False.  Reads the upper
    triangle only.  LAPACK factors; the row loop runs only when LAPACK fails or
    leaves a pivot not above POSITIVITY_TOL, to name the pivot that fails.
    """
    a = np.asarray(mat, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    try:
        r = np.linalg.cholesky(a.T).T
    except np.linalg.LinAlgError:
        pass
    else:
        pivots = r.diagonal() ** 2
        if np.all(pivots > POSITIVITY_TOL):
            return r, pivots.tolist(), True
    r = np.zeros((n, n))
    pivots = []
    for j in range(n):
        d = a[j, j] - r[:j, j] @ r[:j, j]
        pivots.append(float(d))
        if not d > POSITIVITY_TOL:
            return None, pivots, False
        r[j, j] = math.sqrt(d)
        r[j, j + 1 :] = (a[j, j + 1 :] - r[:j, j] @ r[:j, j + 1 :]) / r[j, j]
    return r, pivots, True


@dataclass
class GramReport:
    """Gram matrix of monomials up to a degree, with its positivity verdict."""

    alphabet: int
    degree: int
    gram: np.ndarray
    pivots: list[float]
    min_pivot: float
    positive: bool
    factor: np.ndarray | None  # upper triangular R with gram = R^T R, if positive

    @functools.cached_property
    def words(self) -> list[Word]:
        """The monomials indexing ``gram``, built on first use."""
        return words_up_to(self.alphabet, self.degree)


@dataclass
class HankelReport:
    ok: bool
    violations: list[tuple[Word, Word, Word]] = field(default_factory=list)


class MomentFunctional:
    """Dense moment table s_w for all |w| <= 2*max_degree (+ optional odd top).

    The table must be unital (s_empty = 1), finite and symmetric under word
    reversal.  A complete extra level of length 2*max_degree + 1 may be
    present; it is what makes the top diagonal-correction blocks recoverable
    from moments.  Moments are stored as one float64 array indexed by graded
    rank, read-only as ``values``.
    """

    def __init__(
        self,
        alphabet: int,
        max_degree: int,
        moments: Mapping[Word, float],
    ):
        for w in moments:
            if w.alphabet != alphabet:
                raise ValueError(_outside(w, alphabet, 2 * max_degree))
        words = [w.letters for w in moments]
        table = _by_rank(alphabet, max_degree, words, list(moments.values()))
        self._set_values(alphabet, max_degree, table)

    @classmethod
    def from_values(cls, alphabet: int, max_degree: int, values) -> "MomentFunctional":
        """Table from moments listed by graded rank, with or without the odd top level."""
        phi = cls.__new__(cls)
        phi._set_values(alphabet, max_degree, values)
        return phi

    def _set_values(self, alphabet, max_degree, values) -> None:
        """Store a table listed by graded rank once it is complete, finite, unital
        and reversal-symmetric."""
        if alphabet < 1 or max_degree < 0:
            raise ValueError("alphabet size must be >= 1 and max_degree >= 0")
        values = np.array(values, dtype=float)
        offs = level_offsets(alphabet, 2 * max_degree + 1)
        if values.shape not in ((offs[-2],), (offs[-1],)):
            raise ValueError(
                f"moment table incomplete: {values.size} values, expected "
                f"{offs[-2]} (words up to length {2 * max_degree}) or {offs[-1]}"
            )
        self.alphabet, self.max_degree = alphabet, max_degree
        self.word_bound = 2 * max_degree + (values.size == offs[-1])
        rev = reversal_index(alphabet, self.word_bound)
        bad = ~np.isfinite(values)  # first, since inf == inf
        if not bad.any():
            # the relative bound only where a pair differs at all
            mirror = values[rev]
            bad = values != mirror
            at = np.flatnonzero(bad)
            scale = SYMMETRY_TOL * np.maximum(1.0, np.abs(values[at]))
            bad[at] = np.abs(values[at] - mirror[at]) > scale
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"moment table has a non-finite or reversal-asymmetric value at "
                f"{word_at(alphabet, i)}: {values[i]} vs {values[rev[i]]} at its reversal"
            )
        if abs(values[0] - 1.0) > SYMMETRY_TOL:
            raise ValueError(f"functional is not unital: s_empty = {values[0]!r}")
        values.flags.writeable = False
        self._values = values

    @property
    def values(self) -> np.ndarray:
        """Moments of all words up to ``word_bound``, indexed by graded rank."""
        return self._values

    # -- access ------------------------------------------------------------

    def moment(self, w: Word) -> float:
        if w.alphabet != self.alphabet or len(w) > self.word_bound:
            raise ValueError(
                f"word {w} of length {len(w)} beyond stored bound {self.word_bound} "
                f"of the N={self.alphabet} table"
            )
        return float(self._values[graded_rank(w)])

    def kernel_eval(self, alpha: Word, beta: Word) -> float:
        """K(alpha, beta) = s_{I(alpha) beta}."""
        if len(alpha) + len(beta) > self.word_bound:
            raise ValueError(
                f"kernel argument lengths {len(alpha)}+{len(beta)} exceed bound "
                f"{self.word_bound}"
            )
        return self.moment(alpha.involute().concat(beta))

    def apply(self, p: NcPolynomial) -> float:
        """Linear extension: sum of c_w * s_w over the support of p."""
        if p.alphabet != self.alphabet:
            raise ValueError("polynomial alphabet does not match functional")
        if p.degree() > self.word_bound:
            raise ValueError(
                f"polynomial degree {p.degree()} exceeds stored bound {self.word_bound}"
            )
        return float(sum(c * self._values[graded_rank(w)] for w, c in p.terms()))

    def inner(self, p: NcPolynomial, q: NcPolynomial) -> float:
        """<p, q> = phi(q^+ p)."""
        return self.apply(q.adjoint() * p)

    # -- positivity --------------------------------------------------------

    def gram(self, degree: int) -> GramReport:
        """Gram matrix of all monomials of length <= degree, graded-lex order."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if degree > self.max_degree:
            raise ValueError(
                f"gram degree {degree} exceeds max_degree {self.max_degree}"
            )
        index = kernel_index(self.alphabet, degree)
        g = self._values[index[: index.shape[1]]]  # the rows |a| <= degree
        r, pivots, completed = upper_cholesky(g)
        return GramReport(
            alphabet=self.alphabet,
            degree=degree,
            gram=g,
            pivots=pivots,
            min_pivot=min(pivots),
            positive=completed,
            factor=r,
        )

    def is_strictly_positive(self, degree: int) -> bool:
        return self.gram(degree).positive

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        letters = letters_up_to(self.alphabet, self.word_bound)
        return {
            "N": self.alphabet,
            "max_degree": self.max_degree,
            "moments": [
                {"word": list(word), "value": v}
                for word, v in zip(letters, self._values.tolist())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "MomentFunctional":
        alphabet, max_degree = json_int(obj, "N"), json_int(obj, "max_degree")
        words = [entry["word"] for entry in obj["moments"]]
        stray = set(map(type, itertools.chain.from_iterable(words))) - {int}
        if stray:
            raise TypeError(f"word letters must be integers, got {stray.pop().__name__}")
        values = [entry["value"] for entry in obj["moments"]]
        values = json_floats(values, 1, "moment values")
        table = _by_rank(alphabet, max_degree, words, values)
        return cls.from_values(alphabet, max_degree, table)


def json_int(obj: Mapping, key: str) -> int:
    """``obj[key]`` if it is a JSON integer; a bool, float or string raises."""
    if type(obj[key]) is not int:
        raise TypeError(f"{key!r} must be an integer, got {obj[key]!r}")
    return obj[key]


def json_floats(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as a float array if it is a JSON list of numbers (``ndim`` 1)
    or of equal-length rows of them (``ndim`` 2); a bool, string, null or any
    other nesting raises TypeError."""
    arr = np.array(values, dtype=object)
    if arr.ndim != ndim:
        raise TypeError(f"{what} must be {'rows' if ndim == 2 else 'a list'} of numbers")
    stray = set(map(type, arr.flat)) - {int, float}
    if stray:
        raise TypeError(f"{what} must be JSON numbers, got {stray.pop().__name__}")
    return arr.astype(float)


def _outside(w: Word, alphabet: int, bound: int) -> str:
    return (
        f"word {w} outside the N={alphabet} table, which may extend at most one "
        f"level past length {bound}"
    )


def _by_rank(alphabet: int, max_degree: int, words: Sequence, values: Sequence) -> np.ndarray:
    """Moments of words given as letter sequences, listed by graded rank: every
    word up to length 2*max_degree once, and the words one longer all or none."""
    if alphabet < 1 or max_degree < 0:
        raise ValueError("alphabet size must be >= 1 and max_degree >= 0")
    top = 2 * max_degree + 1
    offs = level_offsets(alphabet, top)
    # a header can count more words than memory holds, so compare in Python ints;
    # a short table misses a word of rank <= len(words): rank only words that short
    short = len(words) < offs[top]
    reach = next(n for n in range(top) if offs[n + 1] > len(words)) if short else top
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    letters = np.fromiter(itertools.chain.from_iterable(words), np.int64, lengths.sum())
    bad = (letters < 1) | (letters > alphabet)
    if bad.any():
        raise ValueError(f"letter {letters[bad.argmax()]} outside alphabet 1..{alphabet}")
    if lengths.max(initial=0) > top:
        w = Word(words[np.argmax(lengths > top)], alphabet)
        raise ValueError(_outside(w, alphabet, top - 1))
    at = range(len(words))  # the entries ranked below
    if short:
        at = np.flatnonzero(lengths <= reach)
        letters, lengths = letters[np.repeat(lengths <= reach, lengths)], lengths[at]
    # level rank: the sum of (letter - 1) N^(number of letters after it)
    ends = np.cumsum(lengths)
    after = np.repeat(ends, lengths) - np.arange(letters.size) - 1
    partial = np.concatenate(([0], np.cumsum((letters - 1) * alphabet**after)))
    index = np.array(offs[: reach + 2])[lengths] + partial[ends] - partial[ends - lengths]
    counts = np.bincount(index, minlength=offs[reach + 1])
    if counts.max(initial=0) > 1:
        w = Word(words[at[np.argmax(counts[index] > 1)]], alphabet)
        raise ValueError(f"duplicate moment entry for word {w}")
    if short:
        raise ValueError(
            f"moment table incomplete: {len(words)} entries for the {offs[top]} words "
            f"up to length {top - 1}; missing word {word_at(alphabet, int(np.argmin(counts)))}"
        )
    size = offs[-1] if counts[offs[top] :].any() else offs[top]
    if not counts[:size].all():
        word = word_at(alphabet, int(np.argmin(counts[:size])))
        raise ValueError(f"moment table incomplete: missing word {word}")
    table = np.empty(size)
    table[index] = values
    return table


def hankel_check(
    raw: Mapping[tuple[Word, Word], float], alphabet: int, depth: int
) -> HankelReport:
    """Check K(aw, t) == K(w, I(a)t) exactly on a stored kernel table.

    ``raw`` must contain every pair with |first| + |second| <= depth.  Prefixes
    ``a`` run over single letters only: one-letter shifts generate the full
    invariance property by induction on |a|, and keep a planted defect from
    being reported more than once.  Violations are triples (a, w, t).
    """
    for a, b in _kernel_pairs(alphabet, depth):
        if (a, b) not in raw:
            raise ValueError(f"kernel table incomplete: missing pair ({a}, {b})")
    violations = [
        (alpha, sigma, tau)
        for sigma, tau in _kernel_pairs(alphabet, depth - 1)
        for alpha in enumerate_words(alphabet, 1)
        if raw[(alpha.concat(sigma), tau)] != raw[(sigma, alpha.involute().concat(tau))]
    ]
    return HankelReport(ok=not violations, violations=violations)


def kernel_table(phi: MomentFunctional, depth: int) -> dict[tuple[Word, Word], float]:
    """Materialize K(a, b) for all pairs with |a| + |b| <= depth."""
    if depth > phi.word_bound:
        raise ValueError(f"depth {depth} exceeds stored bound {phi.word_bound}")
    return {(a, b): phi.kernel_eval(a, b) for a, b in _kernel_pairs(phi.alphabet, depth)}


def _kernel_pairs(alphabet: int, depth: int):
    for la in range(depth + 1):
        for lb in range(depth + 1 - la):
            yield from itertools.product(
                enumerate_words(alphabet, la), enumerate_words(alphabet, lb)
            )


def functional_free_product(
    parts: Sequence[MomentFunctional],
) -> MomentFunctional:
    """Free product of one-variable functionals, one per letter.

    On a word with maximal-run form k_1^{e_1}...k_p^{e_p} the moment is the
    product of the parts' moments part_{k_j}(X^{e_j}).  The result is unital
    and reversal-symmetric but in general not strictly positive.
    """
    if not parts:
        raise ValueError("free product needs at least one factor")
    for i, part in enumerate(parts):
        if part.alphabet != 1:
            raise ValueError(
                f"free product factors must be one-variable functionals; "
                f"factor {i + 1} has alphabet {part.alphabet}"
            )
    alphabet = len(parts)
    max_degree = min(part.max_degree for part in parts)
    bound = 2 * max_degree
    if all(part.word_bound >= bound + 1 for part in parts):
        bound += 1

    # a one-variable table lists s_{X^e} at graded rank e; sorting the runs
    # makes the product order, and so the value, equal on reversed words
    moments = [part.values.tolist() for part in parts]
    values = [
        math.prod(
            moments[k - 1][e]
            for k, e in sorted((k, len(list(run))) for k, run in itertools.groupby(w))
        )
        for w in letters_up_to(alphabet, bound)
    ]
    return MomentFunctional.from_values(alphabet, max_degree, values)
