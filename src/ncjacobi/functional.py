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
from .words import SizeError, Word, _check_sizes, _count_words, _require_alphabet, enumerate_words
from .words import graded_rank, kernel_index, letters_up_to, level_offsets, reversal_index
from .words import word_at, words_up_to

POSITIVITY_TOL = 1e-10  # a Gram pivot must exceed this
SYMMETRY_TOL = 1e-12  # relative reversal-symmetry and unit-mass bound of a table


class NotStrictlyPositiveError(ValueError):
    """A Gram pivot fell below tolerance where strict positivity was required."""


def upper_cholesky(mat: np.ndarray):
    """Factor a symmetric matrix as R^T R with R upper triangular, diag(R) > 0.

    Returns ``(R, pivots)``.  ``pivots`` are the successive Schur complements of the
    diagonal (the LDL^T diagonal); the factorization stops at the first pivot that is
    not > POSITIVITY_TOL (a NaN pivot included), in which case ``R`` is None.  Reads
    the upper triangle only.  LAPACK factors; the row loop runs only when LAPACK fails
    or leaves a pivot not above POSITIVITY_TOL, to name the pivot that fails.
    """
    a = np.asarray(mat, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    try:
        r = np.linalg.cholesky(a.T).T
        pivots = r.diagonal() ** 2
        if (pivots > POSITIVITY_TOL).all():
            return r, pivots.tolist()
    except np.linalg.LinAlgError:
        pass
    r = np.zeros((n, n))
    pivots = []
    for j in range(n):
        d = a[j, j] - r[:j, j] @ r[:j, j]
        pivots.append(float(d))
        if not d > POSITIVITY_TOL:
            return None, pivots
        r[j, j] = math.sqrt(d)
        r[j, j + 1 :] = (a[j, j + 1 :] - r[:j, j] @ r[:j, j + 1 :]) / r[j, j]
    return r, pivots


def require_positive(pivots, where: str) -> None:
    """The one strict-positivity rule: the first Gram pivot not above POSITIVITY_TOL,
    a NaN included, raises NotStrictlyPositiveError naming ``where`` it was taken."""
    pivots = np.asarray(pivots, dtype=float)
    above = pivots > POSITIVITY_TOL
    if above.all():
        return
    p = pivots[np.argmin(above)]  # the first pivot not above, a NaN included
    raise NotStrictlyPositiveError(
        f"functional not strictly positive at {where}: Gram pivot {p:.3e} <= {POSITIVITY_TOL}"
    )


@dataclass
class GramReport:
    """Gram matrix of monomials up to a degree with its factor and pivots; ``positive``
    when the factorization completed."""

    alphabet: int
    degree: int
    gram: np.ndarray
    factor: np.ndarray | None  # upper triangular R with gram = R^T R, or None
    pivots: list[float]

    @property
    def positive(self) -> bool:
        return self.factor is not None

    @functools.cached_property
    def words(self) -> list[Word]:
        """The monomials indexing ``gram``, built on first use."""
        return words_up_to(self.alphabet, self.degree)


@dataclass
class ValidationReport:
    """A check's violations; ``ok`` when there are none."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


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
            _require_alphabet(alphabet, w, "a word of the table")
        words = [w.letters for w in moments]
        table = _by_rank(alphabet, max_degree, words, list(moments.values()))
        self._set_values(alphabet, max_degree, table)

    @classmethod
    def from_values(cls, alphabet: int, max_degree: int, values) -> "MomentFunctional":
        """Table from moments listed by graded rank, with or without the odd top level.

        A float array is held as given, not copied, and made read-only; a caller
        that keeps writing to its array passes a copy."""
        phi = cls.__new__(cls)
        phi._set_values(alphabet, max_degree, values)
        return phi

    @classmethod
    def _certified(cls, alphabet: int, max_degree: int, values: np.ndarray) -> "MomentFunctional":
        """The float64 table ``values`` through length 2*max_degree + 1, held as given
        with no check: ``favard_moments`` alone calls it, and its construction gives
        each property that ``_set_values`` checks on a table from outside.

        - complete: one value per word up to length 2*max_degree + 1, by graded rank;
        - finite: a non-finite value is refused there as a float64 overflow;
        - unital: s_empty = <e0, e0> = 1 exactly;
        - exactly reversal-symmetric: each orbit's value is gathered at ``orbit_index``.
        """
        phi = cls.__new__(cls)
        phi._store(alphabet, max_degree, 2 * max_degree + 1, values)
        return phi

    def _set_values(self, alphabet, max_degree, values) -> None:
        """Store a table listed by graded rank once it is complete, finite, unital
        and reversal-symmetric."""
        _check_sizes(alphabet, max_degree=max_degree)
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"moment table must be a list of values, got shape {values.shape}")
        top = 2 * max_degree + 1
        offs = _fillable_offsets(alphabet, top, values.size)
        if len(offs) < top + 2 or values.size not in offs[-2:]:
            raise ValueError(
                f"moment table incomplete: {values.size} values, expected "
                f"{_count_words(alphabet, 0, top - 1)} (words up to length {top - 1}) or "
                f"{_count_words(alphabet, 0, top)}"
            )
        word_bound = 2 * max_degree + (values.size == offs[-1])
        rev = reversal_index(alphabet, word_bound)
        mirror = values[rev]
        bad = ~np.isfinite(values)  # first, since inf == inf
        if not bad.any() and not (values == mirror).all():
            # some pair differs: the relative bound, only where one does
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
        self._store(alphabet, max_degree, word_bound, values)

    def _store(self, alphabet, max_degree, word_bound, values) -> None:
        """Hold a complete table of words up to ``word_bound``, read-only."""
        self.alphabet, self.max_degree, self.word_bound = alphabet, max_degree, word_bound
        values.flags.writeable = False
        self._values = values

    @property
    def values(self) -> np.ndarray:
        """Moments of all words up to ``word_bound``, indexed by graded rank."""
        return self._values

    # -- access ------------------------------------------------------------

    def moment(self, w: Word) -> float:
        what = f"word {w}"
        _require_alphabet(self.alphabet, w, what)
        self._require_words(len(w), what)
        return float(self._values[graded_rank(w)])

    def kernel_eval(self, alpha: Word, beta: Word) -> float:
        """K(alpha, beta) = s_{I(alpha) beta}."""
        return self.moment(alpha.involute().concat(beta))

    def apply(self, p: NcPolynomial) -> float:
        """Linear extension: sum of c_w * s_w over the support of p."""
        what = f"a degree-{p.degree()} polynomial"
        _require_alphabet(self.alphabet, p, what)
        self._require_words(p.degree(), what)
        return float(sum(c * self._values[graded_rank(w)] for w, c in p.terms()))

    def _require_words(self, length: int, what: str) -> None:
        """Refuse ``what``, a read of words up to ``length``, past the stored bound."""
        if length > self.word_bound:
            raise SizeError(
                f"moment table stores words up to length {self.word_bound}; {what} "
                f"needs length {length}"
            )

    def inner(self, p: NcPolynomial, q: NcPolynomial) -> float:
        """<p, q> = phi(q^+ p)."""
        return self.apply(q.adjoint() * p)

    # -- positivity --------------------------------------------------------

    def gram(self, degree: int) -> GramReport:
        """Gram matrix of all monomials of length <= degree, graded-lex order."""
        _check_sizes(self.alphabet, degree=degree)
        self._require_words(2 * degree, f"the degree-{degree} Gram matrix")
        g = self._values[kernel_index(self.alphabet, degree, degree)]
        return GramReport(self.alphabet, degree, g, *upper_cholesky(g))

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
        *_, moments = json_fields(obj, ("N", "max_degree", "moments"), "moment table")
        if not isinstance(moments, list):
            raise TypeError("'moments' must be a list of word/value entries")
        entries = [json_fields(entry, ("word", "value"), "moment entry") for entry in moments]
        alphabet, max_degree = json_int(obj, "N"), json_int(obj, "max_degree")
        words = [word for word, _ in entries]
        stray = set(map(type, itertools.chain.from_iterable(words))) - {int}
        if stray:
            raise TypeError(f"word letters must be integers, got {stray.pop().__name__}")
        values = json_floats([value for _, value in entries], 1, "moment values")
        table = _by_rank(alphabet, max_degree, words, values)
        return cls.from_values(alphabet, max_degree, table)


def json_fields(obj, keys: Sequence[str], what: str) -> list:
    """The values at ``keys`` if ``obj`` is a JSON object holding them all; a
    non-object or the first missing key raises TypeError naming ``what``."""
    if not isinstance(obj, Mapping):
        raise TypeError(f"expected a JSON object for {what}")
    for key in keys:
        if key not in obj:
            raise TypeError(f"{what} is missing required key {key!r}")
    return [obj[key] for key in keys]


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


def _fillable_offsets(alphabet: int, top: int, count: int) -> tuple[int, ...]:
    """``level_offsets(alphabet, top)``, cut after the first level that ``count``
    entries cannot fill: a header can name more words than memory holds, so
    nothing is sized past what the entries reach."""
    level, total = 0, 1  # the number of words up to length `level`
    while level < top and total <= count:
        level += 1
        total += alphabet**level
    return level_offsets(alphabet, level)


def _by_rank(alphabet: int, max_degree: int, words: Sequence, values: Sequence) -> np.ndarray:
    """Moments of words given as letter sequences, listed by graded rank: every
    word up to length 2*max_degree once, and the words one longer all or none."""
    _check_sizes(alphabet, max_degree=max_degree)
    top = 2 * max_degree + 1
    offs = _fillable_offsets(alphabet, top, len(words))
    # a short table misses a word of rank <= len(words): rank only words that short
    short = len(offs) < top + 2 or len(words) < offs[top]
    reach = next(n for n in range(top) if offs[n + 1] > len(words)) if short else top
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    letters = np.fromiter(itertools.chain.from_iterable(words), np.int64, lengths.sum())
    bad = (letters < 1) | (letters > alphabet)
    if bad.any():
        raise SizeError(f"letter {letters[bad.argmax()]} outside alphabet 1..{alphabet}")
    if lengths.max(initial=0) > top:
        w = Word(words[np.argmax(lengths > top)], alphabet)
        raise SizeError(
            f"word {w} outside the N={alphabet} table, which may extend at most one "
            f"level past length {top - 1}"
        )
    at = np.flatnonzero(lengths <= reach)  # the entries ranked below
    starts, lengths = (np.cumsum(lengths) - lengths)[at], lengths[at]  # where each begins
    # level rank by Horner's rule, one letter position at a time, over the entries in
    # length order, so those longer than i are the tail: no temporary spans letters
    order = np.argsort(lengths, kind="stable")
    starts, rank = starts[order], np.zeros(len(lengths), dtype=np.int64)
    for i, tail in enumerate(np.bincount(lengths).cumsum()[:-1]):
        rank[tail:] = rank[tail:] * alphabet + letters[starts[tail:] + i] - 1
    index = np.array(offs[: reach + 2])[lengths]
    index[order] += rank
    counts = np.bincount(index, minlength=offs[reach + 1])
    if counts.max(initial=0) > 1:
        w = Word(words[at[np.argmax(counts[index] > 1)]], alphabet)
        raise ValueError(f"duplicate moment entry for word {w}")
    if short:
        raise ValueError(
            f"moment table incomplete: {len(words)} entries for the "
            f"{_count_words(alphabet, 0, top - 1)} words "
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
) -> ValidationReport:
    """Check K(aw, t) == K(w, I(a)t) exactly on a stored kernel table.

    ``raw`` must contain every pair with |first| + |second| <= depth.  Prefixes
    ``a`` run over single letters only: one-letter shifts generate the full
    invariance property by induction on |a|, and keep a planted defect from
    being reported more than once.  Violations are triples (a, w, t).
    """
    _check_sizes(alphabet, depth=depth)
    for a, b in _kernel_pairs(alphabet, depth):
        if (a, b) not in raw:
            raise ValueError(f"kernel table incomplete: missing pair ({a}, {b})")
    violations = [
        (alpha, sigma, tau)
        for sigma, tau in _kernel_pairs(alphabet, depth - 1)
        for alpha in enumerate_words(alphabet, 1)
        if raw[(alpha.concat(sigma), tau)] != raw[(sigma, alpha.involute().concat(tau))]
    ]
    return ValidationReport(violations)


def kernel_table(phi: MomentFunctional, depth: int) -> dict[tuple[Word, Word], float]:
    """Materialize K(a, b) for all pairs with |a| + |b| <= depth."""
    _check_sizes(phi.alphabet, depth=depth)
    phi._require_words(depth, f"a depth-{depth} kernel table")
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
    """Boolean product of one-variable functionals, one per letter.

    On a word with maximal-run form k_1^{e_1}...k_p^{e_p} the moment is the
    product of the parts' moments part_{k_j}(X^{e_j}): the Boolean product
    (Speicher and Woroudi, 1997), not the free one of ``build_free_product``.
    The result is unital and reversal-symmetric, in general not strictly positive.
    """
    _check_sizes(len(parts))
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
