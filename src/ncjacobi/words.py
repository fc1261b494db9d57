"""Words over a finite alphabet {1..N}: the index set for everything else.

A word is a finite string of letters from {1..N}; the empty word is the
identity for concatenation.  Words are ordered graded-lexicographically
(shorter first, then letterwise), which is the order used for every matrix
row/column in this package.  ``rank``/``graded_rank`` turn that order into
array indices.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: refuse to materialize enumerations larger than this
DEFAULT_ENUMERATION_CAP = 10**6


class SizeError(ValueError):
    """Raised by every size, reach, alphabet, letter and cap rule: a request it cannot serve."""


@functools.total_ordering
@dataclass(frozen=True)
class Word:
    """A word over the alphabet {1..alphabet}; ``letters`` may be empty."""

    letters: tuple[int, ...]
    alphabet: int

    def __post_init__(self):
        _check_sizes(self.alphabet)
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        for c in self.letters:
            if type(c) is not int:  # the integer rule, past the common plain int
                _require_integer("letter", c)
            if not (1 <= c <= self.alphabet):
                raise SizeError(f"letter {c} outside alphabet 1..{self.alphabet}")

    @classmethod
    def empty(cls, alphabet: int) -> "Word":
        return cls((), alphabet)

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        body = "".join(str(c) for c in self.letters) if self.letters else "e"
        return f"Word({body}; N={self.alphabet})"

    def __lt__(self, other: "Word") -> bool:
        """Graded lexicographic order: shorter words first, then letterwise."""
        _require_alphabet(self.alphabet, other, "the compared word")
        return (len(self), self.letters) < (len(other), other.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def concat(self, other: "Word") -> "Word":
        _require_alphabet(self.alphabet, other, "the appended word")
        return Word(self.letters + other.letters, self.alphabet)

    def involute(self) -> "Word":
        """Reverse the word: the involution I(i_1...i_l) = i_l...i_1."""
        return Word(self.letters[::-1], self.alphabet)

    def rank(self) -> int:
        """0-based position of this word among all words of the same length."""
        r = 0
        for c in self.letters:
            r = r * self.alphabet + (c - 1)
        return r


def _check_sizes(alphabet: int, **lengths: int) -> None:
    """The one size rule of the package: integer sizes, an alphabet of at least one
    letter and lengths, depths and degrees of at least 0, each named by its parameter."""
    _require_count("alphabet size", alphabet)
    for name, length in lengths.items():
        _require_integer(name, length)
        if length < 0:
            raise SizeError(f"{name} must be >= 0, got {length}")


def _require_count(name: str, size: int) -> None:
    """The size rule for a size of at least 1: an alphabet, or a count such as n_max."""
    _require_integer(name, size)
    if size < 1:
        raise SizeError(f"{name} must be >= 1, got {size}")


def _require_alphabet(alphabet: int, other, what: str) -> None:
    """The one alphabet rule: ``what``, the word, polynomial, basis or family ``other``,
    must be over the ``alphabet`` letters of what it meets."""
    if other.alphabet != alphabet:
        raise SizeError(f"{what} is over N={other.alphabet} letters, not N={alphabet}")


def _require_integer(name: str, size) -> None:
    """Refuse a size that is not an integer before it is compared: a float, even a
    whole one, or a bool; a numpy integer is one."""
    if not isinstance(size, (bool, np.bool_)):
        try:
            operator.index(size)
            return
        except TypeError:
            pass
    raise SizeError(f"{name} must be an integer, got {size!r}")


def enumerate_words(alphabet: int, length: int) -> list[Word]:
    """All alphabet**length words of the given length, in graded-lex order."""
    _check_sizes(alphabet, length=length)
    _check_enumeration(alphabet, length, length)
    return [
        Word(letters, alphabet)
        for letters in itertools.product(range(1, alphabet + 1), repeat=length)
    ]


def words_up_to(alphabet: int, max_length: int) -> list[Word]:
    """All words of length <= max_length in graded-lex order."""
    _check_sizes(alphabet, max_length=max_length)
    _check_enumeration(alphabet, 0, max_length)
    return [w for n in range(max_length + 1) for w in enumerate_words(alphabet, n)]


def _check_enumeration(alphabet: int, lo: int, hi: int) -> None:
    """Refuse the words of lengths lo..hi past DEFAULT_ENUMERATION_CAP, judged by their log."""
    if _log10_words(alphabet, lo, hi) > math.log10(DEFAULT_ENUMERATION_CAP):
        shown = _count_words(alphabet, lo, hi)
        raise SizeError(f"enumeration of {shown} words exceeds cap {DEFAULT_ENUMERATION_CAP}")


def _log10_words(alphabet: int, lo: int, hi: int) -> float:
    """log10 of N^lo + .. + N^hi, the number of words of lengths lo..hi, without forming it."""
    n = alphabet
    if n == 1:
        return math.log10(hi - lo + 1)
    # the power in float: a numpy integer takes no negative integer power
    return hi * math.log10(n) + math.log10((1 - n ** float(lo - hi - 1)) / (1 - 1 / n))


def _count_words(alphabet: int, lo: int, hi: int) -> str:
    """The one text of a word count, of lengths lo..hi: in digits below 10**600, which Python
    prints under any int_max_str_digits limit (none is under 640), and past that in closed form."""
    n, lo, hi = int(alphabet), int(lo), int(hi)  # int64 would wrap the exact count
    if n == 1 or _log10_words(n, lo, hi) < 600:
        return str((n ** (hi + 1) - n**lo) // (n - 1) if n > 1 else hi - lo + 1)
    if lo == hi:
        return f"{n}**{hi}"
    low = "1" if lo == 0 else f"{n}**{lo}"
    return f"({n}**{hi + 1} - {low})" + (f" // {n - 1}" if n > 2 else "")


def letters_up_to(alphabet: int, max_length: int) -> Iterator[tuple[int, ...]]:
    """Letter tuples of all words of length <= max_length, in graded-lex order."""
    letters = range(1, alphabet + 1)
    return itertools.chain.from_iterable(
        itertools.product(letters, repeat=n) for n in range(max_length + 1)
    )


def graded_rank(w: Word) -> int:
    """0-based position of ``w`` among all words, in graded-lex order."""
    return sum(w.alphabet**n for n in range(len(w))) + w.rank()


@functools.lru_cache(maxsize=128)
def level_offsets(alphabet: int, level: int) -> tuple[int, ...]:
    """Graded rank of the first word of each length 0..level, plus the total."""
    return tuple(itertools.accumulate((alphabet**j for j in range(level + 1)), initial=0))


def word_at(alphabet: int, index: int) -> Word:
    """The word at graded rank ``index``: the inverse of ``graded_rank``."""
    _check_sizes(alphabet, **{"graded rank": index})
    n = 0
    while index >= alphabet**n:
        index -= alphabet**n
        n += 1
    return Word(tuple(index // alphabet**i % alphabet + 1 for i in range(n)[::-1]), alphabet)


# The index builders below depend only on their arguments, so each table is
# built once per size and process and shared read-only by every caller; each
# is over words of lengths that exist, and refuses a negative one.  The caches
# are typed, so that a size equal to a cached one but not an integer (2.0, True)
# misses and meets the size rule.


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=32, typed=True)
def reversal_index(alphabet: int, max_length: int) -> np.ndarray:
    """Graded rank of the reversal of every word of length <= max_length."""
    _check_sizes(alphabet, max_length=max_length)
    offs = level_offsets(alphabet, max_length)
    rev = np.zeros(1, dtype=np.int64)  # level ranks of the reversals, length i
    out = [rev]
    for i in range(max_length):
        # I(w c) = c I(w): rank c * N**i + rev(w), at position rank(w) * N + c
        rev = (rev[:, None] + np.arange(alphabet) * alphabet**i).ravel()
        out.append(offs[i + 1] + rev)
    return _read_only(np.concatenate(out))


@functools.lru_cache(maxsize=32, typed=True)
def orbit_index(alphabet: int, max_length: int) -> np.ndarray:
    """Graded rank of min(w, I(w)) for every word of length <= max_length: the one
    word of its reversal orbit whose value a reversal-symmetric table keeps."""
    rev = reversal_index(alphabet, max_length)
    return _read_only(np.minimum(np.arange(rev.size), rev))


@functools.lru_cache(maxsize=32, typed=True)
def prepend_index(alphabet: int, max_length: int) -> np.ndarray:
    """Graded rank of k w at [k - 1, graded rank of w], over the words w of
    length <= max_length: where X_k moves the coefficient of each word."""
    _check_sizes(alphabet, max_length=max_length)
    offs = np.array(level_offsets(alphabet, max_length + 1))
    length = np.repeat(np.arange(max_length + 1), np.diff(offs[:-1]))
    level_rank = np.arange(offs[-2]) - offs[length]
    return _read_only(
        offs[length + 1] + np.arange(alphabet)[:, None] * alphabet**length + level_rank
    )


@functools.lru_cache(maxsize=32, typed=True)
def kernel_index(alphabet: int, degree: int, top: int) -> np.ndarray:
    """Graded rank of I(b) a at row a, column b, over the words a of length
    <= top and b of length <= degree.

    Indexing a moment table by the result gives the kernel [s_{I(b) a}].  Its
    first rows, over |a| <= degree, are the Gram matrix [<X_a, X_b>]
    (``MomentFunctional.gram`` reads top = degree); with top = degree + 1, its
    rows at the words k a, ``prepend_index(alphabet, degree)[k - 1]``, are the
    letter-k kernel [<X_k X_a, X_b>] = [s_{I(b) k a}].
    """
    _check_sizes(alphabet, degree=degree, top=top)
    N = alphabet
    offs = np.array(level_offsets(N, degree + top))
    length = np.repeat(np.arange(top + 1), np.diff(offs[: top + 2]))
    start, cols = offs[length], offs[degree + 1]
    # level rank of I(b) a: rank(I(b)) N^|a| + rank(a)
    index = offs[length[:, None] + length[None, :cols]]
    index += (reversal_index(N, degree) - start[:cols]) * N ** length[:, None]
    index += (np.arange(len(length)) - start)[:, None]
    return _read_only(index)


@functools.lru_cache(maxsize=32, typed=True)
def level_kernel_index(alphabet: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Graded ranks of I(s) t at [s, t] and of I(s) k t at [k - 1, s, t], over
    the words s, t of the given length, by level rank.

    Indexing a moment table by them gives the level's kernel block
    [s_{I(s)t}] and its letter-k blocks [s_{I(s)kt}]; they are built from the
    level ranks of the reversals alone, with no full ``kernel_index``.
    """
    _check_sizes(alphabet, length=length)
    N, dim = alphabet, alphabet**length
    offs = level_offsets(N, 2 * length + 1)
    start = offs[length]
    rev = reversal_index(N, length)[start:, None] - start
    t = np.arange(dim)
    # level ranks rank(I(s)) N^n + rank(t) and (rank(I(s)) N + k - 1) N^n + rank(t)
    even = offs[2 * length] + rev * dim + t
    odd = offs[2 * length + 1] + (rev * N + np.arange(N)[:, None, None]) * dim + t
    return _read_only(even), _read_only(odd)
