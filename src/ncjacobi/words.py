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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: refuse to materialize enumerations larger than this (override per call)
DEFAULT_ENUMERATION_CAP = 10**6


@functools.total_ordering
@dataclass(frozen=True)
class Word:
    """A word over the alphabet {1..alphabet}; ``letters`` may be empty."""

    letters: tuple[int, ...]
    alphabet: int

    def __post_init__(self):
        if self.alphabet < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.alphabet}")
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        for c in self.letters:
            if not (1 <= c <= self.alphabet):
                raise ValueError(f"letter {c} outside alphabet 1..{self.alphabet}")

    @classmethod
    def empty(cls, alphabet: int) -> "Word":
        return cls((), alphabet)

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        body = "".join(str(c) for c in self.letters) if self.letters else "e"
        return f"Word({body}; N={self.alphabet})"

    def __lt__(self, other: "Word") -> bool:
        return compare(self, other) < 0

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def concat(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.letters + other.letters, self.alphabet)

    def involute(self) -> "Word":
        """Reverse the word: the involution I(i_1...i_l) = i_l...i_1."""
        return Word(self.letters[::-1], self.alphabet)

    def leading_run(self, k: int) -> int:
        """Length of the initial run of letter ``k`` (0 if the word starts otherwise)."""
        if not (1 <= k <= self.alphabet):
            raise ValueError(f"letter {k} outside alphabet 1..{self.alphabet}")
        p = 0
        for c in self.letters:
            if c != k:
                break
            p += 1
        return p

    def rank(self) -> int:
        """0-based position of this word among all words of the same length."""
        r = 0
        for c in self.letters:
            r = r * self.alphabet + (c - 1)
        return r


@dataclass(frozen=True)
class BlockForm:
    """Maximal-run factorization w = k_1^{e_1} ... k_p^{e_p}, adjacent letters distinct."""

    blocks: tuple[tuple[int, int], ...]
    alphabet: int

    def __post_init__(self):
        for i, (letter, exp) in enumerate(self.blocks):
            if not (1 <= letter <= self.alphabet):
                raise ValueError(f"block letter {letter} outside alphabet")
            if exp < 1:
                raise ValueError(f"block exponent must be positive, got {exp}")
            if i > 0 and self.blocks[i - 1][0] == letter:
                raise ValueError("adjacent blocks must carry distinct letters")

    def __len__(self) -> int:
        return len(self.blocks)

    def expand(self) -> Word:
        letters: list[int] = []
        for letter, exp in self.blocks:
            letters.extend([letter] * exp)
        return Word(tuple(letters), self.alphabet)


def compare(a: Word, b: Word) -> int:
    """Graded lexicographic comparison: -1, 0, or +1.

    Shorter words come first; equal lengths are compared letterwise.
    """
    if a.alphabet != b.alphabet:
        raise ValueError(
            f"cannot compare words over different alphabets ({a.alphabet} vs {b.alphabet})"
        )
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    if a.letters == b.letters:
        return 0
    return -1 if a.letters < b.letters else 1


def enumerate_words(
    alphabet: int, length: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Word]:
    """All alphabet**length words of the given length, in graded-lex order."""
    if alphabet < 1:
        raise ValueError("alphabet size must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    count = alphabet**length
    if count > cap:
        raise ValueError(
            f"enumeration of {count} words exceeds cap {cap}; raise `cap` to force"
        )
    return [
        Word(letters, alphabet)
        for letters in itertools.product(range(1, alphabet + 1), repeat=length)
    ]


def words_up_to(
    alphabet: int, max_length: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Word]:
    """All words of length <= max_length in graded-lex order."""
    total = sum(alphabet**n for n in range(max_length + 1))
    if total > cap:
        raise ValueError(
            f"enumeration of {total} words exceeds cap {cap}; raise `cap` to force"
        )
    return [w for n in range(max_length + 1) for w in enumerate_words(alphabet, n)]


def letters_up_to(alphabet: int, max_length: int) -> Iterator[tuple[int, ...]]:
    """Letter tuples of all words of length <= max_length, in graded-lex order."""
    letters = range(1, alphabet + 1)
    return itertools.chain.from_iterable(
        itertools.product(letters, repeat=n) for n in range(max_length + 1)
    )


def graded_rank(w: Word) -> int:
    """0-based position of ``w`` among all words, in graded-lex order."""
    return sum(w.alphabet**n for n in range(len(w))) + w.rank()


def level_offsets(alphabet: int, level: int) -> list[int]:
    """Graded rank of the first word of each length 0..level, plus the total."""
    return list(itertools.accumulate((alphabet**j for j in range(level + 1)), initial=0))


def word_at(alphabet: int, index: int) -> Word:
    """The word at graded rank ``index``: the inverse of ``graded_rank``."""
    n = 0
    while index >= alphabet**n:
        index -= alphabet**n
        n += 1
    return Word(tuple(index // alphabet**i % alphabet + 1 for i in range(n)[::-1]), alphabet)


def reversal_index(alphabet: int, max_length: int) -> np.ndarray:
    """Graded rank of the reversal of every word of length <= max_length."""
    offs = level_offsets(alphabet, max_length)
    rev = np.zeros(1, dtype=np.int64)  # level ranks of the reversals, length i
    out = [rev]
    for i in range(max_length):
        # I(w c) = c I(w): rank c * N**i + rev(w), at position rank(w) * N + c
        rev = (rev[:, None] + np.arange(alphabet) * alphabet**i).ravel()
        out.append(offs[i + 1] + rev)
    return np.concatenate(out)


def prepend_index(alphabet: int, max_length: int) -> np.ndarray:
    """Graded rank of k w at [k - 1, graded rank of w], over the words w of
    length <= max_length: where X_k moves the coefficient of each word."""
    offs = np.array(level_offsets(alphabet, max_length + 1))
    length = np.repeat(np.arange(max_length + 1), np.diff(offs[:-1]))
    level_rank = np.arange(offs[-2]) - offs[length]
    return offs[length + 1] + np.arange(alphabet)[:, None] * alphabet**length + level_rank


def kernel_index(alphabet: int, degree: int, letter: int = 0) -> np.ndarray:
    """Graded rank of I(b) k a at row a, column b, over words of length <= degree.

    k is ``letter``, or no letter at all when it is 0: indexing a moment table
    by the result gives the Gram matrix [<X_a, X_b>] = [s_{I(b) a}], or with
    letter k the matrix [<X_k X_a, X_b>] = [s_{I(b) k a}].  With b empty the
    word is k a, so column 0 maps each word to its letter-k prepend.
    """
    N, mid = alphabet, int(letter > 0)
    offs = np.array(level_offsets(N, 2 * degree + mid))
    length = np.repeat(np.arange(degree + 1), np.diff(offs[: degree + 2]))
    start = offs[length]
    rev = reversal_index(N, degree) - start
    # level rank of I(b) k a: (rank(I(b)) N + k - 1) N^|a| + rank(a)
    return (
        offs[length[:, None] + length[None, :] + mid]
        + (rev[None, :] * N**mid + letter - mid) * N ** length[:, None]
        + (np.arange(len(length)) - start)[:, None]
    )


def block_decompose(w: Word) -> BlockForm:
    """Unique factorization into maximal runs; rejects the empty word."""
    if w.is_empty:
        raise ValueError("the empty word has no block decomposition")
    blocks: list[tuple[int, int]] = []
    current = w.letters[0]
    count = 0
    for c in w.letters:
        if c == current:
            count += 1
        else:
            blocks.append((current, count))
            current, count = c, 1
    blocks.append((current, count))
    return BlockForm(tuple(blocks), w.alphabet)

