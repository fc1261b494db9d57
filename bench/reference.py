"""Independent numpy reference for the benchmark.

Nothing here imports ``ncjacobi``.  Words over the letters ``1..N`` are
indexed by graded-lex rank: shorter words first, then letterwise, so the
words of length ``n`` sit at offsets ``sum(N**j for j < n)`` onward and a
word's rank within its level is its letters read as a base-``N`` number.

A family is the pair of block dictionaries ``A[(n, k)]`` (``N**n x
N**(n-1)``, ``n = 1..depth``) and ``B[(n, k)]`` (``N**n x N**n``, ``n =
0..depth``) of the block three-term recurrence.  Its moments are the corner
entries ``s_w = e0^T J_{w_1} ... J_{w_n} e0`` of products of the truncated
letter operators; the table is computed from the Fock vectors ``J_t e0``,
which letter-prepending builds level by level, as ``s_{ab} = <J_{I(a)} e0,
J_b e0>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EPS = 2.0**-52


@dataclass(frozen=True)
class Family:
    """Block recurrence coefficients, keyed ``(level, letter)`` as in the paper."""

    N: int
    depth: int
    A: dict
    B: dict


# -- words ------------------------------------------------------------------


def offset(N: int, n: int) -> int:
    """Graded rank of the first word of length ``n``."""
    return sum(N**j for j in range(n))


def level_words(N: int, n: int) -> np.ndarray:
    """Letters (1-based) of all length-``n`` words in rank order, shape (N**n, n)."""
    ranks = np.arange(N**n)
    cols = [(ranks // N ** (n - 1 - i)) % N + 1 for i in range(n)]
    return np.stack(cols, axis=1) if n else np.zeros((1, 0), dtype=int)


def words_up_to(N: int, L: int) -> list[tuple[int, ...]]:
    return [tuple(int(c) for c in row) for n in range(L + 1) for row in level_words(N, n)]


def graded_rank(word, N: int) -> int:
    r = 0
    for c in word:
        r = r * N + (c - 1)
    return offset(N, len(word)) + r


def reversal_permutation(N: int, n: int) -> np.ndarray:
    """``rev[r]`` is the rank of the reversal of the length-``n`` word of rank ``r``."""
    letters = level_words(N, n)[:, ::-1] - 1
    weights = N ** np.arange(n - 1, -1, -1)
    return letters @ weights if n else np.zeros(1, dtype=int)


def leading_run(letters: np.ndarray, k: int) -> np.ndarray:
    """Length of the initial run of letter ``k`` in each row of ``letters``."""
    if letters.shape[1] == 0:
        return np.zeros(letters.shape[0], dtype=int)
    is_k = letters == k
    # index of the first letter that is not k, or the word length
    return np.where(is_k.all(axis=1), letters.shape[1], np.argmin(is_k, axis=1))


# -- families ---------------------------------------------------------------


def dense_family(rng: np.random.Generator, N: int, depth: int) -> Family:
    """Random admissible family: each concatenated A_n is upper triangular with
    diagonal uniform on [0.5, 2] and strict upper part uniform on [-1, 1];
    each B block is S + S^T with S uniform on [-1, 1]."""
    A, B = {}, {}
    for n in range(1, depth + 1):
        dim = N**n
        m = np.triu(rng.uniform(-1.0, 1.0, size=(dim, dim)), k=1)
        np.fill_diagonal(m, rng.uniform(0.5, 2.0, size=dim))
        cols = N ** (n - 1)
        for k in range(1, N + 1):
            A[(n, k)] = m[:, (k - 1) * cols : k * cols].copy()
    for n in range(depth + 1):
        for k in range(1, N + 1):
            s = rng.uniform(-1.0, 1.0, size=(N**n, N**n))
            B[(n, k)] = s + s.T
    return Family(N, depth, A, B)


def recurrence(kind: str, length: int, alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form orthonormal recurrence ``(a_1..a_L, b_0..b_L)``."""
    n = np.arange(1, length + 1, dtype=float)
    zeros = np.zeros(length + 1)
    if kind == "hermite":
        return np.sqrt(n), zeros
    if kind == "legendre":
        return n / np.sqrt(4.0 * n * n - 1.0), zeros
    if kind == "chebyshev_t":
        a = np.full(length, 0.5)
        a[0] = 1.0 / math.sqrt(2.0)
        return a, zeros
    if kind == "laguerre":
        return np.sqrt(n * (n + alpha)), 2.0 * np.arange(length + 1) + 1.0 + alpha
    if kind == "semicircle":
        return np.ones(length), zeros
    raise ValueError(f"unknown recurrence {kind!r}")


def free_family(recs, depth: int) -> Family:
    """Product-construction family of one-variable recurrences, one per letter.

    Column word t of A_{n,k} has its one entry at row kt, equal to a_{r+1} of
    letter k, where r is the leading run of k in t; B_{n,k} is diagonal with
    b_r of letter k at each word.
    """
    N = len(recs)
    A, B = {}, {}
    for n in range(depth + 1):
        letters = level_words(N, n)
        for k in range(1, N + 1):
            a, b = recs[k - 1]
            run = leading_run(letters, k)
            B[(n, k)] = np.diag(b[run])
            if n < depth:
                m = np.zeros((N ** (n + 1), N**n))
                cols = np.arange(N**n)
                m[(k - 1) * N**n + cols, cols] = a[run]
                A[(n + 1, k)] = m
    return Family(N, depth, A, B)


def sections(fam: Family, level: int) -> list[np.ndarray]:
    """Truncated letter operators J_1..J_N through level blocks 0..level."""
    N = fam.N
    offs = [offset(N, n) for n in range(level + 2)]
    out = []
    for k in range(1, N + 1):
        m = np.zeros((offs[-1], offs[-1]))
        for n in range(level + 1):
            m[offs[n] : offs[n + 1], offs[n] : offs[n + 1]] = fam.B[(n, k)]
            if n:
                m[offs[n] : offs[n + 1], offs[n - 1] : offs[n]] = fam.A[(n, k)]
                m[offs[n - 1] : offs[n], offs[n] : offs[n + 1]] = fam.A[(n, k)].T
        out.append(m)
    return out


# -- moments ----------------------------------------------------------------


def moment(fam: Family, word) -> float:
    """``e0^T J_{w_1} ... J_{w_n} e0`` by plain matrix-vector products."""
    J = sections(fam, min(fam.depth, len(word) // 2 + 1))
    v = np.zeros(J[0].shape[0])
    v[0] = 1.0
    for k in reversed(word):
        v = J[k - 1] @ v
    return float(v[0])


def moment_table(fam: Family, word_bound: int) -> np.ndarray:
    """Moments of every word of length <= ``word_bound``, by graded rank.

    Needs ``depth >= word_bound // 2``.  Exact on the section through
    ``depth``: a Fock vector J_b e0 with |b| <= depth + 1 has the right
    components at levels <= depth, and it is only ever paired with vectors
    supported there.
    """
    N, depth = fam.N, fam.depth
    if word_bound // 2 > depth:
        raise ValueError(f"depth {depth} cannot give words of length {word_bound}")
    J = sections(fam, depth)
    fock = [np.eye(J[0].shape[0], 1)]  # level j: columns J_t e0, |t| = j
    for _ in range((word_bound + 1) // 2):
        fock.append(np.hstack([Jk @ fock[-1] for Jk in J]))
    out = [np.ones(1)]
    for n in range(1, word_bound + 1):
        h = n // 2
        left = fock[h][:, reversal_permutation(N, h)]
        out.append((left.T @ fock[n - h]).ravel())
    table = np.concatenate(out)
    # one value per reversal orbit, the one at the smaller rank, so the table
    # is exactly reversal-symmetric as a moment table must be
    rev = reversal_index(N, word_bound)
    return table[np.minimum(np.arange(len(table)), rev)]


def reversal_index(N: int, word_bound: int) -> np.ndarray:
    """Graded rank of each word's reversal, over all words of length <= bound."""
    return np.concatenate(
        [offset(N, n) + reversal_permutation(N, n) for n in range(word_bound + 1)]
    )


def gram(table: np.ndarray, N: int, degree: int) -> np.ndarray:
    """``G[a, b] = s_{I(b) a}`` over all words of length <= degree, graded-lex."""
    blocks = []
    for q in range(degree + 1):
        row = []
        rev_q = reversal_permutation(N, q)
        for p in range(degree + 1):
            # rank of I(b) a = rank(I(b)) * N**p + rank(a), at level p + q
            idx = offset(N, p + q) + rev_q[None, :] * N**p + np.arange(N**p)[:, None]
            row.append(table[idx])
        blocks.append(row)
    return np.block([[blocks[q][p] for q in range(degree + 1)] for p in range(degree + 1)])


def condition(table: np.ndarray, N: int, degree: int) -> float:
    return float(np.linalg.cond(gram(table, N, degree)))


# -- closed forms -----------------------------------------------------------


def double_factorial_odd(m: int) -> int:
    """(2m - 1)!!, the 2m-th moment of the standard normal law."""
    return math.prod(range(1, 2 * m, 2))


def motzkin(n: int) -> int:
    """Number of level/rise/fall paths of length ``n`` from height 0 back to 0."""
    m = [1, 1]
    for k in range(2, n + 1):
        m.append(m[k - 1] + sum(m[j] * m[k - 2 - j] for j in range(k - 1)))
    return m[n]


def nc_pairings(word) -> int:
    """Non-crossing pair partitions of the positions of ``word`` that join
    equal letters only: the moments of a free semicircular family."""

    @lru_cache(maxsize=None)
    def count(w: tuple[int, ...]) -> int:
        if not w:
            return 1
        return sum(
            count(w[1:j]) * count(w[j + 1 :])
            for j in range(1, len(w), 2)
            if w[j] == w[0]
        )

    return count(tuple(word))


# -- comparisons ------------------------------------------------------------


def block_error(fam: Family, A: dict, B: dict, depth: int) -> float:
    """Largest absolute entrywise difference over blocks up to ``depth``."""
    worst = 0.0
    for (n, k), ref in fam.A.items():
        if n <= depth:
            worst = max(worst, float(np.max(np.abs(np.asarray(A[(n, k)]) - ref))))
    for (n, k), ref in fam.B.items():
        if n <= depth:
            worst = max(worst, float(np.max(np.abs(np.asarray(B[(n, k)]) - ref))))
    return worst


def moment_error(got: np.ndarray, ref: np.ndarray) -> float:
    """Largest entrywise error relative to ``max(1, |s_w|)``."""
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def digits(err: float) -> float:
    return -math.log10(max(err, EPS))
