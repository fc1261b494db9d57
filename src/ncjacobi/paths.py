"""Colored Motzkin paths: the combinatorial side of the moment formula.

For a nonempty word the path set starts in the plane of the word's last
letter at height 0, consumes the maximal-run blocks right to left (advancing
steps are level/rise/fall; plane switches between blocks are free), and
returns to height 0 after |word| advancing steps.  Summing matrix-valued
step weights over all such paths reproduces the operator moments, and
removing the single maximal path isolates the top coefficient blocks, which
is what drives the moments -> coefficients direction.

A path sum with heights <= c is a product of the operator sections through
level c.  For all words I(s)t of one level at once, the columns J_t e0 of the
section's Fock matrix R sum the first n steps of the paths by height, R[:, s]
the last n steps run backwards, and (R^T R)[s, t] joins the halves at step n,
so it counts each path once; R^T J_k R does the same for the words I(s)kt.
Only the maximal path reaches height n in n steps, so for c = n - 1 the matrix
R is the Fock level V_n = [J_1 V_{n-1} .. J_N V_{n-1}] without its level-n rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .functional import MomentFunctional, require_positive, upper_cholesky
from .jacobi import AdmissibleFamily, _by_letter, _letter_blocks
from .words import Word, _check_sizes, level_kernel_index, level_offsets

STEP_KINDS = {1: "rise", 0: "level", -1: "fall"}  # by height change

#: explicit path lists are materialized only up to this word length
DEFAULT_PATH_CAP = 8


@dataclass(frozen=True)
class LatticePath:
    """A path of ``word``: one rise/level/fall step (+1/0/-1 in ``profile``) per
    letter, read right to left, in the plane of that letter."""

    word: Word
    profile: tuple[int, ...]

    def __post_init__(self):
        if len(self.profile) != len(self.word) or not set(self.profile) <= {-1, 0, 1}:
            raise ValueError("a path takes one step of +1, 0 or -1 per letter")
        heights = list(itertools.accumulate(self.profile, initial=0))
        if min(heights) < 0 or heights[-1] != 0:
            raise ValueError("path heights must stay nonnegative and end at 0")

    def max_height(self) -> int:
        return max(itertools.accumulate(self.profile, initial=0))

    def to_json_obj(self) -> list[dict]:
        """The steps between points (t, plane, height), with a switch step,
        which leaves t unchanged, wherever the plane changes."""
        planes = self.word.letters[::-1]
        steps: list[dict] = []
        h = 0
        for t, (k, s) in enumerate(zip(planes, self.profile)):
            if t > 0 and k != planes[t - 1]:
                steps.append({"kind": "switch", "from": [t, planes[t - 1], h], "to": [t, k, h]})
            steps.append({"kind": STEP_KINDS[s], "from": [t, k, h], "to": [t + 1, k, h + s]})
            h += s
        return steps


def motzkin_number(n: int) -> int:
    """Number of level/rise/fall paths of length n from height 0 back to 0."""
    _check_sizes(1, length=n)  # the count is the same over every alphabet
    # (n + 2) M_n = (2n + 1) M_{n-1} + 3 (n - 1) M_{n-2}, exact in integers
    prev, cur = 1, 1
    for m in range(2, n + 1):
        prev, cur = cur, ((2 * m + 1) * cur + 3 * (m - 1) * prev) // (m + 2)
    return cur


def motzkin_binomial_sum(n: int) -> int:
    """The sum (1/n) * sum_k C(n,k) * C(n-k, k-1) for n >= 1.

    As written this evaluates to motzkin_number(n - 1): the index is shifted
    by one relative to the path count of length n.  Kept as a documented
    cross-check of that shift.
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    # math.comb is 0 past the top, at k - 1 > n - k
    total = sum(math.comb(n, k) * math.comb(n - k, k - 1) for k in range(1, n + 1))
    if total % n:
        raise ArithmeticError(f"binomial sum {total} not divisible by {n}")
    return total // n


def enumerate_paths(word: Word) -> list[LatticePath]:
    """The full path set of a nonempty word, one path per height profile."""
    if word.is_empty:
        raise ValueError("the empty word has no paths")
    if len(word) > DEFAULT_PATH_CAP:
        raise ValueError(
            f"explicit path lists are capped at |word| = {DEFAULT_PATH_CAP} "
            f"({motzkin_number(len(word))} paths would be materialized)"
        )
    # rise/level/fall profiles (+1/0/-1) that stay nonnegative and end at 0
    profiles = itertools.product((1, 0, -1), repeat=len(word))
    return [
        LatticePath(word, prof)
        for prof in profiles
        if sum(prof) == 0 and min(itertools.accumulate(prof)) >= 0
    ]


def _step(family: AdmissibleFamily, k: int, m: int, s: int) -> np.ndarray:
    """Weight of a step from height m in plane k: a level step weighs B_{m,k},
    a rise A_{m+1,k} and a fall A_{m,k}^T, read from the level arrays."""
    if s == 0:
        return family.b_levels[m][k - 1]
    a = family.a_levels[m if s == 1 else m - 1]
    # a copy: BLAS sums a product with a strided view of A_n in another order
    block = _by_letter(a, family.alphabet)[k - 1].copy()
    return block if s == 1 else block.T


def path_weight(family: AdmissibleFamily, path: LatticePath) -> float:
    """Matrix product of the step weights of ``_step``, later steps multiplying
    from the left; switches are free.  Paths end at height 0, so it is a scalar."""
    if path.word.alphabet != family.alphabet:
        raise ValueError("word alphabet does not match family")
    height = path.max_height()
    family._require_levels(height, f"paths of height {height}")
    v, m = np.array([1.0]), 0
    for k, s in zip(reversed(path.word.letters), path.profile):
        v = _step(family, k, m, s) @ v
        m += s
    return float(v[0])


def _transfer_sum(family: AdmissibleFamily, word: Word, height_cap: int) -> float:
    """Weighted sum over all paths of ``word`` with heights <= height_cap.

    Dynamic program over (steps consumed, height); the state at height m is
    the vector sum of all partial path weights ending there.
    """
    state: dict[int, np.ndarray] = {0: np.array([1.0])}
    for k in reversed(word.letters):
        new: dict[int, np.ndarray] = {}
        for m, vec in state.items():
            for s in (0, 1, -1):  # level, rise, fall
                if 0 <= m + s <= height_cap:
                    contrib = _step(family, k, m, s) @ vec
                    new[m + s] = new[m + s] + contrib if m + s in new else contrib
        state = new
    return float(state[0][0])  # the all-level path keeps height 0 reached


def moments_from_paths(family: AdmissibleFamily, word: Word) -> float:
    """Moment of ``word`` as the weighted path sum; 1 for the empty word.

    The sum runs through the height-capped transfer recursion, which is exact
    because no path of length L exceeds height L//2.
    """
    if word.alphabet != family.alphabet:
        raise ValueError("word alphabet does not match family")
    if word.is_empty:
        return 1.0
    peak = len(word) // 2
    family._require_levels(peak, f"the path sums of length-{len(word)} words")
    return _transfer_sum(family, word, peak)


def distinguished_path(word: Word) -> LatticePath:
    """The unique maximal path, the one the inverse map peels off.

    Even length 2q: q rises then q falls. Odd length 2q+1: q rises, one level
    step at height q in the plane of the middle letter, q falls.
    """
    if word.is_empty:
        raise ValueError("the empty word has no distinguished path")
    q, odd = divmod(len(word), 2)
    return LatticePath(word, (1,) * q + (0,) * odd + (-1,) * q)


def jacobi_from_moments(phi: MomentFunctional, depth: int) -> AdmissibleFamily:
    """Recover the coefficient family of a strictly positive moment table.

    Level n works on the kernel matrix [s_{I(s)t}] over length-n words minus
    the sum over the non-maximal paths, those of height < n, taken for all words
    at once (module docstring).  What remains is the Schur complement of the
    shorter words in the Gram matrix G = R^T R.  It equals A~_n^T A~_n, where
    A~_n, the level-n rows of V_n, is the level-n diagonal block of R and
    A~_n = A_n (I_N (x) A~_{n-1}).  So one Cholesky factorization gives A~_n, and
    A_n = A~_n (I_N (x) A~_{n-1})^{-1}, block by block over the letters.  Its
    pivots diag(A~_n)^2 are the Gram pivots of the level's words, the quantity
    ``MomentFunctional.gram`` tests.  The words I(s)kt, summed with B_n = 0,
    give A~_n^T B_{n,k} A~_n, and B_{n,k} follows with A~_n^{-1}.
    Requires moments for every word of length <= 2*depth + 1.
    """
    N = phi.alphabet
    _check_sizes(N, depth=depth)
    phi._require_words(2 * depth + 1, f"extracting level-{depth} blocks")
    s = phi.values
    offs = level_offsets(N, depth)
    # the sections J_k through the last level recovered, stacked over k
    J = np.zeros((N, offs[depth + 1], offs[depth + 1]))
    J[:, 0, 0] = s[1 : N + 1]  # word k has rank k
    a_levels, b_levels = [], [J[:, :1, :1].copy()]
    jv = J[:, :1, :1]  # J_k V for the Fock level V, here V_0 = e0
    inv = np.ones((1, 1))  # A~_{n-1}^{-1}, with A~_{n-1} the top rows of V_{n-1}
    for n in range(1, depth + 1):
        dim = N**n
        prev, lo, hi = offs[n - 1 : n + 2]
        # the ranks of the words I(s)t and, over k, I(s)kt
        even, odd = level_kernel_index(N, n)
        low = jv.swapaxes(0, 1).reshape(lo, dim)  # V_n below level n
        atilde, pivots = upper_cholesky(s[even] - low.T @ low)
        if atilde is None:
            require_positive(pivots, f"level {n}")
        a = _letter_blocks(atilde, inv)
        inv = np.linalg.inv(atilde)
        v = np.concatenate((low, atilde))
        blocks = _by_letter(a, N)
        J[:, lo:hi, prev:lo] = blocks
        J[:, prev:lo, lo:hi] = blocks.swapaxes(1, 2)
        jv = J[:, :hi, :hi] @ v  # with B_n = 0
        b = inv.T @ (s[odd] - v.T @ jv) @ inv
        b = b + b.swapaxes(1, 2)  # not +=, which buffers the overlapping operand
        b *= 0.5
        J[:, lo:hi, lo:hi] = b
        jv[:, lo:] += b @ atilde
        a_levels.append(a)
        b_levels.append(b)
    return AdmissibleFamily.from_levels(a_levels, b_levels)
