"""Admissible coefficient families and their block-tridiagonal operators.

A family holds, for each letter k, the blocks A_{n,k} (size N^n x N^{n-1})
and B_{n,k} (size N^n x N^n) of the three-term recurrence, one array per level:
A_n = [A_{n,1} ... A_{n,N}] and the stack of the B_{n,k}.  Admissibility:
every B block is symmetric and A_n is upper triangular with strictly positive
diagonal (rows and columns both indexed by length-n words in graded-lex order).

The letter operators J_k are symmetric block-tridiagonal; moments of the
induced functional are corner entries of operator products.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

from .functional import MomentFunctional, ValidationReport, json_fields, json_floats
from .functional import json_int, require_positive
from .words import SizeError, Word, _check_sizes, level_offsets, orbit_index, reversal_index

VALIDATE_TOL = 1e-12  # bound on B asymmetry and A_n sub-diagonal entries; diag(A_n) exceeds it
THREE_TERM_TOL = 1e-12  # bound on the product construction's three-term residual


class AdmissibleFamily:
    """A family held one array per level: ``a_levels[n - 1]`` is A_n = [A_{n,1} ..
    A_{n,N}], (N^n, N^n), for n in 1..depth, and ``b_levels[n]`` stacks B_{n,1} ..
    B_{n,N} as (N, N^n, N^n) for n in 0..depth.  ``A[(n, k)]`` and ``B[(n, k)]`` are
    read-only mappings of views into them, so editing a block edits its level."""

    def __init__(self, alphabet: int, depth: int, A: Mapping, B: Mapping):
        """From the blocks A[(n, k)] for n in 1..depth and B[(n, k)] for n in 0..depth."""
        _check_sizes(alphabet, depth=depth)
        N = alphabet
        levels = ([], [])
        for side, blocks, first, out in zip("AB", (A, B), (1, 0), levels):
            for n in range(first, depth + 1):
                shape, letters = (N**n, N ** (n - first)), []
                for k in range(1, N + 1):
                    if (n, k) not in blocks:
                        raise ValueError(f"missing block {side}[{n},{k}]")
                    m = np.asarray(blocks[(n, k)], dtype=float)
                    if m.shape != shape:
                        raise ValueError(f"{side}[{n},{k}] has shape {m.shape}, expected {shape}")
                    letters.append(m)
                out.append(np.hstack(letters) if first else np.stack(letters))
        keys = {(n, k) for n in range(depth + 1) for k in range(1, N + 1)}
        extra = (set(A) - {key for key in keys if key[0]}) | (set(B) - keys)
        if extra:
            raise ValueError(f"blocks outside depth range: {sorted(extra)}")
        self.alphabet, self.depth = N, depth
        self.a_levels, self.b_levels = tuple(levels[0]), tuple(levels[1])

    @classmethod
    def from_levels(cls, a_levels, b_levels) -> "AdmissibleFamily":
        """The family of the float arrays A_1 .. A_depth and B_0 .. B_depth, held as given."""
        family = cls.__new__(cls)
        N, depth = len(b_levels[0]) if b_levels else 0, len(b_levels) - 1
        square = [(N**n, N**n) for n in range(depth + 1)]
        shapes = [x.shape for x in (*a_levels, *b_levels)]
        if N < 1 or shapes != square[1:] + [(N, *s) for s in square]:
            raise ValueError("level arrays do not have the shapes of one family")
        family.alphabet, family.depth = N, depth
        family.a_levels, family.b_levels = tuple(a_levels), tuple(b_levels)
        return family

    @property
    def A(self) -> Mapping[tuple[int, int], np.ndarray]:
        """A_{n,k}: the columns of A_n that letter k owns."""
        return _block_views(self.a_levels, 1, self.alphabet)

    @property
    def B(self) -> Mapping[tuple[int, int], np.ndarray]:
        return _block_views(self.b_levels, 0, self.alphabet)

    def _require_levels(self, level: int, what: str) -> None:
        """Refuse ``what``, a read of the levels 0..``level``, past the stored depth; the
        size rule checks a level that is not a plain int, or is negative."""
        if type(level) is not int or level < 0:
            _check_sizes(self.alphabet, level=level)
        if level > self.depth:
            raise SizeError(f"family stores levels up to {self.depth}; {what} need level {level}")

    def blocks_close(self, other: "AdmissibleFamily") -> float:
        """Max absolute entrywise difference over the blocks of every level that
        both families hold."""
        if self.alphabet != other.alphabet:
            raise ValueError(f"family alphabets differ: {self.alphabet} and {other.alphabet}")
        depth = min(self.depth, other.depth)
        levels = [(f.a_levels[:depth] + f.b_levels[: depth + 1]) for f in (self, other)]
        return max(float(np.max(np.abs(mine - theirs))) for mine, theirs in zip(*levels))

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        blocks = {
            side: [{"n": n, "k": k, "rows": m.tolist()} for (n, k), m in blocks.items()]
            for side, blocks in (("A", self.A), ("B", self.B))
        }
        return {"N": self.alphabet, "depth": self.depth, **blocks}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "AdmissibleFamily":
        sides = json_fields(obj, ("N", "depth", "A", "B"), "coefficient family")[2:]
        for side, entries in zip("AB", sides):
            if not isinstance(entries, list):
                raise TypeError(f"{side!r} must be a list of block entries")
            for entry in entries:
                json_fields(entry, ("n", "k", "rows"), f"{side} block")
        N, depth = json_int(obj, "N"), json_int(obj, "depth")
        blocks = ({}, {})
        for side, entries, out in zip("AB", sides, blocks):
            for entry in entries:
                key = (json_int(entry, "n"), json_int(entry, "k"))
                if key in out:
                    raise ValueError(f"duplicate {side} block for (n,k)={key}")
                out[key] = json_floats(entry["rows"], 2, f"{side}[{key[0]},{key[1]}] rows")
        return cls(N, depth, *blocks)


def validate(family: AdmissibleFamily) -> ValidationReport:
    """Check finiteness of every block, symmetry of B blocks and
    triangularity/positivity of each A_n."""
    violations: list[str] = []
    N = family.alphabet
    for n, b in enumerate(family.b_levels):
        with np.errstate(invalid="ignore"):  # inf - inf, in a block named non-finite
            gaps = np.max(np.abs(b - b.swapaxes(1, 2)), axis=(1, 2))
        for k, finite, gap in zip(range(1, N + 1), np.isfinite(b).all(axis=(1, 2)), gaps):
            if not finite:
                violations.append(f"B[{n},{k}] has a non-finite entry")
            elif gap > VALIDATE_TOL:
                violations.append(f"B[{n},{k}] not symmetric")
    for n, a in enumerate(family.a_levels, start=1):
        if not np.isfinite(a).all():
            violations.append(f"A_{n} = [A_{n},1 .. A_{n},{N}] has a non-finite entry")
            continue
        if np.max(np.abs(np.tril(a, k=-1)), initial=0.0) > VALIDATE_TOL:
            violations.append(f"A_{n} = [A_{n},1 .. A_{n},{N}] not upper triangular")
        if np.min(np.diag(a)) <= VALIDATE_TOL:
            violations.append(f"A_{n} diagonal not strictly positive")
    return ValidationReport(violations)


def sections(family: AdmissibleFamily, level: int) -> np.ndarray:
    """[J_1 .. J_N] cut after level ``level`` and stacked as an (N, n, n) array,
    from the levels 0..level only."""
    family._require_levels(level, f"the level-{level} sections")
    N = family.alphabet
    offs = level_offsets(N, level)
    J = np.zeros((N, offs[-1], offs[-1]))
    for n, b in enumerate(family.b_levels[: level + 1]):
        J[:, offs[n] : offs[n + 1], offs[n] : offs[n + 1]] = b
    for n, a in enumerate(family.a_levels[:level], start=1):
        prev, lo, hi = offs[n - 1 : n + 2]
        a = _by_letter(a, N)
        J[:, lo:hi, prev:lo] = a
        J[:, prev:lo, lo:hi] = a.swapaxes(1, 2)
    return J


def _by_letter(a: np.ndarray, alphabet: int) -> np.ndarray:
    """A_{n,k} at [k - 1], (N, N^n, N^(n-1)), as a view of A_n = [A_{n,1} .. A_{n,N}]:
    the one place that knows how A_n is split into letter blocks."""
    return a.reshape(len(a), alphabet, -1).swapaxes(0, 1)


def _letter_blocks(atilde: np.ndarray, prev_inv: np.ndarray) -> np.ndarray:
    """A_n from the level identity A~_n = A_n (I_N (x) A~_{n-1}): column block k
    of A~_n times A~_{n-1}^{-1}, given as ``prev_inv``, is A_{n,k}."""
    dim, d = len(atilde), len(prev_inv)
    return (_by_letter(atilde, dim // d) @ prev_inv).swapaxes(0, 1).reshape(dim, dim)


def operator_moment(family: AdmissibleFamily, sigma: Word) -> float:
    """<J_sigma e0, e0> computed on the section through level
    min(floor(|sigma|/2) + 1, depth).

    Any level >= floor(|sigma|/2) gives the exact value, since a product of
    |sigma| tridiagonal factors cannot return to level 0 from higher up.
    """
    if sigma.alphabet != family.alphabet:
        raise ValueError("word alphabet does not match family")
    n = len(sigma)
    if n == 0:
        return 1.0
    family._require_levels(n // 2, f"the moments of length-{n} words")
    level = min(n // 2 + 1, family.depth)
    J = sections(family, level)
    v = np.zeros(len(J[0]))
    v[0] = 1.0
    for k in reversed(sigma.letters):
        v = J[k - 1] @ v
    return float(v[0])


def favard_moments(family: AdmissibleFamily, degree: int) -> MomentFunctional:
    """Moment table of the functional determined by the family.

    Covers every word of length <= 2*degree + 1 (the odd top level is what the
    family's deepest diagonal-correction blocks show up in), as
    s_{ab} = <J_{I(a)} e0, J_b e0> from the Fock vectors J_w e0 on the section
    through level ``degree``, kept in one matrix and filled by one batched
    product per level.  Each reversal orbit keeps one value, so the table is
    exactly reversal-symmetric.  The Fock matrix V over |w| <= degree is upper
    triangular (J_w e0 reaches no level above |w|, and its level-|w| entries
    below the diagonal vanish where each A_n is upper triangular), so it is the
    Cholesky factor of the Gram matrix G = V^T V: positivity is certified by its
    pivots diag(V)^2, without forming G and squaring its conditioning.  Moments
    that overflow float64, or that meet an overflowed Fock vector, raise
    ValueError naming the shortest such word length.  The table is finite, unital
    and reversal-symmetric by construction, so it is held without the checks a
    table from outside gets (``MomentFunctional._certified``).
    """
    N = family.alphabet
    _check_sizes(N, degree=degree)
    J = sections(family, degree)
    offs = level_offsets(N, 2 * degree + 1)
    level = [slice(lo, hi) for lo, hi in zip(offs, offs[1:])]
    rev = reversal_index(N, 2 * degree + 1)
    # column w: J_w e0 for |w| <= degree + 1, in F order where each level is one
    # column, so that its moments are the per-letter construction's contiguous dots
    fock = np.zeros((offs[degree + 1], offs[degree + 2]), order="F" if N == 1 else "C")
    fock[0, 0] = 1.0
    values = np.empty(offs[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        for h in range(degree + 1):
            # column (k - 1) N^h + rank(t) of level h + 1 is J_k (J_t e0)
            out = fock[:, level[h + 1]].reshape(-1, N, N**h).transpose(1, 0, 2)
            np.matmul(J, fock[:, level[h]], out=out)
        left = fock[:, rev[: offs[degree + 1]]].T  # row a: J_{I(a)} e0
        for n in range(2 * degree + 2):  # s_{ab} for |ab| = n, |a| = n // 2
            h = n // 2
            out = values[level[n]].reshape(N**h, N ** (n - h))
            np.matmul(left[level[h]], fock[:, level[n - h]], out=out)
        pivots = fock.diagonal() ** 2  # diag(V): level |w| of J_w e0
    del J, fock, left  # before the table-sized gathers below
    if not np.isfinite(values).all():
        n = next(n for n, ln in enumerate(level) if not np.isfinite(values[ln]).all())
        raise ValueError(
            f"float64 overflow in the moments of words of length {n}: the family's "
            f"blocks are too large for degree-{degree} moments, or not finite"
        )
    require_positive(pivots, f"degree {degree}")
    return MomentFunctional._certified(N, degree, values[orbit_index(N, 2 * degree + 1)])


def random_admissible_family(
    alphabet: int, depth: int, seed: int | np.random.Generator = 0
) -> AdmissibleFamily:
    """Seeded random family: A_n upper triangular with diag in [0.5, 2] and
    strict upper part in [-1, 1]; B blocks S + S^T with S entries in [-1, 1]."""
    _check_sizes(alphabet, depth=depth)
    rng = np.random.default_rng(seed)
    N = alphabet
    a_levels, b_levels = [], []
    for n in range(1, depth + 1):
        a = np.triu(rng.uniform(-1.0, 1.0, size=(N**n, N**n)), k=1)
        np.fill_diagonal(a, rng.uniform(0.5, 2.0, size=N**n))
        a_levels.append(a)
    for n in range(0, depth + 1):
        s = rng.uniform(-1.0, 1.0, size=(N, N**n, N**n))  # the draws of B_{n,1} .. B_{n,N}
        b_levels.append(s + s.swapaxes(1, 2))
    return AdmissibleFamily.from_levels(a_levels, b_levels)


def _block_views(levels, first: int, N: int) -> Mapping[tuple[int, int], np.ndarray]:
    """B_{n,k} of each stack or A_{n,k} of each A_n at (n, k), as views of the level."""
    return MappingProxyType({
        (n, k): view
        for n, level in enumerate(levels, start=first)
        for k, view in enumerate(level if level.ndim == 3 else _by_letter(level, N), start=1)
    })
