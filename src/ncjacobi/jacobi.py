"""Admissible coefficient families and their block-tridiagonal operators.

A family holds, for each letter k, the blocks A_{n,k} (size N^n x N^{n-1})
and B_{n,k} (size N^n x N^n) of the three-term recurrence.  Admissibility:
every B block is symmetric and the per-level concatenation
[A_{n,1} ... A_{n,N}] is upper triangular with strictly positive diagonal
(rows and columns both indexed by length-n words in graded-lex order).

The letter operators J_k are symmetric block-tridiagonal; moments of the
induced functional are corner entries of operator products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .functional import POSITIVITY_TOL, MomentFunctional, NotStrictlyPositiveError
from .functional import json_floats, json_int
from .words import Word, level_offsets, reversal_index

VALIDATE_TOL = 1e-12  # bound on B asymmetry and A_n sub-diagonal entries; diag(A_n) exceeds it
THREE_TERM_TOL = 1e-12  # bound on the product construction's three-term residual


@dataclass(eq=False)
class AdmissibleFamily:
    """Blocks A[(n,k)] for n in 1..depth and B[(n,k)] for n in 0..depth."""

    alphabet: int
    depth: int
    A: dict[tuple[int, int], np.ndarray]
    B: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        if self.alphabet < 1:
            raise ValueError("alphabet size must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        N = self.alphabet
        checked = ({}, {})
        for side, blocks, first, out in zip("AB", (self.A, self.B), (1, 0), checked):
            for n in range(first, self.depth + 1):
                shape = (N**n, N ** (n - first))
                for k in range(1, N + 1):
                    if (n, k) not in blocks:
                        raise ValueError(f"missing block {side}[{n},{k}]")
                    m = np.asarray(blocks[(n, k)], dtype=float)
                    if m.shape != shape:
                        raise ValueError(
                            f"{side}[{n},{k}] has shape {m.shape}, expected {shape}"
                        )
                    out[(n, k)] = m
        extra = (set(self.A) - set(checked[0])) | (set(self.B) - set(checked[1]))
        if extra:
            raise ValueError(f"blocks outside depth range: {sorted(extra)}")
        self.A, self.B = checked

    def concat_A(self, n: int) -> np.ndarray:
        """[A_{n,1} ... A_{n,N}]: square, with columns ordered like length-n words."""
        return np.hstack([self.A[(n, k)] for k in range(1, self.alphabet + 1)])

    def blocks_close(self, other: "AdmissibleFamily", depth: int | None = None) -> float:
        """Max absolute entrywise difference over all blocks up to ``depth``."""
        depth = min(self.depth, other.depth) if depth is None else depth
        pairs = [(self.A, other.A), (self.B, other.B)]
        return max(
            float(np.max(np.abs(mine[key] - theirs[key])))
            for mine, theirs in pairs
            for key in mine
            if key[0] <= depth
        )

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        blocks = {
            side: [{"n": n, "k": k, "rows": m[(n, k)].tolist()} for n, k in sorted(m)]
            for side, m in (("A", self.A), ("B", self.B))
        }
        return {"N": self.alphabet, "depth": self.depth, **blocks}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "AdmissibleFamily":
        N, depth = json_int(obj, "N"), json_int(obj, "depth")
        blocks = ({}, {})
        for side, out in zip("AB", blocks):
            for entry in obj[side]:
                key = (json_int(entry, "n"), json_int(entry, "k"))
                if key in out:
                    raise ValueError(f"duplicate {side} block for (n,k)={key}")
                out[key] = json_floats(entry["rows"], 2, f"{side}[{key[0]},{key[1]}] rows")
        return cls(N, depth, *blocks)


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate(family: AdmissibleFamily) -> ValidationReport:
    """Check finiteness of every block, symmetry of B blocks and
    triangularity/positivity of each A_n."""
    violations: list[str] = []
    N = family.alphabet
    for n in range(0, family.depth + 1):
        for k in range(1, N + 1):
            b = family.B[(n, k)]
            if not np.isfinite(b).all():
                violations.append(f"B[{n},{k}] has a non-finite entry")
            elif np.max(np.abs(b - b.T), initial=0.0) > VALIDATE_TOL:
                violations.append(f"B[{n},{k}] not symmetric")
    for n in range(1, family.depth + 1):
        a = family.concat_A(n)
        if not np.isfinite(a).all():
            violations.append(f"A_{n} = [A_{n},1 .. A_{n},{N}] has a non-finite entry")
            continue
        below = np.tril(a, k=-1)
        if np.max(np.abs(below), initial=0.0) > VALIDATE_TOL:
            violations.append(f"A_{n} = [A_{n},1 .. A_{n},{N}] not upper triangular")
        if np.min(np.diag(a)) <= VALIDATE_TOL:
            violations.append(f"A_{n} diagonal not strictly positive")
    return ValidationReport(ok=not violations, violations=violations)


def sections(N: int, A: Mapping, B: Mapping, level: int) -> np.ndarray:
    """[J_1 .. J_N] cut after level ``level`` and stacked as an (N, n, n) array,
    from the blocks of levels 0..level only."""
    offs = level_offsets(N, level)
    J = np.zeros((N, offs[-1], offs[-1]))
    for k, m in enumerate(J, start=1):
        for n in range(level + 1):
            sl = slice(offs[n], offs[n + 1])
            m[sl, sl] = B[(n, k)]
            if n:
                hi = slice(offs[n - 1], offs[n])
                m[sl, hi] = A[(n, k)]
                m[hi, sl] = A[(n, k)].T
    return J


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
    if family.depth < n // 2:
        raise ValueError(
            f"family depth {family.depth} below exact section level {n // 2} "
            f"for |sigma|={n}"
        )
    level = min(n // 2 + 1, family.depth)
    J = sections(family.alphabet, family.A, family.B, level)
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
    through level ``degree``.  Each reversal orbit keeps one value, so the
    table is exactly reversal-symmetric.  The Fock matrix V over |w| <= degree
    is upper triangular (J_w e0 reaches no level above |w|, and its level-|w|
    entries below the diagonal vanish where each A_n is upper triangular), so
    it is the Cholesky factor of the Gram matrix G = V^T V: positivity is
    certified by its pivots diag(V)^2, without forming G and squaring its
    conditioning.  Moments that overflow float64, or that meet an overflowed
    Fock vector, raise ValueError naming the shortest such word length.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if family.depth < degree:
        raise ValueError(
            f"family depth {family.depth} cannot determine degree-{degree} moments"
        )
    N = family.alphabet
    J = list(sections(N, family.A, family.B, degree))  # views, made once
    offs = level_offsets(N, 2 * degree + 1)
    rev = reversal_index(N, 2 * degree + 1)
    # V_n holds J_w e0 for |w| = n in rank order, J_{kt} e0 = J_k (J_t e0) by one
    # product per letter; an overflow is named below by its word length, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        fock = [np.eye(len(J[0]), 1)]
        for _ in range(degree + 1):
            fock.append(np.concatenate([jk @ fock[-1] for jk in J], axis=1))
        levels = [np.ones(1)]
        for n in range(1, 2 * degree + 2):
            h = n // 2
            left = fock[h][:, rev[offs[h] : offs[h + 1]] - offs[h]]
            levels.append((left.T @ fock[n - h]).ravel())
    values = np.concatenate(levels)
    if not np.isfinite(values).all():
        n = next(n for n, level in enumerate(levels) if not np.isfinite(level).all())
        raise ValueError(
            f"float64 overflow in the moments of words of length {n}: the family's "
            f"blocks are too large for degree-{degree} moments, or not finite"
        )
    values = values[np.minimum(np.arange(values.size), rev)]
    phi = MomentFunctional.from_values(N, degree, values)
    # diag(V) level by level: the level-n rows of the level-n Fock vectors
    diag = [fock[n][offs[n] : offs[n + 1]].diagonal() for n in range(degree + 1)]
    pivot = float(np.min(np.concatenate(diag) ** 2))
    if not pivot > POSITIVITY_TOL:
        raise NotStrictlyPositiveError(
            f"moments of an admissible family failed strict positivity at degree "
            f"{degree} (min pivot {pivot:.3e}, tol {POSITIVITY_TOL}); the family data is "
            f"inconsistent"
        )
    return phi


def random_admissible_family(
    alphabet: int, depth: int, seed: int | np.random.Generator = 0
) -> AdmissibleFamily:
    """Seeded random family: A_n upper triangular with diag in [0.5, 2] and
    strict upper part in [-1, 1]; B blocks S + S^T with S entries in [-1, 1]."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    N = alphabet
    A: dict[tuple[int, int], np.ndarray] = {}
    B: dict[tuple[int, int], np.ndarray] = {}
    for n in range(1, depth + 1):
        dim = N**n
        m = np.triu(rng.uniform(-1.0, 1.0, size=(dim, dim)), k=1)
        np.fill_diagonal(m, rng.uniform(0.5, 2.0, size=dim))
        for k, a in enumerate(np.hsplit(m, N), start=1):
            A[(n, k)] = a
    for n in range(0, depth + 1):
        dim = N**n
        for k in range(1, N + 1):
            s = rng.uniform(-1.0, 1.0, size=(dim, dim))
            B[(n, k)] = s + s.T
    return AdmissibleFamily(alphabet, depth, A, B)
