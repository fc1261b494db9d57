"""Multivariable families assembled from one-variable recurrences.

Each letter gets a one-variable orthonormal recurrence x p_n = a_{n+1} p_{n+1}
+ b_n p_n + a_n p_{n-1}.  Multiplying the one-variable polynomials along the
maximal-run form of a word produces an orthonormal family in N non-commuting
variables, and its three-term blocks are explicit: per level, the diagonal
entry at word t of B_{n,k} is b at t's leading run of k, and A_{n,k} sends
column t to row kt with a at that run plus one.  The per-level concatenated
A matrix is diagonal with positive entries, so the family is admissible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import jsonio
from .functional import json_floats
from .jacobi import AdmissibleFamily
from .ncpoly import NcPolynomial
from .orthopoly import OrthonormalBasis, three_term_residuals
from .words import Word, level_offsets, prepend_index


@dataclass(frozen=True)
class OneDimRecurrence:
    """Coefficients a_1..a_L (positive) and b_0..b_L of a one-variable recurrence."""

    label: str
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if len(self.b) != len(self.a) + 1:
            raise ValueError(
                f"need one more b than a coefficients (b_0..b_L vs a_1..a_L); "
                f"got {len(self.a)} a's and {len(self.b)} b's"
            )
        if not all(map(math.isfinite, self.a + self.b)):
            raise ValueError(f"recurrence {self.label} has a non-finite coefficient")
        for i, x in enumerate(self.a, start=1):
            if x <= 0.0:
                raise ValueError(f"off-diagonal coefficient a_{i} = {x} must be > 0")

    @property
    def length(self) -> int:
        return len(self.a)

    def a_at(self, n: int) -> float:
        if not (1 <= n <= self.length):
            raise ValueError(f"a_{n} unavailable (stored 1..{self.length})")
        return self.a[n - 1]

    def b_at(self, n: int) -> float:
        if not (0 <= n <= self.length):
            raise ValueError(f"b_{n} unavailable (stored 0..{self.length})")
        return self.b[n]

    @classmethod
    def from_json_obj(cls, obj: Mapping, label: str = "custom") -> "OneDimRecurrence":
        if not isinstance(obj, Mapping):
            raise TypeError('a recurrence file holds one object {"a": [...], "b": [...]}')
        a, b = (json_floats(obj[key], 1, f"recurrence {key!r}") for key in "ab")
        return cls(label=label, a=tuple(a), b=tuple(b))


CLASSICAL_KINDS = ("hermite", "chebyshev_t", "legendre", "laguerre")


def classical_coefficients(
    kind: str, n_max: int, alpha: float | None = None
) -> OneDimRecurrence:
    """Orthonormal recurrence coefficients of the classical one-variable families.

    hermite: standard normal weight, a_n = sqrt(n), b = 0.
    chebyshev_t: arcsine weight on (-1,1), a_1 = 1/sqrt(2), a_n = 1/2, b = 0.
    legendre: uniform weight on [-1,1], a_n = n / sqrt((2n-1)(2n+1)), b = 0.
    laguerre: weight x^alpha e^{-x} on (0,inf), a_n = sqrt(n(n+alpha)),
        b_n = 2n + 1 + alpha; requires alpha > -1 (default 0).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = range(1, n_max + 1)
    if kind == "hermite":
        a = [math.sqrt(n) for n in ns]
        b = [0.0] * (n_max + 1)
    elif kind == "chebyshev_t":
        a = [1.0 / math.sqrt(2.0)] + [0.5] * (n_max - 1)
        b = [0.0] * (n_max + 1)
    elif kind == "legendre":
        a = [n / math.sqrt((2 * n - 1) * (2 * n + 1)) for n in ns]
        b = [0.0] * (n_max + 1)
    elif kind == "laguerre":
        alpha = 0.0 if alpha is None else float(alpha)
        if alpha <= -1.0:
            raise ValueError(f"laguerre parameter must exceed -1, got {alpha}")
        a = [math.sqrt(n * (n + alpha)) for n in ns]
        b = [2.0 * n + 1.0 + alpha for n in range(n_max + 1)]
        return OneDimRecurrence(f"laguerre({alpha:g})", tuple(a), tuple(b))
    else:
        raise ValueError(f"unknown recurrence kind {kind!r}; known: {CLASSICAL_KINDS}")
    if alpha is not None:
        raise ValueError(f"kind {kind!r} takes no parameter")
    return OneDimRecurrence(kind, tuple(a), tuple(b))


_SPEC_TOKEN = re.compile(r"^(?P<kind>[a-z_]+)(?:\((?P<arg>[^()]*)\))?$")


def parse_recurrence_spec(spec: str, n_max: int) -> list[OneDimRecurrence]:
    """Parse a comma-separated recurrence list, e.g. ``hermite,laguerre(0.5)``.

    ``custom:FILE`` loads ``{"a": [...], "b": [...]}`` from a JSON file.
    """
    recs = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty entry in recurrence list")
        if token.startswith("custom:"):
            path = token[len("custom:") :]
            obj = jsonio.read_json(path)
            recs.append(OneDimRecurrence.from_json_obj(obj, label=f"custom:{path}"))
            continue
        m = _SPEC_TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse recurrence token {token!r}")
        arg = m.group("arg")
        recs.append(
            classical_coefficients(
                m.group("kind"), n_max, None if arg is None else float(arg)
            )
        )
    return recs


def build(recurrences: Sequence[OneDimRecurrence], depth: int) -> AdmissibleFamily:
    """Assemble the block family of the product construction.

    For a column word t of length n-1, A_{n,k} has its only entry at row kt,
    equal to a_{r+1} of letter k where r is t's leading run of k; B_{n,k} is
    diagonal with entry b_r at each length-n word.  The concatenated A_n is
    then diagonal with strictly positive entries.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    N = len(recurrences)
    if N < 1:
        raise ValueError("need at least one recurrence")
    for k, rec in enumerate(recurrences, start=1):
        if rec.length < depth:
            raise ValueError(
                f"recurrence {rec.label} for letter {k} stores {rec.length} levels, "
                f"need {depth}"
            )
    A: dict[tuple[int, int], np.ndarray] = {}
    B: dict[tuple[int, int], np.ndarray] = {}
    for n in range(depth + 1):
        size = N**n
        letters = np.arange(size)[:, None] // N ** np.arange(n - 1, -1, -1) % N + 1
        for k, rec in enumerate(recurrences, start=1):
            run = np.cumprod(letters == k, axis=1).sum(axis=1)  # leading run of k, by rank
            B[(n, k)] = np.diag(np.take(rec.b, run))
            if n < depth:
                # the word k t has rank (k - 1) N^n + rank(t)
                m = np.zeros((N * size, size))
                m[(k - 1) * size + np.arange(size), np.arange(size)] = np.take(rec.a, run)
                A[(n + 1, k)] = m
    return AdmissibleFamily(N, depth, A, B)


def _univariate_coeffs(rec: OneDimRecurrence, n: int) -> list[np.ndarray]:
    """Coefficient vectors (index = power) of p_0..p_n from the recurrence."""
    if n > rec.length:
        raise ValueError(f"recurrence {rec.label} too short for degree {n}")
    ps = [np.array([1.0])]
    for m in range(n):
        shifted = np.concatenate(([0.0], ps[m]))
        new = shifted.copy()
        new[: m + 1] -= rec.b_at(m) * ps[m]
        if m >= 1:
            new[:m] -= rec.a_at(m) * ps[m - 1]
        ps.append(new / rec.a_at(m + 1))
    return ps


def product_basis(recurrences: Sequence[OneDimRecurrence], depth: int) -> OrthonormalBasis:
    """Coefficient rows of the products of one-variable orthonormal polynomials
    along the run form, for all words up to ``depth``.

    The row of k^e w, with w not starting with k, is p_e(X_k) applied to the
    row of w; X_k moves each coefficient to the word with k prepended.  The
    empty word gives the constant 1.
    """
    N = len(recurrences)
    if N < 1 or depth < 0:
        raise ValueError("need at least one recurrence and depth >= 0")
    p = [_univariate_coeffs(rec, depth) for rec in recurrences]
    offs = level_offsets(N, depth)
    prepend = prepend_index(N, depth)
    c = np.zeros((offs[-1], offs[-1]))
    c[0, 0] = 1.0
    for n in range(1, depth + 1):
        for k in range(1, N + 1):
            for m in range(n):
                # k^(n-m) w, with |w| = m and w not starting with k, has level rank
                # (k - 1) (N^(n-1) + .. + N^m) + rank(w)
                w = np.arange(N**m)
                w = w[w // N ** (m - 1) != k - 1] if m else w
                sigma = offs[n] + (k - 1) * (offs[n] - offs[m]) + w
                rows, dest = c[offs[m] + w, : offs[m + 1]], np.arange(offs[m + 1])
                for coeff in p[k - 1][n - m]:
                    c[np.ix_(sigma, dest)] += coeff * rows
                    dest = prepend[k - 1, dest]
    return OrthonormalBasis(N, depth, c)


def product_polynomial(
    recurrences: Sequence[OneDimRecurrence], sigma: Word
) -> NcPolynomial:
    """Product of one-variable orthonormal polynomials along the run form of
    ``sigma``: its row of ``product_basis``."""
    N = len(recurrences)
    if sigma.alphabet != N:
        raise ValueError(f"word alphabet {sigma.alphabet} does not match {N} recurrences")
    return product_basis(recurrences, len(sigma)).polynomial(sigma)


@dataclass
class ThreeTermReport:
    """Largest coefficientwise residual of the recurrence identity per level."""

    depth: int
    max_residual: float
    residuals: dict[tuple[int, int], float]
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tolerance


def verify_three_term(
    recurrences: Sequence[OneDimRecurrence],
    depth: int,
    tolerance: float = 1e-12,
) -> ThreeTermReport:
    """Check X_k Phi_n = Phi_{n+1} A_{n+1,k} + Phi_n B_{n,k} + Phi_{n-1} A*_{n,k}
    coefficientwise for all letters k and levels n < depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    family = build(recurrences, depth)
    c = product_basis(recurrences, depth).coeffs
    residuals = three_term_residuals(c, len(recurrences), family.A, family.B)
    return ThreeTermReport(
        depth=depth,
        max_residual=max(residuals.values(), default=0.0),
        residuals=residuals,
        tolerance=tolerance,
    )
