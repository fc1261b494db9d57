"""Real polynomials in N non-commuting indeterminates.

A polynomial is a finitely supported map from words to real coefficients;
multiplication extends concatenation of words bilinearly, and ``adjoint``
reverses every word (real coefficients are untouched).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .words import Word, _check_sizes, _require_alphabet


class NcPolynomial:
    """Immutable polynomial over words; zero coefficients are never stored."""

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: int, terms: Mapping[Word, float] | None = None):
        _check_sizes(alphabet)
        kept: dict[Word, float] = {}
        for w, c in (terms or {}).items():
            _require_alphabet(alphabet, w, "a term word")
            c = float(c)
            if c != 0.0:
                kept[w] = c
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_terms", kept)

    def __setattr__(self, name, value):
        raise AttributeError("NcPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: int) -> "NcPolynomial":
        return cls(alphabet)

    @classmethod
    def constant(cls, alphabet: int, value: float) -> "NcPolynomial":
        return cls(alphabet, {Word.empty(alphabet): float(value)})

    @classmethod
    def one(cls, alphabet: int) -> "NcPolynomial":
        return cls.constant(alphabet, 1.0)

    @classmethod
    def monomial(cls, word: Word) -> "NcPolynomial":
        return cls(word.alphabet, {word: 1.0})

    @classmethod
    def variable(cls, alphabet: int, k: int) -> "NcPolynomial":
        """The generator X_k."""
        return cls.monomial(Word((k,), alphabet))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest word length in the support; -1 for the zero polynomial."""
        return max(map(len, self._terms), default=-1)

    def coefficient(self, word: Word) -> float:
        return self._terms.get(word, 0.0)

    def support(self) -> list[Word]:
        return sorted(self._terms)

    def terms(self) -> Iterator[tuple[Word, float]]:
        for w in self.support():
            yield w, self.coefficient(w)

    def max_abs_coefficient(self) -> float:
        return max(map(abs, self._terms.values()), default=0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self.alphabet == other.alphabet and self._terms == other._terms

    def __hash__(self):
        return hash((self.alphabet, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "NcPolynomial(0)"
        bits = []
        for w, c in self.terms():
            mon = "" if w.is_empty else "X" + "X".join(str(ch) for ch in w.letters)
            bits.append(f"{c:g}{mon}" if mon else f"{c:g}")
        return "NcPolynomial(" + " + ".join(bits) + ")"

    # -- algebra -----------------------------------------------------------

    def __add__(self, other) -> "NcPolynomial":
        if isinstance(other, (int, float)):
            other = NcPolynomial.constant(self.alphabet, other)
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        _require_alphabet(self.alphabet, other, "the other polynomial")
        acc: dict[Word, float] = {}
        for poly in (self, other):
            for w, c in poly._terms.items():
                acc[w] = acc.get(w, 0.0) + c
        return NcPolynomial(self.alphabet, acc)

    __radd__ = __add__

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial(self.alphabet, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other) -> "NcPolynomial":
        if isinstance(other, (int, float)):
            other = NcPolynomial.constant(self.alphabet, other)
        return self + (-other)

    def __rsub__(self, other) -> "NcPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "NcPolynomial":
        if isinstance(other, (int, float)):
            return self.scale(other)
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        _require_alphabet(self.alphabet, other, "the other polynomial")
        acc: dict[Word, float] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1.concat(w2)
                acc[w] = acc.get(w, 0.0) + c1 * c2
        return NcPolynomial(self.alphabet, acc)

    def __rmul__(self, other) -> "NcPolynomial":
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: float) -> "NcPolynomial":
        factor = float(factor)
        return NcPolynomial(self.alphabet, {w: factor * c for w, c in self._terms.items()})

    def adjoint(self) -> "NcPolynomial":
        """Reverse every word in the support; an anti-automorphism of order 2."""
        return NcPolynomial(self.alphabet, {w.involute(): c for w, c in self._terms.items()})

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        return [{"word": list(w.letters), "coeff": c} for w, c in self.terms()]
