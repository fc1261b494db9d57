import numpy as np
import pytest

from ncjacobi import NcPolynomial, Word
from ncjacobi.words import SizeError

from conftest import random_polynomial, refusal

X1 = NcPolynomial.variable(2, 1)
X2 = NcPolynomial.variable(2, 2)
ONE = NcPolynomial.one(2)


def coeffs_close(p, q, tol=1e-12):
    return (p - q).max_abs_coefficient() <= tol


def test_multiply_examples():
    assert (X1 + X2) * X1 == NcPolynomial(
        2, {Word((1, 1), 2): 1.0, Word((2, 1), 2): 1.0}
    )
    p = 2.0 + 3.0 * X1 * X2
    assert ONE * p == p
    assert X1 * X2 * X2 == NcPolynomial.monomial(Word((1, 2, 2), 2))


def test_multiply_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        X1 * NcPolynomial.variable(3, 1)


def test_adjoint_examples():
    assert (X1 * X2).adjoint() == X2 * X1
    p = 2.0 + 3.0 * X1
    assert p.adjoint() == p
    assert (X1 * X1 * X2).adjoint() == X2 * X1 * X1


def test_degree_examples():
    assert (X1 * X2 + X1).degree() == 2
    assert NcPolynomial.constant(2, 5.0).degree() == 0
    assert NcPolynomial.zero(2).degree() == -1


def test_zero_coefficients_are_pruned():
    p = X1 - X1
    assert p.is_zero()
    assert p.support() == []
    q = NcPolynomial(2, {Word((1,), 2): 0.0})
    assert q.is_zero()


def test_ring_axioms_on_random_polynomials():
    rng = np.random.default_rng(42)
    for _ in range(25):
        p = random_polynomial(rng)
        q = random_polynomial(rng)
        r = random_polynomial(rng)
        assert coeffs_close((p * q) * r, p * (q * r))
        assert coeffs_close(p * (q + r), p * q + p * r)
        assert coeffs_close((p + q) * r, p * r + q * r)
        assert coeffs_close(ONE * p, p)
        assert coeffs_close(p * ONE, p)


def test_adjoint_is_antiautomorphism_of_order_two():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = random_polynomial(rng)
        q = random_polynomial(rng)
        assert p.adjoint().adjoint() == p
        assert coeffs_close((p * q).adjoint(), q.adjoint() * p.adjoint())


def test_degree_is_additive_for_nonzero():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = random_polynomial(rng)
        q = random_polynomial(rng)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_json_round_trip():
    p = 1.5 - 2.0 * X1 * X2 + 0.25 * X2
    obj = p.to_json_obj()
    assert [entry["word"] for entry in obj] == [[], [2], [1, 2]]
    q = NcPolynomial(2, {Word(tuple(e["word"]), 2): e["coeff"] for e in obj})
    assert q == p


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: NcPolynomial(0), SizeError, "alphabet size must be >= 1, got 0",
                     id="alphabet-0"),
        pytest.param(lambda: NcPolynomial(2, {Word((1,), 3): 1.0}), SizeError,
                     "a term word is over N=3 letters, not N=2", id="term-alphabet"),
        pytest.param(lambda: setattr(ONE, "alphabet", 3), AttributeError,
                     "NcPolynomial is immutable", id="immutable"),
    ],
)
def test_refusals_name_their_cause(call, error, message):
    assert refusal(call) == (error, message)
