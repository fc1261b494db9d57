import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from ncjacobi import (
    AdmissibleFamily,
    NcPolynomial,
    OneDimRecurrence,
    Word,
    build_free_product,
    classical_coefficients,
    enumerate_words,
    favard_moments,
    operator_moment,
    orthonormalize,
    product_basis,
    product_polynomial,
    validate,
    verify_three_term,
)
from ncjacobi.freeproduct import parse_recurrence_spec
from ncjacobi.jacobi import sections
from ncjacobi.orthopoly import three_term_residuals
from ncjacobi.words import SizeError

from conftest import classical_moments, free_cumulants, free_word_moments, refusal
from conftest import run_form_product

EPS = np.finfo(float).eps

SQRT2 = math.sqrt(2.0)


# -- independent oracle: quadrature moments + monic Stieltjes ---------------------------


def stieltjes_from_moments(moments, n):
    """Orthonormal (a, b) sequences from raw moments via monic Gram-Schmidt."""

    def ip(p, q):
        return sum(
            ci * cj * moments[i + j]
            for i, ci in enumerate(p)
            for j, cj in enumerate(q)
        )

    ps = [[1.0]]
    norms = [ip(ps[0], ps[0])]
    a = [math.nan]
    b = []
    for k in range(n):
        pk = ps[k]
        bk = ip([0.0] + pk, pk) / norms[k]
        b.append(bk)
        new = [0.0] + pk
        for i, c in enumerate(pk):
            new[i] -= bk * c
        if k >= 1:
            ck = norms[k] / norms[k - 1]
            for i, c in enumerate(ps[k - 1]):
                new[i] -= ck * c
        ps.append(new)
        norms.append(ip(new, new))
        a.append(math.sqrt(norms[k + 1] / norms[k]))
    b.append(ip([0.0] + ps[n], ps[n]) / norms[n])
    return a[1:], b


def quadrature_moments(kind, alpha, nmax):
    if kind == "hermite":
        weight = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        lo, hi = -np.inf, np.inf
    elif kind == "legendre":
        weight = lambda x: 0.5
        lo, hi = -1.0, 1.0
    elif kind == "laguerre":
        weight = lambda x: x**alpha * math.exp(-x) / math.gamma(alpha + 1)
        lo, hi = 0.0, np.inf
    elif kind == "chebyshev_t":
        # arcsine weight: endpoint singularities handled by the alg weight
        return [
            integrate.quad(
                lambda x, j=j: x**j, -1, 1, weight="alg", wvar=(-0.5, -0.5)
            )[0]
            / math.pi
            for j in range(nmax + 1)
        ]
    else:
        raise AssertionError(kind)
    return [
        integrate.quad(lambda x, j=j: x**j * weight(x), lo, hi, limit=400)[0]
        for j in range(nmax + 1)
    ]


@pytest.mark.parametrize(
    "kind,alpha",
    [
        ("hermite", None),
        ("chebyshev_t", None),
        ("legendre", None),
        ("laguerre", 0.0),
        ("laguerre", 0.5),
    ],
)
def test_classical_coefficients_against_quadrature_oracle(kind, alpha):
    depth = 3
    rec = classical_coefficients(kind, depth, alpha=alpha)
    moments = quadrature_moments(kind, alpha, 2 * depth + 1)
    a_ref, b_ref = stieltjes_from_moments(moments, depth)
    for n in range(1, depth + 1):
        assert rec.a[n - 1] == pytest.approx(a_ref[n - 1], abs=1e-8)
    for n in range(0, depth + 1):
        assert rec.b[n] == pytest.approx(b_ref[n], abs=1e-8)


def test_classical_coefficient_literals():
    h = classical_coefficients("hermite", 3)
    assert h.a == pytest.approx((1.0, SQRT2, math.sqrt(3.0)))
    assert h.b == (0.0,) * 4
    c = classical_coefficients("chebyshev_t", 3)
    assert c.a == pytest.approx((1 / SQRT2, 0.5, 0.5))
    l0 = classical_coefficients("laguerre", 2)
    assert (l0.b[0], l0.b[1], l0.a[0]) == (1.0, 3.0, 1.0)


def test_classical_coefficients_errors():
    with pytest.raises(ValueError, match="exceed -1"):
        classical_coefficients("laguerre", 3, alpha=-1.0)
    with pytest.raises(ValueError, match="unknown"):
        classical_coefficients("gegenbauer", 3)
    with pytest.raises(ValueError, match="no parameter"):
        classical_coefficients("hermite", 3, alpha=1.0)


def test_one_dim_recurrence_validation():
    with pytest.raises(ValueError, match="> 0"):
        OneDimRecurrence("bad", (0.0,), (0.0, 0.0))
    with pytest.raises(ValueError, match="one more b"):
        OneDimRecurrence("bad", (1.0,), (0.0,))


@given(st.data())
def test_one_dim_recurrence_rejects_non_finite_coefficients(data):
    length = data.draw(st.integers(1, 5))
    a = data.draw(st.lists(st.floats(1e-3, 1e6), min_size=length, max_size=length))
    b = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=length + 1, max_size=length + 1))
    coeffs = a + b
    coeffs[data.draw(st.integers(0, len(coeffs) - 1))] = data.draw(
        st.sampled_from([math.inf, -math.inf, math.nan])
    )
    with pytest.raises(ValueError, match="non-finite"):
        OneDimRecurrence("bad", tuple(coeffs[:length]), tuple(coeffs[length:]))


# -- block assembly -----------------------------------------------------------------


def test_build_hermite_pair_level_one(hermite2_family):
    assert np.array_equal(hermite2_family.A[(1, 1)], [[1.0], [0.0]])
    assert np.array_equal(hermite2_family.A[(1, 2)], [[0.0], [1.0]])
    a1 = np.hstack([hermite2_family.A[(1, 1)], hermite2_family.A[(1, 2)]])
    assert np.array_equal(a1, np.eye(2))


def test_build_laguerre_pair_diagonal_blocks():
    fam = build_free_product([classical_coefficients("laguerre", 3)] * 2, 2)
    assert np.array_equal(fam.B[(1, 1)], np.diag([3.0, 1.0]))
    assert np.array_equal(fam.B[(1, 2)], np.diag([1.0, 3.0]))


def test_build_hermite_pair_level_two_block(hermite2_family):
    a21 = hermite2_family.A[(2, 1)]
    expected = np.zeros((4, 2))
    expected[0, 0] = SQRT2  # row 11 <- column 1
    expected[1, 1] = 1.0  # row 12 <- column 2
    assert np.allclose(a21, expected, atol=0)


def test_build_concatenated_blocks_are_diagonal(hermite2_family):
    for n in range(1, hermite2_family.depth + 1):
        a = hermite2_family.a_levels[n - 1]
        assert np.array_equal(a, np.diag(np.diag(a)))
        assert np.min(np.diag(a)) > 0
    assert validate(hermite2_family).ok


def test_build_requires_long_enough_recurrences():
    with pytest.raises(ValueError, match="levels"):
        build_free_product([classical_coefficients("hermite", 2)], 3)


def test_one_letter_build_degenerates_to_input():
    rec = classical_coefficients("laguerre", 4)
    fam = build_free_product([rec], 4)
    t = sections(fam, 4)[0]
    expected = np.diag(rec.b) + np.diag(rec.a, 1) + np.diag(rec.a, -1)
    assert np.array_equal(t, expected)


# -- product polynomials ---------------------------------------------------------------


def test_product_polynomial_examples():
    recs = [classical_coefficients("hermite", 4)] * 2
    x1x2 = NcPolynomial.monomial(Word((1, 2), 2))
    assert product_polynomial(recs, Word((1, 2), 2)) == x1x2
    assert product_polynomial(recs, Word((), 2)) == NcPolynomial.one(2)
    p = product_polynomial(recs, Word((1, 1), 2))
    assert p.coefficient(Word((1, 1), 2)) == pytest.approx(1 / SQRT2)
    assert p.coefficient(Word((), 2)) == pytest.approx(-1 / SQRT2)


def test_product_polynomial_mixed_blocks():
    recs = [classical_coefficients("laguerre", 4), classical_coefficients("hermite", 4)]
    p = product_polynomial(recs, Word((1, 2), 2))
    # (x - 1) * y expanded over non-commuting letters
    assert p.coefficient(Word((1, 2), 2)) == pytest.approx(1.0)
    assert p.coefficient(Word((2,), 2)) == pytest.approx(-1.0)


# -- the three-term identity -------------------------------------------------------------


@pytest.mark.parametrize(
    "kinds,depth",
    [
        (("hermite", "hermite"), 4),
        (("chebyshev_t", "hermite"), 4),
        (("hermite", "hermite", "hermite"), 3),
        (("laguerre", "legendre"), 3),
    ],
)
def test_three_term_residuals(kinds, depth):
    recs = [classical_coefficients(k, depth + 1) for k in kinds]
    report = verify_three_term(recs, depth)
    assert report.ok
    assert report.max_residual <= 1e-12


@pytest.mark.parametrize(
    "spec,depth",
    [
        ("hermite,hermite", 4),
        ("chebyshev_t,hermite", 4),
        ("hermite,hermite,hermite", 3),
        ("laguerre,legendre", 3),
        ("laguerre(0.5),legendre", 5),
    ],
)
def test_product_basis_rows_match_run_form_oracle(spec, depth):
    recs = parse_recurrence_spec(spec, depth + 1)
    basis = product_basis(recs, depth)
    exact = not any(any(rec.b) for rec in recs)
    for i, w in enumerate(basis.words):
        oracle = run_form_product(recs, w)
        expected = np.array([oracle.coefficient(u) for u in basis.words])
        row = basis.coeffs[i]
        assert np.array_equal(row != 0.0, expected != 0.0), w
        if exact:
            assert np.array_equal(row, expected), w
        else:
            assert np.all(np.abs(row - expected) <= 4 * EPS * np.abs(expected)), w


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_three_term_residuals_report_planted_block_error(side, n, k):
    recs = [classical_coefficients(kind, 5) for kind in ("chebyshev_t", "hermite")]
    fam = build_free_product(recs, 4)
    c = product_basis(recs, 4).coeffs
    clean = three_term_residuals(c, fam)
    assert clean.shape == (4, 2) and clean.max() <= 1e-12
    delta = 1e-3
    blocks = {key: m.copy() for key, m in getattr(fam, side).items()}
    blocks[(n, k)][0, 0] += delta
    A, B = (blocks, fam.B) if side == "A" else (fam.A, blocks)
    residuals = three_term_residuals(c, AdmissibleFamily(2, 4, A, B))
    assert residuals[n, k - 1] >= delta / 2
    assert np.all(np.delete(residuals, k - 1, axis=1) <= 1e-12)


def test_product_polynomials_are_the_orthonormal_family(hermite2_family):
    recs = [classical_coefficients("hermite", 6)] * 2
    phi = favard_moments(hermite2_family, 3)
    polys = {
        w: product_polynomial(recs, w)
        for n in range(4)
        for w in enumerate_words(2, n)
    }
    for a, pa in polys.items():
        for b, pb in polys.items():
            expected = 1.0 if a == b else 0.0
            assert phi.inner(pa, pb) == pytest.approx(expected, abs=1e-9)


def test_gram_schmidt_reproduces_product_coefficients():
    recs = [classical_coefficients("laguerre", 5), classical_coefficients("hermite", 5)]
    fam = build_free_product(recs, 4)
    phi = favard_moments(fam, 3)
    basis = orthonormalize(phi, 3)
    for w in basis.words:
        direct = product_polynomial(recs, w)
        viaGram = basis.polynomial(w)
        assert (direct - viaGram).max_abs_coefficient() <= 1e-8


def test_moments_match_one_dim_oracle():
    # single-letter words of the pair family reduce to the one-variable case
    fam = build_free_product(
        [classical_coefficients("chebyshev_t", 5), classical_coefficients("hermite", 5)],
        4,
    )
    m = quadrature_moments("chebyshev_t", None, 6)
    for n in range(7):
        assert operator_moment(fam, Word((1,) * n, 2)) == pytest.approx(
            m[n], abs=1e-10
        )


# -- the product family is the free product ----------------------------------------------


def test_free_cumulant_oracle_on_the_semicircle():
    # Catalan moments have the single free cumulant k_2 = 1; two free semicircular
    # letters pair non-crossingly, so s_1212 = 0 where s_1122 = s_1221 = 1
    assert free_cumulants([1, 0, 1, 0, 2, 0, 5, 0, 14]) == [0, 0, 1, 0, 0, 0, 0, 0, 0]
    semi = free_cumulants([1, 0, 1, 0, 2])
    table = free_word_moments([semi, semi], 4)
    rank = {w: i for i, w in enumerate(enumerate_words(2, 4))}
    start = 2**4 - 1
    for letters, value in (((1, 1, 2, 2), 1), ((1, 2, 1, 2), 0), ((1, 2, 2, 1), 1)):
        assert table[start + rank[Word(letters, 2)]] == value


CUSTOM = {"a": [1.0, 1.5, 0.5, 2.0], "b": [0.5, -0.25, 1.0, 0.0, 0.75]}


def tridiagonal_moments(a, b, length):
    """e0^T J^m e0 for m = 0..length, J the symmetric tridiagonal matrix with b on its
    diagonal and a beside it: exact up to m = 2 len(a) + 1."""
    J = np.diag(b) + np.diag(a, 1) + np.diag(a, -1)
    v, moments = np.eye(len(b))[0], []
    for _ in range(length + 1):
        moments.append(v[0])
        v = J @ v
    return moments


@pytest.mark.parametrize(
    "spec, depth",
    [("hermite,laguerre(0.5)", 3), ("chebyshev_t,laguerre(0.5),hermite", 2),
     ("legendre,hermite", 4), ("legendre,chebyshev_t", 5), ("custom,legendre", 4)],
)
def test_product_family_moments_are_free_moments(tmp_path, spec, depth):
    # build_free_product realizes Voiculescu's free product of the one-variable
    # laws: its mixed free cumulants vanish, so every word up to the odd top level
    # has the moment of freely independent variables
    length = 2 * depth + 1
    (tmp_path / "custom.json").write_text(json.dumps(CUSTOM))
    spec = spec.replace("custom", f"custom:{tmp_path / 'custom.json'}")
    moments = [
        tridiagonal_moments(CUSTOM["a"], CUSTOM["b"], length)
        if token.startswith("custom:") else classical_moments(token, length)
        for token in spec.split(",")
    ]
    expected = free_word_moments([free_cumulants(m) for m in moments], length)
    fam = build_free_product(parse_recurrence_spec(spec, depth + 1), depth)
    got = favard_moments(fam, depth).values
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))


# -- CLI-facing spec strings --------------------------------------------------------------


def test_parse_recurrence_spec(tmp_path):
    recs = parse_recurrence_spec("hermite,laguerre(0.5)", 3)
    assert [r.label for r in recs] == ["hermite", "laguerre(0.5)"]
    custom = tmp_path / "rec.json"
    custom.write_text('{"a": [1.0, 1.5], "b": [0.5, 0.5, 0.5]}')
    recs = parse_recurrence_spec(f"chebyshev_t,custom:{custom}", 2)
    assert recs[1].a == (1.0, 1.5)
    assert recs[1].b == (0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        parse_recurrence_spec("hermite,,legendre", 2)
    with pytest.raises(ValueError):
        parse_recurrence_spec("laguerre(bad)", 2)


HERMITE = classical_coefficients("hermite", 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: classical_coefficients("hermite", 0), ValueError,
                     "n_max must be >= 1", id="no-coefficients"),
        pytest.param(lambda: parse_recurrence_spec("Hermite", 2), ValueError,
                     "cannot parse recurrence token 'Hermite'", id="capitalized-token"),
        pytest.param(lambda: build_free_product([HERMITE], -1), SizeError,
                     "depth must be >= 0, got -1", id="build-negative-depth"),
        pytest.param(lambda: build_free_product([], 1), SizeError,
                     "alphabet size must be >= 1, got 0", id="build-no-recurrence"),
        pytest.param(lambda: product_basis([HERMITE], 3), ValueError,
                     "recurrence hermite too short for degree 3", id="basis-short-recurrence"),
        pytest.param(lambda: product_basis([], 1), SizeError,
                     "alphabet size must be >= 1, got 0", id="basis-no-recurrence"),
        pytest.param(lambda: product_polynomial([HERMITE] * 2, Word((1,), 3)), ValueError,
                     "word alphabet 3 does not match 2 recurrences", id="polynomial-alphabet"),
        pytest.param(lambda: verify_three_term([HERMITE], 0), ValueError,
                     "depth must be >= 1", id="three-term-depth-0"),
    ],
)
def test_refusals_name_their_cause(call, error, message):
    assert refusal(call) == (error, message)
