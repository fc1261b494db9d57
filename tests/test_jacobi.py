import math

import numpy as np
import pytest

from ncjacobi import (
    AdmissibleFamily,
    MomentFunctional,
    NotStrictlyPositiveError,
    Word,
    build_free_product,
    classical_coefficients,
    coefficient_oracle,
    extract_recurrence,
    favard_moments,
    moments_from_paths,
    operator_moment,
    orthonormalize,
    random_admissible_family,
    validate,
    words_up_to,
)

from ncjacobi.freeproduct import parse_recurrence_spec
from ncjacobi.jacobi import _letter_blocks, sections
from ncjacobi.words import SizeError, enumerate_words

from conftest import GAUSSIAN_MOMENTS, per_block_free_product, per_block_random_family
from conftest import per_letter_fock, refusal

SQRT2 = math.sqrt(2.0)


def chebyshev_family(depth=5):
    return build_free_product([classical_coefficients("chebyshev_t", depth + 1)], depth)


# -- validation ---------------------------------------------------------------


def test_validate_free_product_family(hermite2_family):
    report = validate(hermite2_family)
    assert report.ok and not report.violations


def test_validate_flags_asymmetric_b(hermite2_family):
    bad = AdmissibleFamily(
        hermite2_family.alphabet,
        hermite2_family.depth,
        dict(hermite2_family.A),
        {**hermite2_family.B, (1, 1): np.array([[0.0, 1.0], [0.0, 0.0]])},
    )
    report = validate(bad)
    assert not report.ok
    assert any("B[1,1] not symmetric" in v for v in report.violations)


def test_validate_flags_nonpositive_diagonal():
    a = {
        (1, 1): np.array([[0.0], [0.0]]),
        (1, 2): np.array([[0.0], [1.0]]),
    }
    b = {(n, k): np.zeros((2**n, 2**n)) for n in (0, 1) for k in (1, 2)}
    report = validate(AdmissibleFamily(2, 1, a, b))
    assert not report.ok
    assert any("diagonal not strictly positive" in v for v in report.violations)


def test_validate_flags_lower_entries():
    a = {
        (1, 1): np.array([[1.0], [0.5]]),
        (1, 2): np.array([[0.0], [1.0]]),
    }
    b = {(n, k): np.zeros((2**n, 2**n)) for n in (0, 1) for k in (1, 2)}
    report = validate(AdmissibleFamily(2, 1, a, b))
    assert not report.ok
    assert any("not upper triangular" in v for v in report.violations)


@pytest.mark.parametrize("side, key", [("B", (1, 1)), ("A", (2, 2))])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_flags_non_finite_entries(hermite2_family, side, key, value):
    blocks = {"A": dict(hermite2_family.A), "B": dict(hermite2_family.B)}
    blocks[side][key] = blocks[side][key].copy()
    blocks[side][key][0, 0] = value
    bad = AdmissibleFamily(2, hermite2_family.depth, blocks["A"], blocks["B"])
    report = validate(bad)
    assert not report.ok
    assert any("non-finite" in v for v in report.violations)


def test_family_shape_checks():
    with pytest.raises(ValueError, match="missing block"):
        AdmissibleFamily(1, 1, {}, {(0, 1): np.zeros((1, 1)), (1, 1): np.zeros((1, 1))})
    with pytest.raises(ValueError, match="shape"):
        AdmissibleFamily(
            1,
            1,
            {(1, 1): np.zeros((2, 2))},
            {(0, 1): np.zeros((1, 1)), (1, 1): np.zeros((1, 1))},
        )


def test_random_family_is_admissible():
    for seed in range(5):
        fam = random_admissible_family(2, 3, seed=seed)
        assert validate(fam).ok


# -- truncation -----------------------------------------------------------------


def test_truncate_hermite_example(hermite_family):
    t = sections(hermite_family, 2)[0]
    assert np.allclose(
        t,
        [[0.0, 1.0, 0.0], [1.0, 0.0, SQRT2], [0.0, SQRT2, 0.0]],
        atol=1e-15,
    )


def test_truncate_level_zero(hermite2_family):
    t = sections(hermite2_family, 0)[1]
    assert t.shape == (1, 1)
    assert t[0, 0] == hermite2_family.B[(0, 2)][0, 0]


def test_truncate_laguerre_pair_example():
    fam = build_free_product([classical_coefficients("laguerre", 3)] * 2, 2)
    t = sections(fam, 1)[0]
    assert np.allclose(
        t,
        [[1.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]],
        atol=1e-15,
    )


def test_truncate_is_symmetric_block_tridiagonal():
    fam = random_admissible_family(2, 3, seed=8)
    t = sections(fam, 3)[0]
    assert np.array_equal(t, t.T)
    # zero outside the three block diagonals: entries between level 0 and 2+
    assert np.all(t[0, 3:] == 0.0)
    assert np.all(t[1:3, 7:] == 0.0)


@pytest.mark.parametrize("N, n, seed", [(1, 3, 0), (2, 1, 1), (2, 4, 2), (3, 3, 3)])
def test_letter_blocks_undo_the_level_identity(N, n, seed):
    # A~_n = A_n (I_N (x) A~_{n-1}) for a random upper triangular A~_{n-1}: the level
    # step returns A_{n,k} at [k - 1], with the zeros below the diagonal of A_n exact
    rng = np.random.default_rng(seed)

    def upper(m):
        t = np.triu(rng.uniform(-1.0, 1.0, size=(m, m)), 1)
        return t + np.diag(rng.uniform(0.5, 2.0, size=m))

    d = N ** (n - 1)
    prev, a = upper(d), upper(N * d)
    atilde = a @ np.kron(np.eye(N), prev)
    level = _letter_blocks(atilde, np.linalg.inv(prev))
    bound = 4 * np.finfo(float).eps * np.linalg.cond(prev) * np.max(np.abs(a))
    assert np.max(np.abs(level - a)) <= bound
    assert np.all(np.tril(level, -1) == 0.0)
    assert np.all(np.diag(level) > 0.0)


# -- operator moments --------------------------------------------------------------


def test_operator_moment_hermite_fourth(hermite_family):
    assert operator_moment(hermite_family, Word((1, 1, 1, 1), 1)) == pytest.approx(
        3.0, abs=1e-12
    )


def test_operator_moment_single_letter_zero_diagonal(hermite2_family):
    assert operator_moment(hermite2_family, Word((2,), 2)) == 0.0


def test_operator_moment_chebyshev_example():
    fam = chebyshev_family()
    assert operator_moment(fam, Word((1, 1, 1, 1), 1)) == pytest.approx(
        3.0 / 8.0, abs=1e-14
    )


def test_operator_moment_truncation_stability():
    # <J_w e0, e0> is the same on every section through a level >= |w| // 2
    fam = random_admissible_family(2, 5, seed=13)
    for letters in [(1, 1), (1, 2, 1), (2, 2, 1, 1), (1, 2, 2, 1, 2)]:
        w = Word(letters, 2)
        base = len(w) // 2
        values = {operator_moment(fam, w)}
        for lvl in range(base, min(base + 3, fam.depth) + 1):
            J = sections(fam, lvl)
            v = np.eye(len(J[0]), 1)
            for k in reversed(letters):
                v = J[k - 1] @ v
            values.add(float(v[0, 0]))
        assert max(values) - min(values) <= 1e-10


def test_moments_follow_an_edited_family():
    # moments are functions of the blocks as they are now, not as first seen
    fam = random_admissible_family(2, 2, seed=1)
    w = Word((1, 1, 1, 1), 2)
    before = favard_moments(fam, 2)
    operator_moment(fam, w)
    fam.B[(1, 1)][0, 0] += 0.5
    after = favard_moments(fam, 2)
    assert after.moment(w) == pytest.approx(moments_from_paths(fam, w), abs=1e-12)
    assert abs(after.moment(w) - before.moment(w)) > 0.1
    assert operator_moment(fam, w) == pytest.approx(moments_from_paths(fam, w), abs=1e-12)
    for u in words_up_to(2, 5):
        assert after.moment(u) == pytest.approx(moments_from_paths(fam, u), abs=1e-10)
    assert np.array_equal(sections(fam, 1)[0][1:3, 1:3], fam.B[(1, 1)])


def test_operator_moment_insufficient_depth():
    fam = random_admissible_family(2, 1, seed=0)
    with pytest.raises(SizeError, match="level|depth"):
        operator_moment(fam, Word((1, 1, 1, 1), 2))


# -- favard moments ------------------------------------------------------------------


def test_favard_hermite_moments(hermite_family):
    phi = favard_moments(hermite_family, 2)
    got = [phi.moment(Word((1,) * n, 1)) for n in range(5)]
    assert got == pytest.approx(list(GAUSSIAN_MOMENTS[:5]), abs=1e-12)


def test_favard_includes_odd_top_level(hermite_family):
    phi = favard_moments(hermite_family, 2)
    assert phi.word_bound == 5
    assert phi.moment(Word((1,) * 5, 1)) == pytest.approx(0.0, abs=1e-12)


def test_favard_hermite_pair_moments(hermite2_family):
    phi = favard_moments(hermite2_family, 2)
    assert phi.moment(Word((1, 1, 2, 2), 2)) == pytest.approx(1.0, abs=1e-12)
    assert phi.moment(Word((1, 2), 2)) == 0.0
    # alternating product of two independent centered variables: inner products
    # of distinct basis words vanish, so this mixed moment is zero
    assert phi.moment(Word((1, 2, 1, 2), 2)) == pytest.approx(0.0, abs=1e-12)


def test_favard_is_strictly_positive():
    fam = random_admissible_family(2, 3, seed=29)
    phi = favard_moments(fam, 3)
    assert phi.is_strictly_positive(3)


def test_favard_depth_precondition():
    fam = random_admissible_family(2, 2, seed=1)
    with pytest.raises(SizeError, match="family stores levels up to 2; "):
        favard_moments(fam, 3)


def test_favard_agrees_with_path_sums():
    fam = random_admissible_family(2, 3, seed=31)
    phi = favard_moments(fam, 3)
    for w in words_up_to(2, 6):
        assert phi.moment(w) == pytest.approx(moments_from_paths(fam, w), abs=1e-10)


def test_round_trip_through_gram_schmidt():
    fam = random_admissible_family(2, 3, seed=37)
    phi = favard_moments(fam, 3)
    basis = orthonormalize(phi, 3)
    recovered = extract_recurrence(basis, phi)
    assert fam.blocks_close(recovered) <= 1e-8


# -- serialization ---------------------------------------------------------------------


def test_family_json_round_trip():
    fam = random_admissible_family(2, 3, seed=41)
    back = AdmissibleFamily.from_json_obj(fam.to_json_obj())
    assert back.alphabet == fam.alphabet and back.depth == fam.depth
    assert fam.blocks_close(back) == 0.0


# -- one array per level -------------------------------------------------------------


def same_blocks(fam, other):
    """Equal keys, and every block equal with equal sign bits."""
    assert list(fam.A) == list(other.A) and list(fam.B) == list(other.B)
    for mine, theirs in ((fam.A, other.A), (fam.B, other.B)):
        for key, block in mine.items():
            assert np.array_equal(block, theirs[key]), key
            assert np.array_equal(np.signbit(block), np.signbit(theirs[key])), key
    return True


def level_cases():
    signed = random_admissible_family(2, 2, seed=3)
    signed.A[(1, 2)][0, 0] = -0.0  # a zero sign bit that must survive each route
    signed.B[(2, 1)][1, 1] = -0.0
    return [
        random_admissible_family(2, 3, seed=1),
        random_admissible_family(3, 2, seed=5),
        random_admissible_family(1, 4, seed=2),
        build_free_product(parse_recurrence_spec("hermite,legendre", 5), 4),
        signed,
    ]


@pytest.mark.parametrize("fam", level_cases(), ids=["2-3", "3-2", "1-4", "free", "signed"])
def test_block_and_level_constructors_agree(fam):
    from_blocks = AdmissibleFamily(fam.alphabet, fam.depth, dict(fam.A), dict(fam.B))
    from_levels = AdmissibleFamily.from_levels(fam.a_levels, fam.b_levels)
    assert same_blocks(from_blocks, fam) and same_blocks(from_levels, fam)
    for n, a in enumerate(from_blocks.a_levels, start=1):
        assert a.shape == (fam.alphabet**n,) * 2
        assert np.array_equal(np.signbit(a), np.signbit(fam.a_levels[n - 1]))
        assert np.array_equal(a, np.hstack([fam.A[(n, k)] for k in range(1, fam.alphabet + 1)]))
    for n, b in enumerate(from_blocks.b_levels):
        assert b.shape == (fam.alphabet,) + (fam.alphabet**n,) * 2
        assert np.array_equal(np.signbit(b), np.signbit(fam.b_levels[n]))


def test_block_mappings_are_read_only_views_of_the_levels():
    fam = random_admissible_family(3, 2, seed=7)
    assert len(fam.A) == 6 and len(fam.B) == 9
    for key, value in ((1, 1), fam.A[(1, 1)]), ((0, 2), fam.B[(0, 2)]):
        for blocks in (fam.A, fam.B):
            with pytest.raises(TypeError):
                blocks[key] = value
            with pytest.raises(TypeError):
                del blocks[key]
    for (n, k), block in fam.A.items():
        level = fam.a_levels[n - 1]
        d = 3 ** (n - 1)
        assert np.shares_memory(block, level)
        assert np.array_equal(block, level[:, (k - 1) * d : k * d])
    for (n, k), block in fam.B.items():
        assert np.shares_memory(block, fam.b_levels[n])
        assert np.array_equal(block, fam.b_levels[n][k - 1])
    fam.A[(2, 3)][4, 1] = 9.5
    fam.B[(1, 2)][0, 2] = -7.25
    assert fam.a_levels[1][4, 7] == 9.5 and fam.b_levels[1][1, 0, 2] == -7.25


def test_from_levels_refuses_arrays_of_other_shapes():
    fam = random_admissible_family(2, 2, seed=1)
    for a_levels, b_levels in [
        ([], []),
        ([], [np.zeros((0, 1, 1))]),
        (fam.a_levels[:1], fam.b_levels),
        (fam.a_levels, fam.b_levels[:2]),
        ((fam.a_levels[0], fam.a_levels[1][:, :2]), fam.b_levels),
        (fam.a_levels, (fam.b_levels[0], fam.b_levels[1][:1], fam.b_levels[2])),
    ]:
        with pytest.raises(ValueError, match="shapes of one family"):
            AdmissibleFamily.from_levels(a_levels, b_levels)


@pytest.mark.parametrize(
    "alphabet, depth", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 2), (3, 4), (2, 8), (1, 6)]
)
def test_random_family_matches_per_block_draws(alphabet, depth):
    # one (N, N^n, N^n) draw per B level takes the numbers of N per-letter draws
    for seed in (0, 1, 17):
        fam = random_admissible_family(alphabet, depth, seed=seed)
        assert same_blocks(fam, per_block_random_family(alphabet, depth, seed))


@pytest.mark.parametrize(
    "spec, depth",
    [
        ("hermite,legendre", 4),
        ("chebyshev_t,laguerre(0.5),hermite", 3),
        ("chebyshev_t,laguerre(0.5),hermite", 4),
        ("chebyshev_t,chebyshev_t", 8),
        ("laguerre(0.5)", 6),
    ],
)
def test_free_product_matches_per_block_construction(spec, depth):
    recs = parse_recurrence_spec(spec, depth + 1)
    assert same_blocks(build_free_product(recs, depth), per_block_free_product(recs, depth))


def test_blocks_close_compares_the_levels_both_families_hold():
    deep, shallow = random_admissible_family(2, 3, seed=1), random_admissible_family(2, 2, seed=1)
    assert deep.blocks_close(deep) == 0.0
    assert shallow.blocks_close(deep) == deep.blocks_close(shallow) > 0.0
    shared = zip(deep.a_levels[:2] + deep.b_levels[:3], shallow.a_levels + shallow.b_levels)
    assert shallow.blocks_close(deep) == max(np.max(np.abs(x - y)) for x, y in shared)


def test_blocks_close_refuses_families_over_other_alphabets():
    two, three = random_admissible_family(2, 2, seed=1), random_admissible_family(3, 2, seed=1)
    with pytest.raises(ValueError, match="family alphabets differ: 2 and 3"):
        two.blocks_close(three)


@pytest.mark.parametrize("alphabet, depth, seed", [(2, 6, 1), (3, 4, 13)])
def test_favard_accepts_ill_conditioned_admissible_family(alphabet, depth, seed):
    # the float64 Gram matrix of these tables has Cholesky pivots down to -35;
    # the Fock factor's QR pivots are min diag(V)^2, 0.59 and 0.26
    fam = random_admissible_family(alphabet, depth, seed=seed)
    phi = favard_moments(fam, depth)
    words = words_up_to(alphabet, phi.word_bound)
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(words), size=40, replace=False):
        w = words[i]
        ref = operator_moment(fam, w)
        assert phi.moment(w) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_favard_rejects_zero_a_diagonal():
    fam = random_admissible_family(2, 3, seed=3)
    fam.A[(2, 1)][0, 0] = 0.0  # the pivot of the word 11
    assert not validate(fam).ok
    with pytest.raises(NotStrictlyPositiveError) as info:
        favard_moments(fam, 3)
    # the first failing pivot of diag(V)^2, that of the word 11, exactly 0
    assert str(info.value) == (
        "functional not strictly positive at degree 3: Gram pivot 0.000e+00 <= 1e-10"
    )


# -- the Fock matrix is the Gram factor ---------------------------------------------

EPS = np.finfo(float).eps
FOCK_CASES = [
    (2, 3, 1), (3, 3, 2), ("hermite,legendre", 4), ("chebyshev_t,laguerre(0.5),hermite", 3)
]


def fock_case(case):
    """A seeded (N, depth, seed) family, or a free product from a spec, at a depth."""
    if isinstance(case[0], int):
        N, depth, seed = case
        return random_admissible_family(N, depth, seed=seed), depth
    spec, depth = case
    return build_free_product(parse_recurrence_spec(spec, depth + 1), depth), depth


def fock_matrix(fam, d):
    """V = [J_w e0] over the words w of length <= d, in rank order."""
    return np.hstack(per_letter_fock(sections(fam, d), d))


@pytest.mark.parametrize("case", FOCK_CASES)
def test_fock_matrix_is_gram_factor(case):
    # V = [J_w e0] over |w| <= d is upper triangular, so its QR changes nothing
    # and favard_moments reads the positivity pivots off diag(V)
    fam, d = fock_case(case)
    v = fock_matrix(fam, d)
    assert np.all(np.tril(v, -1) == 0.0)
    assert np.array_equal(np.linalg.qr(v, mode="r"), v)
    report = favard_moments(fam, d).gram(d)
    bound = np.linalg.cond(report.gram) * EPS
    assert np.max(np.abs(report.factor - v)) <= bound * np.max(np.abs(v))


def per_letter_table(fam, d):
    """The moment table s_{ab} = <J_{I(a)} e0, J_b e0>, |a| = |ab| // 2, one level
    product per word length from the per-letter Fock levels, each reversal orbit
    read at its smaller word."""
    N = fam.alphabet
    fock = per_letter_fock(sections(fam, d), d + 1)
    table = {}
    for n in range(2 * d + 2):
        firsts, lasts = enumerate_words(N, n // 2), enumerate_words(N, n - n // 2)
        left = fock[n // 2][:, [a.involute().rank() for a in firsts]]
        products = left.T @ fock[n - n // 2]
        for i, a in enumerate(firsts):
            for j, b in enumerate(lasts):
                table[a.concat(b)] = products[i, j]
    return np.array([table[min(w, w.involute())] for w in words_up_to(N, 2 * d + 1)])


@pytest.mark.parametrize(
    "case",
    [(2, 4, seed) for seed in range(5)] + FOCK_CASES
    + [("chebyshev_t,laguerre(0.5),hermite", 4), ("laguerre(0.5)", 6)],
)
def test_favard_table_is_the_per_letter_fock_table(case):
    # bit for bit: any other summation order in the Fock products (an einsum over
    # the stack, say) moves entries of every dense (2,4) table.  The sign bits
    # too, since a moment file writes -0.0 and 0.0 differently
    fam, d = fock_case(case)
    values, expected = favard_moments(fam, d).values, per_letter_table(fam, d)
    assert np.array_equal(values, expected)
    assert np.array_equal(np.signbit(values), np.signbit(expected))
    # the table favard holds unchecked passes every check of a table from outside
    held = MomentFunctional.from_values(fam.alphabet, d, values.copy()).values
    assert np.array_equal(held, values)
    assert np.array_equal(np.signbit(held), np.signbit(values))


def test_favard_does_not_check_its_table_again(monkeypatch):
    # finite, unital and reversal-symmetric by construction: nothing to check
    def forbidden(*args, **kwargs):
        raise AssertionError("favard_moments ran the moment-table checks")

    monkeypatch.setattr(MomentFunctional, "_set_values", forbidden)
    for case in FOCK_CASES:
        fam, d = fock_case(case)
        phi = favard_moments(fam, d)
        assert (phi.alphabet, phi.max_degree, phi.word_bound) == (fam.alphabet, d, 2 * d + 1)
        assert not phi.values.flags.writeable
        assert np.array_equal(phi.values, per_letter_table(fam, d))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("N,d", [(2, 3), (3, 3), (2, 5), (3, 4)])
def test_fock_diagonal_is_product_of_a_diagonals(N, d, seed):
    # the level-n part of J_k J_{w'} e0 is A_{n,k} times the level-(n-1) part of
    # J_{w'} e0, and both factors are triangular: d_{kw'} = A_n[c, c] d_{w'} with
    # c the level rank of k w', the other terms of the sum being exact zeros
    fam = random_admissible_family(N, d, seed=seed)
    expected = np.ones(1)
    for n in range(1, d + 1):
        level = np.diag(fam.a_levels[n - 1]) * np.tile(expected[-(N ** (n - 1)) :], N)
        expected = np.concatenate([expected, level])
    assert np.array_equal(np.diag(fock_matrix(fam, d)), expected)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("N,d", [(1, 3), (2, 2), (3, 1), (2, 3)])
def test_fock_diagonal_gives_leading_coefficients_and_minors(N, d, seed):
    # G = V^T V with V upper triangular: the orthonormal polynomial p_a has
    # leading coefficient 1 / diag(V)_a, and the leading minor D_a of G over the
    # words up to a is the product of diag(V)^2 over those words
    fam = random_admissible_family(N, d, seed=seed)
    diag = np.diag(fock_matrix(fam, d))
    phi = favard_moments(fam, d)
    g = phi.gram(d).gram
    bound = np.linalg.cond(g) * EPS
    for i, a in enumerate(words_up_to(N, d)):
        assert abs(coefficient_oracle(phi, a, a) * diag[i] - 1.0) <= bound
    minors = [np.linalg.det(g[: i + 1, : i + 1]) for i in range(len(g))]
    assert np.allclose(minors, np.cumprod(diag**2), rtol=bound, atol=0.0)


ONE_B = [{"n": 0, "k": 1, "rows": [[0.0]]}]


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: AdmissibleFamily(0, 1, {}, {}), SizeError,
                     "alphabet size must be >= 1, got 0", id="alphabet-0"),
        pytest.param(lambda: AdmissibleFamily(1, -1, {}, {}), SizeError,
                     "depth must be >= 0, got -1", id="negative-depth"),
        pytest.param(lambda: AdmissibleFamily(1, 0, {(1, 1): [[1.0]]}, {(0, 1): [[0.0]]}),
                     ValueError, "blocks outside depth range: [(1, 1)]", id="block-past-depth"),
        pytest.param(
            lambda: AdmissibleFamily.from_json_obj({"N": 1, "depth": 0, "A": {}, "B": ONE_B}),
            TypeError, "'A' must be a list of block entries", id="A-not-a-list"),
        pytest.param(
            lambda: AdmissibleFamily.from_json_obj({"N": 1, "depth": 0, "A": [], "B": ONE_B * 2}),
            ValueError, "duplicate B block for (n,k)=(0, 1)", id="duplicate-block"),
        pytest.param(lambda: favard_moments(random_admissible_family(1, 1), -1), SizeError,
                     "degree must be >= 0, got -1", id="favard-negative-degree"),
        pytest.param(lambda: random_admissible_family(2, -1), SizeError,
                     "depth must be >= 0, got -1", id="random-negative-depth"),
        pytest.param(lambda: random_admissible_family(0, 1), SizeError,
                     "alphabet size must be >= 1, got 0", id="random-alphabet-0"),
        pytest.param(lambda: sections(random_admissible_family(2, 1), 3), SizeError,
                     "family stores levels up to 1; the level-3 sections need level 3",
                     id="sections-past-depth"),
        pytest.param(lambda: sections(random_admissible_family(2, 1), -1), SizeError,
                     "level must be >= 0, got -1", id="sections-negative-level"),
        # a level inside the stored range takes the integer rule too
        pytest.param(lambda: sections(random_admissible_family(2, 2), 1.5), SizeError,
                     "level must be an integer, got 1.5", id="sections-float-level"),
        pytest.param(lambda: sections(random_admissible_family(2, 2), True), SizeError,
                     "level must be an integer, got True", id="sections-bool-level"),
    ],
)
def test_refusals_name_their_cause(call, error, message):
    assert refusal(call) == (error, message)
