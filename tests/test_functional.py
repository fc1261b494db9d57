import math
import tracemalloc

import numpy as np
import pytest

from ncjacobi import (
    MomentFunctional,
    NcPolynomial,
    ValidationReport,
    Word,
    build_free_product,
    classical_coefficients,
    extract_recurrence,
    favard_moments,
    functional_free_product,
    hankel_check,
    jacobi_from_moments,
    kernel_table,
    orthonormalize,
    random_admissible_family,
    upper_cholesky,
    validate,
    words_up_to,
)

from ncjacobi.functional import NotStrictlyPositiveError, _by_rank, require_positive
from ncjacobi.words import SizeError, letters_up_to

from conftest import (
    EXPONENTIAL_MOMENTS,
    GAUSSIAN_MOMENTS,
    one_dim_functional,
    random_polynomial,
    refusal,
    row_loop_cholesky,
    singular_pair,
    substitution_solve,
)

EPS = np.finfo(float).eps


# -- construction and validation ---------------------------------------------


def test_incomplete_table_rejected():
    table = {Word((1,) * n, 1): v for n, v in enumerate([1.0, 0.0, 1.0])}
    with pytest.raises(ValueError, match="incomplete"):
        MomentFunctional(1, 2, table)


def test_partial_odd_extension_rejected():
    table = {
        Word((), 2): 1.0,
        Word((1,), 2): 0.0,
        Word((2,), 2): 0.0,
        Word((1, 1, 1), 2): 0.0,  # length 3 > 2*max_degree, incomplete level
    }
    with pytest.raises(ValueError, match="odd extension|one level"):
        MomentFunctional(2, 0, table)


def test_non_unital_rejected():
    table = {Word((1,) * n, 1): v for n, v in enumerate([2.0, 0.0, 1.0, 0.0, 3.0])}
    with pytest.raises(ValueError, match="unital"):
        MomentFunctional(1, 2, table)


def test_asymmetric_table_rejected():
    table = {Word((), 2): 1.0}
    for word in words_up_to(2, 2):
        table.setdefault(word, 0.0)
    table[Word((1, 2), 2)] = 0.5
    table[Word((2, 1), 2)] = -0.5
    with pytest.raises(ValueError, match="symmetric"):
        MomentFunctional(2, 1, table)


# -- kernel ------------------------------------------------------------------


def test_kernel_eval_examples(gaussian_phi):
    sigma = Word((1, 1), 1)
    assert gaussian_phi.kernel_eval(Word((), 1), sigma) == gaussian_phi.moment(sigma)
    phi = singular_pair()
    assert phi.kernel_eval(Word((1,), 2), Word((2,), 2)) == phi.moment(Word((1, 2), 2))
    # displayed 2x2 kernel of the singular pair
    assert phi.kernel_eval(Word((1,), 2), Word((1, 2), 2)) == 1.0


def test_kernel_eval_bound(gaussian_phi):
    with pytest.raises(ValueError, match="beyond stored bound"):
        gaussian_phi.kernel_eval(Word((1, 1, 1), 1), Word((1, 1, 1), 1))


def test_kernel_satisfies_shift_invariance(gaussian_phi, random_phi):
    for phi, depth in [(gaussian_phi, 5), (random_phi, 5), (singular_pair(), 4)]:
        report = hankel_check(kernel_table(phi, depth), phi.alphabet, depth)
        assert report.ok, report.violations[:3]


def test_hankel_check_planted_defect():
    phi = one_dim_functional(GAUSSIAN_MOMENTS[:5], 2)
    table = kernel_table(phi, 2)
    table[(Word((1, 1), 1), Word((), 1))] = 99.0
    report = hankel_check(table, 1, 2)
    assert not report.ok
    assert len(report.violations) == 1


def test_hankel_check_classical_hankel_matrix():
    # N=1: build K(i, j) = s_{i+j} directly from the moment list
    table = {
        (Word((1,) * i, 1), Word((1,) * j, 1)): GAUSSIAN_MOMENTS[i + j]
        for i in range(7)
        for j in range(7 - i)
    }
    assert hankel_check(table, 1, 6).ok


def test_hankel_check_incomplete_table():
    with pytest.raises(ValueError, match="incomplete"):
        hankel_check({}, 1, 1)


def test_hankel_check_and_validate_return_one_record(gaussian_phi):
    shift = hankel_check(kernel_table(gaussian_phi, 2), 1, 2)
    family = validate(random_admissible_family(2, 2, seed=1))
    assert type(shift) is type(family) is ValidationReport
    assert (shift.ok, shift.violations, family.ok, family.violations) == (True, [], True, [])


# -- gram and positivity -------------------------------------------------------


def test_gram_gaussian_example(gaussian_phi):
    report = gaussian_phi.gram(2)
    assert np.allclose(
        report.gram, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]], atol=1e-12
    )
    assert report.positive
    assert np.allclose(report.pivots, [1.0, 1.0, 2.0], atol=1e-12)
    assert gaussian_phi.is_strictly_positive(2)


def test_gram_degree_zero(gaussian_phi):
    report = gaussian_phi.gram(0)
    assert report.gram.tolist() == [[1.0]]
    assert report.positive


@pytest.mark.parametrize(
    "call",
    [
        lambda phi: phi.gram(-1),
        lambda phi: phi.is_strictly_positive(-1),
        lambda phi: orthonormalize(phi, -1),
    ],
)
def test_negative_gram_degree_is_rejected(gaussian_phi, call):
    with pytest.raises(SizeError, match="degree must be >= 0"):
        call(gaussian_phi)


def test_gram_is_deterministic(random_phi):
    a = random_phi.gram(3).gram
    b = random_phi.gram(3).gram
    assert np.array_equal(a, b)


def test_gram_allocates_only_its_rows_on_a_large_alphabet():
    # 300 free semicircular letters, words to length 2 (s_kl = delta_kl): the whole
    # kernel index over |a| <= 2 would hold 90301 x 301 int64 ranks, 217 MB
    N = 300
    values = np.zeros(1 + N + N * N)
    values[0] = 1.0
    values[1 + N + np.arange(N) * (N + 1)] = 1.0
    phi = MomentFunctional.from_values(N, 1, values)
    tracemalloc.start()
    try:
        report = phi.gram(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.positive and np.array_equal(report.gram, np.eye(N + 1))
    assert peak < 8 * 2**20, f"gram(1) allocated {peak / 2**20:.1f} MB"


def test_singular_free_product_kernel():
    phi = singular_pair()
    sub = np.array(
        [
            [phi.kernel_eval(a, b) for b in (Word((1,), 2), Word((1, 2), 2))]
            for a in (Word((1,), 2), Word((1, 2), 2))
        ]
    )
    assert np.array_equal(sub, [[1.0, 1.0], [1.0, 1.0]])
    assert abs(np.linalg.det(sub)) <= 1e-12
    assert not phi.is_strictly_positive(2)
    # the full gram at degree 2 contains that submatrix at the matching ranks
    report = phi.gram(2)
    idx = [report.words.index(Word((1,), 2)), report.words.index(Word((1, 2), 2))]
    assert np.array_equal(report.gram[np.ix_(idx, idx)], [[1.0, 1.0], [1.0, 1.0]])


def test_constant_table_not_strictly_positive():
    table = {w: 1.0 for w in words_up_to(2, 2)}
    phi = MomentFunctional(2, 1, table)
    assert not phi.is_strictly_positive(1)


def test_free_product_with_nonzero_mean_and_variance_never_positive():
    rng = np.random.default_rng(19)
    for _ in range(10):
        mean = rng.uniform(0.2, 1.5)
        var = rng.uniform(0.5, 2.0)
        # part 1: centered with variance `var`; part 2: point-ish with mean
        p1 = one_dim_functional(
            [1.0, 0.0, var, 0.0, 3 * var * var], 2
        )
        s2 = [1.0, mean, mean**2 + 1.0, 0.0, 0.0]
        s2[3] = mean**3 + 3 * mean
        s2[4] = mean**4 + 6 * mean**2 + 3
        p2 = one_dim_functional(s2, 2)
        phi = functional_free_product([p1, p2])
        assert not phi.is_strictly_positive(2)


def test_free_product_moment_rule():
    phi = singular_pair()
    assert phi.moment(Word((), 2)) == 1.0
    g = one_dim_functional(GAUSSIAN_MOMENTS[:6], 2)
    e = one_dim_functional(EXPONENTIAL_MOMENTS[:6], 2)
    one = Word((1,), 1)
    assert phi.moment(Word((1, 2), 2)) == g.moment(one) * e.moment(one)
    # maximal-run rule on a longer word: 1^2 2^1 1^1
    expected = g.moment(Word((1, 1), 1)) * e.moment(one) * g.moment(one)
    assert phi.moment(Word((1, 1, 2, 1), 2)) == expected
    # reversal symmetry is exact by construction
    for w in words_up_to(2, 4):
        assert phi.moment(w) == phi.moment(w.involute())


def test_functional_free_product_is_the_boolean_product():
    # the free product of two Hermite laws factors s_1221 = s_22 s_11 = 1, where the
    # run rule multiplies the runs' moments s_1 s_22 s_1 = 0
    g = one_dim_functional(GAUSSIAN_MOMENTS[:6], 2)
    word = Word((1, 2, 2, 1), 2)
    assert functional_free_product([g, g]).moment(word) == 0.0
    free = build_free_product([classical_coefficients("hermite", 3)] * 2, 2)
    assert favard_moments(free, 2).moment(word) == 1.0


def test_free_product_requires_one_variable_parts(random_phi):
    with pytest.raises(ValueError, match="one-variable"):
        functional_free_product([random_phi])


# -- apply ---------------------------------------------------------------------


def test_apply_examples(gaussian_phi):
    one = NcPolynomial.one(1)
    x = NcPolynomial.variable(1, 1)
    assert gaussian_phi.apply(one) == 1.0
    assert gaussian_phi.apply(NcPolynomial.monomial(Word((1, 1), 1))) == 1.0
    assert gaussian_phi.apply(x * x * x * x - 3.0) == 0.0


def test_apply_degree_bound(gaussian_phi):
    x = NcPolynomial.variable(1, 1)
    p = x * x * x * x * x * x
    with pytest.raises(SizeError, match="degree-6 polynomial needs length 6"):
        gaussian_phi.apply(p)


def test_every_route_refuses_words_past_the_table_in_one_text():
    # a depth-2 table with its odd level stores words up to length 5
    phi = favard_moments(random_admissible_family(2, 2, seed=1), 2)
    deeper = orthonormalize(favard_moments(random_admissible_family(2, 3, seed=1), 3), 3)
    x = NcPolynomial.variable(2, 1)
    for call, need in [
        (lambda: phi.gram(3), "the degree-3 Gram matrix needs length 6"),
        (lambda: phi.apply(x * x * x * x * x * x), "a degree-6 polynomial needs length 6"),
        (lambda: jacobi_from_moments(phi, 3), "extracting level-3 blocks needs length 7"),
        (lambda: extract_recurrence(deeper, phi), "extracting level-3 blocks needs length 7"),
        (lambda: kernel_table(phi, 6), "a depth-6 kernel table needs length 6"),
    ]:
        assert refusal(call) == (SizeError, f"moment table stores words up to length 5; {need}")


def test_apply_positive_on_squares(random_phi):
    rng = np.random.default_rng(23)
    assert random_phi.is_strictly_positive(3)
    for _ in range(20):
        p = random_polynomial(rng, alphabet=2, max_degree=3, n_terms=4)
        val = random_phi.apply(p.adjoint() * p)
        assert val >= -1e-10


# -- factorization helper --------------------------------------------------------


def test_upper_cholesky_known_matrix():
    g = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]])
    r, pivots = upper_cholesky(g)
    assert r is not None
    assert np.allclose(r.T @ r, g, atol=1e-14)
    assert np.allclose(pivots, [1.0, 1.0, 2.0])
    assert np.all(np.diag(r) > 0)
    assert np.allclose(r, np.triu(r))


def seeded_spd(n, seed):
    m = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n))
    return m @ m.T + 0.1 * np.eye(n)


def spd_case(case):
    """A seeded SPD matrix, or the Gram matrix of a seeded (N, depth, seed) family."""
    if isinstance(case, int):
        return seeded_spd(5 + 7 * case, 900 + case)
    N, d, seed = case
    return favard_moments(random_admissible_family(N, d, seed=seed), d).gram(d).gram


@pytest.mark.parametrize("case", [*range(6), (2, 4, 7), (3, 3, 2)])
def test_upper_cholesky_agrees_with_row_loop(case):
    g = spd_case(case)
    r, pivots = upper_cholesky(g)
    r_ref, pivots_ref = row_loop_cholesky(g, 1e-10)
    assert r is not None and r_ref is not None
    assert np.all(np.tril(r, -1) == 0.0) and np.all(np.diag(r) > 0)
    scale = len(g) * EPS * np.linalg.cond(g)
    assert np.max(np.abs(r - r_ref)) <= scale * np.max(np.abs(r_ref))
    assert np.allclose(pivots, pivots_ref, rtol=scale, atol=0.0)


def small_pivot_matrix(pivot):
    """L D L^T with unit lower L, so the LDL^T pivots are exactly D's diagonal
    up to rounding; index 2 carries ``pivot``."""
    rng = np.random.default_rng(5)
    lower = np.tril(rng.uniform(-1.0, 1.0, size=(5, 5)), -1) + np.eye(5)
    return lower @ np.diag([1.0, 2.0, pivot, 1.5, 1.0]) @ lower.T


def test_upper_cholesky_rejects_small_pivot_lapack_accepts():
    g = small_pivot_matrix(1e-12)
    np.linalg.cholesky(g)  # LAPACK factors it: the pivot is positive
    r, pivots = upper_cholesky(g)
    assert r is None
    assert (r, pivots) == row_loop_cholesky(g, 1e-10)
    assert len(pivots) == 3 and 0.0 < pivots[-1] <= 1e-10


def test_upper_cholesky_names_nan_pivot():
    g = small_pivot_matrix(1.0)
    g[3, 3] = np.nan
    r, pivots = upper_cholesky(g)
    assert r is None
    assert len(pivots) == 4 and math.isnan(pivots[-1])
    assert pivots[:3] == row_loop_cholesky(g, 1e-10)[1][:3]


def test_upper_cholesky_reads_upper_triangle():
    g = seeded_spd(12, 3)
    skewed = g.copy()
    lower = np.tril_indices(12, -1)
    skewed[lower] *= 1.0 + 1e-12
    assert not np.array_equal(skewed, skewed.T)
    r, _ = upper_cholesky(skewed)
    assert r is not None
    assert np.array_equal(r, upper_cholesky(g)[0])


def random_upper(n, seed):
    rng = np.random.default_rng(seed)
    t = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    return t + np.diag(rng.uniform(0.5, 2.0, size=n))


def test_solve_triangular_keeps_structural_zeros():
    # orthonormalize and the path peel invert upper triangular factors with
    # np.linalg.inv, an LU solve against the identity; LU pivots nothing there, so
    # forced zeros stay exact
    t = random_upper(20, 1)
    inverse = np.linalg.solve(t, np.eye(20))
    assert np.all(np.tril(inverse, -1) == 0.0)
    assert np.array_equal(np.linalg.inv(t), inverse)
    for j in (0, 7, 19):
        x = np.linalg.solve(t, np.eye(20)[j])
        assert x.shape == (20,)
        assert np.all(x[j + 1 :] == 0.0)


@pytest.mark.parametrize("n, seed", [(1, 2), (9, 3), (30, 4)])
def test_solve_triangular_agrees_with_substitution(n, seed):
    t = random_upper(n, seed)
    rng = np.random.default_rng(seed + 100)
    bound = n * EPS * np.linalg.cond(t)
    for b in (rng.normal(size=n), rng.normal(size=(n, 4))):
        x = np.linalg.solve(t, b)
        ref = substitution_solve(t, b)
        assert x.shape == b.shape
        assert np.max(np.abs(x - ref)) <= bound * np.max(np.abs(ref))


def test_upper_cholesky_stops_at_nonpositive_pivot():
    g = np.array([[1.0, 1.0], [1.0, 1.0]])
    r, pivots = upper_cholesky(g)
    assert r is None
    assert pivots[-1] <= 1e-12


# -- serialization ----------------------------------------------------------------


def test_moment_json_round_trip(random_phi):
    obj = random_phi.to_json_obj()
    back = MomentFunctional.from_json_obj(obj)
    assert back.alphabet == random_phi.alphabet
    assert back.max_degree == random_phi.max_degree
    for w in words_up_to(2, random_phi.word_bound):
        assert back.moment(w) == random_phi.moment(w)


def test_favard_tables_symmetric_and_unital():
    fam = random_admissible_family(2, 3, seed=2)
    phi = favard_moments(fam, 2)
    assert phi.moment(Word((), 2)) == 1.0
    for w in words_up_to(2, phi.word_bound):
        assert phi.moment(w) == phi.moment(w.involute())


def test_upper_cholesky_stops_at_nan_pivot():
    r, pivots = upper_cholesky(np.array([[np.nan]]))
    assert r is None
    assert len(pivots) == 1 and math.isnan(pivots[0])


@pytest.mark.parametrize("bad, shown", [(0.0, "0.000e+00"), (np.nan, "nan"), (1e-10, "1.000e-10")])
def test_require_positive_names_the_first_pivot_not_above_the_bound(bad, shown):
    # one comparison passes positive pivots; a failing one is named as before
    assert require_positive([2.0, 0.5, 1e-9], "degree 2") is None
    pivots = [2.0, bad, -1.0, np.nan]
    assert refusal(lambda: require_positive(pivots, "degree 2")) == (
        NotStrictlyPositiveError,
        f"functional not strictly positive at degree 2: Gram pivot {shown} <= 1e-10",
    )


# -- flat table --------------------------------------------------------------------


@pytest.mark.parametrize("alphabet, degree, seed", [(1, 3, 3), (2, 2, 5), (3, 1, 7)])
def test_values_indexed_by_graded_rank(alphabet, degree, seed):
    phi = favard_moments(random_admissible_family(alphabet, degree, seed=seed), degree)
    words = words_up_to(alphabet, phi.word_bound)
    assert phi.values.shape == (len(words),)
    for i, w in enumerate(words):
        assert phi.values[i] == phi.moment(w)
    with pytest.raises(ValueError, match="beyond stored bound"):
        phi.moment(Word((1,) * (phi.word_bound + 1), alphabet))
    with pytest.raises(ValueError, match="beyond stored bound"):
        phi.moment(Word((1,), alphabet + 1))


def test_values_are_read_only(random_phi):
    with pytest.raises(ValueError):
        random_phi.values[0] = 2.0


@pytest.mark.parametrize("phi_name", ["gaussian_phi", "random_phi", "singular"])
def test_gram_matches_definition(phi_name, request):
    phi = singular_pair() if phi_name == "singular" else request.getfixturevalue(phi_name)
    for degree in range(phi.max_degree + 1):
        words = words_up_to(phi.alphabet, degree)
        expected = [[phi.moment(b.involute().concat(a)) for b in words] for a in words]
        report = phi.gram(degree)
        assert np.array_equal(report.gram, expected)
        assert report.words == words


def test_mapping_and_values_round_trip(random_phi):
    words = words_up_to(random_phi.alphabet, random_phi.word_bound)
    table = {w: v for w, v in zip(words, random_phi.values)}
    from_map = MomentFunctional(random_phi.alphabet, random_phi.max_degree, table)
    assert np.array_equal(from_map.values, random_phi.values)
    back = MomentFunctional.from_values(
        from_map.alphabet, from_map.max_degree, from_map.values
    )
    assert back.word_bound == random_phi.word_bound
    assert {w: back.moment(w) for w in words} == table


def test_from_values_without_odd_level():
    phi = MomentFunctional.from_values(1, 2, GAUSSIAN_MOMENTS[:5])
    assert phi.word_bound == 4
    assert phi.gram(2).positive


def test_from_values_holds_a_float_array_and_copies_a_list():
    values = np.array(GAUSSIAN_MOMENTS[:6])
    phi = MomentFunctional.from_values(1, 2, values)
    assert phi.values is values and not values.flags.writeable
    listed = list(GAUSSIAN_MOMENTS[:6])
    phi = MomentFunctional.from_values(1, 2, listed)
    assert not phi.values.flags.writeable
    listed[2] = 5.0  # the list is the caller's; the table has its own array
    assert phi.values[2] == GAUSSIAN_MOMENTS[2]


def test_from_values_refuses_an_array_of_rows():
    # seven values, as many as a (2, 1) table holds, but in one row of a 2-D array
    with pytest.raises(ValueError, match=r"must be a list of values, got shape \(1, 7\)"):
        MomentFunctional.from_values(2, 1, np.ones((1, 7)))


def test_favard_table_peak_stays_near_three_tables():
    # 20 free Legendre letters at degree 2: a 26.9 MB table; from_values took a copy
    # of the table that favard_moments hands over, and the peak was 4.25 tables
    fam = build_free_product([classical_coefficients("legendre", 3)] * 20, 2)
    favard_moments(fam, 2)  # the cached rank indexes, built once per (N, length)
    tracemalloc.start()
    try:
        phi = favard_moments(fam, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * phi.values.nbytes, f"peak {peak / phi.values.nbytes:.2f} tables"


def test_placement_peak_stays_near_the_letters():
    # the (2,7) table: 917,506 letters in 65,535 entries; placing them by the sum of
    # (letter - 1) N^(letters after it) held about five letter-sized arrays (4.3x)
    words = [list(w) for w in letters_up_to(2, 15)]
    letters = sum(map(len, words))
    values = np.arange(len(words), dtype=float)  # graded order: each word's own rank
    assert letters == 917_506
    tracemalloc.start()
    try:
        table = _by_rank(2, 7, words, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table, values)
    assert peak <= 2 * 8 * letters, f"peak {peak / (8 * letters):.2f} letter arrays"


def test_json_round_trip_keeps_values(random_phi):
    back = MomentFunctional.from_json_obj(random_phi.to_json_obj())
    assert np.array_equal(back.values, random_phi.values)
    assert back.to_json_obj() == random_phi.to_json_obj()


def test_table_past_odd_level_rejected():
    # max_degree 1 allows words up to length 3; these reach length 4
    table = {w: 0.0 for w in words_up_to(2, 4)}
    table[Word((), 2)] = 1.0
    with pytest.raises(ValueError, match="one level"):
        MomentFunctional(2, 1, table)
    with pytest.raises(ValueError, match="incomplete"):
        MomentFunctional.from_values(2, 1, [1.0] + [0.0] * 30)


def test_missing_word_rejected():
    table = {w: 0.0 for w in words_up_to(2, 2)}
    table[Word((), 2)] = 1.0
    del table[Word((2, 1), 2)]
    with pytest.raises(ValueError, match=r"missing word Word\(21"):
        MomentFunctional(2, 1, table)
    with pytest.raises(ValueError, match="incomplete"):
        MomentFunctional.from_values(2, 1, [1.0] + [0.0] * 5)


@pytest.mark.parametrize("gap, accepted", [(1e-14, True), (1e-11, False)])
def test_reversal_pair_is_checked_relative_to_its_size(gap, accepted):
    # words e, 1, 2, 11, 12, 21, 22: the pair 12 / 21 differs by `gap` relative to 3
    values = [1.0, 0.0, 0.0, 1.0, 3.0, 3.0 * (1 + gap), 1.0]
    assert values[4] != values[5]
    if accepted:
        phi = MomentFunctional.from_values(2, 1, values)
        assert np.array_equal(phi.values, values)
    else:
        with pytest.raises(ValueError, match=r"reversal-asymmetric value at Word\(12; N=2\)"):
            MomentFunctional.from_values(2, 1, values)


@pytest.mark.parametrize(
    "s12, s21, accepted",
    [(3.0, 3.0, True), (3.0, 3.0 + 2e-12, True), (3.0, 3.0 + 1e-11, False),
     (np.inf, np.inf, False), (np.nan, np.nan, False)],
    ids=["exact", "within-tolerance", "beyond-tolerance", "infinite-pair", "nan-pair"],
)
def test_reversal_check_paths(s12, s21, accepted):
    # words e, 1, 2, 11, 12, 21, 22.  A finite pair that compares equal passes at
    # once; an unequal pair meets the bound 1e-12 * max(1, |s|) (3e-12 here); a
    # pair of infinities compares equal and is still refused
    values = [1.0, 0.0, 0.0, 1.0, s12, s21, 1.0]
    if accepted:
        phi = MomentFunctional.from_values(2, 1, values)
        assert np.array_equal(phi.values, values)  # stored as given, not symmetrized
    else:
        with pytest.raises(ValueError) as info:
            MomentFunctional.from_values(2, 1, values)
        assert str(info.value) == (
            f"moment table has a non-finite or reversal-asymmetric value at Word(12; N=2): "
            f"{s12} vs {s21} at its reversal"
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rank", [0, 3])
def test_non_finite_moment_rejected(bad, rank):
    values = np.array(GAUSSIAN_MOMENTS[:6])
    values[rank] = bad
    with pytest.raises(ValueError, match="non-finite"):
        MomentFunctional.from_values(1, 2, values)
    table = {Word((1,) * n, 1): v for n, v in enumerate(values)}
    with pytest.raises(ValueError, match="non-finite"):
        MomentFunctional(1, 2, table)


def test_json_placement_takes_entries_in_any_order(random_phi):
    obj = random_phi.to_json_obj()
    order = np.random.default_rng(5).permutation(len(obj["moments"]))
    shuffled = {**obj, "moments": [obj["moments"][i] for i in order]}
    assert np.array_equal(MomentFunctional.from_json_obj(shuffled).values, random_phi.values)
    table = {Word(tuple(e["word"]), 2): e["value"] for e in shuffled["moments"]}
    assert np.array_equal(MomentFunctional(2, 3, table).values, random_phi.values)


def _gaussian_entries():
    return [{"word": [1] * n, "value": v} for n, v in enumerate(GAUSSIAN_MOMENTS[:6])]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m[2].update(word=[1, 2]), "letter 2 outside alphabet 1..1"),
        (lambda m: m.append({"word": [1] * 6, "value": 0.0}), r"Word\(111111; N=1\) outside"),
        (lambda m: m.append({"word": [1, 1], "value": 1.0}), r"duplicate .* Word\(11; N=1\)"),
        (lambda m: m.pop(3), r"missing word Word\(111; N=1\)"),
        (lambda m: m[0].update(word=[0]), "letter 0 outside alphabet 1..1"),
    ],
)
def test_json_placement_errors(edit, message):
    entries = _gaussian_entries()
    edit(entries)
    with pytest.raises(ValueError, match=message):
        MomentFunctional.from_json_obj({"N": 1, "max_degree": 2, "moments": entries})


def test_word_table_from_another_alphabet_rejected():
    table = {Word((1,) * n, 1): v for n, v in enumerate(GAUSSIAN_MOMENTS[:6])}
    with pytest.raises(ValueError, match=r"Word\(e; N=1\) outside the N=2 table"):
        MomentFunctional(2, 1, table)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: upper_cholesky(np.zeros((2, 3))), ValueError,
                     "matrix must be square", id="cholesky-not-square"),
        pytest.param(lambda: MomentFunctional.from_values(0, 1, [1.0]), SizeError,
                     "alphabet size must be >= 1, got 0", id="values-alphabet-0"),
        pytest.param(
            lambda: MomentFunctional.from_json_obj({"N": 0, "max_degree": 1, "moments": []}),
            SizeError, "alphabet size must be >= 1, got 0", id="json-alphabet-0"),
        pytest.param(lambda: one_dim_functional(GAUSSIAN_MOMENTS[:3], 1).apply(NcPolynomial.one(2)),
                     ValueError, "polynomial alphabet does not match functional",
                     id="apply-alphabet"),
        pytest.param(
            lambda: MomentFunctional.from_json_obj({"N": 1, "max_degree": 0, "moments": {}}),
            TypeError, "'moments' must be a list of word/value entries", id="moments-not-a-list"),
        pytest.param(lambda: MomentFunctional.from_json_obj([]), TypeError,
                     "expected a JSON object for moment table", id="document-not-an-object"),
        pytest.param(
            lambda: MomentFunctional.from_values(3, 10**4, [1.0]), ValueError,
            "moment table incomplete: 1 values, expected (3**20001 - 1) // 2 (words up to "
            "length 20000) or (3**20002 - 1) // 2", id="count-formula-N3"),
        pytest.param(lambda: functional_free_product([]), SizeError,
                     "alphabet size must be >= 1, got 0", id="free-product-no-factor"),
        pytest.param(lambda: kernel_table(one_dim_functional(GAUSSIAN_MOMENTS[:3], 1), -1),
                     SizeError, "depth must be >= 0, got -1", id="kernel-table-negative-depth"),
        pytest.param(lambda: hankel_check({}, 2, -1), SizeError,
                     "depth must be >= 0, got -1", id="hankel-check-negative-depth"),
    ],
)
def test_refusals_name_their_cause(call, error, message):
    assert refusal(call) == (error, message)
