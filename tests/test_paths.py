import math

import numpy as np
import pytest

from ncjacobi import (
    LatticePath,
    NotStrictlyPositiveError,
    Word,
    build_free_product,
    classical_coefficients,
    distinguished_path,
    enumerate_paths,
    enumerate_words,
    favard_moments,
    functional_free_product,
    jacobi_from_moments,
    moments_from_paths,
    motzkin_binomial_sum,
    motzkin_number,
    operator_moment,
    path_weight,
    random_admissible_family,
)
import ncjacobi.paths
from ncjacobi.freeproduct import parse_recurrence_spec
from ncjacobi.jacobi import sections
from ncjacobi.paths import DEFAULT_PATH_CAP, _transfer_sum
from ncjacobi.words import SizeError, level_offsets

from conftest import EXPONENTIAL_MOMENTS, GAUSSIAN_MOMENTS, one_dim_functional, per_letter_fock
from conftest import refusal

SQRT2 = math.sqrt(2.0)

# frozen by exhaustive enumeration of level/rise/fall profiles (see
# test_motzkin_matches_naive_enumeration below)
MOTZKIN = (1, 1, 2, 4, 9, 21, 51, 127, 323)


def naive_profiles(n):
    """Independent reference enumeration of +1/0/-1 profiles."""
    if n == 0:
        return [()]
    out = []
    stack = [((), 0)]
    while stack:
        prefix, h = stack.pop()
        if len(prefix) == n:
            if h == 0:
                out.append(prefix)
            continue
        for s in (1, 0, -1):
            if h + s >= 0:
                stack.append((prefix + (s,), h + s))
    return out


def step_kinds(path):
    return tuple(s["kind"] for s in path.to_json_obj())


def hermite_fam(n=1, depth=4):
    return build_free_product([classical_coefficients("hermite", depth + 1)] * n, depth)


def laguerre_fam(depth=4):
    return build_free_product([classical_coefficients("laguerre", depth + 1)], depth)


# -- counting -------------------------------------------------------------------


def test_motzkin_numbers_frozen():
    assert tuple(motzkin_number(n) for n in range(9)) == MOTZKIN


def test_motzkin_recurrence_matches_convolution():
    conv = [1, 1]  # M_n = M_{n-1} + sum_j M_j M_{n-2-j}
    for n in range(2, 41):
        conv.append(conv[n - 1] + sum(conv[j] * conv[n - 2 - j] for j in range(n - 1)))
    assert [motzkin_number(n) for n in range(41)] == conv


def test_motzkin_matches_naive_enumeration():
    for n in range(8):
        assert motzkin_number(n) == len(naive_profiles(n))


def test_binomial_sum_is_shifted_by_one():
    for n in range(1, 9):
        assert motzkin_binomial_sum(n) == motzkin_number(n - 1)
    assert motzkin_binomial_sum(5) == 9


def test_path_counts_equal_motzkin_numbers():
    for alphabet, max_len in [(2, 6), (3, 5)]:
        for n in range(1, max_len + 1):
            for w in enumerate_words(alphabet, n):
                assert len(enumerate_paths(w)) == motzkin_number(n)
    for w in enumerate_words(3, 6)[::31]:  # sampled: count depends only on length
        assert len(enumerate_paths(w)) == motzkin_number(6)


# -- enumeration structure ---------------------------------------------------------


def test_paths_for_double_letter():
    paths = enumerate_paths(Word((1, 1), 1))
    assert sorted(map(step_kinds, paths)) == [("level", "level"), ("rise", "fall")]


def test_paths_consume_blocks_right_to_left():
    paths = enumerate_paths(Word((1, 2), 2))
    assert len(paths) == 2
    for p in paths:
        steps = p.to_json_obj()
        advancing = [s for s in steps if s["kind"] != "switch"]
        assert steps[0]["from"] == [0, 2, 0]  # starts in the plane of the last letter
        assert advancing[0]["from"][1] == 2
        assert advancing[1]["from"][1] == 1
        assert steps[-1]["to"] == [2, 1, 0]
        switches = [s for s in steps if s["kind"] == "switch"]
        assert len(switches) == 1
        assert switches[0]["from"][1] == 2 and switches[0]["to"][1] == 1


def test_lattice_path_rejects_bad_profiles():
    word = Word((1, 2), 2)
    for profile in [(1,), (1, -1, 0), (2, -2), (-1, 1), (1, 0)]:
        with pytest.raises(ValueError):
            LatticePath(word, profile)
    assert LatticePath(word, (1, -1)) in enumerate_paths(word)


def test_paths_triple_letter_count():
    assert len(enumerate_paths(Word((1, 1, 1), 1))) == 4


def test_enumerate_paths_rejects_empty_and_capped():
    with pytest.raises(ValueError):
        enumerate_paths(Word((), 2))
    with pytest.raises(ValueError, match="cap"):
        enumerate_paths(Word((1,) * 9, 1))
    at_cap = enumerate_paths(Word((1,) * DEFAULT_PATH_CAP, 1))
    assert sorted(p.profile for p in at_cap) == sorted(naive_profiles(DEFAULT_PATH_CAP))


# -- weights --------------------------------------------------------------------


def test_path_weight_hermite_rise_fall():
    fam = hermite_fam()
    paths = {step_kinds(p): p for p in enumerate_paths(Word((1, 1), 1))}
    assert path_weight(fam, paths[("rise", "fall")]) == 1.0
    assert path_weight(fam, paths[("level", "level")]) == 0.0


def test_path_weight_laguerre_rise_level_fall():
    fam = laguerre_fam()
    paths = {step_kinds(p): p for p in enumerate_paths(Word((1, 1, 1), 1))}
    assert path_weight(fam, paths[("rise", "level", "fall")]) == 3.0
    by_kind = {
        ("rise", "level", "fall"): 3.0,
        ("rise", "fall", "level"): 1.0,
        ("level", "rise", "fall"): 1.0,
        ("level", "level", "level"): 1.0,
    }
    for kinds, expected in by_kind.items():
        assert path_weight(fam, paths[kinds]) == expected


def test_path_weight_depth_exceeded():
    fam = random_admissible_family(1, 1, seed=0)
    deep = [p for p in enumerate_paths(Word((1,) * 4, 1)) if p.max_height() == 2]
    with pytest.raises(SizeError, match="height"):
        path_weight(fam, deep[0])


@pytest.mark.parametrize("letters, word_alphabet, family_alphabet", [((3, 3), 3, 2), ((1, 1), 2, 3)])
def test_path_routes_check_the_word_alphabet(letters, word_alphabet, family_alphabet):
    fam = random_admissible_family(family_alphabet, 2, seed=0)
    word = Word(letters, word_alphabet)
    for route, arg in [(moments_from_paths, word), (operator_moment, word),
                       *((path_weight, p) for p in enumerate_paths(word))]:
        with pytest.raises(ValueError, match="word alphabet does not match family"):
            route(fam, arg)


def test_every_route_refuses_levels_past_the_depth_alike():
    # one reach rule: the sections, the table, the operator moment and both path routes
    # name the levels the family stores and the level they need
    fam, word = random_admissible_family(2, 1, seed=0), Word((1, 2, 2, 1), 2)
    stores = "family stores levels up to 1; "
    for call, need in [
        (lambda: sections(fam, 3), "the level-3 sections need level 3"),
        (lambda: favard_moments(fam, 2), "the level-2 sections need level 2"),
        (lambda: operator_moment(fam, word), "the moments of length-4 words need level 2"),
        (lambda: path_weight(fam, distinguished_path(word)), "paths of height 2 need level 2"),
        (lambda: moments_from_paths(fam, word), "the path sums of length-4 words need level 2"),
    ]:
        assert refusal(call) == (SizeError, stores + need)


# -- moment sums -----------------------------------------------------------------


def test_moments_from_paths_empty_word():
    fam = laguerre_fam()
    assert moments_from_paths(fam, Word((), 1)) == 1.0


def test_moments_from_paths_exponential_third_moment():
    # 6 = third moment of the unit exponential distribution
    fam = laguerre_fam()
    assert moments_from_paths(fam, Word((1, 1, 1), 1)) == EXPONENTIAL_MOMENTS[3]


def test_moments_from_paths_hermite_pair_words():
    fam = hermite_fam(n=2)
    assert moments_from_paths(fam, Word((1, 1, 2, 2), 2)) == pytest.approx(1.0, abs=1e-14)
    # the rise-rise-fall-fall profile hits a structural zero of A*_{2,2} A_{2,1},
    # and rise-fall-rise-fall contracts A*_{1,1} A_{1,2} = 0, so nothing survives
    assert moments_from_paths(fam, Word((1, 2, 1, 2), 2)) == pytest.approx(0.0, abs=1e-14)


def test_transfer_recursion_matches_explicit_enumeration():
    fam = random_admissible_family(2, 4, seed=17)
    for n in range(1, 8):
        for w in enumerate_words(2, n)[:: max(1, 2 ** (n - 3))]:
            explicit = sum(path_weight(fam, p) for p in enumerate_paths(w))
            dp = _transfer_sum(fam, w, min(n // 2, fam.depth))
            assert dp == pytest.approx(explicit, abs=1e-10)
            assert moments_from_paths(fam, w) == pytest.approx(explicit, abs=1e-10)


def test_moments_from_paths_agrees_with_operator():
    fam = random_admissible_family(3, 3, seed=5)
    for n in range(0, 5):
        for w in enumerate_words(3, n)[:: max(1, 3 ** (n - 2))]:
            assert moments_from_paths(fam, w) == pytest.approx(
                operator_moment(fam, w), abs=1e-10
            )


def test_moments_from_paths_insufficient_depth():
    fam = random_admissible_family(1, 1, seed=3)
    with pytest.raises(SizeError, match="family stores levels up to 1; "):
        moments_from_paths(fam, Word((1,) * 4, 1))


# -- distinguished path -------------------------------------------------------------


def test_distinguished_even_example():
    path = distinguished_path(Word((1, 1, 1, 1), 1))
    assert path.profile == (1, 1, -1, -1)
    assert step_kinds(path) == ("rise", "rise", "fall", "fall")
    assert path_weight(hermite_fam(), path) == pytest.approx(2.0, abs=1e-14)


def test_distinguished_two_letter_form():
    assert distinguished_path(Word((1, 1), 1)) == LatticePath(Word((1, 1), 1), (1, -1))


def test_distinguished_odd_level_weight():
    path = distinguished_path(Word((1, 1, 1), 1))
    assert path.profile == (1, 0, -1)
    assert path_weight(hermite_fam(), path) == 0.0


def test_distinguished_middle_letter_of_mixed_word():
    # word 2 1 2: middle letter is 1, level step sits at height 1, so the weight is
    # A_{1,2}^T B_{1,1} A_{1,2}; a level step in the plane of letter 2 would weigh 0
    from ncjacobi import AdmissibleFamily

    fam = random_admissible_family(2, 1, seed=11)
    B = {**fam.B, (1, 2): np.zeros_like(fam.B[(1, 2)])}
    fam = AdmissibleFamily(2, 1, fam.A, B)
    path = distinguished_path(Word((2, 1, 2), 2))
    assert path.profile == (1, 0, -1)
    a = fam.A[(1, 2)]
    expected = (a.T @ fam.B[(1, 1)] @ a)[0, 0]
    assert expected != 0.0
    assert path_weight(fam, path) == pytest.approx(expected, rel=1e-14)


def test_distinguished_rejects_empty():
    with pytest.raises(ValueError):
        distinguished_path(Word((), 2))


def test_partition_by_distinguished_path():
    fam = random_admissible_family(2, 3, seed=43)
    for n in range(1, 6):
        for w in enumerate_words(2, n)[:: max(1, 2 ** (n - 2))]:
            dist = distinguished_path(w)
            paths = enumerate_paths(w)
            assert paths.count(dist) == 1
            rest = sum(path_weight(fam, p) for p in paths if p != dist)
            total = moments_from_paths(fam, w)
            assert rest + path_weight(fam, dist) == pytest.approx(total, abs=1e-10)


def test_distinguished_is_unique_maximal_path():
    for letters in [(1, 2), (1, 1, 2), (2, 1, 1, 2), (1, 2, 1, 2, 1)]:
        w = Word(letters, 2)
        dist = distinguished_path(w)
        peak = len(w) // 2
        assert dist.max_height() == peak
        others = [p for p in enumerate_paths(w) if p.max_height() == peak and p != dist]
        if len(w) % 2 == 0:
            assert not others
        else:
            # odd words: other peak-reaching paths exist but level off lower
            level_heights = {
                s["from"][2] for p in others for s in p.to_json_obj() if s["kind"] == "level"
            }
            assert peak not in level_heights


# -- structural identity behind the inverse map ----------------------------------------


def maximal_weight_matrix(fam, n):
    ws = enumerate_words(fam.alphabet, n)
    m = np.empty((len(ws), len(ws)))
    for i, s in enumerate(ws):
        for j, t in enumerate(ws):
            m[i, j] = path_weight(fam, distinguished_path(s.involute().concat(t)))
    return m


def accumulated_product(fam, n):
    """A_n (I (x) A_{n-1}) ... block-replicated down to level 1."""
    N = fam.alphabet
    atilde = np.hstack([fam.A[(1, k)] for k in range(1, N + 1)])
    for m in range(2, n + 1):
        concat = np.hstack([fam.A[(m, k)] for k in range(1, N + 1)])
        atilde = concat @ np.kron(np.eye(N), atilde)
    return atilde


@pytest.mark.parametrize("zero_b", [True, False])
def test_kernel_minus_nonmaximal_paths_factors(zero_b):
    from ncjacobi import AdmissibleFamily

    fam = random_admissible_family(2, 3, seed=47)
    if zero_b:
        zeros = {key: np.zeros_like(block) for key, block in fam.B.items()}
        fam = AdmissibleFamily(fam.alphabet, fam.depth, fam.A, zeros)
    for n in (1, 2, 3):
        ws = enumerate_words(2, n)
        kernel = np.empty((len(ws), len(ws)))
        star = np.empty((len(ws), len(ws)))
        for i, s in enumerate(ws):
            for j, t in enumerate(ws):
                w = s.involute().concat(t)
                kernel[i, j] = moments_from_paths(fam, w)
                star[i, j] = kernel[i, j] - path_weight(fam, distinguished_path(w))
        atilde = accumulated_product(fam, n)
        assert np.allclose(kernel - star, atilde.T @ atilde, atol=1e-10)
        assert np.allclose(kernel - star, maximal_weight_matrix(fam, n), atol=1e-12)


@pytest.mark.parametrize(
    "alphabet, n, seed", [(1, 3, 71), (2, 2, 72), (2, 3, 73), (3, 2, 74)]
)
def test_batched_path_sums_match_per_word_and_enumerated_paths(alphabet, n, seed):
    """The peel's batched non-maximal sums, entry by entry, against the height-capped
    per-word recursion and against every enumerated path but the distinguished one."""
    from ncjacobi import AdmissibleFamily

    fam = random_admissible_family(alphabet, n, seed=seed)

    def path_sums(f, cap, letter=0):
        # R^T R, or R^T J_k R, with R the level-n Fock vectors of the sections
        # through the height cap (module docstring of ncjacobi.paths)
        J = sections(f, cap)
        r = per_letter_fock(J, n)[n]
        return r.T @ (J[letter - 1] @ r if letter else r)

    B0 = {**fam.B, **{(n, k): np.zeros_like(fam.B[(n, k)]) for k in range(1, alphabet + 1)}}
    zero_top = AdmissibleFamily(alphabet, n, fam.A, B0)
    ws = enumerate_words(alphabet, n)
    middles = [(0, Word((), alphabet), n - 1, fam)] + [
        (k, Word((k,), alphabet), n, zero_top) for k in range(1, alphabet + 1)
    ]
    for letter, mid, cap, f in middles:
        batched = path_sums(f, cap, letter)
        assert batched.shape == (len(ws), len(ws))
        for i, sigma in enumerate(ws):
            for j, tau in enumerate(ws):
                w = sigma.involute().concat(mid).concat(tau)
                per_word = _transfer_sum(f, w, cap)
                assert batched[i, j] == pytest.approx(per_word, abs=1e-12)
                rest = sum(path_weight(fam, p) for p in enumerate_paths(w))
                rest -= path_weight(fam, distinguished_path(w))
                assert batched[i, j] == pytest.approx(rest, abs=1e-10)
    # raising the even cap to n adds back exactly the maximal paths
    nonmaximal = path_sums(fam, n - 1)
    every = path_sums(fam, n)
    assert np.allclose(every, nonmaximal + maximal_weight_matrix(fam, n), atol=1e-12)


# -- moments -> coefficients -------------------------------------------------------------


def test_recovery_sets_level_zero_to_first_moments():
    fam = random_admissible_family(2, 3, seed=53)
    phi = favard_moments(fam, 3)
    rec = jacobi_from_moments(phi, 3)
    for k in (1, 2):
        assert rec.B[(0, k)][0, 0] == phi.moment(Word((k,), 2))


def test_recovery_gaussian():
    phi = one_dim_functional(GAUSSIAN_MOMENTS[:6], 2)
    rec = jacobi_from_moments(phi, 2)
    assert rec.A[(1, 1)][0, 0] == pytest.approx(1.0, abs=1e-12)
    assert rec.A[(2, 1)][0, 0] == pytest.approx(SQRT2, abs=1e-12)
    assert rec.B[(0, 1)][0, 0] == 0.0
    assert rec.B[(1, 1)][0, 0] == pytest.approx(0.0, abs=1e-12)


def test_recovery_round_trip_random_families():
    for seed in (61, 62, 63):
        fam = random_admissible_family(2, 3, seed=seed)
        phi = favard_moments(fam, 3)
        rec = jacobi_from_moments(phi, 3)
        assert fam.blocks_close(rec) <= 1e-8


def test_recovery_reads_the_table_without_per_word_calls(monkeypatch):
    fam = random_admissible_family(2, 4, seed=5)
    phi = favard_moments(fam, 4)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-word call on the batched path peel")

    monkeypatch.setattr(type(phi), "moment", forbidden)
    monkeypatch.setattr(ncjacobi.paths, "_transfer_sum", forbidden)
    rec = jacobi_from_moments(phi, 4)
    assert fam.blocks_close(rec) <= np.linalg.cond(phi.gram(4).gram) * np.finfo(float).eps


def test_inverse_direction_builds_no_word_lists(monkeypatch):
    """The table -> blocks hot path enumerates no Word objects, and the peel
    gathers its kernel blocks by level rank without a full kernel index."""
    fam = random_admissible_family(2, 4, seed=9)
    phi = favard_moments(fam, 4)

    def forbidden(*args, **kwargs):
        raise AssertionError("index built on the inverse hot path")

    modules = [ncjacobi.words, ncjacobi.functional, ncjacobi.orthopoly, ncjacobi.paths]
    with monkeypatch.context() as patch:
        for module in modules:
            patch.setattr(module, "kernel_index", forbidden, raising=False)
        rec = jacobi_from_moments(phi, 4)
    for module in modules:
        monkeypatch.setattr(module, "enumerate_words", forbidden, raising=False)
    rec = jacobi_from_moments(phi, 4)
    basis = ncjacobi.orthonormalize(phi, 4)
    extracted = ncjacobi.extract_recurrence(basis, phi)
    assert_exact_structure(rec)
    assert_exact_structure(extracted)
    bound = np.linalg.cond(phi.gram(4).gram) * np.finfo(float).eps
    assert max(fam.blocks_close(rec), fam.blocks_close(extracted)) <= bound


def assert_exact_structure(rec):
    for n in range(1, rec.depth + 1):
        a = rec.a_levels[n - 1]
        assert np.all(np.tril(a, -1) == 0.0)
        assert np.all(np.diag(a) > 0.0)
    for b in rec.B.values():
        assert np.array_equal(b, b.T)


@pytest.mark.parametrize("alphabet, depth, seed", [(2, 5, 1), (3, 3, 2)])
def test_recovery_round_trip_dense_families(alphabet, depth, seed):
    fam = random_admissible_family(alphabet, depth, seed=seed)
    phi = favard_moments(fam, depth)
    rec = jacobi_from_moments(phi, depth)
    assert_exact_structure(rec)
    cond = np.linalg.cond(phi.gram(depth).gram)
    assert fam.blocks_close(rec) <= cond * np.finfo(float).eps


@pytest.mark.parametrize(
    "spec, depth", [("hermite,legendre", 4), ("chebyshev_t,laguerre(0.5),hermite", 3)]
)
def test_recovery_round_trip_free_products(spec, depth):
    from ncjacobi import extract_recurrence, orthonormalize

    fam = build_free_product(parse_recurrence_spec(spec, depth), depth)
    phi = favard_moments(fam, depth)
    rec = jacobi_from_moments(phi, depth)
    assert_exact_structure(rec)
    bound = np.linalg.cond(phi.gram(depth).gram) * np.finfo(float).eps
    assert fam.blocks_close(rec) <= bound
    assert extract_recurrence(orthonormalize(phi, depth), phi).blocks_close(rec) <= bound


def test_recovery_needs_odd_word_data():
    phi = one_dim_functional(GAUSSIAN_MOMENTS[:5], 2)  # no length-5 level
    with pytest.raises(ValueError, match="length 5"):
        jacobi_from_moments(phi, 2)
    assert phi.word_bound == 4


def peel_pivots(rec):
    """diag(A~_n)^2 over the words of every level: along each word, the squared
    product of the diagonal entries of the recovered A blocks."""
    N, diag = rec.alphabet, [np.ones(1)]
    for n in range(1, rec.depth + 1):
        d = N ** (n - 1)
        own = [np.diag(rec.A[(n, k)][(k - 1) * d : k * d]) for k in range(1, N + 1)]
        diag.append(np.concatenate(own) * np.tile(diag[-1], N))
    return np.concatenate(diag) ** 2


@pytest.mark.parametrize("alphabet, depth", [(2, 3), (3, 3), (2, 5)])
def test_peel_pivots_are_the_gram_pivots(alphabet, depth):
    # the peel's Cholesky factor at level n is A~_n, the level-n diagonal block of
    # the Gram factor, so its pivots are the ones MomentFunctional.gram tests
    for seed in range(5):
        phi = favard_moments(random_admissible_family(alphabet, depth, seed=seed), depth)
        report = phi.gram(depth)
        rec = jacobi_from_moments(phi, depth)
        assert_exact_structure(rec)
        pivots = np.array(report.pivots)
        bound = np.linalg.cond(report.gram) * np.finfo(float).eps
        assert np.all(np.abs(peel_pivots(rec) - pivots) <= bound * pivots)


def test_recovery_rejects_non_positive_table():
    # the peel refuses at the level of the first Gram pivot that fails the test
    g = one_dim_functional(GAUSSIAN_MOMENTS[:6], 2)
    e = one_dim_functional(EXPONENTIAL_MOMENTS[:6], 2)
    # (delta_{-1} + 2 delta_0 + delta_1) / 4: three points, so x^3 - x vanishes
    three_point = one_dim_functional([1.0] + [0.5 * (1 - j % 2) for j in range(1, 8)], 3)
    for phi, depth, level in ((functional_free_product([g, e]), 2, 2), (three_point, 3, 3)):
        report = phi.gram(depth)
        assert not report.positive
        offs = level_offsets(phi.alphabet, depth)
        assert np.searchsorted(offs, len(report.pivots) - 1, side="right") - 1 == level
        refusal = f"functional not strictly positive at level {level}: Gram pivot"
        with pytest.raises(NotStrictlyPositiveError, match=refusal):
            jacobi_from_moments(phi, depth)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: motzkin_number(-1), SizeError, "length must be >= 0, got -1",
                     id="motzkin-negative"),
        pytest.param(lambda: motzkin_number(1.5), SizeError, "length must be an integer, got 1.5",
                     id="motzkin-float"),
        pytest.param(lambda: motzkin_binomial_sum(0), ValueError, "defined for n >= 1",
                     id="binomial-sum-0"),
        pytest.param(lambda: jacobi_from_moments(one_dim_functional(GAUSSIAN_MOMENTS[:3], 1), -1),
                     SizeError, "depth must be >= 0, got -1", id="peel-negative-depth"),
    ],
)
def test_refusals_name_their_cause(call, error, message):
    assert refusal(call) == (error, message)
