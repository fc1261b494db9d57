import gc
import inspect
import itertools
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ncjacobi as nj
from ncjacobi import (
    Word,
    enumerate_words,
    graded_rank,
    words_up_to,
)
from ncjacobi.words import DEFAULT_ENUMERATION_CAP, _check_enumeration, kernel_index
from ncjacobi.words import letters_up_to, prepend_index, reversal_index
from ncjacobi.words import SizeError, level_kernel_index, level_offsets, orbit_index, word_at

from conftest import refusal


def w(letters, alphabet=2):
    return Word(tuple(letters), alphabet)


def small_words(alphabet=2, max_len=4):
    return st.lists(
        st.integers(min_value=1, max_value=alphabet), min_size=0, max_size=max_len
    ).map(lambda ls: Word(tuple(ls), alphabet))


# -- ordering ---------------------------------------------------------------


def test_compare_examples():
    assert w([]) < w([1])
    assert w([1, 2]) < w([2, 1])
    assert w([2]) < w([1, 1])  # length dominates
    assert w([1, 1]) == w([1, 1]) and not w([1, 1]) < w([1, 1])
    assert sorted([w([1, 1]), w([2]), w([2, 1]), w([]), w([1, 2])]) == [
        w([]), w([2]), w([1, 1]), w([1, 2]), w([2, 1])
    ]


def test_compare_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        Word((1,), 2) < Word((1,), 3)
    with pytest.raises(ValueError):
        sorted([Word((1,), 2), Word((1,), 3)])


def test_order_agrees_with_length_then_letters_key():
    # (len, letters) tuple comparison is the independent definition of the
    # order; agreement on every pair gives totality for free.
    all_words = [Word(ls, 3) for n in range(5) for ls in itertools.product((1, 2, 3), repeat=n)]
    for a in all_words:
        ka = (len(a), a.letters)
        for b in all_words:
            kb = (len(b), b.letters)
            assert (a < b, a == b, a > b) == (ka < kb, ka == kb, ka > kb)


def test_words_up_to_is_strictly_increasing():
    ws = words_up_to(3, 4)
    assert all(a < b for a, b in zip(ws, ws[1:]))
    assert sorted(reversed(ws)) == ws
    assert [graded_rank(x) for x in ws] == list(range(len(ws)))


# -- involution -------------------------------------------------------------


def test_involute_examples():
    assert w([1, 1, 2]).involute() == w([2, 1, 1])
    assert w([]).involute() == w([])
    assert w([1]).involute() == w([1])


@given(small_words(), small_words())
def test_involute_antihomomorphism(a, b):
    assert a.concat(b).involute() == b.involute().concat(a.involute())


@given(small_words())
def test_involute_is_involution(a):
    assert a.involute().involute() == a


# -- enumeration ------------------------------------------------------------


def test_enumerate_examples():
    assert [x.letters for x in enumerate_words(2, 2)] == [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]
    assert enumerate_words(2, 0) == [Word((), 2)]
    assert [x.letters for x in enumerate_words(3, 1)] == [(1,), (2,), (3,)]


@pytest.mark.parametrize("alphabet,length", [(2, 5), (3, 3), (1, 4)])
def test_enumerate_count_and_order(alphabet, length):
    ws = enumerate_words(alphabet, length)
    assert len(ws) == alphabet**length
    assert all(a < b for a, b in zip(ws, ws[1:]))


@pytest.mark.parametrize("alphabet,length", [(2, 3), (3, 2)])
def test_enumerate_splits_by_first_letter(alphabet, length):
    # concatenating the per-first-letter subsequences reproduces the full
    # enumeration: this is what makes the concatenated A_n triangular
    ws = enumerate_words(alphabet, length)
    regrouped = []
    for k in range(1, alphabet + 1):
        regrouped.extend(x for x in ws if x.letters[0] == k)
    assert regrouped == ws
    for k in range(1, alphabet + 1):
        prefixed = [Word((k,) + t.letters, alphabet) for t in enumerate_words(alphabet, length - 1)]
        assert prefixed == [x for x in ws if x.letters[0] == k]


def _table(alphabet):
    return nj.favard_moments(nj.random_admissible_family(alphabet, 1, seed=0), 1)


# every entry point that meets a word, polynomial, basis or family over N=3 letters
# where it needs N=2, and what it calls the refused object
ALPHABET_CASES = [
    pytest.param(lambda: w([1]) < w([1], 3), "the compared word", id="word-order"),
    pytest.param(lambda: w([1]).concat(w([1], 3)), "the appended word", id="word-concat"),
    pytest.param(lambda: nj.NcPolynomial(2, {w([1], 3): 1.0}), "a term word", id="poly-term"),
    pytest.param(lambda: nj.NcPolynomial.one(2) + nj.NcPolynomial.one(3), "the other polynomial",
                 id="poly-add"),
    pytest.param(lambda: nj.NcPolynomial.one(2) * nj.NcPolynomial.one(3), "the other polynomial",
                 id="poly-mul"),
    pytest.param(lambda: nj.MomentFunctional(2, 0, {w([], 3): 1.0}), "a word of the table",
                 id="table-word"),
    pytest.param(lambda: _table(2).moment(w([1], 3)), "word Word(1; N=3)", id="moment"),
    pytest.param(lambda: _table(2).apply(nj.NcPolynomial.one(3)), "a degree-0 polynomial",
                 id="apply"),
    pytest.param(lambda: nj.random_admissible_family(2, 1).blocks_close(
        nj.random_admissible_family(3, 1)), "the other family", id="blocks-close"),
    pytest.param(lambda: nj.operator_moment(nj.random_admissible_family(2, 1), w([1], 3)),
                 "word Word(1; N=3)", id="operator-moment"),
    pytest.param(lambda: nj.extract_recurrence(nj.orthonormalize(_table(3), 1), _table(2)),
                 "the basis", id="extract-recurrence"),
    pytest.param(lambda: nj.path_weight(nj.random_admissible_family(2, 1),
                                        nj.distinguished_path(w([1, 1], 3))),
                 "word Word(11; N=3)", id="path-weight"),
    pytest.param(lambda: nj.moments_from_paths(nj.random_admissible_family(2, 1), w([1], 3)),
                 "word Word(1; N=3)", id="moments-from-paths"),
    pytest.param(lambda: nj.product_polynomial([nj.classical_coefficients("hermite", 1)] * 2,
                                               w([1], 3)),
                 "word Word(1; N=3)", id="product-polynomial"),
    pytest.param(lambda: nj.orthonormalize(_table(2), 1).coefficient(w([1], 3), w([])),
                 "word Word(1; N=3)", id="basis-coefficient"),
    pytest.param(lambda: nj.orthonormalize(_table(2), 1).polynomial(w([1], 3)),
                 "word Word(1; N=3)", id="basis-polynomial"),
]


@pytest.mark.parametrize("call, what", ALPHABET_CASES)
def test_one_alphabet_rule(call, what):
    assert refusal(call) == (SizeError, f"{what} is over N=3 letters, not N=2")


def test_enumerate_cap():
    assert refusal(lambda: enumerate_words(10, 7)) == (
        SizeError, "enumeration of 10000000 words exceeds cap 1000000")
    assert refusal(lambda: words_up_to(10, 7)) == (
        SizeError, "enumeration of 11111111 words exceeds cap 1000000")
    assert refusal(lambda: words_up_to(1, 10**7)) == (
        SizeError, "enumeration of 10000001 words exceeds cap 1000000")
    # a count of 600 digits or more is written in closed form, not printed
    assert refusal(lambda: enumerate_words(2, 20000)) == (
        SizeError, "enumeration of 2**20000 words exceeds cap 1000000")
    assert refusal(lambda: words_up_to(2, 20000)) == (
        SizeError, "enumeration of (2**20001 - 1) words exceeds cap 1000000")
    assert refusal(lambda: words_up_to(3, 20000)) == (
        SizeError, "enumeration of (3**20001 - 1) // 2 words exceeds cap 1000000")


@pytest.mark.parametrize("int_", [int, np.int64], ids=["int", "numpy"])
def test_enumerate_cap_boundary(int_):
    # the cap is judged by a log: exactly DEFAULT_ENUMERATION_CAP words pass
    assert len(enumerate_words(int_(1000), int_(2))) == DEFAULT_ENUMERATION_CAP
    # words_up_to(1, 999999) holds about 5e11 letters: its check alone is run
    for alphabet, lo, hi in [(10, 6, 6), (1000, 2, 2), (1, 0, 999999)]:
        assert _check_enumeration(int_(alphabet), int_(lo), int_(hi)) is None
    assert refusal(lambda: words_up_to(int_(1), int_(10**6))) == (
        SizeError, "enumeration of 1000001 words exceeds cap 1000000")
    assert refusal(lambda: enumerate_words(int_(10), int_(7))) == (
        SizeError, "enumeration of 10000000 words exceeds cap 1000000")
    # 2**64 words, which int64 arithmetic wraps to 0
    assert refusal(lambda: enumerate_words(int_(2), int_(64))) == (
        SizeError, "enumeration of 18446744073709551616 words exceeds cap 1000000")


@pytest.mark.parametrize(
    "call", [lambda: words_up_to(3, 10**7), lambda: enumerate_words(3, 10**9)],
    ids=["words_up_to", "enumerate_words"],
)
def test_enumerate_cap_forms_no_count(call):
    # forming 3**(10**7) to print it took 3.1 s
    start = time.perf_counter()
    with pytest.raises(SizeError):
        call()
    assert time.perf_counter() - start < 0.5


def test_rank_is_position_in_enumeration():
    for n in range(4):
        for i, word in enumerate(enumerate_words(2, n)):
            assert word.rank() == i


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0,), 2)
    with pytest.raises(ValueError):
        Word((3,), 2)
    with pytest.raises(ValueError):
        Word((), 0)


# -- graded-rank index tables ----------------------------------------------------


def words_by_rank(alphabet, max_length):
    return [Word(ls, alphabet) for ls in letters_up_to(alphabet, max_length)]


@pytest.mark.parametrize("alphabet", [1, 2, 3])
@pytest.mark.parametrize("length", range(5))
def test_reversal_index_ranks_the_involution(alphabet, length):
    rev = reversal_index(alphabet, length)
    words = words_by_rank(alphabet, length)
    assert rev.tolist() == [graded_rank(x.involute()) for x in words]
    assert [word_at(alphabet, i) for i in range(len(words))] == words


@pytest.mark.parametrize("alphabet", [1, 2, 3])
@pytest.mark.parametrize("length", range(5))
def test_prepend_index_ranks_the_prepended_word(alphabet, length):
    prepend = prepend_index(alphabet, length)
    words = words_by_rank(alphabet, length)
    assert prepend.shape == (alphabet, len(words))
    for k in range(1, alphabet + 1):
        expected = [graded_rank(Word((k,), alphabet).concat(x)) for x in words]
        assert prepend[k - 1].tolist() == expected


@pytest.mark.parametrize("alphabet", [1, 2, 3])
@pytest.mark.parametrize("degree", range(5))
def test_kernel_index_ranks_reversed_column_letter_row(alphabet, degree):
    rows, cols = words_by_rank(alphabet, degree + 1), words_by_rank(alphabet, degree)
    table = kernel_index(alphabet, degree, degree + 1)
    expected = [[graded_rank(b.involute().concat(a)) for b in cols] for a in rows]
    assert table.tolist() == expected
    # the Gram matrix [s_{I(b) a}] reads the rows |a| <= degree alone
    assert kernel_index(alphabet, degree, degree).tolist() == expected[: len(cols)]
    # the letter-k kernel [s_{I(b) k a}] is the table's rows at the words k a
    prepend = prepend_index(alphabet, degree)
    for k in range(1, alphabet + 1):
        mid = Word((k,), alphabet)
        expected = [
            [graded_rank(b.involute().concat(mid).concat(a)) for b in cols] for a in cols
        ]
        assert table[prepend[k - 1]].tolist() == expected


@pytest.mark.parametrize("alphabet", [1, 2, 3])
@pytest.mark.parametrize("length", range(5))
def test_orbit_index_ranks_the_smaller_word_of_each_orbit(alphabet, length):
    orbit = orbit_index(alphabet, length)
    words = words_by_rank(alphabet, length)
    assert orbit.tolist() == [graded_rank(min(x, x.involute())) for x in words]
    rev = reversal_index(alphabet, length)
    assert np.array_equal(orbit, np.minimum(np.arange(rev.size), rev))


def test_kernel_index_has_no_letter_mode():
    params = inspect.signature(kernel_index).parameters
    assert list(params) == ["alphabet", "degree", "top"]


@pytest.mark.parametrize(
    "build,args",
    [(reversal_index, (2, 4)), (prepend_index, (3, 2)), (kernel_index, (2, 2, 3)),
     (orbit_index, (3, 3))],
)
def test_index_tables_are_shared_and_read_only(build, args):
    table = build(*args)
    assert build(*args) is table
    with pytest.raises(ValueError, match="read-only"):
        table.flat[0] = -1
    assert build.cache_info().maxsize == 32


def test_cache_clear_frees_a_kernel_table():
    # one cache holds each kernel table, so clearing it releases the table
    kernel_index.cache_clear()
    ref = weakref.ref(kernel_index(2, 3, 3))
    assert ref() is not None
    kernel_index.cache_clear()
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("alphabet", [1, 2, 3])
@pytest.mark.parametrize("length", range(5))
def test_level_kernel_index_ranks_reversed_row_letter_column(alphabet, length):
    words = words_by_rank(alphabet, length)[-(alphabet**length) :]
    even, odd = level_kernel_index(alphabet, length)
    expected = [[graded_rank(s.involute().concat(t)) for t in words] for s in words]
    assert even.tolist() == expected
    assert odd.shape == (alphabet, len(words), len(words))
    for k in range(1, alphabet + 1):
        mid = Word((k,), alphabet)
        expected = [
            [graded_rank(s.involute().concat(mid).concat(t)) for t in words] for s in words
        ]
        assert odd[k - 1].tolist() == expected


def test_level_tables_are_shared_and_read_only():
    tables = level_kernel_index(3, 2)
    assert level_kernel_index(3, 2) is tables
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = -1
    assert level_offsets(3, 2) is level_offsets(3, 2)
    assert level_offsets(3, 2) == (0, 1, 4, 13)


def test_index_tables_refuse_a_negative_length():
    # every table is over words that exist; no builder makes one over no words, and
    # the refusal names the builder's own parameter
    for build, args, name in [
        (reversal_index, (2, -1), "max_length"),
        (orbit_index, (2, -1), "max_length"),
        (prepend_index, (2, -1), "max_length"),
        (kernel_index, (2, -1, 0), "degree"),
        (kernel_index, (2, 1, -1), "top"),
        (level_kernel_index, (2, -1), "length"),
    ]:
        assert refusal(lambda: build(*args)) == (SizeError, f"{name} must be >= 0, got -1")


@pytest.mark.parametrize(
    "call",
    [
        lambda: word_at(0, 3),
        lambda: word_at(2, -3),
        lambda: reversal_index(0, 2),
        lambda: prepend_index(0, 2),
        lambda: kernel_index(0, 1, 2),
        lambda: kernel_index(-1, 1, 2),
        lambda: prepend_index(-1, 1),
        lambda: level_kernel_index(0, 1),
        lambda: level_kernel_index(2, -1),
    ],
)
def test_index_helpers_reject_bad_arguments(call):
    with pytest.raises(SizeError):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: w([1]).concat(w([1], 3)), SizeError,
                     "the appended word is over N=3 letters, not N=2", id="concat-alphabets"),
        pytest.param(lambda: enumerate_words(0, 1), SizeError,
                     "alphabet size must be >= 1, got 0", id="alphabet-0"),
        pytest.param(lambda: enumerate_words(1, -1), SizeError, "length must be >= 0, got -1",
                     id="negative-length"),
        pytest.param(lambda: words_up_to(2, -1), SizeError, "max_length must be >= 0, got -1",
                     id="up-to-negative-length"),
        pytest.param(lambda: Word((1,), 1.5), SizeError,
                     "alphabet size must be an integer, got 1.5", id="float-alphabet"),
        pytest.param(lambda: words_up_to(True, 2), SizeError,
                     "alphabet size must be an integer, got True", id="bool-alphabet"),
        pytest.param(lambda: enumerate_words(2, 1.0), SizeError,
                     "length must be an integer, got 1.0", id="whole-float-length"),
        # a cached builder too, where an equal integer size is cached
        pytest.param(lambda: (reversal_index(2, 1), reversal_index(2, np.True_)), SizeError,
                     f"max_length must be an integer, got {np.True_!r}", id="numpy-bool-length"),
        pytest.param(lambda: word_at(2, -3), SizeError, "graded rank must be >= 0, got -3",
                     id="negative-graded-rank"),
        # letters take the integer rule before they are compared with the alphabet
        pytest.param(lambda: Word((3,), 2), SizeError, "letter 3 outside alphabet 1..2",
                     id="letter-past-alphabet"),
        pytest.param(lambda: Word((0,), 2), SizeError, "letter 0 outside alphabet 1..2",
                     id="letter-0"),
        pytest.param(lambda: Word((1.5,), 2), SizeError, "letter must be an integer, got 1.5",
                     id="float-letter"),
        pytest.param(lambda: Word((1.0,), 2), SizeError, "letter must be an integer, got 1.0",
                     id="whole-float-letter"),
        pytest.param(lambda: Word((True,), 2), SizeError, "letter must be an integer, got True",
                     id="bool-letter"),
        pytest.param(lambda: Word((1, np.True_), 2), SizeError,
                     f"letter must be an integer, got {np.True_!r}", id="numpy-bool-letter"),
        pytest.param(lambda: Word(("1",), 2), SizeError, "letter must be an integer, got '1'",
                     id="str-letter"),
        pytest.param(lambda: w([1]).concat(Word((2.5,), 3)), SizeError,
                     "letter must be an integer, got 2.5", id="float-letter-in-concat"),
    ],
)
def test_refusals_name_their_cause(call, error, message):
    assert refusal(call) == (error, message)


def test_size_errors_are_value_errors():
    # callers that catch ValueError still catch every size, reach and letter refusal
    assert issubclass(SizeError, ValueError)
    with pytest.raises(ValueError):
        Word((1.5,), 2)


def test_numpy_integer_sizes_are_accepted():
    assert words_up_to(np.int64(2), np.int64(2)) == words_up_to(2, 2)
    assert Word((2,), np.int64(2)) == w([2])
    # a numpy integer letter is an integer: the word equals its plain-int twin
    word = Word((np.int64(1), np.int32(2)), 2)
    assert word == w([1, 2]) and hash(word) == hash(w([1, 2]))
