import itertools

import pytest
from hypothesis import given, strategies as st

from ncjacobi import (
    Word,
    enumerate_words,
    graded_rank,
    words_up_to,
)
from ncjacobi.words import kernel_index, letters_up_to, prepend_index, reversal_index
from ncjacobi.words import level_kernel_index, level_offsets, word_at


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


def test_enumerate_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_words(10, 7)
    with pytest.raises(ValueError, match="cap"):
        words_up_to(10, 7)


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
    words = words_by_rank(alphabet, degree)
    for letter in range(alphabet + 1):
        mid = Word((letter,) if letter else (), alphabet)
        expected = [
            [graded_rank(b.involute().concat(mid).concat(a)) for b in words] for a in words
        ]
        assert kernel_index(alphabet, degree, letter).tolist() == expected


@pytest.mark.parametrize(
    "build,args",
    [(reversal_index, (2, 4)), (prepend_index, (3, 2)), (kernel_index, (2, 2, 1))],
)
def test_index_tables_are_shared_and_read_only(build, args):
    table = build(*args)
    assert build(*args) is table
    with pytest.raises(ValueError, match="read-only"):
        table.flat[0] = -1
    assert build.cache_info().maxsize == 32


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


def test_index_tables_over_no_words():
    assert reversal_index(2, -1).shape == (0,)
    assert prepend_index(2, -1).shape == (2, 0)
    assert kernel_index(2, -1).shape == (0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: word_at(0, 3),
        lambda: word_at(2, -3),
        lambda: reversal_index(0, 2),
        lambda: prepend_index(0, 2),
        lambda: kernel_index(0, 1),
        lambda: kernel_index(2, 1, 3),
        lambda: kernel_index(2, 1, -1),
        lambda: level_kernel_index(0, 1),
        lambda: level_kernel_index(2, -1),
    ],
)
def test_index_helpers_reject_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
