import itertools

import pytest
from hypothesis import given, strategies as st

from ncjacobi import (
    Word,
    enumerate_words,
    graded_rank,
    words_up_to,
)


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
        enumerate_words(10, 7, cap=10**6)
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
