import itertools

import pytest
from hypothesis import given, strategies as st

from ncjacobi import (
    BlockForm,
    Word,
    block_decompose,
    compare,
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
    assert compare(w([]), w([1])) == -1
    assert compare(w([1, 2]), w([2, 1])) == -1
    assert compare(w([2]), w([1, 1])) == -1  # length dominates
    assert compare(w([1, 1]), w([1, 1])) == 0


def test_compare_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        compare(Word((1,), 2), Word((1,), 3))


def test_order_agrees_with_length_then_letters_key():
    # (len, letters) tuple comparison is the independent definition of the
    # order; agreement on every pair gives totality for free.
    all_words = [Word(ls, 3) for n in range(5) for ls in itertools.product((1, 2, 3), repeat=n)]
    for a in all_words:
        ka = (len(a), a.letters)
        for b in all_words:
            kb = (len(b), b.letters)
            expected = -1 if ka < kb else (0 if ka == kb else 1)
            assert compare(a, b) == expected


def test_words_up_to_is_strictly_increasing():
    ws = words_up_to(3, 4)
    assert all(compare(a, b) == -1 for a, b in zip(ws, ws[1:]))
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
    assert all(compare(a, b) == -1 for a, b in zip(ws, ws[1:]))


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


# -- blocks and leading runs ------------------------------------------------


def test_block_decompose_example():
    assert block_decompose(w([1, 1, 2, 2])).blocks == ((1, 2), (2, 2))


def test_block_decompose_empty_word_rejected():
    with pytest.raises(ValueError):
        block_decompose(w([]))


def test_leading_run_examples():
    assert w([1, 1, 2]).leading_run(1) == 2
    assert w([1, 1, 2]).leading_run(2) == 0
    assert w([2, 2, 2]).leading_run(2) == 3


@given(small_words(alphabet=3, max_len=6).filter(lambda x: len(x) > 0))
def test_block_form_round_trip(word):
    form = block_decompose(word)
    assert form.expand() == word
    letters = [b[0] for b in form.blocks]
    assert all(x != y for x, y in zip(letters, letters[1:]))
    first_letter, first_exp = form.blocks[0]
    assert word.leading_run(first_letter) == first_exp
    for k in range(1, 4):
        if k != first_letter:
            assert word.leading_run(k) == 0


def test_block_form_validation():
    with pytest.raises(ValueError):
        BlockForm(((1, 2), (1, 1)), 2)  # adjacent same letter
    with pytest.raises(ValueError):
        BlockForm(((1, 0),), 2)  # zero exponent


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0,), 2)
    with pytest.raises(ValueError):
        Word((3,), 2)
    with pytest.raises(ValueError):
        Word((), 0)
