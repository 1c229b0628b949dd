import pytest
from hypothesis import given
from hypothesis import strategies as st

from freecomm.words import FreeWord, commutator, reduce_free_word, w_sequence

from oracles import letters_to_syllables, reduce_letters, word_to_letters


def test_reduce_cancellation():
    w = reduce_free_word([("x", 1), ("y", 1), ("y", -1), ("x", 1)])
    assert w.syllables == (("x", 2),)


def test_reduce_empty_is_identity():
    assert reduce_free_word([]).is_identity()


def test_commutator_expansion_matches_letter_oracle():
    # [x, y x y^-1] spelled out letter by letter
    x = FreeWord.gen("x")
    y = FreeWord.gen("y")
    w = commutator(x, y * x * y.inverse())
    raw = word_to_letters([("x", 1), ("y", 1), ("x", 1), ("y", -1),
                           ("x", -1), ("y", 1), ("x", -1), ("y", -1)])
    assert letters_to_syllables(reduce_letters(raw)) == w.syllables
    assert w.letter_length() == 8
    assert w.syllables == (
        ("x", 1), ("y", 1), ("x", 1), ("y", -1), ("x", -1), ("y", 1), ("x", -1), ("y", -1),
    )


raw_syllables = st.lists(st.tuples(st.sampled_from("xyz"), st.integers(-3, 3)), max_size=14)


def _letter_oracle(raw):
    return letters_to_syllables(reduce_letters(word_to_letters(raw)))


@given(raw_syllables, raw_syllables)
def test_reduce_is_idempotent_and_matches_oracle(raw1, raw2):
    w1, w2 = reduce_free_word(raw1), reduce_free_word(raw2)
    assert reduce_free_word(w1.syllables) == w1
    assert w1.syllables == _letter_oracle(raw1)
    assert (w1 * w2).syllables == _letter_oracle(raw1 + raw2)
    assert w1.inverse().syllables == _letter_oracle([(g, -e) for g, e in reversed(raw1)])
    assert (w1 * w1.inverse()).is_identity()


def test_word_invariants_rejected():
    with pytest.raises(ValueError):
        FreeWord((("x", 0),))
    with pytest.raises(ValueError):
        FreeWord((("x", 1), ("x", 1)))


def test_w_sequence_first_three():
    x = FreeWord.gen("x")
    y = FreeWord.gen("y")
    assert w_sequence(1) == x
    assert w_sequence(2) == commutator(x, y * x * y.inverse())
    assert w_sequence(3) == commutator(w_sequence(2), (y**2) * x * (y**-2))


def test_w_sequence_recursion_to_ten():
    y = FreeWord.gen("y")
    x = FreeWord.gen("x")
    for n in range(1, 10):
        assert w_sequence(n + 1) == commutator(w_sequence(n), (y**n) * x * (y**-n))


def test_w_sequence_rejects_zero():
    with pytest.raises(ValueError):
        w_sequence(0)
