import pytest
from hypothesis import given
from hypothesis import strategies as st

from freecomm.algebra import FreeProductGroup, Z
from freecomm.dynamics import w_sequence

from oracles import letters_to_syllables, reduce_letters, word_to_letters

#: the free group of the words w_n, and one on three letters for the oracle
FREE_XY = FreeProductGroup({"x": Z, "y": Z})
FREE_XYZ = FreeProductGroup({"x": Z, "y": Z, "z": Z})


def _flat(syllables):
    return tuple(x for syllable in syllables for x in syllable)


def _commutator(a, b):
    """[a, b] = a b a^-1 b^-1 of flat words of ``FREE_XY``."""
    mul, inv = FREE_XY.concat, FREE_XY.inverse_word
    return mul(mul(a, b), mul(inv(a), inv(b)))


def _conjugate(k):
    """y^k x y^-k."""
    return FREE_XY.normal_form([("y", k), ("x", 1), ("y", -k)])


def test_reduce_cancellation():
    assert FREE_XY.normal_form([("x", 1), ("y", 1), ("y", -1), ("x", 1)]) == ("x", 2)


def test_reduce_empty_is_identity():
    assert FREE_XY.normal_form([]) == ()


def test_commutator_expansion_matches_letter_oracle():
    # w_2 = [x, y x y^-1] spelled out letter by letter
    w = w_sequence(2)
    raw = word_to_letters([("x", 1), ("y", 1), ("x", 1), ("y", -1),
                           ("x", -1), ("y", 1), ("x", -1), ("y", -1)])
    assert _flat(letters_to_syllables(reduce_letters(raw))) == w
    assert sum(map(abs, w[1::2])) == 8
    assert w == ("x", 1, "y", 1, "x", 1, "y", -1, "x", -1, "y", 1, "x", -1, "y", -1)


raw_syllables = st.lists(st.tuples(st.sampled_from("xyz"), st.integers(-3, 3)), max_size=14)


def _letter_oracle(raw):
    return _flat(letters_to_syllables(reduce_letters(word_to_letters(raw))))


@given(raw_syllables, raw_syllables)
def test_reduce_is_idempotent_and_matches_oracle(raw1, raw2):
    group = FREE_XYZ
    w1, w2 = group.normal_form(raw1), group.normal_form(raw2)
    assert group.normal_form(zip(w1[::2], w1[1::2])) == w1
    assert w1 == _letter_oracle(raw1)
    assert group.concat(w1, w2) == _letter_oracle(raw1 + raw2)
    assert group.inverse_word(w1) == _letter_oracle([(g, -e) for g, e in reversed(raw1)])
    assert group.concat(w1, group.inverse_word(w1)) == ()


def test_word_invariants_rejected():
    with pytest.raises(ValueError):
        FREE_XY.word([("x", 0)])
    with pytest.raises(ValueError):
        FREE_XY.word([("x", 1), ("x", 1)])


def test_w_sequence_first_three():
    x = ("x", 1)
    assert w_sequence(1) == x
    assert w_sequence(2) == _commutator(x, _conjugate(1))
    assert w_sequence(3) == _commutator(w_sequence(2), _conjugate(2))


def test_w_sequence_recursion_to_ten():
    for n in range(1, 10):
        assert w_sequence(n + 1) == _commutator(w_sequence(n), _conjugate(n))


def test_w_sequence_syllable_count():
    # each nesting doubles the syllables: 3 * 2^n - 4 from n = 2 on
    for n in range(2, 11):
        assert len(w_sequence(n)) == 2 * (3 * 2**n - 4), n


def test_w_sequence_rejects_zero():
    with pytest.raises(ValueError):
        w_sequence(0)
