import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freecomm.groups import cyclic_group, symmetric_group
from freecomm.words import (
    FreeWord,
    GroupCarrier,
    WordCarrier,
    commutator,
    reduce_free_word,
    substitute,
    w_sequence,
)

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


def _random_raw(rng, n_syllables=12):
    gens = ["x", "y", "z"]
    return [(rng.choice(gens), rng.randint(-3, 3)) for _ in range(n_syllables)]


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


def test_substitute_identity_and_commuting():
    g = cyclic_group(12)
    carrier = GroupCarrier(g)
    x = FreeWord.gen("x")
    assert substitute(x, {"x": 5}, carrier) == 5
    w = commutator(FreeWord.gen("x"), FreeWord.gen("y"))
    assert substitute(w, {"x": 3, "y": 7}, carrier) == g.identity


def test_substitute_missing_generator():
    with pytest.raises(KeyError):
        substitute(FreeWord.gen("x"), {"y": 1}, GroupCarrier(cyclic_group(3)))


def _eval_raw(raw, assignment, carrier):
    out = carrier.one()
    for g, e in raw:
        a = assignment[g]
        if e < 0:
            a, e = carrier.inv(a), -e
        for _ in range(e):
            out = carrier.mul(out, a)
    return out


def test_substitute_respects_reduction():
    # evaluating the raw syllable stream and its reduced form must agree
    g = symmetric_group(4)
    carrier = GroupCarrier(g)
    rng = random.Random(99)
    for _ in range(120):
        raw = _random_raw(rng)
        assignment = {name: rng.randrange(g.order) for name in ("x", "y", "z")}
        direct = _eval_raw(raw, assignment, carrier)
        reduced = substitute(reduce_free_word(raw), assignment, carrier)
        assert direct == reduced


def test_substitute_is_homomorphic():
    g = symmetric_group(4)
    carrier = GroupCarrier(g)
    rng = random.Random(123)
    for _ in range(100):
        w1 = reduce_free_word(_random_raw(rng, 6))
        w2 = reduce_free_word(_random_raw(rng, 6))
        assignment = {name: rng.randrange(g.order) for name in ("x", "y", "z")}
        lhs = substitute(w1 * w2, assignment, carrier)
        rhs = g.mul(substitute(w1, assignment, carrier), substitute(w2, assignment, carrier))
        assert lhs == rhs


def test_word_carrier_roundtrip():
    carrier = WordCarrier()
    w = w_sequence(3)
    out = substitute(w, {"x": FreeWord.gen("x"), "y": FreeWord.gen("y")}, carrier)
    assert out == w


def test_unitary_carrier_substitution():
    import numpy as np

    from freecomm.words import UnitaryCarrier

    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    carrier = UnitaryCarrier(2)
    w = commutator(FreeWord.gen("x"), FreeWord.gen("y"))
    out = substitute(w, {"x": x, "y": z}, carrier)
    assert np.allclose(out, -np.eye(2))  # [X, Z] = -1
    # commuting matrices in any word's commutator give the identity
    d1 = np.diag([1j, -1j])
    d2 = np.diag([np.exp(1j), np.exp(2j)])
    assert carrier.is_one(substitute(w, {"x": d1, "y": d2}, carrier))
