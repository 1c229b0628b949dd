import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freecomm.catalog import finite_group_catalog
from freecomm import mixed
from freecomm.groups import cyclic_group, quaternion_group, symmetric_group
from freecomm.mixed import (
    MixedWord,
    is_mixed_identity,
    iterated_commutator,
    mixed_commutator,
    mixed_identity_scan,
    parse_mixed_word,
)

from oracles import brute_force_mixed_scan, loop_mixed_scan, reduce_mixed_letters


def test_normal_form_merges_interior_identity():
    g = cyclic_group(3)
    # t^2 . e . t^-2 collapses entirely
    w = MixedWord.from_tokens(g, [("t", 2), ("g", g.identity), ("t", -2)])
    assert (w.coeffs, w.exps) == ((g.identity,), ())


def test_normal_form_cascade():
    g = cyclic_group(4)
    # t . a . a^-1 . t^-1 . b collapses to b
    w = MixedWord.from_tokens(g, [("t", 1), ("g", 1), ("g", 3), ("t", -1), ("g", 2)])
    assert w.exps == ()
    assert w.coeffs == (2,)


@st.composite
def group_and_tokens(draw):
    """A coefficient group and two raw token streams over it; zero exponents
    and identity constants included."""
    group = draw(st.sampled_from((cyclic_group(4), symmetric_group(3), quaternion_group())))
    token = st.one_of(
        st.tuples(st.just("t"), st.integers(-3, 3)),
        st.tuples(st.just("g"), st.integers(0, group.order - 1)),
    )
    return group, draw(st.lists(token, max_size=14)), draw(st.lists(token, max_size=14))


@given(group_and_tokens())
def test_normal_form_matches_letter_oracle(case):
    group, toks1, toks2 = case
    w1 = MixedWord.from_tokens(group, toks1)
    w2 = MixedWord.from_tokens(group, toks2)
    assert (w1.coeffs, w1.exps) == reduce_mixed_letters(group, toks1)
    prod = w1 * w2
    assert (prod.coeffs, prod.exps) == reduce_mixed_letters(group, toks1 + toks2)
    inv = w1.inverse()
    inv_toks = [(k, group.inv(v) if k == "g" else -v) for k, v in reversed(toks1)]
    assert (inv.coeffs, inv.exps) == reduce_mixed_letters(group, inv_toks)
    w = w1 * inv
    assert (w.coeffs, w.exps) == ((group.identity,), ())


def test_invalid_normal_form_rejected():
    g = cyclic_group(3)
    with pytest.raises(ValueError):
        MixedWord(g, (0, 0, 0), (1, 1))  # interior identity
    with pytest.raises(ValueError):
        MixedWord(g, (0, 1, 0), (1, 0))  # zero exponent
    for coeffs, exps in [
        ((0, -1), (1,)),  # table[-1] would read the last row
        ((7,), ()),  # outside C3
        ((0, 0), (1.5,)),  # not an integer exponent
        ((0, 1), (True,)),  # a bool is no exponent: t^True cannot be read back
        ((0, True), (1,)),  # nor an element of the finite factor
    ]:
        with pytest.raises(ValueError, match="invalid syllable"):
            MixedWord(g, coeffs, exps)


def test_literal_roundtrip():
    s3 = symmetric_group(3)
    w = parse_mixed_word(s3, "e . t^1 . (12) . t^-2 . (123)")
    assert str(w) == "e . t^1 . (12) . t^-2 . (123)"
    assert parse_mixed_word(s3, str(w)) == w
    with pytest.raises(ValueError):
        parse_mixed_word(s3, "e . t^1")  # must end with a coefficient
    with pytest.raises(KeyError):
        parse_mixed_word(s3, "nope . t^1 . e")


def test_exponent_word_is_identity_for_catalog():
    for name, group in finite_group_catalog().items():
        w = MixedWord.t_power(group, group.exponent())
        assert is_mixed_identity(w).is_identity, name


def test_plain_t_has_witness():
    g = cyclic_group(5)
    verdict = is_mixed_identity(MixedWord.t_power(g, 1))
    assert not verdict.is_identity
    assert verdict.witness == 1  # first non-identity element
    # witness re-verifies
    assert MixedWord.t_power(g, 1).evaluate(verdict.witness) != g.identity


def test_sym3_conjugate_commutator_witness():
    # [t, a t a^-1] with a = (12): exhaustive evaluation finds (13) first,
    # and the value there is a 3-cycle
    s3 = symmetric_group(3)
    a = s3.index_of("(12)")
    t = MixedWord.t_power(s3, 1)
    w = mixed_commutator(t, t.conjugate_variable(a))

    # oracle: direct evaluation of [g, a g a^-1] over all six elements
    expected_witness = None
    for g in range(s3.order):
        conj = s3.conjugate(g, a)
        val = s3.mul(s3.mul(g, conj), s3.mul(s3.inv(g), s3.inv(conj)))
        assert w.evaluate(g) == val
        if val != s3.identity and expected_witness is None:
            expected_witness = g

    verdict = is_mixed_identity(w)
    assert not verdict.is_identity
    assert verdict.witness == expected_witness
    assert s3.label(verdict.witness) == "(13)"
    assert s3.label(verdict.value) in ("(123)", "(132)")


def test_iterated_commutator_base_and_pair():
    s3 = symmetric_group(3)
    t = MixedWord.t_power(s3, 1)
    u = t.conjugate_variable(s3.index_of("(12)"))
    assert iterated_commutator([t]) == t
    assert iterated_commutator([t, u]) == mixed_commutator(t, u)


def test_iterated_commutator_three_words_matches_step_eval():
    s3 = symmetric_group(3)
    ws = [
        MixedWord.t_power(s3, 1),
        MixedWord.t_power(s3, 1).conjugate_variable(s3.index_of("(12)")),
        MixedWord.t_power(s3, 2),
    ]
    nested = iterated_commutator(ws)
    for g in range(s3.order):
        vals = [w.evaluate(g) for w in ws]
        inner = s3.mul(
            s3.mul(vals[1], vals[2]), s3.mul(s3.inv(vals[1]), s3.inv(vals[2]))
        )
        expected = s3.mul(s3.mul(vals[0], inner), s3.mul(s3.inv(vals[0]), s3.inv(inner)))
        assert nested.evaluate(g) == expected


def test_iterated_commutator_empty_rejected():
    with pytest.raises(ValueError):
        iterated_commutator([])


def test_scan_finds_square_identity_for_c2():
    g = cyclic_group(2)
    report = mixed_identity_scan(g, max_syllables=2, exp_bound=2)
    assert report["identity_found"]
    assert "e . t^2 . e" in report["identities"]


def test_scan_depth_validation():
    with pytest.raises(ValueError):
        mixed_identity_scan(cyclic_group(2), 0, 2)
    with pytest.raises(ValueError):
        mixed_identity_scan(cyclic_group(2), 1, 0)


_CATALOG = finite_group_catalog()


@pytest.mark.parametrize(
    "name, depth, exp_bound",
    [(name, depth, bound) for name in _CATALOG for depth in (1, 2) for bound in (1, 2)]
    + [("quaternion8", 3, 2), ("sym3", 3, 2)],
)
def test_scan_matches_brute_force(name, depth, exp_bound):
    group = _CATALOG[name]
    # the whole report, identities in the same order
    assert mixed_identity_scan(group, depth, exp_bound) == brute_force_mixed_scan(
        group, depth, exp_bound
    )


@settings(max_examples=40)
@example(_CATALOG["sym4"], 3, 3)  # the largest window in range: 529 interiors a tuple
@given(
    st.sampled_from([*_CATALOG.values(), *map(cyclic_group, range(1, 8))]),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_array_scan_matches_loop_oracle(group, depth, exp_bound):
    # the whole report, identities in the loop's order
    assert mixed_identity_scan(group, depth, exp_bound) == loop_mixed_scan(group, depth, exp_bound)


@pytest.mark.parametrize("cells", [1, 3 * 8, 5 * 8])
def test_scan_chunks_give_the_same_list(cells, monkeypatch):
    # quaternion8 at depth 3 has 49 interiors: one a chunk, 3 a chunk with
    # a ragged last chunk of 1, and 5 a chunk with a last chunk of 4
    group = _CATALOG["quaternion8"]
    whole = mixed_identity_scan(group, 3, 2)
    monkeypatch.setattr(mixed, "SCAN_CHUNK_CELLS", cells)
    assert mixed_identity_scan(group, 3, 2) == whole == loop_mixed_scan(group, 3, 2)
