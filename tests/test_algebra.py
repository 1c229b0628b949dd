import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freecomm.algebra import (
    AlgebraElement,
    FreeProductGroup,
    Z,
    ell,
    ell_bar,
    haar_generator,
    involution_haar_ambient,
    is_unitary,
    multiply,
    order_two_unitary,
    star,
    trace,
    two_involution_ambient,
    verify_free_commutator_identity,
)
from freecomm.groups import cyclic_group
from freecomm.dynamics import commutator_polynomials
from freecomm.words import w_sequence

from oracles import evaluate_word, norm2, poly_element_at

GRID = (0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 0.9)


# C3 * Z * C2: a finite factor of odd order, an infinite cyclic one, an involution
PROPERTY_AMBIENT = FreeProductGroup((cyclic_group(3), Z, cyclic_group(2)))


@st.composite
def normal_words(draw, max_syllables=4, amb=PROPERTY_AMBIENT):
    """Normal-form words of ``amb``, built syllable by syllable."""
    syllables = []
    prev = None
    for _ in range(draw(st.integers(0, max_syllables))):
        f = draw(st.sampled_from([f for f in amb.factors if f != prev]))
        fac = amb.factors[f]
        if fac is Z:
            v = draw(st.sampled_from([-2, -1, 1, 2]))
        else:
            v = draw(st.integers(1, fac.order - 1))
        syllables.append((f, v))
        prev = f
    return amb.word(syllables)


_unit_floats = st.floats(-1.0, 1.0, allow_subnormal=False)


def algebra_elements(amb):
    return st.dictionaries(
        normal_words(amb=amb), st.builds(complex, _unit_floats, _unit_floats), max_size=5
    ).map(lambda coeffs: AlgebraElement(amb, coeffs))


elements = algebra_elements(PROPERTY_AMBIENT)


def test_multiply_identity_and_inverse_word():
    amb = two_involution_ambient()
    one = AlgebraElement.one(amb)
    b = order_two_unitary(amb, 0.3, 0)
    assert norm2(multiply(one, b) - b) <= 1e-12
    g = AlgebraElement.from_word(amb, amb.word([(0, 1)]))
    assert multiply(g, g).coefficient(()) == 1.0  # s^2 = 1
    assert multiply(g, g).support_size == 1


def test_two_term_expansion():
    # (a 1 + b s)(a 1 - b s) = (a^2 - b^2) 1 when s has order two
    amb = two_involution_ambient()
    s = amb.word([(0, 1)])
    a, b = 0.7, 0.3
    left = AlgebraElement(amb, {(): a, s: b})
    right = AlgebraElement(amb, {(): a, s: -b})
    prod = multiply(left, right)
    assert prod.support_size == 1
    assert abs(prod.coefficient(()) - (a * a - b * b)) < 1e-15


def test_star_examples():
    amb = involution_haar_ambient()
    lam = AlgebraElement.one(amb, 0.2 + 0.5j)
    assert star(lam).coefficient(()) == 0.2 - 0.5j
    v = haar_generator(amb, 1)
    vw = amb.word([(1, 1)])
    assert star(v).coefficient(amb.inverse_word(vw)) == 1.0
    u = order_two_unitary(amb, 0.5, 0)
    su = star(u)
    assert abs(su.coefficient(()) - 0.5) < 1e-15
    assert abs(su.coefficient(amb.word([(0, 1)])) + 1j * math.sqrt(0.75)) < 1e-15


@given(elements, elements)
def test_star_is_involutive_antihomomorphism(a, b):
    assert norm2(star(star(a)) - a) == 0.0
    assert norm2(star(multiply(a, b)) - multiply(star(b), star(a))) <= 1e-12


def test_trace_examples():
    amb = two_involution_ambient()
    assert trace(AlgebraElement.one(amb)) == 1.0
    g = AlgebraElement.from_word(amb, amb.word([(0, 1), (1, 1)]))
    assert trace(g) == 0j
    # freeness product rule for unitaries on distinct factors
    for a in GRID:
        for b in GRID:
            u = order_two_unitary(amb, a, 0)
            v = order_two_unitary(amb, b, 1)
            assert abs(trace(multiply(u, v)) - a * b) <= 1e-12


@given(elements, elements)
def test_trace_is_tracial_and_positive(a, b):
    assert abs(trace(multiply(a, b)) - trace(multiply(b, a))) <= 1e-12
    p = trace(multiply(star(a), a))
    assert p.real >= -1e-12 and abs(p.imag) <= 1e-12


@given(elements)
def test_parseval(a):
    lhs = norm2(a) ** 2
    rhs = trace(multiply(star(a), a)).real
    assert abs(lhs - rhs) <= 1e-12


def test_is_unitary_examples():
    amb = two_involution_ambient()
    g = AlgebraElement.from_word(amb, amb.word([(0, 1)]))
    assert is_unitary(g, 0.0)
    assert not is_unitary(AlgebraElement.one(amb, 2.0))
    assert is_unitary(order_two_unitary(amb, 0.5, 0), 1e-12)


def test_ell_examples():
    amb = two_involution_ambient()
    one = AlgebraElement.one(amb)
    assert ell(one) == 0.0
    assert ell_bar(one) == 0.0
    u0 = order_two_unitary(amb, 0.0, 0)
    assert abs(ell(u0) - math.sqrt(2)) <= 1e-12
    assert abs(ell_bar(u0) - math.sqrt(2)) <= 1e-12
    u = order_two_unitary(amb, 0.75, 0)
    assert abs(ell(u) - 1 / math.sqrt(2)) <= 1e-12  # 0.70711
    u9 = order_two_unitary(amb, 0.9, 0)
    assert abs(ell(u9) - math.sqrt(0.2)) <= 1e-12  # 0.44721


def test_ell_rejects_non_unitary():
    amb = two_involution_ambient()
    with pytest.raises(ValueError):
        ell(AlgebraElement.one(amb, 2.0))


def test_ell_bar_never_exceeds_ell():
    amb = two_involution_ambient()
    for a in GRID:
        for phase in (1.0, 1j, -1.0, (1 + 1j) / math.sqrt(2)):
            u = phase * order_two_unitary(amb, a, 0)
            assert ell_bar(u) <= ell(u) + 1e-12


def test_order_two_unitary_validation():
    amb = two_involution_ambient()
    with pytest.raises(ValueError):
        order_two_unitary(amb, 1.0, 0)
    with pytest.raises(ValueError):
        order_two_unitary(involution_haar_ambient(), 0.5, 1)  # Z factor


def test_haar_generator_traces():
    amb = involution_haar_ambient()
    v = haar_generator(amb, 1)
    power = AlgebraElement.one(amb)
    for _ in range(20):
        power = multiply(power, v)
        assert trace(power) == 0j
    assert trace(AlgebraElement.one(amb)) == 1.0
    with pytest.raises(ValueError):
        haar_generator(amb, 0)


def test_free_commutator_identity_examples():
    chk = verify_free_commutator_identity(0.0, 0.0)
    assert abs(chk.lhs) <= 1e-12 and chk.rhs == 0.0
    chk = verify_free_commutator_identity(0.5, 0.5)
    assert abs(chk.rhs - 0.4375) < 1e-15
    assert chk.deviation <= 1e-12
    chk = verify_free_commutator_identity(0.9, 0.0)
    assert abs(chk.rhs - 0.81) < 1e-15
    assert chk.deviation <= 1e-12


def test_two_sided_bound_and_projective_equality():
    amb = two_involution_ambient()
    for a in GRID:
        for b in GRID:
            u = order_two_unitary(amb, a, 0)
            v = order_two_unitary(amb, b, 1)
            comm = multiply(multiply(multiply(u, v), star(u)), star(v))
            lu, lv = ell(u), ell(v)
            lbu, lbv = ell_bar(u), ell_bar(v)
            lc = ell(comm)
            assert lbu * lbv / math.sqrt(2) - 1e-10 <= lc <= math.sqrt(2) * lbu * lbv + 1e-10
            assert lc <= math.sqrt(2) * lu * lv + 1e-10
            assert abs(ell_bar(comm) - lc) <= 1e-10


@given(normal_words(6), normal_words(6), normal_words(6))
def test_word_normal_form_associativity(a, b, c):
    amb = PROPERTY_AMBIENT
    assert amb.concat(amb.concat(a, b), c) == amb.concat(a, amb.concat(b, c))
    assert amb.concat(a, amb.inverse_word(a)) == ()


def test_substitute_into_algebra_matches_closed_form():
    # evaluating w_n letter by letter at (u, v) gives the alpha-free
    # polynomial element of the decay route at alpha, and w_2 has the
    # closed-form trace
    alpha = 0.6
    amb = involution_haar_ambient()
    u = order_two_unitary(amb, alpha, 0)
    v = haar_generator(amb, 1)
    polys = commutator_polynomials(3)
    for n in (1, 2, 3):
        val = evaluate_word(w_sequence(n).syllables, {"x": u, "y": v}, multiply, star,
                            AlgebraElement.one(amb))
        assert norm2(val - poly_element_at(polys[n - 1], alpha, amb)) <= 1e-12
        if n == 2:
            assert abs(trace(val) - (1.0 - (1.0 - alpha**2) ** 2)) <= 1e-12
