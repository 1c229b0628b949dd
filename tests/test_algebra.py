import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freecomm.algebra import (
    _INT64_MAX,
    COMMUTATOR_CLOSED_FORM,
    PRODUCT_RULE,
    FreeProductGroup,
    PolyElement,
    Z,
    _collect,
    _encode,
    add,
    ell_bar_from_trace,
    ell_from_trace,
    evaluate,
    free_pair,
    is_unitary,
    multiply,
    star,
    trace,
    unitary,
    verify_free_commutator_identity,
)
from freecomm.groups import cyclic_group
from freecomm.dynamics import _ExactTraces, w_sequence

from oracles import (
    INVOLUTION_HAAR,
    TWO_INVOLUTIONS,
    AlgebraElement,
    collect_add,
    dict_multiply,
    ell,
    ell_bar,
    evaluate_word,
    haar_generator,
    order_two_unitary,
)
from oracles import multiply as float_multiply
from oracles import trace as float_trace

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


# -- the exact engine ----------------------------------------------------------------

X, Y = (0, 1), (1, 1, 0, 1, 1, -1)  # x and v x v^-1, the involutions of C2 * C2


def element(*terms):
    """The sum of (word, grid, parity) terms; grid[d][e] multiplies alpha^d beta^e."""
    words, grids, parities = zip(*terms)
    coeffs = np.zeros((len(grids), max(map(len, grids)), max(len(g[0]) for g in grids)),
                      dtype=np.int64)
    for k, g in enumerate(grids):
        coeffs[k, : len(g), : len(g[0])] = g
    return _collect(_encode(words), coeffs, np.array(parities, dtype=np.int8))


ONE = element(((), [[1]], (0, 0)))


def same(a, b):
    """Equal elements: the same words, coefficients and parities once collected."""
    a, b = _collect(a.rows, a.coeffs, a.parity), _collect(b.rows, b.coeffs, b.parity)
    return all(np.array_equal(p, q) for p, q in
               ((a.rows, b.rows), (a.coeffs, b.coeffs), (a.parity, b.parity)))


def generator(k):
    """h_k = t + gamma_t v^k x v^-k, t = alpha for even k and beta for odd k.

    The h_k are free unitaries: h_0 = u and h_1 the second unitary of the
    free pair, and h_2 the decay route's c_2.  Words of products of them
    keep one parity per word: an x at even v-height counts for alpha, at
    odd height for beta.
    """
    return unitary((1, k, 0, 1, 1, -k) if k else X, k % 2)


GENERATORS = [generator(k) for k in range(4)]
GENERATORS += [star(g) for g in GENERATORS]


def product(indices):
    out = ONE
    for k in indices:
        out = multiply(out, GENERATORS[k])
    return out


products = st.lists(st.integers(0, len(GENERATORS) - 1), max_size=4).map(product)
# sums of two products are not unitary, so Parseval sees more than tau(a* a) = 1
elements = st.one_of(products, st.tuples(products, products).map(lambda ab: add(*ab)))


def poly_mul(p, q):
    out = np.zeros((p.shape[0] + q.shape[0] - 1, p.shape[1] + q.shape[1] - 1), dtype=object)
    for (d, e), c in np.ndenumerate(p):
        out[d : d + q.shape[0], e : e + q.shape[1]] += c * q
    return out


def as_grid(p):
    """An object array of integers as a trimmed ``trace`` grid."""
    p = np.array(p, dtype=object)
    while p.shape[0] > 1 and not p[-1].any():
        p = p[:-1]
    while p.shape[1] > 1 and not p[:, -1].any():
        p = p[:, :-1]
    return tuple(tuple(int(c) for c in row) for row in p)


def test_multiply_identity_and_inverse_word():
    u, v = free_pair()
    assert same(multiply(ONE, u), u) and same(multiply(v, ONE), v)
    gx = element((X, [[1]], (1, 0)))  # gamma_alpha x
    assert trace(multiply(gx, gx)) == ((-1,), (0,), (1,))  # gamma_alpha^2 = alpha^2 - 1
    square = multiply(element(((1, 2), [[1]], (0, 0))), element(((1, -2), [[1]], (0, 0))))
    assert square.is_one()  # v^2 v^-2 = 1
    assert square.support_size == 1


def test_two_term_expansion():
    # (7 + 3 gamma_t g)(7 - 3 gamma_t g) = 49 - 9 gamma_t^2 = 58 - 9 t^2 for an involution g
    for word, parity, expect in ((X, (1, 0), ((58,), (0,), (-9,))), (Y, (0, 1), ((58, 0, -9),))):
        left = element(((), [[7]], (0, 0)), (word, [[3]], parity))
        right = element(((), [[7]], (0, 0)), (word, [[-3]], parity))
        prod = multiply(left, right)
        assert prod.support_size == 1
        assert trace(prod) == expect


def test_star_examples():
    u, v = free_pair()
    su = star(u)
    assert su.words == [(), X] and su.coeffs.tolist() == [[[0], [1]], [[-1], [0]]]
    assert star(v).words == [(), Y] and star(v).coeffs[:, 0, :].tolist() == [[0, 1], [-1, 0]]
    vk = element(((1, 1), [[1]], (0, 0)))
    assert star(vk).words == [(1, -1)] and star(vk).coeffs.tolist() == [[[1]]]
    # (gamma_alpha gamma_beta x y)* = gamma_beta gamma_alpha y x: two sign flips cancel
    gxy = element((X + Y, [[1]], (1, 1)))
    assert star(gxy).words == [Y + X] and star(gxy).coeffs.tolist() == [[[1]]]


@given(elements, elements)
def test_star_is_involutive_antihomomorphism(a, b):
    assert same(star(star(a)), a)
    assert same(star(multiply(a, b)), multiply(star(b), star(a)))


@given(elements, elements, elements)
def test_multiply_is_associative(a, b, c):
    assert same(multiply(multiply(a, b), c), multiply(a, multiply(b, c)))


def test_trace_examples():
    assert trace(ONE) == ((1,),)
    assert trace(element((X + Y, [[1]], (1, 1)))) == ((0,),)
    # freeness product rule, as a polynomial identity for every alpha and beta
    u, v = free_pair()
    assert trace(multiply(u, v)) == PRODUCT_RULE == ((0, 0), (0, 1))
    assert trace(multiply(u, generator(2))) == ((0,), (0,), (1,))  # tau(u c_2) = alpha^2
    for a in GRID:
        for b in GRID:
            assert Fraction(*evaluate(trace(multiply(u, v)), a, b)) == Fraction(a) * Fraction(b)


@given(elements, elements)
def test_trace_is_tracial_and_positive(a, b):
    assert trace(multiply(a, b)) == trace(multiply(b, a))
    p = trace(multiply(star(a), a))
    for x, y in ((0.0, 0.0), (0.9, -0.3), (-0.5, 0.75)):
        assert Fraction(*evaluate(p, x, y)) >= 0


@given(elements)
def test_parseval(a):
    # tau(a* a) = sum_g |gamma_alpha|^(2p) |gamma_beta|^(2q) P_g^2, |gamma_t|^2 = 1 - t^2
    total = np.zeros((1, 1), dtype=object)
    for p, (odd_a, odd_b) in zip(a.coeffs.astype(object), a.parity.tolist()):
        term = poly_mul(p, p)
        if odd_a:
            term = poly_mul(term, np.array([[1], [0], [-1]], dtype=object))
        if odd_b:
            term = poly_mul(term, np.array([[1, 0, -1]], dtype=object))
        shape = np.maximum(total.shape, term.shape)
        total = np.pad(total, [(0, s - n) for s, n in zip(shape, total.shape)])
        total[: term.shape[0], : term.shape[1]] += term
    assert trace(multiply(star(a), a)) == as_grid(total)


def test_is_unitary_examples():
    u, v = free_pair()
    assert is_unitary(u) and is_unitary(v) and is_unitary(ONE)
    assert is_unitary(element((X, [[1]], (0, 0))))  # x itself
    assert not is_unitary(element((X, [[1]], (1, 0))))  # gamma x: |gamma|^2 = 1 - alpha^2
    assert not is_unitary(element(((), [[2]], (0, 0))))
    assert not is_unitary(add(u, v))


@st.composite
def dict_pairs(draw):
    """Two {word: (grid, parity)} elements of C2 * Z with small coefficients.

    Each word's parity is its image under a homomorphism to (Z/2)^2, drawn
    per example (x and v each to one of the four pairs), so equal words
    always agree and both-odd pairs of either variable occur; each element
    has its own grid shape in alpha and beta, and may be empty.
    """
    images = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])
    x_to, v_to = draw(images), draw(images)

    def parity(word):
        xs = word[0::2].count(0)
        vs = sum(v for f, v in zip(word[0::2], word[1::2]) if f == 1)
        return tuple((xs * x_to[t] + vs * v_to[t]) % 2 for t in (0, 1))

    out = []
    for _ in range(2):
        words = draw(st.lists(normal_words(3, INVOLUTION_HAAR), max_size=4, unique=True))
        shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
        cells = st.lists(st.integers(-3, 3), min_size=math.prod(shape), max_size=math.prod(shape))
        grids = {w: np.array(draw(cells), dtype=object).reshape(shape) for w in words}
        out.append(({w: (g, parity(w)) for w, g in grids.items()}, shape))
    return out


def as_poly(elem, shape, scale=1):
    words = list(elem)
    coeffs = np.zeros((len(words), *shape), dtype=np.int64)
    for k, w in enumerate(words):
        coeffs[k] = elem[w][0] * scale
    parity = np.array([elem[w][1] for w in words], dtype=np.int8).reshape(-1, 2)
    return PolyElement(_encode(words), coeffs, parity)


def canonical(elem):
    """{word: (trimmed grid, parity)} of a dict element or a ``PolyElement``."""
    if isinstance(elem, PolyElement):
        elem = {w: (g, tuple(p)) for w, g, p in
                zip(elem.words, elem.coeffs.astype(object), elem.parity.tolist())}
    return {w: (as_grid(g), p) for w, (g, p) in elem.items()}


@given(dict_pairs())
def test_multiply_matches_dict_reference(pair):
    # multiply against pair-by-pair products in Python integers; then with
    # both elements scaled to the edge of the int64 guard, and one step past it
    (a, shape_a), (b, shape_b) = pair
    reference = dict_multiply(a, b)
    assert canonical(multiply(as_poly(a, shape_a), as_poly(b, shape_b))) == canonical(reference)
    largest = math.prod(max((abs(c) for g, _ in e.values() for c in g.flat), default=0) for e in (a, b))
    if not largest:
        return
    terms = min(shape_a[0], shape_b[0]) * min(shape_a[1], shape_b[1]) * 4 * len(a) * len(b)
    scale = math.isqrt(_INT64_MAX // (largest * terms))
    got = multiply(as_poly(a, shape_a, scale), as_poly(b, shape_b, scale))
    assert canonical(got) == canonical({w: (g * scale**2, p) for w, (g, p) in reference.items()})
    with pytest.raises(OverflowError):
        multiply(as_poly(a, shape_a, scale + 1), as_poly(b, shape_b, scale + 1))


def exactly(a, b):
    """The same rows, coefficients and parities, as stored."""
    return all(np.array_equal(p, q) and p.dtype == q.dtype for p, q in
               ((a.rows, b.rows), (a.coeffs, b.coeffs), (a.parity, b.parity)))


def negated(a):
    return PolyElement(a.rows, -a.coeffs, a.parity)


@given(elements, elements)
def test_add_matches_collect_route(a, b):
    # sorted operands merge; star's reversed words are out of order, and a
    # sum with its own negation cancels every word
    for x, y in ((a, b), (b, a), (star(a), b), (a, star(b)), (a, negated(a)),
                 (add(a, b), negated(b)), (a, ONE)):
        assert exactly(add(x, y), collect_add(x, y))


@given(dict_pairs())
def test_add_matches_collect_route_on_unsorted_supports(pair):
    # hand-built supports: any word order, zero coefficients left in
    (a, shape_a), (b, shape_b) = pair
    x, y = as_poly(a, shape_a), as_poly(b, shape_b)
    assert exactly(add(x, y), collect_add(x, y))
    assert exactly(add(y, y), collect_add(y, y))


def test_add_guards_int64_and_parities():
    # each word's sum holds one term from each operand: 2 (2^62 - 1) fits
    # in int64 and 2 * 2^62 is one past it; and equal words with different
    # parities cannot be summed
    edge = element((Y, [[2**62 - 1]], (0, 1)))
    assert add(edge, edge).coeffs.tolist() == [[[2**63 - 2]]]
    with pytest.raises(OverflowError):
        add(element((Y, [[2**62]], (0, 1))), edge)
    with pytest.raises(ArithmeticError):
        add(element((Y, [[1]], (0, 1))), element((Y, [[1]], (1, 0))))


def test_collect_rejects_parity_mismatch():
    # one word, two parities: the parity would no longer be a function of the word
    rows = _encode([Y, Y])
    coeffs = np.ones((2, 1, 1), dtype=np.int64)
    assert _collect(rows, coeffs, np.array([[0, 1], [0, 1]], dtype=np.int8)).coeffs.tolist() == [[[2]]]
    with pytest.raises(ArithmeticError):
        _collect(rows, coeffs, np.array([[1, 0], [0, 1]], dtype=np.int8))


def test_beta_odd_product_overflow_is_loud():
    # (2^31 (1 + beta) gamma_beta y)^2 = 2^62 (1 + beta)^2 (beta^2 - 1) has
    # the coefficient 2^63 at beta^3, one past int64
    big = element((Y, [[2**31, 2**31]], (0, 1)))
    with pytest.raises(OverflowError):
        multiply(big, big)


def test_free_commutator_identity_examples():
    chk = verify_free_commutator_identity(0.0, 0.0)
    assert (chk.lhs, chk.rhs, chk.deviation, chk.proved) == (0.0, 0.0, 0.0, True)
    chk = verify_free_commutator_identity(0.5, 0.5)
    assert chk.lhs == chk.rhs == 0.4375 and chk.deviation == 0.0
    chk = verify_free_commutator_identity(0.9, 0.0)
    assert chk.rhs == float(Fraction(0.9) ** 2) and chk.deviation == 0.0
    u, v = free_pair()
    comm = multiply(multiply(multiply(u, v), star(u)), star(v))
    assert is_unitary(comm)
    assert trace(comm) == COMMUTATOR_CLOSED_FORM
    with pytest.raises(ValueError):
        verify_free_commutator_identity(1.0, 0.5)


def test_two_sided_bound_and_projective_equality():
    for a in GRID:
        for b in GRID:
            lu, lv = ell_from_trace(complex(a)), ell_from_trace(complex(b))
            lbu, lbv = ell_bar_from_trace(complex(a)), ell_bar_from_trace(complex(b))
            tau = verify_free_commutator_identity(a, b).lhs
            lc = ell_from_trace(complex(tau))
            assert lbu * lbv / math.sqrt(2) - 1e-10 <= lc <= math.sqrt(2) * lbu * lbv + 1e-10
            assert lc <= math.sqrt(2) * lu * lv + 1e-10
            assert abs(ell_bar_from_trace(complex(tau)) - lc) <= 1e-10


@given(normal_words(6), normal_words(6), normal_words(6))
def test_word_normal_form_associativity(a, b, c):
    amb = PROPERTY_AMBIENT
    assert amb.concat(amb.concat(a, b), c) == amb.concat(a, amb.concat(b, c))
    assert amb.concat(a, amb.inverse_word(a)) == ()


def test_substitute_into_algebra_matches_closed_form():
    # evaluating w_n letter by letter at (u, v), v the Haar generator, gives
    # the decay route's polynomial element, and w_2 has the closed-form trace
    u = unitary(X)
    v = element(((1, 1), [[1]], (0, 0)))
    traces = _ExactTraces()
    for n in (1, 2, 3):
        w = w_sequence(n)
        val = evaluate_word(zip(w[::2], w[1::2]), {"x": u, "y": v}, multiply, star, ONE)
        traces[n]
        assert same(val, traces.word)
        if n == 2:
            assert trace(val) == ((0,), (0,), (2,), (0,), (-1,))  # 1 - (1 - alpha^2)^2


# -- the float oracle --------------------------------------------------------------


def test_is_unitary_float_oracle_examples():
    from oracles import is_unitary as float_is_unitary

    g = AlgebraElement.from_word(TWO_INVOLUTIONS, TWO_INVOLUTIONS.word([(0, 1)]))
    assert float_is_unitary(g, 0.0)
    assert not float_is_unitary(AlgebraElement.one(TWO_INVOLUTIONS, 2.0))
    assert float_is_unitary(order_two_unitary(TWO_INVOLUTIONS, 0.5, 0), 1e-12)


def test_ell_examples():
    amb = TWO_INVOLUTIONS
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
    with pytest.raises(ValueError):
        ell(AlgebraElement.one(TWO_INVOLUTIONS, 2.0))


def test_ell_bar_never_exceeds_ell():
    for a in GRID:
        for phase in (1.0, 1j, -1.0, (1 + 1j) / math.sqrt(2)):
            u = phase * order_two_unitary(TWO_INVOLUTIONS, a, 0)
            assert ell_bar(u) <= ell(u) + 1e-12


def test_order_two_unitary_validation():
    with pytest.raises(ValueError):
        order_two_unitary(TWO_INVOLUTIONS, 1.0, 0)
    with pytest.raises(ValueError):
        order_two_unitary(INVOLUTION_HAAR, 0.5, 1)  # Z factor


def test_haar_generator_traces():
    amb = INVOLUTION_HAAR
    v = haar_generator(amb, 1)
    power = AlgebraElement.one(amb)
    for _ in range(20):
        power = float_multiply(power, v)
        assert float_trace(power) == 0j
    assert float_trace(AlgebraElement.one(amb)) == 1.0
    with pytest.raises(ValueError):
        haar_generator(amb, 0)
