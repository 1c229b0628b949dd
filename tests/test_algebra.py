import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from freecomm import algebra
from freecomm.algebra import (
    _INT64_MAX,
    COMMUTATOR_CLOSED_FORM,
    PRODUCT_RULE,
    FreeProductGroup,
    PolyElement,
    Z,
    _encode,
    _lookup,
    _trim,
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
    unitary_commutator,
    verify_free_commutator_identity,
)
from freecomm.groups import cyclic_group
from freecomm.dynamics import _ExactTraces, w_sequence

from oracles import (
    INVOLUTION_HAAR,
    TWO_INVOLUTIONS,
    AlgebraElement,
    collect,
    dict_add,
    dict_multiply,
    ell,
    ell_bar,
    evaluate_word,
    exact_commutator,
    haar_generator,
    order_two_unitary,
    toeplitz_multiply,
    traced_peak,
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
    return collect(_encode(words), coeffs, np.array(parities, dtype=np.int8))


ONE = element(((), [[1]], (0, 0)))


def same(a, b):
    """Equal elements: the same words, coefficients and parities once collected."""
    a, b = collect(a.rows, a.coeffs, a.parity), collect(b.rows, b.coeffs, b.parity)
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


def as_dict(a):
    """A ``PolyElement`` with no repeated word as a {word: (grid, parity)} element."""
    return {w: (g, tuple(p)) for w, g, p in zip(a.words, a.coeffs.astype(object), a.parity.tolist())}


def canonical(elem):
    """{word: (trimmed grid, parity)} of a dict element or a ``PolyElement``."""
    if isinstance(elem, PolyElement):
        elem = as_dict(elem)
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


def scaled_to_the_edge(pair):
    """The largest integer scale of both elements of ``pair`` at which
    ``multiply``'s int64 guard still passes, as in the test above; None if
    either is zero."""
    (a, shape_a), (b, shape_b) = pair
    largest = math.prod(max((abs(c) for g, _ in e.values() for c in g.flat), default=0) for e in (a, b))
    if not largest:
        return None
    terms = min(shape_a[0], shape_b[0]) * min(shape_a[1], shape_b[1]) * 4 * len(a) * len(b)
    return math.isqrt(_INT64_MAX // (largest * terms))


#: block byte targets under which every product crosses several blocks: one
#: wide word a block, and blocks whose last one is ragged (X c_3* below, 800
#: bytes a wide word, in 81-word blocks, the last of 23 words)
SMALL_BLOCKS = (1, 2**12 + 1, 2**16 + 1)


@given(dict_pairs())
@example([({}, (1, 1)), ({(): (np.ones((2, 1), dtype=object), (0, 0))}, (2, 1))])  # empty support
@example([({X: (np.ones((1, 2), dtype=object), (1, 0))}, (1, 2)),  # one word each, 2 cells each
          ({Y: (np.ones((2, 1), dtype=object), (1, 0))}, (2, 1))])
@example([({X: (np.zeros((1, 1), dtype=object), (0, 0))}, (1, 1)),  # a zero polynomial, met once
          ({(): (np.ones((1, 1), dtype=object), (0, 0)), Y: (np.ones((1, 1), dtype=object), (0, 0))},
           (1, 1))])
def test_multiply_matches_toeplitz_oracle(pair):
    # the blocked product oriented by degree cells gives what the tall-major
    # Toeplitz product over the whole pair grid gave, down to the dtypes, in
    # either operand order, at the default block size and at small ones; at
    # the int64 edge too, and one step past it both raise
    (a, shape_a), (b, shape_b) = pair
    for scale in (1, scaled_to_the_edge(pair)):
        if scale is None:
            return
        x, y = as_poly(a, shape_a, scale), as_poly(b, shape_b, scale)
        for p, q in ((x, y), (y, x)):
            assert all(exactly(got, toeplitz_multiply(p, q)) for got in blocked_products(p, q))
    for product_of in (multiply, toeplitz_multiply):
        with pytest.raises(OverflowError):
            product_of(as_poly(a, shape_a, scale + 1), as_poly(b, shape_b, scale + 1))


def blocked_products(p, q):
    """p q at the default block size and at each of ``SMALL_BLOCKS``."""
    default = algebra._BLOCK_BYTES
    try:
        for block_bytes in (default, *SMALL_BLOCKS):
            algebra._BLOCK_BYTES = block_bytes
            yield multiply(p, q)
    finally:
        algebra._BLOCK_BYTES = default


def outer_factor():
    """w_3, c_3 and (alpha + w_3 (gamma y) w_3*), whose product with c_3* is
    X c_3*, the largest product of the w_4 build: 16,385 words of 22
    alpha-degree cells by c_3*'s 2 words of 2."""
    traces = _ExactTraces()
    traces[3]
    w, c = traces.word, unitary((1, 3, 0, 1, 1, -3))
    alpha, gamma_y = (PolyElement(c.rows[[r]], _trim(c.coeffs[[r]]), c.parity[[r]]) for r in (0, 1))
    return w, c, add(alpha, multiply(multiply(w, gamma_y), star(w)))


def test_multiply_matches_toeplitz_oracle_on_decay_shapes():
    # many words by two: (alpha + w_3 (gamma y) w_3*) c_3*; w_3 w_3*, equal
    # cell counts; u v, 2 cells each in different variables; and the empty
    # element; at the default block size and at small ones
    w, c, outer = outer_factor()
    assert outer.coeffs.shape[1:] == (22, 1) and c.coeffs.shape[1:] == (2, 1)
    u, v = free_pair()
    zero = add(u, negated(u))
    assert zero.support_size == 0
    for p, q in ((outer, star(c)), (star(c), outer), (w, star(w)), (u, v), (v, u),
                 (zero, u), (u, zero), (zero, zero), (multiply(u, v), ONE)):
        assert all(exactly(got, toeplitz_multiply(p, q)) for got in blocked_products(p, q))


def exactly(a, b):
    """The same rows, coefficients and parities, as stored."""
    return all(np.array_equal(p, q) and p.dtype == q.dtype for p, q in
               ((a.rows, b.rows), (a.coeffs, b.coeffs), (a.parity, b.parity)))


def negated(a):
    return PolyElement(a.rows, -a.coeffs, a.parity)


def matches_dict_add(x, y):
    """add(x, y) is collected, and its sums are those of ``dict_add``."""
    got = add(x, y)
    return (exactly(got, collect(got.rows, got.coeffs, got.parity))
            and canonical(got) == canonical(dict_add(as_dict(x), as_dict(y))))


@given(elements, elements)
def test_add_matches_dict_reference(a, b):
    # collected operands; star's reversed words are out of order, and a sum
    # with its own negation cancels every word
    for x, y in ((a, b), (b, a), (star(a), b), (a, star(b)), (a, negated(a)),
                 (add(a, b), negated(b)), (a, ONE)):
        assert matches_dict_add(x, y)


@given(dict_pairs())
def test_add_matches_dict_reference_on_unsorted_supports(pair):
    # hand-built supports: any word order, zero coefficients left in
    (a, shape_a), (b, shape_b) = pair
    x, y = as_poly(a, shape_a), as_poly(b, shape_b)
    assert matches_dict_add(x, y)
    assert matches_dict_add(y, y)


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


def word_parity(word, images):
    """The image of a flat word of C2 * Z under the homomorphism to (Z/2)^2
    that sends x and v to ``images``, as in ``dict_pairs``."""
    (x_to, v_to), xs = images, word[0::2].count(0)
    vs = sum(v for f, v in zip(word[0::2], word[1::2]) if f == 1)
    return tuple((xs * x_to[t] + vs * v_to[t]) % 2 for t in (0, 1))


@st.composite
def collect_inputs(draw):
    """Rows, coefficients and parities for ``collect``, and a permutation of
    the rows: words of C2 * Z with repeats, coefficients in -2..2 so that
    zero grids and sums that vanish occur, parities a function of the word."""
    images = draw(st.tuples(*[st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])] * 2))
    words = draw(st.lists(normal_words(3, INVOLUTION_HAAR), min_size=1, max_size=6))
    words += draw(st.lists(st.sampled_from(words), max_size=6))
    shape = (len(words), *draw(st.tuples(st.integers(1, 3), st.integers(1, 3))))
    cells = draw(st.lists(st.integers(-2, 2), min_size=math.prod(shape), max_size=math.prod(shape)))
    parity = np.array([word_parity(w, images) for w in words], dtype=np.int8)
    perm = np.array(draw(st.permutations(range(len(words)))), dtype=np.intp)
    return words, np.array(cells, dtype=np.int64).reshape(shape), parity, perm


@given(collect_inputs())
def test_collect_is_independent_of_row_order(inputs):
    # any order of the rows collects to the same element: the sums of equal
    # words in Python integers, the zero ones dropped
    words, coeffs, parity, perm = inputs
    rows = _encode(words)
    got = collect(rows, coeffs, parity)
    assert exactly(collect(rows[perm], coeffs[perm], parity[perm]), got)
    sums = {}
    for w, g, p in zip(words, coeffs.astype(object), map(tuple, parity.tolist())):
        sums[w] = (sums[w][0] + g if w in sums else g, p)
    assert canonical(got) == canonical({w: gp for w, gp in sums.items() if gp[0].any()})
    # a repeated word whose copies disagree in parity raises in any order
    repeated = [k for k, w in enumerate(words) if words.index(w) != k]
    if repeated:
        parity[repeated[0]] ^= 1
        with pytest.raises(ArithmeticError):
            collect(rows[perm], coeffs[perm], parity[perm])


def test_lookup_is_independent_of_support_order():
    # a shuffled support resolves every query to the same word as its
    # sorted form: the words themselves, their adjoints, words absent from
    # the support, longer than all of its words, and the empty word
    traces = _ExactTraces()
    traces[3]
    w = traces.word
    perm = np.random.default_rng(7).permutation(w.support_size)
    shuffled = PolyElement(w.rows[perm], w.coeffs[perm], w.parity[perm])
    queries = (w.rows, star(w).rows, _encode([(), X, (1, 5), Y + X + Y + X + Y + X + Y + X]))
    for got, expected in zip(_lookup(shuffled, *queries), _lookup(w, *queries)):
        assert np.array_equal(np.where(got >= 0, perm[got], -1), expected)
    assert _lookup(w, w.rows)[0].tolist() == list(range(w.support_size))


def test_multiply_rejects_parity_mismatch():
    # (1 + x)(1 + x) meets x twice, as 1 x and as x 1: with one parity for x
    # it sums them, and with two the parity would no longer be a function of
    # the word
    def one_plus_x(parity):
        return PolyElement(_encode([(), X]), np.ones((2, 1, 1), dtype=np.int64),
                           np.array([[0, 0], parity], dtype=np.int8))

    # 2 gamma_beta at x, and gamma_beta^2 = beta^2 - 1 at the empty word
    square = multiply(one_plus_x([0, 1]), one_plus_x([0, 1]))
    assert square.words == [X, ()] and square.coeffs.tolist() == [[[2, 0, 0]], [[0, 0, 1]]]
    with pytest.raises(ArithmeticError):
        multiply(one_plus_x([0, 1]), one_plus_x([1, 0]))


def test_multiply_refuses_a_grid_over_its_budget(monkeypatch):
    # u v: 2 by 2 words, 2 narrow cells, 2 x 2 cells out (32 bytes a
    # polynomial), rows 2 and 4 codes wide.  A pair counts its sum and
    # 3 x 2 + 4 row bytes and 96 index bytes, 138 bytes, and one block of
    # both wide words 2 shifts and 2 products each: 4 x 138 + 4 x 2 x 32
    # = 808 bytes; one byte less refuses
    u, v = free_pair()
    monkeypatch.setattr(algebra, "_GRID_BUDGET", 808)
    assert trace(multiply(u, v)) == PRODUCT_RULE
    monkeypatch.setattr(algebra, "_GRID_BUDGET", 807)
    with pytest.raises(MemoryError, match="4 word pairs need 808 bytes"):
        multiply(u, v)


def test_exact_rows_fit_the_grid_budget(monkeypatch):
    # the largest product of the exact rows, X c_3* in the w_4 build (16,385
    # by 2 words, 2 narrow cells, 25 out: 200 bytes a polynomial; rows 42
    # and 4 codes wide), counts 32,770 pairs of 200 + 3 x 42 + 4 + 96 = 426
    # bytes and 655 wide words a block of 4 polynomials each,
    # 32,770 x 426 + 2,620 x 200 = 14,484,020 bytes: the default budget
    # holds it many times over, and a budget one byte smaller refuses it
    assert algebra._GRID_BUDGET > 64 * 14_484_020
    monkeypatch.setattr(algebra, "_GRID_BUDGET", 14_484_020)
    assert _ExactTraces()[5]
    monkeypatch.setattr(algebra, "_GRID_BUDGET", 14_484_019)
    with pytest.raises(MemoryError, match="32770 word pairs need 14484020 bytes"):
        _ExactTraces()[4]


def test_budget_counts_the_rows_before_spelling_them(monkeypatch):
    # X c_3*'s sums and block alone take 7,078,000 bytes: a budget there,
    # below the 14,484,020 the rows add, refuses before any row is spelled
    _, c, outer = outer_factor()

    def no_rows(*args):
        raise AssertionError("rows spelled over the budget")

    monkeypatch.setattr(algebra, "_GRID_BUDGET", 7_078_000)
    monkeypatch.setattr(algebra, "_row_products", no_rows)
    with pytest.raises(MemoryError, match="32770 word pairs need 14484020 bytes"):
        multiply(outer, star(c))


def _counted_bytes(monkeypatch, a, b):
    """The bytes ``multiply(a, b)`` counts against its budget, read off its refusal."""
    with monkeypatch.context() as patch, pytest.raises(MemoryError) as exc:
        patch.setattr(algebra, "_GRID_BUDGET", 0)
        multiply(a, b)
    return int(re.search(r"need (\d+) bytes", str(exc.value)).group(1))


def test_budget_count_covers_the_traced_peak(monkeypatch):
    # many words by two, equal words with and without cancellation: the
    # budget counts at least the peak that tracemalloc sees
    w, c, outer = outer_factor()
    for a, b in ((outer, star(c)), (w, star(w)), (w, w)):
        assert traced_peak(multiply, a, b) <= _counted_bytes(monkeypatch, a, b)


def test_product_scratch_is_below_the_pair_grid():
    # X c_3* in the w_4 build: its 32,768 words of 25 cells are 6.25 MiB of
    # sums; the whole int64 pair grid, its shifts and a sorted copy of it
    # took 18.6 MiB of traced scratch, the blocked product takes under 11
    _, c, outer = outer_factor()
    assert traced_peak(multiply, outer, star(c)) < 11 * 2**20


def test_int64_guards_see_minus_two_to_the_63():
    # |-2^63| = 2^63 is one past int64, so both guards refuse it: a sum
    # with -1, and a product with 2
    low = element((Y, [[-(2**63)]], (0, 1)))
    with pytest.raises(OverflowError):
        add(low, element((Y, [[-1]], (0, 1))))
    with pytest.raises(OverflowError):
        multiply(low, element(((), [[2]], (0, 0))))


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


def test_unitary_commutator_matches_product_chain():
    # the conjugation form (t + w (c - t) w*) c* against the three plain
    # products ((w c) w*) c*, word for word, on words in alpha and beta:
    # u v u* v*, which verify-identity reads, then u* and v, then v and u
    u, v = free_pair()
    for w, c in ((u, v), (star(u), v), (v, u)):
        got, expected = unitary_commutator(w, c), exact_commutator(w, c)
        assert got.parity.any(axis=0).all()  # odd in both variables
        for p, q in ((got.rows, expected.rows), (got.coeffs, expected.coeffs),
                     (got.parity, expected.parity)):
            assert p.dtype == q.dtype and np.array_equal(p, q)


def test_free_pair_traces_check_the_premise(monkeypatch):
    # the conjugation form needs u u* = 1, checked word by word: a doubled
    # u fails it.  The traces are cached per process, so the cache is cleared
    u, v = free_pair()
    monkeypatch.setattr(algebra, "free_pair", lambda: (add(u, u), v))
    algebra._free_pair_traces.cache_clear()
    with pytest.raises(ArithmeticError, match=r"u u\* != 1"):
        algebra._free_pair_traces()


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
