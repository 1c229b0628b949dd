import functools
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from freecomm import dynamics
from freecomm.algebra import (
    PolyElement,
    _decode,
    _encode,
    _row_products,
    add,
    multiply,
    star,
    trace,
)
from freecomm.dynamics import (
    _ExactTraces,
    _linear,
    _sum_of_products,
    decay_curve_exact,
    decay_curve_matrix,
    find_small_element,
    iter_exact_steps,
    paired_trace,
    trace_recursion,
    w_sequence,
)
from freecomm.matrices import (
    Reflection,
    as_array,
    sample_cue,
    sample_haar,
    subseed,
    unitary_with_trace,
)

import oracles
from oracles import (
    DEFAULT_SUPPORT_CAP,
    INVOLUTION_HAAR,
    AlgebraElement,
    SupportCapExceeded,
    commutator_element,
    dense_decay_curve,
    exact_commutator,
    eye_factor_lengths,
    integer_recursion_polynomials,
    norm2,
    order_two_unitary,
    poly_element_at,
)

ALPHAS = (0.76, 0.8, 0.9, 0.95)
#: the float engine and the polynomial route are compared here
CROSS_ALPHAS = (0.9, -0.42, 0.3, -0.3, 0.76)


@functools.cache
def _exact_words():
    """w_1 .. w_4 as ``_ExactTraces`` builds them, stepped one row at a time."""
    traces, words = _ExactTraces(), []
    for n in range(1, 5):
        traces[n]
        words.append(traces.word)
    return words


def _grid(poly):
    """An integer coefficient list of alpha as a ``trace`` grid."""
    return tuple((c,) for c in poly)


def _recursion_oracle(alpha, n):
    # scalar recursion written out independently of the library
    tau = alpha
    out = [tau]
    for _ in range(n - 1):
        tau = 1.0 - (1.0 - tau * tau) * (1.0 - alpha * alpha)
        out.append(tau)
    return out


def test_trace_recursion_matches_oracle():
    for alpha in ALPHAS:
        assert np.allclose(trace_recursion(alpha, 6), _recursion_oracle(alpha, 6), atol=0)


def test_exact_supports_square_each_step():
    assert [w.support_size for w in _exact_words()] == [2, 8, 128, 32768]


def test_trace_polynomials_equal_recursion_polynomials():
    # the whole identity, for every alpha at once: integer coefficient grids
    traces = _ExactTraces()
    polys = integer_recursion_polynomials(5)
    assert [traces[n] for n in range(1, 6)] == [_grid(p) for p in polys]
    assert [len(p) - 1 for p in polys] == [1, 4, 10, 22, 46]


def test_exact_traces_build_only_the_rows_asked_for():
    # a short curve builds only its own words, and keeps only the last one
    traces = _ExactTraces()
    assert traces[2] == _grid(integer_recursion_polynomials(2)[1])
    assert len(traces.taus) == 2 and traces.word.support_size == 8
    assert traces[4] and traces.word.support_size == 32768
    assert traces[5] == _grid(integer_recursion_polynomials(5)[4])
    assert traces.word is None


def test_next_word_matches_product_chain():
    # the conjugation form (alpha + w (gamma y) w*) c* against the three
    # plain products ((w c) w*) c*, word for word: w_2, w_3 and w_4
    words = _exact_words()
    for k in (1, 2, 3):
        got, expected = words[k], exact_commutator(words[k - 1], _linear(k))
        for p, q in ((got.rows, expected.rows), (got.coeffs, expected.coeffs),
                     (got.parity, expected.parity)):
            assert p.dtype == q.dtype and np.array_equal(p, q), k


def test_next_word_rejects_non_unitary(monkeypatch):
    # the conjugation form needs w w* = 1, checked word by word: with the
    # Parseval check passed over, a w_2 formed from 2u still fails it
    monkeypatch.setattr(dynamics, "_parseval", lambda w: ((1,),))
    traces = _ExactTraces()
    traces[1]
    traces.word = add(traces.word, traces.word)
    with pytest.raises(ArithmeticError, match="not unitary"):
        traces[2]


def test_next_word_rejects_parseval_violation():
    # every w_n must have tau(w* w) = 1: a w_2 formed from 2u fails that
    # check before the word-by-word one
    traces = _ExactTraces()
    traces[1]
    traces.word = add(traces.word, traces.word)
    with pytest.raises(ArithmeticError, match="Parseval"):
        traces[2]


def test_next_word_pair_count(monkeypatch):
    # w_4 from w_3 takes |w| + |w|^2 + 2 (|w|^2 + 1) pairs; the plain
    # chain took 2|w| + 2|w|^2 + 2 (|w|^2 + 1) = 65794.  w_4 w_4* = 1 is
    # not checked word by word, and Parseval's sum multiplies no words.
    traces = _ExactTraces()
    traces[3]
    pairs = []

    def counting(a, b):
        pairs.append(a.support_size * b.support_size)
        return multiply(a, b)

    monkeypatch.setattr(dynamics, "multiply", counting)
    traces[4]
    assert traces.word.support_size == 32768
    assert sum(pairs) <= 128 + 16384 + 32770


def test_pairing_matches_expansion():
    # <w c, c w> read off w_n alone equals the trace of the expanded
    # commutator [w_n, c_k].  k = n is the decay step, where only g = ()
    # pairs with y g y; k < n makes all three maps hit the support.
    for n, w in enumerate(_exact_words()[:3], 1):
        for k in range(n + 1):
            assert paired_trace(w, k) == trace(exact_commutator(w, _linear(k))), (n, k)


def _float_route(alpha):
    """w_1 .. w_3 on the float engine, w_{k+1} = [w_k, v^k u v^-k], and the
    trace of w_4 = (w_3 c w_3*) c*, summed without forming the last product."""
    amb = INVOLUTION_HAAR
    beta = 1j * math.sqrt(1.0 - alpha * alpha)

    def conjugate(k):
        return AlgebraElement(amb, {(): alpha, amb.word([(1, k), (0, 1), (1, -k)]): beta})

    words = [order_two_unitary(amb, alpha, 0)]
    for k in (1, 2):
        words.append(commutator_element(words[-1], conjugate(k)))
    c = conjugate(3)
    wcw = oracles.multiply(oracles.multiply(words[-1], c), oracles.star(words[-1]))
    # tau(a b) = sum_h a(h^-1) b(h)
    tau4 = sum(wcw.coefficient(amb.inverse_word(h)) * b
               for h, b in oracles.star(c).items_sorted())
    return words, tau4


def test_float_engine_agrees_with_polynomial_route():
    polys = _exact_words()
    for alpha in CROSS_ALPHAS:
        words, tau4 = _float_route(alpha)
        for poly, w in zip(polys, words):
            at = poly_element_at(poly, alpha)
            assert at.support_size == w.support_size, (alpha, w.support_size)
            assert norm2(at - w) <= 1e-12, alpha
        exact = [c for c, in trace(polys[3])]
        assert abs(sum(c * alpha**k for k, c in enumerate(exact)) - tau4) <= 1e-12, alpha


def test_exact_rows_are_rounded_once():
    # each exact row is the recursion evaluated in rationals, rounded once
    for alpha in CROSS_ALPHAS:
        a = Fraction(alpha)
        tau = a
        for step in decay_curve_exact(alpha, 5).steps:
            assert step.trace == float(tau), (alpha, step.n)
            assert step.ell == math.sqrt(float(2 - 2 * tau)), (alpha, step.n)
            assert step.ell_bar == math.sqrt(float(2 - 2 * abs(tau))), (alpha, step.n)
            tau = 1 - (1 - tau * tau) * (1 - a * a)


def test_poly_overflow_is_loud():
    big = PolyElement(_encode([()]), np.array([[[2**40]]], dtype=np.int64),
                      np.zeros((1, 2), dtype=np.int8))
    with pytest.raises(OverflowError):
        multiply(big, big)


def test_float_pairing_overflow_is_loud():
    # sum_i p_i q_i runs in float64, exact while max|p| max|q| rows < 2^53
    p = np.array([[2**26], [1]], dtype=np.int64)
    assert _sum_of_products(p, np.array([[2**26 - 1], [1]])).tolist() == [2**52 - 2**26 + 1]
    with pytest.raises(OverflowError):
        _sum_of_products(p, np.array([[2**26], [1]]))


def test_exponent_outside_int8_is_loud():
    # v^k is one int8 code, and -128 ends a row: no exponent may wrap into it
    for k in (128, -128, 300):
        with pytest.raises(OverflowError):
            _encode([(1, k)])
    assert _decode(_encode([(1, 127), (1, -127)])) == [(1, 127), (1, -127)]
    one = np.array([[[1]]], dtype=np.int64)
    big = PolyElement(_encode([(1, 100)]), one, np.zeros((1, 2), dtype=np.int8))
    with pytest.raises(OverflowError):
        multiply(big, big)  # v^100 v^100 = v^200
    assert multiply(big, star(big)).is_one()


@st.composite
def c2z_words(draw, max_syllables=6):
    """Normal-form words of C2 * Z: x and v^k alternate, 0 < |k| <= 3."""
    x_first = draw(st.booleans())
    word = ()
    for s in range(draw(st.integers(0, max_syllables))):
        if (s % 2 == 0) == x_first:
            word += (0, 1)
        else:
            word += (1, draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    return word


@given(st.lists(c2z_words(), min_size=1, max_size=5), st.lists(c2z_words(), max_size=4),
       st.integers(0, 6))
@example([()], [], 0)  # empty times empty
@example([(0, 1, 1, 2, 0, 1)], [], 0)  # g g^-1 cancels fully through x x and v^2 v^-2
@example([(1, 2, 0, 1, 1, 1)], [(1, 2, 0, 1)], 0)  # v^1 v^2 merges into v^3
@example([(0, 1, 1, -1)], [(1, 3)], 0)  # v^-1 v^3 merges into v^2
def test_row_products_and_star_match_the_tuple_engine(left, extra, cut):
    # the int8 batch product and adjoint agree word for word with
    # FreeProductGroup.concat and inverse_word, the reference engine; the
    # right factors cancel into the left ones fully (inverses) or for a
    # cascade of `cut` syllables before going on with a word of `extra`
    amb = INVOLUTION_HAAR
    right = [()] + [amb.inverse_word(w) for w in left] + extra
    right += [amb.concat(amb.inverse_word(w[max(len(w) - 2 * cut, 0):]), e)
              for w in left for e in extra]
    i = np.repeat(np.arange(len(left)), len(right))
    j = np.tile(np.arange(len(right)), len(left))
    got = _decode(_row_products(_encode(left), _encode(right), i, j))
    assert got == [amb.concat(left[a], right[b]) for a, b in zip(i, j)]

    coeffs = np.arange(1, len(left) + 1, dtype=np.int64)[:, None, None]
    odd = [w[0::2].count(0) % 2 for w in left]
    parity = np.array([[p, 0] for p in odd], dtype=np.int8)
    adjoint = star(PolyElement(_encode(left), coeffs, parity))
    assert adjoint.words == [amb.inverse_word(w) for w in left]
    assert adjoint.coeffs[:, 0, 0].tolist() == [(-1) ** p * c for p, c in
                                                zip(odd, coeffs[:, 0, 0].tolist())]


def test_exact_trace_agrees_with_recursion():
    # the dual route: word-by-word expansion vs the scalar recursion
    for alpha in ALPHAS:
        report = decay_curve_exact(alpha, 4)
        for step in report.steps:
            assert step.source == "exact"
            assert abs(step.trace - step.recursion_trace) <= 1e-10


def test_decay_curve_values_alpha_09():
    report = decay_curve_exact(0.9, 2)
    s1, s2 = report.steps
    assert abs(s1.ell - math.sqrt(0.2)) <= 1e-12  # 0.44721
    tau2 = 1.0 - (1.0 - 0.81) ** 2  # 0.9639
    assert abs(s2.trace - tau2) <= 1e-12
    assert abs(s2.ell - math.sqrt(2 * (1 - tau2))) <= 1e-12  # 0.26870
    assert abs(s2.lower - 0.2 / math.sqrt(2)) <= 1e-12  # 0.14142
    assert abs(s2.upper - 0.2 * math.sqrt(2)) <= 1e-12  # 0.28284
    assert s2.in_bounds


def test_decay_curve_sources_and_flags():
    report = decay_curve_exact(0.9, 6)
    sources = [s.source for s in report.steps]
    assert sources == ["exact"] * 4 + ["exact_trace", "recursion"]
    assert report.all_in_bounds


def test_decay_curve_bound_chain():
    for alpha in ALPHAS:
        report = decay_curve_exact(alpha, 6)
        for s in report.steps:
            assert s.lower - 1e-10 <= s.ell <= s.upper + 1e-10


def test_decay_is_strictly_decreasing_above_threshold():
    for alpha in ALPHAS:
        ells = [s.ell for s in decay_curve_exact(alpha, 6).steps]
        assert all(b < a for a, b in zip(ells, ells[1:]))


def test_decay_curve_haar_trace_input():
    # alpha = 0 keeps every length at sqrt(2); the report still has rows
    report = decay_curve_exact(0.0, 3)
    assert len(report.steps) == 3
    for s in report.steps:
        assert abs(s.ell - math.sqrt(2)) <= 1e-12
        assert s.in_bounds


def test_decay_curve_validation():
    with pytest.raises(ValueError):
        decay_curve_exact(1.0, 3)
    with pytest.raises(ValueError):
        decay_curve_exact(0.9, 0)


def _close(value, exact, rel):
    return abs(Decimal(value) - exact) <= rel * exact


def test_long_curve_within_bounds_and_accurate():
    # recursion rows take ell from the gap 1 - tau, carried as a scaled
    # float, which keeps its relative accuracy after tau has rounded to 1
    # and below the least normal float: no slack on the bound chain, and
    # every length agrees with the gap recursion run in 60-digit decimals
    # down to the least normal float, below which it and the bounds read 0.
    # Both bounds agree with their 60-digit values wherever those lie in
    # the float range.
    with localcontext() as ctx:
        ctx.prec = 60
        r = Decimal(2).sqrt()
        least = Decimal(sys.float_info.min)
        for alpha in (0.75, 0.85, 0.9, 0.95, -0.42):
            a = Decimal(alpha)
            gap = 1 - a
            ell_u, ell_bar_u = (2 - 2 * a).sqrt(), (2 - 2 * abs(a)).sqrt()
            lower, upper = ell_bar_u, ell_u
            for s in decay_curve_exact(alpha, 2100).steps:
                assert s.lower <= s.ell <= s.upper and s.in_bounds, (alpha, s.n)
                exact = (2 * gap).sqrt()
                if exact >= least * (1 + Decimal("1e-12")) or s.ell:
                    assert _close(s.ell, exact, Decimal("1e-12")), (alpha, s.n)
                for value, bound in ((s.lower, lower), (s.upper, upper)):
                    if Decimal("1e-300") < bound < Decimal("1e300"):
                        assert _close(value, bound, Decimal("1e-11")), (alpha, s.n)
                    elif bound < least:
                        assert value == 0.0, (alpha, s.n)
                gap = gap * (2 - gap) * (1 - a * a)
                lower, upper = lower * ell_bar_u / r, upper * ell_u * r


def test_find_small_element_always_ends():
    # n = 57 has a word of 3 * 2^57 - 4 syllables, which is never built here
    assert find_small_element(0.9, 1e-12).n == 57
    # the least accepted epsilon: the first row whose length leaves the
    # normal floats (true length 2.2e-308 at n = 2405, 3.0e-308 at n = 2404)
    least = math.nextafter(sys.float_info.min, 1.0)
    assert find_small_element(0.85, least).n == 2405
    # below the accurate range every later row would read 0 alike
    with pytest.raises(ValueError):
        find_small_element(0.85, 1e-310)


def test_find_small_element_easy_cases():
    res = find_small_element(0.9, 0.5)
    assert res.n == 1 and res.word == w_sequence(1)
    res = find_small_element(0.76, 0.7)
    assert res.n == 1


def test_find_small_element_eps_tenth():
    res = find_small_element(0.9, 0.1)
    assert res.n == 5
    assert res.source == "exact_trace"
    assert res.word == w_sequence(5)
    taus = _recursion_oracle(0.9, 5)
    assert abs(res.ell - math.sqrt(2 - 2 * taus[-1])) <= 1e-12
    assert res.ell < 0.1
    # the step before sits just above the target
    assert math.sqrt(2 - 2 * taus[-2]) > 0.1


def test_find_small_element_reevaluates():
    res = find_small_element(0.9, 0.1)
    again = None
    for step in iter_exact_steps(0.9):
        if step.n == res.n:
            again = step
            break
    assert abs(again.ell - res.ell) <= 1e-10


def test_find_small_element_validation():
    with pytest.raises(ValueError):
        find_small_element(0.75, 0.1)
    with pytest.raises(ValueError):
        find_small_element(0.9, 0.0)


def test_matrix_curve_identity_partner():
    u, _ = unitary_with_trace(0.3, 32, 4)
    report = decay_curve_matrix(u, np.eye(32), 2)
    rows = dense_decay_curve(u.array, np.eye(32), 2)
    assert abs(report.steps[1].ell) <= 1e-10 and abs(rows[1][1]) <= 1e-10  # [U, U] = 1
    for step, (trace, ell, ell_bar) in zip(report.steps, rows):
        assert abs(step.trace - trace) <= 1e-13
        assert abs(step.ell - ell) <= 1e-13
        assert abs(step.ell_bar - ell_bar) <= 1e-13


def test_matrix_curve_single_row():
    u, _ = unitary_with_trace(0.3, 32, 4)
    v = sample_haar(32, 5)
    report = decay_curve_matrix(u, v, 1)
    assert len(report.steps) == 1
    [(trace, ell, ell_bar)] = dense_decay_curve(u.array, v.array, 1)
    step = report.steps[0]
    assert abs(step.trace - trace) <= 1e-13
    assert abs(step.ell - ell) <= 1e-13 and abs(step.ell_bar - ell_bar) <= 1e-13
    assert abs(step.ell - math.sqrt(2 - 2 * step.trace)) <= 1e-12


def test_matrix_curve_tracks_exact_recursion():
    u, _ = unitary_with_trace(0.9, 1000, subseed(42, 0))
    v = sample_haar(1000, subseed(42, 1))
    report = decay_curve_matrix(u, v, 4)
    exact = _recursion_oracle(0.9, 4)
    for step, tau in zip(report.steps, exact):
        assert step.in_bounds
        assert abs(step.ell - math.sqrt(2 - 2 * tau)) <= 0.05


def _matrix_pair(alpha, n, seed):
    u, _ = unitary_with_trace(alpha, n, subseed(seed, 0))
    return u, sample_haar(n, subseed(seed, 1))


@pytest.mark.parametrize("alpha", [0.9, 0.0, -0.9])
@pytest.mark.parametrize("dim", [64, 256])
def test_matrix_curve_matches_dense_oracle(alpha, dim):
    # the factor route against full N x N products, for the -1 eigenspace
    # (alpha > 0), the widest factor (k = N/2) and the +1 eigenspace with
    # sign -1 (alpha < 0)
    u, v = _matrix_pair(alpha, dim, 11)
    report = decay_curve_matrix(u, v, 4)
    rows = dense_decay_curve(u.array, v.array, 4)
    assert len(report.steps) == len(rows) == 4
    for step, (trace, ell, ell_bar) in zip(report.steps, rows):
        assert abs(step.trace - trace) <= 1e-13
        assert abs(step.ell - ell) <= 1e-13
        assert abs(step.ell_bar - ell_bar) <= 1e-13


def _bits(tau, ell, ell_bar):
    tau = complex(tau)
    return np.array([tau.real, tau.imag, ell, ell_bar]).tobytes(), type(tau)


@pytest.mark.parametrize("dim", [255, 256])
def test_factor_lengths_bitwise_match_eye_oracle(dim, monkeypatch):
    # the factor of u with sign 1 (alpha > 0) and sign -1 (alpha < 0), then
    # the 2k-wide factors of rows 2-4 of a decay curve
    for alpha in (0.8, -0.8):
        u, _ = unitary_with_trace(alpha, dim, subseed(17, dim))
        assert u.sign == (1 if alpha > 0 else -1)
        args = dynamics._factor(u)
        assert _bits(*dynamics._factor_lengths(*args)) == _bits(*eye_factor_lengths(*args))
    seen = []
    lengths = dynamics._factor_lengths

    def recorded(*args):
        seen.append(args)
        return lengths(*args)

    monkeypatch.setattr(dynamics, "_factor_lengths", recorded)
    decay_curve_matrix(u, sample_cue(dim, subseed(17, dim, 1)), 4)
    assert [b.shape[1] for _, b, _ in seen[1:]] == [2 * u.basis.shape[1]] * 3
    for args in seen:
        assert _bits(*lengths(*args)) == _bits(*eye_factor_lengths(*args))


@pytest.mark.parametrize("dim", [2, 63, 64])
def test_matrix_curve_with_cmv_partner_matches_dense_oracle(dim):
    # v as the CLI draws it, a CMV matrix applied to the N x k factor
    # through its 2 x 2 blocks, against full products with its dense form;
    # odd N ends in a lone last block
    u, _ = unitary_with_trace(0.5, dim, subseed(13, 0))
    v = sample_cue(dim, subseed(13, 1))
    report = decay_curve_matrix(u, v, 4)
    rows = dense_decay_curve(u.array, as_array(v), 4)
    assert len(report.steps) == len(rows) == 4
    for step, (trace, ell, ell_bar) in zip(report.steps, rows):
        assert abs(step.trace - trace) <= 1e-13
        assert abs(step.ell - ell) <= 1e-13
        assert abs(step.ell_bar - ell_bar) <= 1e-13


def test_matrix_curve_long_run_keeps_relative_accuracy():
    # ell falls to ~1e-3 by n = 12; the lengths of the factor route keep
    # their relative accuracy against the dense products there
    u, v = _matrix_pair(0.9, 256, 11)
    report = decay_curve_matrix(u, v, 12)
    rows = dense_decay_curve(u.array, v.array, 12)
    assert rows[-1][1] < 1e-2
    for step, (_, ell, _) in zip(report.steps, rows):
        assert abs(step.ell - ell) <= 1e-12 * ell


def test_matrix_curve_empty_factor_is_identity():
    # m_plus rounds to N (u = I) or to 0 (u = -I): every word from n = 2
    # on is I
    v = sample_haar(2, subseed(3, 1))
    for alpha, row_one in ((0.9, (1.0, 0.0, 0.0)), (-0.9, (-1.0, 2.0, 0.0))):
        u, realized = unitary_with_trace(alpha, 2, subseed(3, 0))
        assert realized == row_one[0] and u.basis.shape == (2, 0)
        report = decay_curve_matrix(u, v, 3)
        rows = [(s.trace, s.ell, s.ell_bar) for s in report.steps]
        assert rows == [row_one] + [(1.0, 0.0, 0.0)] * 2


def test_matrix_curve_sign_drops_out_from_row_two():
    # w_n(u, v) = w_n(-u, v) for n >= 2; row 1 sees the sign
    u, v = _matrix_pair(0.5, 64, 12)
    minus = Reflection(u.basis, -u.sign)
    a, b = decay_curve_matrix(u, v, 4), decay_curve_matrix(minus, v, 4)
    assert abs(a.steps[0].trace + b.steps[0].trace) <= 1e-15
    for sa, sb in zip(a.steps[1:], b.steps[1:]):
        assert (sa.trace, sa.ell, sa.ell_bar) == (sb.trace, sb.ell, sb.ell_bar)


def test_matrix_curve_dimension_mismatch():
    with pytest.raises(ValueError):
        decay_curve_matrix(unitary_with_trace(0.5, 8, 0)[0], sample_haar(4, 0), 2)
    with pytest.raises(ValueError):
        decay_curve_matrix(unitary_with_trace(0.5, 4, 0)[0], sample_haar(8, 0), 2)
    with pytest.raises(ValueError):
        decay_curve_matrix(unitary_with_trace(0.5, 4, 0)[0], sample_cue(8, 0), 2)


def test_matrix_curve_needs_a_reflection():
    # a dense u has no low-rank factor; the route takes Reflections only
    with pytest.raises(TypeError):
        decay_curve_matrix(sample_haar(4, 0), sample_haar(4, 1), 2)


def test_reports_serialize_deterministically():
    from freecomm.reporting import canonical_json_bytes

    a = decay_curve_exact(0.9, 4)
    b = decay_curve_exact(0.9, 4)
    assert canonical_json_bytes(a.to_json_dict()) == canonical_json_bytes(b.to_json_dict())
    assert a.to_csv_text() == b.to_csv_text()
    header = a.to_csv_text().splitlines()[0]
    assert header == "n,ell,ell_bar,lower,upper,in_bounds,source"


def test_multiply_cap_error_is_loud():
    # w_4 at alpha = 0.9 on the float engine: w_4 w_4* needs 32768^2 pairs,
    # past the fixed cap; the float engine refuses instead of truncating
    w4 = poly_element_at(_exact_words()[3], 0.9)
    assert w4.support_size == 32768
    with pytest.raises(SupportCapExceeded) as err:
        oracles.multiply(w4, oracles.star(w4))
    assert err.value.needed == 32768**2
    assert err.value.cap == DEFAULT_SUPPORT_CAP
