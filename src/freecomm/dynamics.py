"""Decay of the nested-commutator words w_n(u, v).

Two evaluation routes are kept deliberately separate:

* the exact route works in the group algebra of C2 * Z
  (``algebra.PolyElement``, with alpha its only trace variable), where
  u = alpha + gamma x with gamma = i sqrt(1 - alpha^2) and v is the cyclic
  generator (a Haar unitary of the algebra).  Every coefficient of w_n is
  gamma^(x-count mod 2) times an integer polynomial in alpha, so w_1 .. w_4
  are expanded word by word at most once per process, for every alpha at
  once, and only as far as the rows asked for need; their traces are read
  off the identity coefficient.  With c_n = alpha + gamma y_n and
  w_n w_n* = 1 checked word by word, w_{n+1} = (alpha + w_n (gamma y_n)
  w_n*) c_n*.  tau_5 is the pairing <w_4 c_4, c_4 w_4> of w_4 with
  itself; w_5 is never formed.  Each row is evaluated in rational
  arithmetic at alpha and rounded once.  Products and adjoints are
  ``algebra.multiply`` and ``algebra.star``, on int8 word rows a whole
  support at a time; the pairings are float64 GEMMs, exact below 2^53 and
  checked to stay there;
* the scalar recursion tau_{n+1} = 1 - (1 - tau_n^2)(1 - alpha^2)
  predicts the same traces from freeness.

Agreement of the two routes is the point.  Exact supports square at every
step (2, 8, 128, 32768, ~2.1e9), so rows n <= 4 are ``source="exact"``,
row 5 is ``source="exact_trace"``, and later rows come from the recursion
and are flagged ``source="recursion"``.  A recursion row carries the gap
1 - tau_n alongside tau_n, so its lengths do not cancel as tau_n nears 1.

The matrix route (``decay_curve_matrix``, ``source="matrix"``) checks the
same curve at finite N.  u = sign (I - 2 Q Q*) comes as a ``Reflection``
with Q the N x k basis of its smaller eigenspace, so every w_n - I has
rank at most 2k and is carried as a factor B M B*, B of size N x 2k: a
row costs O(N^2 k), not N^3.  Trace, ell and ell_bar are read off
w_n - I = B M B*, multiplied out.  The CLI draws v as a CUE-law
``CMVMatrix``, applied to the factor in O(N k); u's ``Reflection`` carries
the Haar frame.  The dense loop it replaces is the tests' reference.
"""

from __future__ import annotations

import io
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .algebra import (
    _PAD,
    FreeProductGroup,
    Grid,
    PolyElement,
    Word,
    Z,
    _check_int64,
    _encode,
    _grid,
    _lengths,
    _lookup,
    _max_abs,
    _row_products,
    _trim,
    add,
    ell_bar_from_trace,
    ell_from_trace,
    evaluate,
    is_unitary,
    multiply,
    star,
    trace,
    unitary,
)
from .matrices import CMVMatrix, Reflection, as_array

#: slack for the exact-model bound chain
EXACT_SLACK = 1e-10

#: default slack envelope for finite-dimensional models
MATRIX_SLACK = 0.05

#: w_1 .. w_4 are expanded word by word; tau_5 is paired off w_4
EXPANDED_WORDS = 4

#: rows 1 .. 5 have exact trace polynomials
EXACT_ROWS = EXPANDED_WORDS + 1

#: float64 holds every integer below this exactly
_FLOAT_EXACT = 2**53


@dataclass(frozen=True)
class DecayStep:
    n: int
    ell: float
    ell_bar: float
    lower: float
    upper: float
    in_bounds: bool
    trace: float
    recursion_trace: float
    source: str  # "exact", "exact_trace", "recursion", or "matrix"


@dataclass
class DecayReport:
    model: str
    descriptor: dict
    slack: float
    ell_u: float
    ell_bar_u: float
    steps: list[DecayStep] = field(default_factory=list)

    @property
    def all_in_bounds(self) -> bool:
        return all(s.in_bounds for s in self.steps)

    def to_json_dict(self) -> dict:
        steps = [dict(vars(s)) for s in self.steps]
        return {**vars(self), "all_in_bounds": self.all_in_bounds, "steps": steps}

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("n,ell,ell_bar,lower,upper,in_bounds,source\n")
        for s in self.steps:
            buf.write(
                f"{s.n},{s.ell:.12g},{s.ell_bar:.12g},{s.lower:.12g},"
                f"{s.upper:.12g},{int(s.in_bounds)},{s.source}\n"
            )
        return buf.getvalue()


def _flush(x: float) -> float:
    """0 for a value below the least normal float, where it has lost relative accuracy."""
    return 0.0 if x < sys.float_info.min else x


def _recursion_traces(alpha: float) -> Iterator[tuple[float, float]]:
    """(tau_n, sqrt(2 (1 - tau_n))) for n = 1, 2, ... of the trace recursion, without end.

    The gap d = 1 - tau follows d_{n+1} = d_n (2 - d_n)(1 - alpha)(1 + alpha),
    carried as m 2^e (``math.frexp``), so it keeps its relative accuracy
    where tau has rounded to 1 and far below the least normal float.  The
    length is sqrt(2 m') 2^(e'/2) with e' even, flushed by ``_flush``.
    """
    t, (m, e) = float(alpha), math.frexp(1.0 - alpha)
    shrink = (1.0 - alpha) * (1.0 + alpha)
    while True:
        odd = e % 2  # 2 d = (2 m 2^odd) 2^(e - odd), an even power of 2
        yield t, _flush(math.ldexp(math.sqrt(2.0 * (m * 2**odd)), (e - odd) // 2))
        t = 1.0 - (1.0 - t * t) * (1.0 - alpha * alpha)
        m, shift = math.frexp(m * (2.0 - math.ldexp(m, e)) * shrink)
        e += shift


def trace_recursion(alpha: float, n_max: int) -> list[float]:
    """Predicted traces tau_1..tau_n of the commutator words."""
    return [t for t, _ in itertools.islice(_recursion_traces(alpha), max(n_max, 1))]


def _bounds(n: int, ell_u: float, ell_bar_u: float) -> tuple[float, float]:
    """(ell_bar_u / sqrt 2)^(n-1) ell_bar_u and (sqrt 2 ell_u)^(n-1) ell_u.

    The trailing factor is at most 2, so the power leaves the float range
    at most a factor 2 before the bound does.
    """
    r = math.sqrt(2.0)
    with np.errstate(over="ignore", under="ignore"):
        lower, upper = np.array([ell_bar_u / r, r * ell_u]) ** (n - 1) * (ell_bar_u, ell_u)
    return _flush(float(lower)), _flush(float(upper))


def _conjugate(k: int) -> tuple:
    """y = v^k x v^-k as a flat word of C2 * Z; k = 0 is x itself."""
    return (1, k, 0, 1, 1, -k) if k else (0, 1)


def _linear(k: int) -> PolyElement:
    """alpha + gamma v^k x v^-k: u itself for k = 0, else its conjugate c_k."""
    return unitary(_conjugate(k))


def _sum_of_products(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_i p_i * q_i over the rows, as one polynomial: its int64
    coefficients of alpha, len(p[0]) + len(q[0]) - 1 of them even for no rows.

    One float64 GEMM: every partial sum of the integer products is at most
    rows * max|p| * max|q| in size, so below 2^53 each is exact, whatever
    order BLAS sums in.
    """
    bound = _max_abs(p) * _max_abs(q) * len(p)
    if bound >= _FLOAT_EXACT:
        raise OverflowError(f"a float64 pairing may round (bound {bound} >= 2^53)")
    m = (p.T.astype(np.float64) @ q.astype(np.float64)).astype(np.int64)  # alpha^(d + e)
    _check_int64(bound, min(m.shape))  # each entry of out sums at most min(m.shape) of m's
    out = np.zeros(p.shape[1] + q.shape[1] - 1, dtype=np.int64)
    np.add.at(out, np.add.outer(np.arange(p.shape[1]), np.arange(q.shape[1])), m)
    return out


def _pairing(w: PolyElement, images: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum of weight * P_g P_image(g) over the maps, one row of ``images``
    each (-1 where a word's image is not in the support), and over the even
    and the odd words g, as int64 coefficients of alpha.  ``weights[map,
    parity]`` holds a fixed polynomial in alpha, lowest degree first.  The
    decay words carry alpha alone: their beta degree and parity are 0.
    """
    parity, coeffs = w.parity[:, 0], w.coeffs[:, :, 0]
    sums = [_sum_of_products(coeffs[rows], coeffs[image[rows]])
            for image in images for rows in ((image >= 0) & (parity == p) for p in (0, 1))]
    # an entry sums one product per weight coefficient and sum
    _check_int64(max(map(_max_abs, sums)), _max_abs(weights), weights.size)
    return sum(np.convolve(weight, s) for weight, s in zip(weights.reshape(len(sums), -1), sums))


#: <w, w> = E + (1 - alpha^2) O, with |gamma|^2 = 1 - alpha^2 on the odd words
_PARSEVAL_WEIGHTS = np.array([[[1, 0, 0], [1, 0, -1]]])

#: alpha (1 - alpha^2) (S(y g) - S(g y)) with S = O - E, and (1 - alpha^2)
#: T(y g y) with T = E + (1 - alpha^2) O (see ``paired_trace``)
_PAIRED_WEIGHTS = np.array([
    [[0, -1, 0, 1, 0], [0, 1, 0, -1, 0]],  # y g
    [[0, 1, 0, -1, 0], [0, -1, 0, 1, 0]],  # g y
    [[1, 0, -1, 0, 0], [1, 0, -2, 0, 1]],  # y g y
])


def _parseval(w: PolyElement) -> Grid:
    """tau(w* w) = sum over words of |gamma|^(2 parity) P^2."""
    return _grid(_pairing(w, np.arange(w.support_size)[None], _PARSEVAL_WEIGHTS)[:, None])


def paired_trace(w: PolyElement, k: int) -> Grid:
    """tau(w c w* c*) with c = alpha + gamma y, y = v^k x v^-k, as <w c, c w>,
    for a w with <w, w> = tau(w* w) = 1, as ``_parseval`` checks.

    Neither w c nor c w is formed: (w c)(g) = alpha w(g) + gamma w(g y) and
    (c w)(g) = alpha w(g) + gamma w(y g), so, with conj(gamma) = -gamma,

        <w c, c w> = alpha^2 <w, w> + alpha (1 - alpha^2) (S(y g) - S(g y))
                     + (1 - alpha^2) T(y g y),

    sums over the words g of w whose image under the map lies in w's support.
    y g and g y flip the parity p of g, so w(g) conj(w(image)) carries one
    gamma and the sign (-1)^(1 - p): S = odd - even.  y g y keeps the
    parity: T = even + (1 - alpha^2) odd, as in <w, w>.
    """
    y = _encode([_conjugate(k)])
    if k > int(np.abs(w.rows, dtype=np.int16).max(where=w.rows != _PAD, initial=0)):
        # y's outer syllables v^k and v^-k lie outside the support, so no
        # word keeping one lies in it.  No g holds v^k or v^-k to cancel
        # them: y g keeps the v^k, g y the v^-k, and y g y both unless g
        # has at most one syllable.  Only those g are looked up.
        rows = np.flatnonzero(_lengths(w.rows) <= 1)
    else:
        rows = np.arange(w.support_size)
    once = np.zeros_like(rows)
    yg = _row_products(y, w.rows, once, rows)
    gy = _row_products(w.rows, y, rows, once)
    ygy = _row_products(yg, y, np.arange(len(rows)), once)
    images = np.full((3, w.support_size), -1)
    images[:, rows] = _lookup(w, yg, gy, ygy)
    tau = _pairing(w, images, _PAIRED_WEIGHTS)
    tau[2] += 1  # alpha^2 <w, w>
    return _grid(tau[:, None])


def _commutator(w: PolyElement, k: int) -> PolyElement:
    """w c w* c* with c = c_k = alpha + gamma y, for a w with w w* = 1.

    Then w c w* = alpha w w* + w (gamma y) w* = alpha + w (gamma y) w*:
    |w| + |w|^2 pairs instead of the 2|w| + 2|w|^2 of (w c) w*.
    """
    c = _linear(k)
    alpha, gamma_y = (PolyElement(c.rows[[r]], _trim(c.coeffs[[r]]), c.parity[[r]]) for r in (0, 1))
    return multiply(add(alpha, multiply(multiply(w, gamma_y), star(w))), star(c))


class _ExactTraces:
    """tau_1 .. tau_5 as ``Grid``s in alpha, each built the first time a row
    asks for it; the one place that builds the words w_n(u, v).

    Only the traces and the last word still needed are kept.  tau_n for
    n <= 4 is read off w_n, which is checked exactly first: Parseval
    (tau(w* w) = 1 as a polynomial) for every w_n and w_n w_n* = 1 word by
    word for n <= 3, the identity that forms w_{n+1} as
    (alpha + w_n (gamma y) w_n*) c_n* (``_commutator``).  tau_5 pairs w_4
    with itself, and w_4 is dropped.
    """

    def __init__(self):
        self.taus: list[Grid] = []
        self.word: PolyElement | None = None

    def __getitem__(self, n: int) -> Grid:
        while len(self.taus) < n:
            self.taus.append(self._next_trace(len(self.taus) + 1))
        return self.taus[n - 1]

    def _next_trace(self, n: int) -> Grid:
        if n > EXPANDED_WORDS:
            tau, self.word = paired_trace(self.word, EXPANDED_WORDS), None
            return tau
        w = _linear(0) if n == 1 else _commutator(self.word, n - 1)
        if _parseval(w) != ((1,),):
            raise ArithmeticError(f"w_{n} violates Parseval: tau(w* w) != 1")
        if n < EXPANDED_WORDS and not is_unitary(star(w)):
            raise ArithmeticError(f"w_{n} is not unitary: w w* != 1")
        self.word = w
        return trace(w)


_EXACT_TRACES = _ExactTraces()


def iter_exact_steps(alpha: float, slack: float = EXACT_SLACK) -> Iterator[DecayStep]:
    """Unbounded stream of decay rows; callers slice what they need.

    Rows 1 .. 5 come from the exact trace polynomials, each built when a
    row first asks for it, evaluated in rational arithmetic and rounded
    once; later rows come from the recursion, their lengths from its gap
    1 - tau.  Lengths and bounds below the least normal float read 0, which
    keeps lower <= ell <= upper.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (-1, 1)")
    ell_u = ell_from_trace(complex(alpha))
    ell_bar_u = ell_bar_from_trace(complex(alpha))
    for n, (tau_rec, ell_rec) in enumerate(_recursion_traces(alpha), start=1):
        if n <= EXACT_ROWS:
            num, den = evaluate(_EXACT_TRACES[n], alpha)
            # integer true division rounds correctly: one rounding per value
            tau_n = num / den
            ell_n = math.sqrt((2 * den - 2 * num) / den)
            ell_bar_n = math.sqrt((2 * den - 2 * abs(num)) / den)
            source = "exact" if n <= EXPANDED_WORDS else "exact_trace"
        else:
            # tau_n >= alpha^2 >= 0 from n = 2 on, so |tau| = tau
            tau_n, source = tau_rec, "recursion"
            ell_n = ell_bar_n = ell_rec
        lower, upper = _bounds(n, ell_u, ell_bar_u)
        yield DecayStep(
            n=n,
            ell=ell_n,
            ell_bar=ell_bar_n,
            lower=lower,
            upper=upper,
            in_bounds=lower - slack <= ell_n <= upper + slack,
            trace=tau_n,
            recursion_trace=tau_rec,
            source=source,
        )


def decay_curve_exact(alpha: float, n_max: int, slack: float = EXACT_SLACK) -> DecayReport:
    """Exact decay curve; rows past n = 5 are recursion rows."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    steps = []
    for step in iter_exact_steps(alpha, slack):
        steps.append(step)
        if step.n >= n_max:
            break
    return DecayReport(
        model="exact",
        descriptor={"carrier": "C2 * Z", "alpha": float(alpha)},
        slack=slack,
        ell_u=ell_from_trace(complex(alpha)),
        ell_bar_u=ell_bar_from_trace(complex(alpha)),
        steps=steps,
    )


def _factor(u) -> tuple[int, np.ndarray, np.ndarray]:
    """(sign, B, M) with u = sign (I + B M B*) for a ``Reflection``:
    B = Q, M = -2 I.  Raises TypeError for any other u."""
    if not isinstance(u, Reflection):
        raise TypeError(f"u must be a Reflection, got {type(u).__name__}")
    return u.sign, u.basis, -2.0 * np.eye(u.basis.shape[1])


def _factor_lengths(sign: int, b: np.ndarray, m: np.ndarray) -> tuple[complex, float, float]:
    """Trace, ell and ell_bar of w = sign (I + S), S = B M B*.

    tau = sign (1 + tr S / N), and the 2-norm distance of w to a unit
    scalar c is ||(1 - sign c) I + S||_F / sqrt(N).  S is formed from the
    factor in O(N^2 r), and (1 - sign c) I + S is small wherever w is near
    c, so neither length cancels as tau nears 1.  The squared moduli of S
    are formed once; each c rewrites only their diagonal, to
    |s_ii + 1 - sign c|^2, and sums the same array in the same order as
    the sum over (1 - sign c) I + S would.
    """
    dim = b.shape[0]
    s = b @ m @ b.conj().T
    trace = complex(np.trace(s))
    if np.array_equal(m, m.conj().T):  # w is Hermitian: its trace is real
        trace = trace.real
    tau = sign * (1.0 + trace / dim)
    phase = tau / abs(tau) if tau else 1.0
    diag = s.diagonal()
    sq = s.real**2 + s.imag**2

    def dist(c: complex) -> float:
        x = diag + (1.0 - sign * c)
        np.fill_diagonal(sq, x.real**2 + x.imag**2)
        return math.sqrt(float(sq.sum()) / dim)

    return tau, dist(1.0), dist(phase)


def decay_curve_matrix(u, v, n_max: int, slack: float = MATRIX_SLACK) -> DecayReport:
    """Numerical decay curve at finite dimension.

    Every word is carried as w_n = I + B M B*, B of size N x r.  With
    P_n = v^n B_u and A = w_n P_n, the next word is
    w_{n+1} = (w_n c_n w_n*) c_n* = I + [A P_n] M' [A P_n]*, where
    M' = [[M_u, M_u (A* P_n) M_u*], [0, M_u*]].  u must be a
    ``Reflection`` (TypeError otherwise); it enters as B = Q, M = -2 I,
    so r stays 2k and a row costs O(N^2 k).  The reflection's sign
    matters for row 1 only: each commutator holds c_n once and c_n* once.
    Bounds only hold up to the freeness error of the model, hence the
    wide slack envelope.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sign, b_u, m_u = _factor(u)
    vb = v if isinstance(v, CMVMatrix) else as_array(v)  # a CMV v stays O(N k)
    if vb.shape != (b_u.shape[0],) * 2:
        raise ValueError("dimension mismatch")
    tau_u, ell_u, ell_bar_u = _factor_lengths(sign, b_u, m_u)
    m_u_star = m_u.conj().T
    zero = np.zeros_like(m_u)

    steps = []
    b, m, p = b_u, m_u, b_u
    tau, ell_n, ell_bar_n = tau_u, ell_u, ell_bar_u
    for n, (tau_rec, _) in zip(range(1, n_max + 1), _recursion_traces(tau_u.real)):
        lower, upper = _bounds(n, ell_u, ell_bar_u)
        steps.append(
            DecayStep(
                n=n,
                ell=ell_n,
                ell_bar=ell_bar_n,
                lower=lower,
                upper=upper,
                in_bounds=lower - slack <= ell_n <= upper + slack,
                trace=tau.real,
                recursion_trace=tau_rec,
                source="matrix",
            )
        )
        if n < n_max:
            p = vb @ p
            a = p + b @ (m @ (b.conj().T @ p))
            b = np.hstack([a, p])
            m = np.block([[m_u, m_u @ (a.conj().T @ p) @ m_u_star], [zero, m_u_star]])
            tau, ell_n, ell_bar_n = _factor_lengths(1, b, m)
    return DecayReport(
        model="matrix",
        descriptor={"dim": b_u.shape[0], "tau_u": [tau_u.real, tau_u.imag]},
        slack=slack,
        ell_u=ell_u,
        ell_bar_u=ell_bar_u,
        steps=steps,
    )


_FREE_XY = FreeProductGroup({"x": Z, "y": Z})


def w_sequence(n: int) -> Word:
    """w_n as a flat word of the free group on x and y: w_1 = x and
    w_{k+1} = [w_k, y^k x y^-k].  Evaluated at x -> u and y -> v it is the
    unitary whose trace the exact route reads.  From n = 2 on it has
    3 * 2^n - 4 syllables: each nesting doubles them.
    """
    if n < 1:
        raise ValueError("word index must be >= 1")
    mul, inv = _FREE_XY.concat, _FREE_XY.inverse_word
    w = ("x", 1)
    for k in range(1, n):
        c = ("y", k, "x", 1, "y", -k)
        w = mul(mul(w, c), mul(inv(w), inv(c)))
    return w


@dataclass(frozen=True)
class SmallElement:
    n: int
    ell: float
    source: str

    @property
    def word(self) -> Word:
        """w_n itself (``w_sequence``), built on access."""
        return w_sequence(self.n)


def find_small_element(alpha: float, epsilon: float) -> SmallElement:
    """Least n with ell(w_n(u, v)) < epsilon in the exact model.

    Requires alpha > 3/4, i.e. ell(u) < 1/sqrt(2).  The gap 1 - tau_n then
    shrinks by a factor of at most 2 (1 - alpha^2) < 7/8 per row and reads
    0 within a few thousand rows, so the search always ends.  Lengths are
    accurate down to sys.float_info.min ~ 2.2e-308 and read 0 below it, so
    epsilon must lie above it.
    """
    if not epsilon > sys.float_info.min:
        raise ValueError("epsilon must exceed sys.float_info.min ~ 2.2e-308")
    if not alpha > 0.75:
        raise ValueError("need alpha > 3/4 so that ell(u) < 1/sqrt(2)")
    for step in iter_exact_steps(alpha):
        if step.ell < epsilon:
            return SmallElement(step.n, step.ell, step.source)
