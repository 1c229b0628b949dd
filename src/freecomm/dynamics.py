"""Decay of the nested-commutator words w_n(u, v).

Two evaluation routes are kept deliberately separate:

* the exact route works in the group algebra of C2 * Z
  (``algebra.PolyElement``, with alpha its only trace variable), where
  u = alpha + gamma x with gamma = i sqrt(1 - alpha^2) and v is the cyclic
  generator (a Haar unitary of the algebra).  Every coefficient of w_n is
  gamma^(x-count mod 2) times an integer polynomial in alpha, so w_1 .. w_4
  are expanded word by word at most once per process, for every alpha at
  once, and only as far as the rows asked for need; their traces are read
  off the identity coefficient.  This module keeps the schedule: which
  word is built, checked or paired at which row.  The arithmetic is
  ``algebra``'s public API: ``unitary_commutator`` forms w_{n+1} =
  w_n c_n w_n* c_n*, ``parseval`` checks tau(w_n* w_n) = 1, and
  ``paired_trace`` reads tau_5 off w_4, so w_5 is never formed.  Each row
  is evaluated in rational arithmetic at alpha and rounded once;
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
rank at most 2k and is carried as a factor B M B*, B of size N x 2k.
Trace, ell and ell_bar are read off the 2k x 2k compression R M R* of
w_n - I, R the triangular factor of B, so a row costs O(N k^2) plus v
applied to the factor, not N^3.  The CLI draws v as a CUE-law
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
    FreeProductGroup,
    Grid,
    PolyElement,
    Word,
    Z,
    conjugate_word,
    ell_bar_from_trace,
    ell_from_trace,
    evaluate,
    is_unitary,
    paired_trace,
    parseval,
    star,
    trace,
    unitary,
    unitary_commutator,
)
from .matrices import Reflection, unitary_operand

#: slack for the exact-model bound chain
EXACT_SLACK = 1e-10

#: default slack envelope for finite-dimensional models
MATRIX_SLACK = 0.05

#: w_1 .. w_4 are expanded word by word; tau_5 is paired off w_4
EXPANDED_WORDS = 4

#: rows 1 .. 5 have exact trace polynomials
EXACT_ROWS = EXPANDED_WORDS + 1


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


def _step(
    n: int, ell_u: float, ell_bar_u: float, slack: float, *,
    ell: float, ell_bar: float, trace: float, recursion_trace: float, source: str,
) -> DecayStep:
    """Row n of a decay curve, with its bounds (ell_bar_u / sqrt 2)^(n-1)
    ell_bar_u and (sqrt 2 ell_u)^(n-1) ell_u, widened by slack for in_bounds.

    The trailing factor is at most 2, so the power leaves the float range
    at most a factor 2 before the bound does.
    """
    r = math.sqrt(2.0)
    with np.errstate(over="ignore", under="ignore"):
        lower, upper = np.array([ell_bar_u / r, r * ell_u]) ** (n - 1) * (ell_bar_u, ell_u)
    lower, upper = _flush(float(lower)), _flush(float(upper))
    in_bounds = lower - slack <= ell <= upper + slack
    return DecayStep(n, ell, ell_bar, lower, upper, in_bounds, trace, recursion_trace, source)


def _linear(k: int) -> PolyElement:
    """alpha + gamma v^k x v^-k: u itself for k = 0, else its conjugate c_k."""
    return unitary(conjugate_word(k))


class _ExactTraces:
    """tau_1 .. tau_5 as ``Grid``s in alpha, each built the first time a row
    asks for it; the one place that builds the words w_n(u, v).

    Only the traces and the last word still needed are kept.  tau_n for
    n <= 4 is read off w_n, which is checked exactly first: Parseval
    (tau(w* w) = 1 as a polynomial) for every w_n and w_n w_n* = 1 word by
    word for n <= 3, the premise of ``algebra.unitary_commutator``, which
    forms w_{n+1} = w_n c_n w_n* c_n*.  tau_5 is ``algebra.paired_trace``
    of w_4, and w_4 is dropped.
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
        w = _linear(0) if n == 1 else unitary_commutator(self.word, _linear(n - 1))
        if parseval(w) != ((1,),):
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
        yield _step(n, ell_u, ell_bar_u, slack, ell=ell_n, ell_bar=ell_bar_n, trace=tau_n,
                    recursion_trace=tau_rec, source=source)


def decay_curve_exact(alpha: float, n_max: int, slack: float = EXACT_SLACK) -> DecayReport:
    """Exact decay curve; rows past n = 5 are recursion rows."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    steps = list(itertools.islice(iter_exact_steps(alpha, slack), n_max))
    return DecayReport(
        model="exact",
        descriptor={"carrier": "C2 * Z", "alpha": float(alpha)},
        slack=slack,
        ell_u=ell_from_trace(complex(alpha)),
        ell_bar_u=ell_bar_from_trace(complex(alpha)),
        steps=steps,
    )


def _factor_lengths(sign: int, b: np.ndarray, m: np.ndarray) -> tuple[complex, float, float]:
    """Trace, ell and ell_bar of w = sign (I + S), S = B M B*.

    With B = Q R (Householder QR, Q of r orthonormal columns), S = Q K Q*
    for the r x r compression K = R M R*, and S vanishes off range(Q).  So
    tau = sign (1 + tr K / N), and the 2-norm distance of w to a unit
    scalar c is sqrt((||x I + K||_F^2 + (N - r) |x|^2) / N), x = 1 - sign c.
    x I + K is small wherever w is near c, so neither length cancels as
    tau nears 1.  This costs O(N r^2) and forms no N x N array.
    """
    dim = b.shape[0]
    r = np.linalg.qr(b, mode="r")
    k = r @ m @ r.conj().T
    trace = complex(np.trace(k))
    if np.array_equal(m, m.conj().T):  # w is Hermitian: its trace is real
        trace = trace.real
    tau = sign * (1.0 + trace / dim)
    phase = tau / abs(tau) if tau else 1.0

    def dist(c: complex) -> float:
        x = 1.0 - sign * c
        y = k + x * np.eye(len(k))
        inside = float((y.real**2 + y.imag**2).sum())
        return math.sqrt((inside + (dim - len(k)) * abs(x) ** 2) / dim)

    return tau, dist(1.0), dist(phase)


def decay_curve_matrix(u, v, n_max: int, slack: float = MATRIX_SLACK) -> DecayReport:
    """Numerical decay curve at finite dimension.

    Every word is carried as w_n = I + B M B*, B of size N x r.  With
    P_n = v^n B_u and A = w_n P_n, the next word is
    w_{n+1} = (w_n c_n w_n*) c_n* = I + [A P_n] M' [A P_n]*, where
    M' = [[-2 I, 4 A* P_n], [0, -2 I]].  u must be a ``Reflection``
    (TypeError otherwise); it enters as B = Q, M = -2 I, so r stays 2k
    and a row costs O(N k^2) plus v @ P_n: O(N k) for a
    ``CMVMatrix`` v, which leaves no N x N array; a raw array v must pass
    ``check_unitary``.  The reflection's sign matters for row 1 only: each
    commutator holds c_n once and c_n* once.  Bounds only hold up to the
    freeness error of the model, hence the wide slack envelope.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not isinstance(u, Reflection):
        raise TypeError(f"u must be a Reflection, got {type(u).__name__}")
    b_u, m_u = u.basis, -2.0 * np.eye(u.basis.shape[1])
    vb = unitary_operand(v)  # a CMV v stays O(N k)
    if vb.shape != (b_u.shape[0],) * 2:
        raise ValueError("dimension mismatch")
    tau_u, ell_u, ell_bar_u = _factor_lengths(u.sign, b_u, m_u)

    steps = []
    b, m, p = b_u, m_u, b_u
    tau, ell_n, ell_bar_n = tau_u, ell_u, ell_bar_u
    for n, (tau_rec, _) in zip(range(1, n_max + 1), _recursion_traces(tau_u.real)):
        steps.append(_step(n, ell_u, ell_bar_u, slack, ell=ell_n, ell_bar=ell_bar_n,
                           trace=tau.real, recursion_trace=tau_rec, source="matrix"))
        if n < n_max:
            p = vb @ p
            a = p + b @ (m @ (b.conj().T @ p))
            b = np.hstack([a, p])
            m = np.block([[m_u, 4.0 * (a.conj().T @ p)], [np.zeros_like(m_u), m_u]])
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
