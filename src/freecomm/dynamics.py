"""Decay of the nested-commutator words w_n(u, v).

Two evaluation routes are kept deliberately separate:

* the exact route works in the group algebra of C2 * Z, where
  u = alpha + gamma x with gamma = i sqrt(1 - alpha^2) and v is the cyclic
  generator (a Haar unitary of the algebra).  Every coefficient of w_n is
  gamma^(x-count mod 2) times an integer polynomial in alpha, so w_1 .. w_4
  are expanded word by word once per process, for every alpha at once, and
  their traces are read off the identity coefficient.  tau_5 is the pairing
  <w_4 c_4, c_4 w_4> of w_4 with itself; w_5 is never formed.  Each row is
  evaluated in rational arithmetic at alpha and rounded once;
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
w_n - I = B M B*, multiplied out.  The dense N x N loop it replaces is
kept in the tests as the reference.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .algebra import ell_bar_from_trace, ell_from_trace, involution_haar_ambient
from .matrices import Reflection, as_array
from .words import FreeWord, w_sequence

#: slack for the exact-model bound chain
EXACT_SLACK = 1e-10

#: default slack envelope for finite-dimensional models
MATRIX_SLACK = 0.05

#: w_1 .. w_4 are expanded word by word; tau_5 is paired off w_4
EXPANDED_WORDS = 4

_INT64_MAX = int(np.iinfo(np.int64).max)


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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ell": self.ell,
            "ell_bar": self.ell_bar,
            "lower": self.lower,
            "upper": self.upper,
            "in_bounds": self.in_bounds,
            "trace": self.trace,
            "recursion_trace": self.recursion_trace,
            "source": self.source,
        }


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
        return {
            "model": self.model,
            "descriptor": self.descriptor,
            "slack": self.slack,
            "ell_u": self.ell_u,
            "ell_bar_u": self.ell_bar_u,
            "all_in_bounds": self.all_in_bounds,
            "steps": [s.to_json_dict() for s in self.steps],
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("n,ell,ell_bar,lower,upper,in_bounds,source\n")
        for s in self.steps:
            buf.write(
                f"{s.n},{s.ell:.12g},{s.ell_bar:.12g},{s.lower:.12g},"
                f"{s.upper:.12g},{int(s.in_bounds)},{s.source}\n"
            )
        return buf.getvalue()


def _recursion_traces(alpha: float) -> Iterator[tuple[float, float]]:
    """(tau_n, 1 - tau_n) for n = 1, 2, ... of the trace recursion, without end.

    The gap d = 1 - tau follows d_{n+1} = d_n (2 - d_n)(1 - alpha)(1 + alpha)
    in its own float, so it keeps its relative accuracy where tau has
    rounded to 1.  A gap below the least normal float would lose that
    accuracy bit by bit, so it is set to 0 there.
    """
    t, d = float(alpha), 1.0 - alpha
    shrink = (1.0 - alpha) * (1.0 + alpha)
    while True:
        yield t, d
        t = 1.0 - (1.0 - t * t) * (1.0 - alpha * alpha)
        d = d * (2.0 - d) * shrink
        if d < sys.float_info.min:
            d = 0.0


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
    return float(lower), float(upper)


class PolyElement:
    """Element of the group algebra of C2 * Z with alpha-free coefficients.

    With u = alpha + gamma x, where x generates C2 and gamma = i sqrt(1 - alpha^2)
    (so gamma^2 = alpha^2 - 1), every coefficient of w_n(u, v) at a word g is
    gamma^parity(g) P_g(alpha), where parity(g) is the number of x syllables
    mod 2 and P_g has integer coefficients.  ``coeffs[i]`` holds P of
    ``words[i]``, lowest degree first, one int64 row per word.
    """

    __slots__ = ("words", "parity", "coeffs")

    def __init__(self, words: list, coeffs: np.ndarray, parity: np.ndarray | None = None):
        self.words = words
        self.coeffs = coeffs
        if parity is None:
            parity = np.array([w[0::2].count(0) & 1 for w in words], dtype=np.int64)
        self.parity = parity

    @property
    def support_size(self) -> int:
        return len(self.words)

    def is_one(self) -> bool:
        return self.words == [()] and self.coeffs.tolist() == [[1]]


def _check_int64(*factors: int) -> None:
    """Raise unless the product of these bounds (largest entries, terms
    summed into one entry) fits in int64; called before every int64 product."""
    if math.prod(factors) > _INT64_MAX:
        raise OverflowError(f"an int64 product may overflow (bound {math.prod(factors)})")


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _trim_columns(coeffs: np.ndarray) -> np.ndarray:
    nonzero = np.flatnonzero(coeffs.any(axis=0))
    return coeffs[:, : nonzero[-1] + 1 if nonzero.size else 1]


def _poly_multiply(a: PolyElement, b: PolyElement, ambient) -> PolyElement:
    """Convolution product; gamma^2 = alpha^2 - 1 where two odd words meet."""
    concat = ambient.concat
    index: dict = {}
    target = [index.setdefault(concat(wa, wb), len(index)) for wa in a.words for wb in b.words]
    i = np.repeat(np.arange(a.support_size), b.support_size)
    j = np.tile(np.arange(b.support_size), a.support_size)
    da, db = a.coeffs.shape[1], b.coeffs.shape[1]
    # each entry sums at most every pair's min(da, db) products, twice for gamma^2
    _check_int64(_max_abs(a.coeffs), _max_abs(b.coeffs), min(da, db), 2 * len(target))
    pa, pb = a.coeffs[i], b.coeffs[j]
    prod = np.zeros((len(target), da + db + 1), dtype=np.int64)  # two spare columns
    for d in range(db):
        prod[:, d : d + da] += pa * pb[:, d : d + 1]
    odd = (a.parity[i] & b.parity[j]).astype(bool)
    p = prod[odd]
    alpha_sq_p = np.zeros_like(p)
    alpha_sq_p[:, 2:] = p[:, :-2]
    prod[odd] = alpha_sq_p - p
    out = np.zeros((len(index), prod.shape[1]), dtype=np.int64)
    np.add.at(out, np.array(target), prod)
    keep = out.any(axis=1)
    words = [w for w, k in zip(index, keep) if k]
    return PolyElement(words, _trim_columns(out[keep]))


def _poly_star(a: PolyElement, ambient) -> PolyElement:
    """Adjoint: conj(gamma) = -gamma flips the sign of every odd word."""
    inv = ambient.inverse_word
    sign = 1 - 2 * a.parity
    return PolyElement([inv(w) for w in a.words], a.coeffs * sign[:, None], a.parity)


def _linear(word) -> PolyElement:
    """alpha + gamma * word, for an involution word (u itself or a conjugate)."""
    return PolyElement([(), word], np.array([[0, 1], [1, 0]], dtype=np.int64))


def _conjugate_word(ambient, k: int):
    """v^k x v^-k; k = 0 is x itself."""
    return ambient.word([(1, k), (0, 1), (1, -k)] if k else [(0, 1)])


def _sum_of_products(p: np.ndarray, q: np.ndarray) -> list[int]:
    """sum_i p_i * q_i over the rows, as one polynomial."""
    if not len(p):
        return [0]
    _check_int64(_max_abs(p), _max_abs(q), min(p.shape[1], q.shape[1]), len(p))
    m = np.einsum("id,ie->de", p, q)  # m[d, e] multiplies alpha^(d + e)
    out = [0] * (p.shape[1] + q.shape[1] - 1)
    for d, row in enumerate(m.tolist()):
        for e, c in enumerate(row):
            out[d + e] += c
    return out


def _graded_pairing(w: PolyElement, image: np.ndarray) -> tuple[list[int], list[int]]:
    """sum of P_g P_image(g) over the even and over the odd words g whose
    image lies in the support (``image`` holds -1 elsewhere)."""
    hit = image >= 0
    even, odd = hit & (w.parity == 0), hit & (w.parity == 1)
    return (_sum_of_products(w.coeffs[even], w.coeffs[image[even]]),
            _sum_of_products(w.coeffs[odd], w.coeffs[image[odd]]))


def _padd(*polys) -> list[int]:
    out = [0] * max(len(p) for p in polys)
    for p in polys:
        for k, c in enumerate(p):
            out[k] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _pmul(p, q) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for d, a in enumerate(p):
        for e, b in enumerate(q):
            out[d + e] += a * b
    return _padd(out)


_ALPHA_SQ = (0, 0, 1)
_ONE_MINUS_ALPHA_SQ = (1, 0, -1)  # gamma * conj(gamma)
_ALPHA_ONE_MINUS_ALPHA_SQ = (0, 1, 0, -1)


def _parseval(w: PolyElement) -> list[int]:
    """tau(w* w) = sum over words of |gamma|^(2 parity) P^2."""
    even, odd = _graded_pairing(w, np.arange(w.support_size))
    return _padd(even, _pmul(_ONE_MINUS_ALPHA_SQ, odd))


def paired_trace(w: PolyElement, k: int, ambient) -> list[int]:
    """tau(w c w* c*) with c = alpha + gamma y, y = v^k x v^-k, as <w c, c w>.

    Neither w c nor c w is formed: (w c)(g) = alpha w(g) + gamma w(g y) and
    (c w)(g) = alpha w(g) + gamma w(y g), so, with conj(gamma) = -gamma,

        <w c, c w> = alpha^2 <w, w> + alpha (1 - alpha^2) (S(y g) - S(g y))
                     + (1 - alpha^2) T(y g y),

    sums over the words g of w whose image under the map lies in w's support.
    y g and g y flip the parity p of g, so w(g) conj(w(image)) carries one
    gamma and the sign (-1)^(1 - p): S = odd - even.  y g y keeps the
    parity: T = even + (1 - alpha^2) odd.
    """
    y = _conjugate_word(ambient, k)
    concat = ambient.concat
    row = {g: r for r, g in enumerate(w.words)}
    yg, gy, ygy = [], [], []
    for g in w.words:
        h = concat(y, g)
        yg.append(row.get(h, -1))
        gy.append(row.get(concat(g, y), -1))
        ygy.append(row.get(concat(h, y), -1))
    e1, o1 = _graded_pairing(w, np.array(yg))
    e2, o2 = _graded_pairing(w, np.array(gy))
    e3, o3 = _graded_pairing(w, np.array(ygy))
    s_diff = _padd(o1, e2, [-c for c in _padd(e1, o2)])
    return _padd(
        _pmul(_ALPHA_SQ, _parseval(w)),
        _pmul(_ALPHA_ONE_MINUS_ALPHA_SQ, s_diff),
        _pmul(_ONE_MINUS_ALPHA_SQ, _padd(e3, _pmul(_ONE_MINUS_ALPHA_SQ, o3))),
    )


def commutator_polynomials(n_max: int = EXPANDED_WORDS) -> list[PolyElement]:
    """w_1 .. w_{n_max}(u, v) over C2 * Z with alpha-free coefficients.

    Built fresh on every call; ``trace_polynomials`` keeps only the traces.
    """
    ambient = involution_haar_ambient()
    w = _linear(_conjugate_word(ambient, 0))
    out = [w]
    for k in range(1, n_max):
        c = _linear(_conjugate_word(ambient, k))
        wcw = _poly_multiply(_poly_multiply(w, c, ambient), _poly_star(w, ambient), ambient)
        w = _poly_multiply(wcw, _poly_star(c, ambient), ambient)
        out.append(w)
    return out


@functools.cache
def trace_polynomials() -> tuple[tuple[int, ...], ...]:
    """tau_1 .. tau_5, computed once per process.

    tau_n is the trace of w_n(u, v) as integer coefficients of alpha, lowest
    degree first.  tau_1 .. tau_4 are read off the expansion, which is
    checked exactly on the way: Parseval (tau(w* w) = 1 as a polynomial) for
    every w_n and w_n* w_n = 1 word by word for n <= 3.  tau_5 pairs w_4
    with itself.
    """
    ambient = involution_haar_ambient()
    words = commutator_polynomials()
    taus = []
    for n, w in enumerate(words, 1):
        if _parseval(w) != [1]:
            raise ArithmeticError(f"w_{n} violates Parseval: tau(w* w) != 1")
        if n <= 3 and not _poly_multiply(_poly_star(w, ambient), w, ambient).is_one():
            raise ArithmeticError(f"w_{n} is not unitary")
        taus.append(tuple(_padd(w.coeffs[w.words.index(())].tolist())))
    taus.append(tuple(paired_trace(words[-1], EXPANDED_WORDS, ambient)))
    return tuple(taus)


def _evaluate(poly: tuple[int, ...], alpha: float) -> tuple[int, int]:
    """The polynomial at the exact binary value p/q of alpha, as a fraction
    (numerator, q^degree) of integers."""
    p, q = alpha.as_integer_ratio()
    degree = len(poly) - 1
    return sum(c * p**k * q ** (degree - k) for k, c in enumerate(poly)), q**degree


def iter_exact_steps(alpha: float, slack: float = EXACT_SLACK) -> Iterator[DecayStep]:
    """Unbounded stream of decay rows; callers slice what they need.

    Rows 1 .. 5 come from the exact trace polynomials, each evaluated in
    rational arithmetic and rounded once; later rows come from the
    recursion, their lengths from its gap 1 - tau.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (-1, 1)")
    exact = trace_polynomials()
    ell_u = ell_from_trace(complex(alpha))
    ell_bar_u = ell_bar_from_trace(complex(alpha))
    for n, (tau_rec, gap) in enumerate(_recursion_traces(alpha), start=1):
        if n <= len(exact):
            num, den = _evaluate(exact[n - 1], alpha)
            # integer true division rounds correctly: one rounding per value
            trace = num / den
            ell_n = math.sqrt((2 * den - 2 * num) / den)
            ell_bar_n = math.sqrt((2 * den - 2 * abs(num)) / den)
            source = "exact" if n <= EXPANDED_WORDS else "exact_trace"
        else:
            # tau_n >= alpha^2 >= 0 from n = 2 on, so |tau| = tau
            trace, source = tau_rec, "recursion"
            ell_n = ell_bar_n = math.sqrt(2.0 * gap)
        lower, upper = _bounds(n, ell_u, ell_bar_u)
        yield DecayStep(
            n=n,
            ell=ell_n,
            ell_bar=ell_bar_n,
            lower=lower,
            upper=upper,
            in_bounds=lower - slack <= ell_n <= upper + slack,
            trace=trace,
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
    """(sign, B, M) with u = sign (I + B M B*): a ``Reflection`` as
    B = Q, M = -2 I; any other unitary as B = I, M = u - I."""
    if isinstance(u, Reflection):
        return u.sign, u.basis, -2.0 * np.eye(u.basis.shape[1])
    a = as_array(u)
    eye = np.eye(a.shape[0])
    return 1, eye, a - eye


def _factor_lengths(sign: int, b: np.ndarray, m: np.ndarray) -> tuple[complex, float, float]:
    """Trace, ell and ell_bar of w = sign (I + S), S = B M B*.

    tau = sign (1 + tr S / N), and the 2-norm distance of w to a unit
    scalar c is ||(1 - sign c) I + S||_F / sqrt(N).  S is formed from the
    factor in O(N^2 r), and (1 - sign c) I + S is small wherever w is near
    c, so neither length cancels as tau nears 1.
    """
    dim = b.shape[0]
    s = b @ m @ b.conj().T
    trace = complex(np.trace(s))
    if np.array_equal(m, m.conj().T):  # w is Hermitian: its trace is real
        trace = trace.real
    tau = sign * (1.0 + trace / dim)
    phase = tau / abs(tau) if tau else 1.0

    def dist(c: complex) -> float:
        x = s + (1.0 - sign * c) * np.eye(dim)
        return math.sqrt(float((x.real**2 + x.imag**2).sum()) / dim)

    return tau, dist(1.0), dist(phase)


def decay_curve_matrix(u, v, n_max: int, slack: float = MATRIX_SLACK) -> DecayReport:
    """Numerical decay curve at finite dimension.

    Every word is carried as w_n = I + B M B*, B of size N x r.  With
    P_n = v^n B_u and A = w_n P_n, the next word is
    w_{n+1} = (w_n c_n w_n*) c_n* = I + [A P_n] M' [A P_n]*, where
    M' = [[M_u, M_u (A* P_n) M_u*], [0, M_u*]].  A ``Reflection`` enters
    as B = Q, M = -2 I, so r stays 2k and a row costs O(N^2 k); any
    other unitary enters as B = I.  The reflection's sign matters for
    row 1 only: each commutator holds c_n once and c_n* once.  Bounds
    only hold up to the freeness error of the model, hence the wide
    slack envelope.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sign, b_u, m_u = _factor(u)
    vb = as_array(v)
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


@dataclass(frozen=True)
class SmallElement:
    n: int
    ell: float
    source: str

    @property
    def word(self) -> FreeWord:
        """w_n itself: 3 * 2^n - 4 syllables from n = 2 on, built on access."""
        return w_sequence(self.n)


def find_small_element(alpha: float, epsilon: float) -> SmallElement:
    """Least n with ell(w_n(u, v)) < epsilon in the exact model.

    Requires alpha > 3/4, i.e. ell(u) < 1/sqrt(2).  The gap 1 - tau_n then
    shrinks by a factor of at most 2 (1 - alpha^2) < 7/8 per row and reads
    0 within a few thousand rows, so the search always ends.  Lengths are
    accurate down to sqrt(2 * sys.float_info.min) ~ 2.1e-154 and read 0
    below it, so epsilon must lie above it.
    """
    if not epsilon > math.sqrt(2.0 * sys.float_info.min):
        raise ValueError("epsilon must exceed sqrt(2 * sys.float_info.min) ~ 2.1e-154")
    if not alpha > 0.75:
        raise ValueError("need alpha > 3/4 so that ell(u) < 1/sqrt(2)")
    for step in iter_exact_steps(alpha):
        if step.ell < epsilon:
            return SmallElement(step.n, step.ell, step.source)
