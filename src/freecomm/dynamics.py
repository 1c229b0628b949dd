"""Decay of the nested-commutator words w_n(u, v).

Two evaluation routes are kept deliberately separate:

* the exact route works in the group algebra of C2 * Z, where
  u = alpha + gamma x with gamma = i sqrt(1 - alpha^2) and v is the cyclic
  generator (a Haar unitary of the algebra).  Every coefficient of w_n is
  gamma^(x-count mod 2) times an integer polynomial in alpha, so w_1 .. w_4
  are expanded word by word at most once per process, for every alpha at
  once, and only as far as the rows asked for need; their traces are read
  off the identity coefficient.  tau_5 is the pairing <w_4 c_4, c_4 w_4>
  of w_4 with itself; w_5 is never formed.  Each row is evaluated in
  rational arithmetic at alpha and rounded once.  Words are rows of an
  int8 array, multiplied a whole support at a time, and the pairings are
  float64 GEMMs, exact below 2^53 and checked to stay there;
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

from .algebra import ell_bar_from_trace, ell_from_trace
from .matrices import CMVMatrix, Reflection, as_array
from .words import FreeWord, w_sequence

#: slack for the exact-model bound chain
EXACT_SLACK = 1e-10

#: default slack envelope for finite-dimensional models
MATRIX_SLACK = 0.05

#: w_1 .. w_4 are expanded word by word; tau_5 is paired off w_4
EXPANDED_WORDS = 4

#: rows 1 .. 5 have exact trace polynomials
EXACT_ROWS = EXPANDED_WORDS + 1

_INT64_MAX = int(np.iinfo(np.int64).max)

#: float64 holds every integer below this exactly
_FLOAT_EXACT = 2**53

#: ends a row of int8 syllable codes; v^k needs |k| <= 127 so never meets it
_PAD = -128
_MAX_EXPONENT = 127


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


def _encode(words) -> np.ndarray:
    """Flat words of C2 * Z, (0, 1) for x and (1, k) for v^k, as int8 rows
    of syllable codes: 0 is x, k != 0 is v^k, and ``_PAD`` ends each row."""
    codes = [[0 if f == 0 else v for f, v in zip(w[0::2], w[1::2])] for w in words]
    rows = np.full((len(codes), max(map(len, codes), default=0) + 1), _PAD, dtype=np.int8)
    for r, c in enumerate(codes):
        _check_exponents(max(map(abs, c), default=0))
        rows[r, : len(c)] = c
    return rows


def _decode(rows: np.ndarray) -> list[tuple]:
    """int8 rows back to flat words of ``involution_haar_ambient()``."""
    return [tuple(itertools.chain.from_iterable((0, 1) if s == 0 else (1, s)
                                                for s in row if s != _PAD))
            for row in rows.tolist()]


def _check_exponents(largest: int) -> None:
    """Raise unless |k| <= 127 for v^k: int8 would wrap, and -128 is ``_PAD``."""
    if largest > _MAX_EXPONENT:
        raise OverflowError(f"a syllable v^k with |k| = {largest} does not fit in int8")


def _lengths(rows: np.ndarray) -> np.ndarray:
    return (rows != _PAD).sum(axis=1)


def _reversed(rows: np.ndarray) -> np.ndarray:
    """Each row's syllables in reverse order, still ended by ``_PAD``."""
    back = _lengths(rows)[:, None] - 1 - np.arange(rows.shape[1])
    return np.where(back >= 0, np.take_along_axis(rows, np.maximum(back, 0), axis=1), _PAD)


def _keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row, its bytes: equal keys are equal words."""
    return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1]))).ravel()


def _row_products(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Rows of the words a[i] b[j], each reduced at the boundary.

    Walking a's row back from its end and b's forward from its start, x
    meets x or v^k meets v^-k and both cancel; v^k meeting v^l with
    k + l != 0 merges into one syllable, and anything else stops the walk.
    Each step of the column loop gathers one column of the pairs still
    cancelling.  Output row r is a's surviving prefix, the merged syllable
    if any, then b's surviving suffix, which sits at a fixed offset from
    b's own columns; grouped by that offset, the suffixes are one row
    gather and one slice copy per group.
    """
    la, lb = _lengths(a)[i], _lengths(b)[j]
    a_flat, b_flat = a.ravel(), b.ravel()
    a_end, b_start = i * a.shape[1] + la, j * b.shape[1]  # flat ends of a's and b's words
    depth = np.zeros(len(i), dtype=np.intp)
    merged = np.zeros(len(i), dtype=np.int16)  # the merged exponent; 0: no merge
    live = np.arange(len(i))
    for t in range(min(a.shape[1], b.shape[1])):
        sa = np.where(la[live] > t, a_flat[a_end[live] - 1 - t], _PAD).astype(np.int16)
        sb = b_flat[b_start[live] + t].astype(np.int16)
        both_v = (sa != 0) & (sb != 0) & (sa != _PAD) & (sb != _PAD)
        cancel = ((sa == 0) & (sb == 0)) | (both_v & (sa == -sb))
        merge = both_v & (sa != -sb)
        merged[live[merge]] = (sa + sb)[merge]
        live = live[cancel]
        depth[live] += 1
        if not live.size:
            break
    _check_exponents(int(np.abs(merged).max(initial=0)))
    m = (merged != 0).astype(np.intp)
    keep = la - depth - m  # a's surviving prefix; the merged syllable sits at keep
    shift = keep - depth  # b's column c lands at c + shift
    width = int((keep + lb - depth).max(initial=0)) + 1
    out = np.full((len(i), width), _PAD, dtype=np.int8)
    order = np.argsort(shift, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(shift[order])) + 1):
        if group.size:
            s = int(shift[group[0]])
            lo, hi = max(s, 0), min(width, b.shape[1] + s)
            out[group, lo:hi] = b[:, lo - s : hi - s][j[group]]
    cols = min(a.shape[1], width)
    out[:, :cols] = np.where(np.arange(cols) < keep[:, None], a[:, :cols][i], out[:, :cols])
    hit = np.flatnonzero(m)
    out[hit, keep[hit]] = merged[hit]
    return out


class PolyElement:
    """Element of the group algebra of C2 * Z with alpha-free coefficients.

    With u = alpha + gamma x, where x generates C2 and gamma = i sqrt(1 - alpha^2)
    (so gamma^2 = alpha^2 - 1), every coefficient of w_n(u, v) at a word g is
    gamma^parity(g) P_g(alpha), where parity(g) is the number of x syllables
    mod 2 and P_g has integer coefficients.  ``rows[i]`` spells word i in
    int8 syllable codes (0 is x, k != 0 is v^k, then ``_PAD``) and
    ``coeffs[i]`` holds its P, lowest degree first, one int64 row per word.
    """

    __slots__ = ("rows", "coeffs", "parity")

    def __init__(self, rows: np.ndarray, coeffs: np.ndarray):
        self.rows = rows
        self.coeffs = coeffs
        self.parity = ((rows == 0).sum(axis=1) & 1).astype(np.int64)

    @property
    def words(self) -> list[tuple]:
        """The support as words of ``involution_haar_ambient()``, decoded on access."""
        return _decode(self.rows)

    @property
    def support_size(self) -> int:
        return len(self.rows)

    def is_one(self) -> bool:
        return not _lengths(self.rows).any() and self.coeffs.tolist() == [[1]]


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


def _collect(rows: np.ndarray, coeffs: np.ndarray) -> PolyElement:
    """Sum the coefficients of equal words and drop the words that sum to 0;
    the words come out sorted by their bytes."""
    keys = _keys(rows)
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(coeffs[order], first, axis=0) if len(first) else coeffs[:0]
    keep = sums.any(axis=1)
    rows = rows[order[first[keep]]]
    return PolyElement(rows[:, : _lengths(rows).max(initial=0) + 1], _trim_columns(sums[keep]))


def _poly_multiply(a: PolyElement, b: PolyElement) -> PolyElement:
    """Convolution product; gamma^2 = alpha^2 - 1 where two odd words meet."""
    i = np.repeat(np.arange(a.support_size), b.support_size)
    j = np.tile(np.arange(b.support_size), a.support_size)
    da, db = a.coeffs.shape[1], b.coeffs.shape[1]
    # each entry sums at most every pair's min(da, db) products, twice for gamma^2
    _check_int64(_max_abs(a.coeffs), _max_abs(b.coeffs), min(da, db), 2 * len(i))
    pa, pb = a.coeffs[i], b.coeffs[j]
    prod = np.zeros((len(i), da + db + 1), dtype=np.int64)  # two spare columns
    for d in range(db):
        prod[:, d : d + da] += pa * pb[:, d : d + 1]
    odd = (a.parity[i] & b.parity[j]).astype(bool)
    p = prod[odd]
    alpha_sq_p = np.zeros_like(p)
    alpha_sq_p[:, 2:] = p[:, :-2]
    prod[odd] = alpha_sq_p - p
    return _collect(_row_products(a.rows, b.rows, i, j), prod)


def _poly_star(a: PolyElement) -> PolyElement:
    """Adjoint: words reversed with v^k -> v^-k; conj(gamma) = -gamma flips
    the sign of every odd word."""
    rows = _reversed(a.rows)
    return PolyElement(np.where(rows == _PAD, _PAD, -rows), a.coeffs * (1 - 2 * a.parity)[:, None])


def _conjugate_rows(k: int) -> np.ndarray:
    """Rows of the empty word and of y = v^k x v^-k; k = 0 is x itself."""
    return _encode([(), (1, k, 0, 1, 1, -k) if k else (0, 1)])


def _linear(k: int) -> PolyElement:
    """alpha + gamma v^k x v^-k: u itself for k = 0, else its conjugate c_k."""
    return PolyElement(_conjugate_rows(k), np.array([[0, 1], [1, 0]], dtype=np.int64))


def _lookup(w: PolyElement, *queries: np.ndarray) -> list[np.ndarray]:
    """For each array of query rows, the index of each row's word in w's
    support, -1 where it is not there."""
    width = w.rows.shape[1]
    own = _keys(w.rows)
    order = np.argsort(own)
    own = own[order]
    out = []
    for rows in queries:
        if rows.shape[1] < width:
            rows = np.pad(rows, ((0, 0), (0, width - rows.shape[1])), constant_values=_PAD)
        # a word longer than all of w's keeps no _PAD in its first width
        # columns, so it matches none of w's rows, which all end in _PAD
        keys = _keys(rows[:, :width])
        pos = np.minimum(np.searchsorted(own, keys), len(own) - 1)
        out.append(np.where(own[pos] == keys, order[pos], -1))
    return out


def _sum_of_products(p: np.ndarray, q: np.ndarray) -> list[int]:
    """sum_i p_i * q_i over the rows, as one polynomial.

    One float64 GEMM: every partial sum of the integer products is at most
    rows * max|p| * max|q| in size, so below 2^53 each is exact, whatever
    order BLAS sums in.
    """
    if not len(p):
        return [0]
    bound = _max_abs(p) * _max_abs(q) * len(p)
    if bound >= _FLOAT_EXACT:
        raise OverflowError(f"a float64 pairing may round (bound {bound} >= 2^53)")
    m = (p.T.astype(np.float64) @ q.astype(np.float64)).astype(np.int64)  # alpha^(d + e)
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


def paired_trace(w: PolyElement, k: int) -> list[int]:
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
    y = _conjugate_rows(k)[1:]
    every, once = np.arange(w.support_size), np.zeros(w.support_size, dtype=np.intp)
    yg = _row_products(y, w.rows, once, every)
    gy = _row_products(w.rows, y, every, once)
    ygy = _row_products(yg, y, every, once)
    (e1, o1), (e2, o2), (e3, o3) = (_graded_pairing(w, image) for image in _lookup(w, yg, gy, ygy))
    s_diff = _padd(o1, e2, [-c for c in _padd(e1, o2)])
    return _padd(
        _pmul(_ALPHA_SQ, _parseval(w)),
        _pmul(_ALPHA_ONE_MINUS_ALPHA_SQ, s_diff),
        _pmul(_ONE_MINUS_ALPHA_SQ, _padd(e3, _pmul(_ONE_MINUS_ALPHA_SQ, o3))),
    )


def _next_word(w: PolyElement, k: int) -> PolyElement:
    """w_{k+1} = (w_k c_k w_k*) c_k* from w = w_k."""
    c = _linear(k)
    return _poly_multiply(_poly_multiply(_poly_multiply(w, c), _poly_star(w)), _poly_star(c))


def commutator_polynomials(n_max: int = EXPANDED_WORDS) -> list[PolyElement]:
    """w_1 .. w_{n_max}(u, v) over C2 * Z with alpha-free coefficients.

    Built fresh on every call; the exact rows keep only their traces.
    """
    out = [_linear(0)]
    for k in range(1, n_max):
        out.append(_next_word(out[-1], k))
    return out


class _ExactTraces:
    """tau_1 .. tau_5 as integer coefficients of alpha, lowest degree first,
    each built the first time a row asks for it.

    Only the traces and the last word still needed are kept.  tau_n for
    n <= 4 is read off w_n, which is checked exactly first: Parseval
    (tau(w* w) = 1 as a polynomial) for every w_n and w_n* w_n = 1 word by
    word for n <= 3.  tau_5 pairs w_4 with itself, and w_4 is dropped.
    """

    def __init__(self):
        self.taus: list[tuple[int, ...]] = []
        self.word: PolyElement | None = None

    def __getitem__(self, n: int) -> tuple[int, ...]:
        while len(self.taus) < n:
            self.taus.append(tuple(self._next_trace(len(self.taus) + 1)))
        return self.taus[n - 1]

    def _next_trace(self, n: int) -> list[int]:
        if n > EXPANDED_WORDS:
            tau, self.word = paired_trace(self.word, EXPANDED_WORDS), None
            return tau
        w = _linear(0) if n == 1 else _next_word(self.word, n - 1)
        if _parseval(w) != [1]:
            raise ArithmeticError(f"w_{n} violates Parseval: tau(w* w) != 1")
        if n <= 3 and not _poly_multiply(_poly_star(w), w).is_one():
            raise ArithmeticError(f"w_{n} is not unitary")
        self.word = w
        [row], = _lookup(w, _encode([()]))  # tau(w) is the coefficient at the empty word
        return _padd(w.coeffs[row].tolist()) if row >= 0 else [0]


_EXACT_TRACES = _ExactTraces()


def trace_polynomials() -> tuple[tuple[int, ...], ...]:
    """tau_1 .. tau_5, each computed once per process (see ``_ExactTraces``)."""
    return tuple(_EXACT_TRACES[n] for n in range(1, EXACT_ROWS + 1))


def _evaluate(poly: tuple[int, ...], alpha: float) -> tuple[int, int]:
    """The polynomial at the exact binary value p/q of alpha, as a fraction
    (numerator, q^degree) of integers."""
    p, q = alpha.as_integer_ratio()
    degree = len(poly) - 1
    return sum(c * p**k * q ** (degree - k) for k, c in enumerate(poly)), q**degree


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
            num, den = _evaluate(_EXACT_TRACES[n], alpha)
            # integer true division rounds correctly: one rounding per value
            trace = num / den
            ell_n = math.sqrt((2 * den - 2 * num) / den)
            ell_bar_n = math.sqrt((2 * den - 2 * abs(num)) / den)
            source = "exact" if n <= EXPANDED_WORDS else "exact_trace"
        else:
            # tau_n >= alpha^2 >= 0 from n = 2 on, so |tau| = tau
            trace, source = tau_rec, "recursion"
            ell_n = ell_bar_n = ell_rec
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
