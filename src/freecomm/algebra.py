"""Exact *-algebra arithmetic on free products of groups.

``FreeProductGroup`` reduces words of a free product (factors: finite
groups or infinite cyclic) to normal form.  Words are flat tuples (factor,
value, factor, value, ...) with adjacent factors distinct; a factor is
named by its index or by its mapping label.  For a finite factor the value
is a non-identity element index, for an infinite cyclic factor it is a
nonzero exponent.

``PolyElement`` is the package's one group-algebra element type, over
C2 * Z = <x> * <v>, its words rows of int8 syllable codes.  A trace
variable t (alpha or beta) enters through a unitary t + gamma_t g, g an
involution and gamma_t = i sqrt(1 - t^2), so every coefficient is
gamma_alpha^p gamma_beta^q times an integer polynomial in alpha and beta,
(p, q) the word's parities, and products substitute gamma_t^2 = t^2 - 1.
Nothing is rounded: an identity in the algebra is an identity of integer
polynomials for every alpha and beta.  The trace is the coefficient of the
empty word, and freeness of the factor subalgebras is structural, so
products are expanded word by word and no trace formula is assumed.
C2 * C2 sits inside as <x, v x v^-1>, where
``verify_free_commutator_identity`` proves the commutator trace identity.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .groups import FiniteGroup

#: marker for an infinite cyclic free factor
Z = "Z"

Word = tuple

#: ends a row of int8 syllable codes; v^k needs |k| <= 127 so never meets it
_PAD = -128
_MAX_EXPONENT = 127

_INT64_MAX = int(np.iinfo(np.int64).max)


class FreeProductGroup:
    """Free product of cyclic/finite factors with normal-form word arithmetic.

    ``factors`` maps labels to factors; a sequence is labelled by index.
    This is the package's one normal-form engine: algebra words, free-group
    words and mixed words all reduce through ``concat``, ``inverse_word``
    and ``normal_form``.
    """

    def __init__(self, factors: Sequence[FiniteGroup | str] | Mapping[Hashable, FiniteGroup | str]):
        self.factors = dict(factors if isinstance(factors, Mapping) else enumerate(factors))
        for fac in self.factors.values():
            if fac is not Z and not isinstance(fac, FiniteGroup):
                raise ValueError(f"factor must be a FiniteGroup or Z, got {fac!r}")

    def syllable_valid(self, f, v) -> bool:
        if f not in self.factors:
            return False
        fac = self.factors[f]
        if fac is Z:
            return isinstance(v, int) and v != 0
        return isinstance(v, int) and 0 <= v < fac.order and v != fac.identity

    def word(self, syllables: Iterable[tuple]) -> Word:
        """Build a word from (factor, value) pairs, validating normal form."""
        flat: list = []
        prev = object()
        for f, v in syllables:
            if not self.syllable_valid(f, v):
                raise ValueError(f"invalid syllable ({f!r}, {v!r})")
            if f == prev:
                raise ValueError("adjacent syllables from the same factor")
            flat.extend((f, v))
            prev = f
        return tuple(flat)

    def normal_form(self, syllables: Iterable[tuple]) -> Word:
        """Normal form of any (factor, value) sequence.

        A fold of ``concat`` over the syllables; trivial syllables are
        dropped, and a merge that cancels re-exposes the syllable before it.
        """
        out: Word = ()
        for f, v in syllables:
            fac = self.factors[f]
            if v != (0 if fac is Z else fac.identity):
                out = self.concat(out, self.word([(f, v)]))
        return out

    def concat(self, a: Word, b: Word) -> Word:
        """Product of two normal-form words, reduced at the boundary."""
        if not a:
            return b
        if not b:
            return a
        ai = len(a)
        bj = 0
        mid: Word = ()
        while ai > 0 and bj < len(b):
            f = a[ai - 2]
            if f != b[bj]:
                break
            fac = self.factors[f]
            if fac is Z:
                v = a[ai - 1] + b[bj + 1]
                trivial = v == 0
            else:
                v = fac.mul(a[ai - 1], b[bj + 1])
                trivial = v == fac.identity
            ai -= 2
            bj += 2
            if not trivial:
                mid = (f, v)
                break
        return a[:ai] + mid + b[bj:]

    def inverse_word(self, w: Word) -> Word:
        out: list[int] = []
        for i in range(len(w) - 2, -1, -2):
            f, v = w[i], w[i + 1]
            fac = self.factors[f]
            out.extend((f, -v if fac is Z else fac.inv(v)))
        return tuple(out)


def ell_from_trace(tau: complex) -> float:
    return math.sqrt(max(0.0, 2.0 - 2.0 * tau.real))


def ell_bar_from_trace(tau: complex) -> float:
    return math.sqrt(max(0.0, 2.0 * (1.0 - abs(tau))))


# -- words of C2 * Z as int8 rows ---------------------------------------------------


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
    """int8 rows back to flat words of C2 * Z."""
    return [tuple(itertools.chain.from_iterable((0, 1) if s == 0 else (1, s)
                                                for s in row if s != _PAD))
            for row in rows.tolist()]


def _check_exponents(largest: int) -> None:
    """Raise unless |k| <= 127 for v^k: int8 would wrap, and -128 is ``_PAD``."""
    if largest > _MAX_EXPONENT:
        raise OverflowError(f"a syllable v^k with |k| = {largest} does not fit in int8")


def _lengths(rows: np.ndarray) -> np.ndarray:
    """Syllables per row: the column of each row's first ``_PAD``."""
    return np.argmax(rows == _PAD, axis=1)


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
    prefix = np.arange(cols, dtype=np.int32) < keep[:, None].astype(np.int32)
    np.copyto(out[:, :cols], a[i, :cols], where=prefix)
    hit = np.flatnonzero(m)
    out[hit, keep[hit]] = merged[hit]
    return out


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


# -- the group algebra --------------------------------------------------------------


class PolyElement:
    """Element of the group algebra of C2 * Z with alpha- and beta-free coefficients.

    ``rows[i]`` spells word i in int8 syllable codes (0 is x, k != 0 is
    v^k, then ``_PAD``).  Its coefficient is
    gamma_alpha^parity[i, 0] gamma_beta^parity[i, 1] P_i(alpha, beta),
    and ``coeffs[i, d, e]`` is the integer coefficient of alpha^d beta^e
    in P_i.  The parities are a function of the word: products combine
    them by XOR, and ``_collect`` checks that equal words agree.
    """

    __slots__ = ("rows", "coeffs", "parity")

    def __init__(self, rows: np.ndarray, coeffs: np.ndarray, parity: np.ndarray):
        self.rows = rows
        self.coeffs = coeffs
        self.parity = parity

    @property
    def words(self) -> list[tuple]:
        """The support as flat words of C2 * Z, decoded on access."""
        return _decode(self.rows)

    @property
    def support_size(self) -> int:
        return len(self.rows)

    def is_one(self) -> bool:
        return (not _lengths(self.rows).any() and not self.parity.any()
                and self.coeffs.tolist() == [[[1]]])


def _check_int64(*factors: int) -> None:
    """Raise unless the product of these bounds (largest entries, terms
    summed into one entry) fits in int64; called before every int64 product."""
    if math.prod(factors) > _INT64_MAX:
        raise OverflowError(f"an int64 product may overflow (bound {math.prod(factors)})")


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop the trailing zero degrees of alpha and of beta, keeping one of each."""
    alpha = np.flatnonzero(coeffs.any(axis=(0, 2)))
    beta = np.flatnonzero(coeffs.any(axis=(0, 1)))
    return coeffs[:, : alpha[-1] + 1 if alpha.size else 1, : beta[-1] + 1 if beta.size else 1]


def _collect(rows: np.ndarray, coeffs: np.ndarray, parity: np.ndarray) -> PolyElement:
    """Sum the coefficients of equal words and drop the words that sum to 0;
    the words come out sorted by their bytes.  A word met once is gathered
    straight into place, and only the words met more than once are summed.
    Equal words carrying different parities raise ArithmeticError."""
    keys = _keys(rows)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    group = np.cumsum(starts) - 1  # the word of each sorted row
    first = order[starts]
    if (parity[order] != parity[first][group]).any():
        raise ArithmeticError("equal words carry different parities")
    sums = coeffs[first]
    counts = np.diff(np.flatnonzero(np.append(starts, True)))
    repeated = np.flatnonzero(counts[group] > 1)  # sorted rows of words met more than once
    if repeated.size:
        heads = np.flatnonzero(starts[repeated])
        sums[counts > 1] = np.add.reduceat(coeffs[order[repeated]], heads, axis=0)
    nonzero = sums.any(axis=(1, 2))
    if not nonzero.all():  # only a sum of repeats, or a zero given as input, can vanish
        sums, first = sums[nonzero], first[nonzero]
    rows = rows[first]
    return PolyElement(rows[:, : _lengths(rows).max(initial=0) + 1], _trim(sums), parity[first])


def _sorted_words(rows: np.ndarray) -> bool:
    """True iff the rows strictly increase in their bytes read unsigned, the
    order ``_collect`` leaves its words in: compared eight bytes at a time
    as big-endian integers, from the last such column to the first."""
    n, width = rows.shape
    padded = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = rows.view(np.uint8)
    words = padded.view(">u8")
    later, earlier = words[1:], words[:-1]
    increasing = np.zeros(len(later), dtype=bool)
    for k in reversed(range(words.shape[1])):
        increasing = (later[:, k] > earlier[:, k]) | ((later[:, k] == earlier[:, k]) & increasing)
    return bool(increasing.all())


def _widen(rows: np.ndarray, width: int) -> np.ndarray:
    if rows.shape[1] == width:
        return rows
    out = np.full((len(rows), width), _PAD, dtype=np.int8)
    out[:, : rows.shape[1]] = rows
    return out


def add(a: PolyElement, b: PolyElement) -> PolyElement:
    """Sum of two elements.

    Words sorted by their bytes with no repeats and no zero coefficients,
    as ``_collect`` leaves them, are merged as they are: the smaller
    support's words are placed among the larger's by binary search, only
    the words both hold are summed, and those of them that sum to 0 are
    dropped.  An operand in any other order goes through ``_collect`` first.
    """
    # a word's sum holds at most one term per row of a and of b
    _check_int64(max(_max_abs(a.coeffs), _max_abs(b.coeffs)), a.support_size + b.support_size)
    a, b = (x if _sorted_words(x.rows) and x.coeffs.any(axis=(1, 2)).all()
            else _collect(x.rows, x.coeffs, x.parity) for x in (a, b))
    big, small = (a, b) if a.support_size >= b.support_size else (b, a)
    width = max(a.rows.shape[1], b.rows.shape[1])
    rows_big, rows_small = _widen(big.rows, width), _widen(small.rows, width)
    # the row of big at or after each word of small
    at = np.searchsorted(_keys(rows_big), _keys(rows_small))
    shared = np.zeros(len(at), dtype=bool)
    inside = np.flatnonzero(at < len(rows_big))
    shared[inside] = (rows_big[at[inside]] == rows_small[inside]).all(axis=1)
    if (big.parity[at[shared]] != small.parity[shared]).any():
        raise ArithmeticError("equal words carry different parities")
    new = np.flatnonzero(~shared)
    from_small = at[new] + np.arange(len(new))  # the sum's rows that hold small's new words
    from_big = np.ones(len(rows_big) + len(new), dtype=bool)
    from_big[from_small] = False
    from_big = np.flatnonzero(from_big)
    rows = np.empty((len(from_big) + len(new), width), dtype=np.int8)
    rows[from_big], rows[from_small] = rows_big, rows_small[new]
    (_, db, eb), (_, ds, es) = big.coeffs.shape, small.coeffs.shape
    coeffs = np.zeros((len(rows), max(db, ds), max(eb, es)), dtype=np.int64)
    coeffs[from_big, :db, :eb] = big.coeffs
    coeffs[from_small, :ds, :es] = small.coeffs[new]
    summed = from_big[at[shared]]
    coeffs[summed, :ds, :es] += small.coeffs[shared]
    parity = np.empty((len(rows), 2), dtype=np.result_type(big.parity, small.parity))
    parity[from_big], parity[from_small] = big.parity, small.parity[new]
    vanished = summed[~coeffs[summed].any(axis=(1, 2))]
    if vanished.size:
        rows, coeffs, parity = (np.delete(x, vanished, axis=0) for x in (rows, coeffs, parity))
    return PolyElement(rows[:, : _lengths(rows).max(initial=0) + 1], _trim(coeffs), parity)


def multiply(a: PolyElement, b: PolyElement) -> PolyElement:
    """Convolution product over the full grid of word pairs.

    The pairs run word by word of the operand with more words, the tall
    one.  One int64 product gives every pair's polynomial, one row per
    pair: the tall operand's polynomials, flattened one row per word, times
    the Toeplitz matrix of the short one, whose column block s multiplies
    by its polynomial s.  Where both words are odd in a variable t,
    gamma_t^2 = t^2 - 1: the pair's polynomial p becomes t^2 p - p, read
    off two spare degrees of t that are allocated only when some pair
    needs them.
    """
    tall, short = (a, b) if a.support_size >= b.support_size else (b, a)
    nt, ns = tall.support_size, short.support_size
    _, dt, et = tall.coeffs.shape
    _, ds, es = short.coeffs.shape
    # an entry sums min(da, db) min(ea, eb) products a pair, doubled by each gamma^2
    _check_int64(_max_abs(a.coeffs), _max_abs(b.coeffs), min(dt, ds) * min(et, es), 4 * nt * ns)
    by_tall, by_short = np.repeat(np.arange(nt), ns), np.tile(np.arange(ns), nt)
    i, j = (by_tall, by_short) if tall is a else (by_short, by_tall)
    odd = (a.parity[i] & b.parity[j]).astype(bool)
    spare = 2 * odd.any(axis=0)
    d_out, e_out = dt + ds - 1 + spare[0], et + es - 1 + spare[1]
    toeplitz = np.zeros((dt, et, ns, d_out, e_out), dtype=np.int64)
    for d, e in itertools.product(range(dt), range(et)):
        toeplitz[d, e, :, d : d + ds, e : e + es] = short.coeffs
    prod = tall.coeffs.reshape(nt, dt * et) @ toeplitz.reshape(dt * et, ns * d_out * e_out)
    prod = prod.reshape(nt * ns, d_out, e_out)
    for axis in np.flatnonzero(spare):
        p = prod[odd[:, axis]]
        prod[odd[:, axis]] = np.roll(p, 2, axis=axis + 1) - p
    return _collect(_row_products(a.rows, b.rows, i, j), prod, a.parity[i] ^ b.parity[j])


def star(a: PolyElement) -> PolyElement:
    """Adjoint: words reversed with v^k -> v^-k; conj(gamma_t) = -gamma_t
    flips the sign of every word odd in exactly one variable."""
    rows = _reversed(a.rows)
    sign = 1 - 2 * (a.parity[:, 0] ^ a.parity[:, 1]).astype(np.int64)
    return PolyElement(np.where(rows == _PAD, _PAD, -rows), a.coeffs * sign[:, None, None], a.parity)


def is_unitary(a: PolyElement) -> bool:
    """True iff a* a = 1 word by word, as integer polynomials."""
    return multiply(star(a), a).is_one()


Grid = tuple  # tuple[tuple[int, ...], ...]: entry [d][e] multiplies alpha^d beta^e


def _grid(coeffs: np.ndarray) -> Grid:
    """An integer array whose entry [d, e] multiplies alpha^d beta^e, trimmed, as a grid."""
    return tuple(map(tuple, _trim(coeffs[None])[0].tolist()))


def trace(a: PolyElement) -> Grid:
    """The coefficient of the empty word, whose parities are 0, as an integer grid."""
    empty = np.flatnonzero(a.rows[:, 0] == _PAD)  # the one row that starts with _PAD
    return _grid(a.coeffs[empty[0]]) if empty.size else ((0,),)


def evaluate(grid: Grid, alpha: float, beta: float = 0.0) -> tuple[int, int]:
    """The polynomial of ``grid`` at the exact binary values p/q of alpha and
    r/s of beta, as a fraction (numerator, q^deg_alpha s^deg_beta) of
    integers; integer true division rounds it correctly, once."""
    (p, q), (r, s) = float(alpha).as_integer_ratio(), float(beta).as_integer_ratio()
    da, db = len(grid) - 1, len(grid[0]) - 1
    num = sum(c * p**d * q ** (da - d) * r**e * s ** (db - e)
              for d, row in enumerate(grid) for e, c in enumerate(row))
    return num, q**da * s**db


def unitary(word: Word, variable: int = 0) -> PolyElement:
    """t + gamma_t g for an involution g of C2 * Z given as a flat word,
    (0, 1) for x; t is alpha for ``variable`` 0 and beta for 1."""
    coeffs = np.zeros((2, 2, 2), dtype=np.int64)
    coeffs[0, 1 - variable, variable] = 1  # t at the empty word
    coeffs[1, 0, 0] = 1  # gamma_t at g
    parity = np.zeros((2, 2), dtype=np.int8)
    parity[1, variable] = 1
    return PolyElement(_encode([(), word]), _trim(coeffs), parity)


# -- the commutator trace identity over C2 * C2 ------------------------------------

#: y = v x v^-1, the second involution of C2 * C2 = <x, y> inside C2 * Z
_Y = (1, 1, 0, 1, 1, -1)

#: tau(uv) = alpha beta, as a ``trace`` grid
PRODUCT_RULE = ((0, 0), (0, 1))

#: tau(u v u* v*) = 1 - (1 - alpha^2)(1 - beta^2) = alpha^2 + beta^2 - alpha^2 beta^2
COMMUTATOR_CLOSED_FORM = ((0, 0, 1), (0, 0, 0), (1, 0, -1))


def free_pair() -> tuple[PolyElement, PolyElement]:
    """u = alpha + gamma_alpha x and beta + gamma_beta y, free unitaries with
    traces alpha and beta on the two factors of C2 * C2."""
    return unitary((0, 1), 0), unitary(_Y, 1)


@functools.cache
def _free_pair_traces() -> tuple[Grid, Grid]:
    """tau(uv) and tau(u v u* v*) of the free pair, expanded once per process.

    Raises ArithmeticError unless u v u* v* is unitary word by word.
    """
    u, v = free_pair()
    uv = multiply(u, v)
    comm = multiply(multiply(uv, star(u)), star(v))
    if not is_unitary(comm):
        raise ArithmeticError("u v u* v* is not unitary")
    return trace(uv), trace(comm)


@dataclass(frozen=True)
class CommutatorTraceCheck:
    """The commutator trace against its closed form at one (alpha, beta).

    ``lhs``, ``rhs`` and ``deviation`` are each rounded once from their
    exact values; ``proved`` says that tau(uv) = alpha beta and the closed
    form hold as polynomials, which makes every deviation 0.
    """

    alpha: float
    beta: float
    lhs: float
    rhs: float
    deviation: float
    proved: bool


def verify_free_commutator_identity(alpha: float, beta: float) -> CommutatorTraceCheck:
    """tau(u v u* v*) for the free pair at (alpha, beta), against the closed form.

    u and v are unitaries with traces alpha, beta on the two distinct free
    factors of C2 * C2, so their freeness is structural, not assumed.
    """
    if not (-1.0 < alpha < 1.0 and -1.0 < beta < 1.0):
        raise ValueError("alpha and beta must lie strictly inside (-1, 1)")
    tau_uv, tau_comm = _free_pair_traces()
    (ln, ld), (rn, rd) = evaluate(tau_comm, alpha, beta), evaluate(COMMUTATOR_CLOSED_FORM, alpha, beta)
    proved = tau_uv == PRODUCT_RULE and tau_comm == COMMUTATOR_CLOSED_FORM
    return CommutatorTraceCheck(alpha, beta, ln / ld, rn / rd, abs(ln * rd - rn * ld) / (ld * rd), proved)
