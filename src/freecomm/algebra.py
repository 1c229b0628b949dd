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

This module alone reads the rows and coefficient arrays, and it guards
every int64 product and float64 pairing against overflow.  The decay words
are built from ``conjugate_word``, ``unitary_commutator``, ``parseval`` and
``paired_trace``.  C2 * C2 sits inside as <x, v x v^-1>, where
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

#: float64 holds every integer below this exactly
_FLOAT_EXACT = 2**53

#: the most bytes ``multiply`` may hold: a word pair's int8 row and index
#: arrays and its int64 sum, and one block's shifts and products.  X c_3* in
#: the w_4 build, the largest product of any CLI path, counts 14.5 MB
_GRID_BUDGET = 2**30

#: the intp arrays ``_row_products`` holds a pair: its two indices, both
#: lengths and flat offsets, the cancelled depth, the live list, the merge
#: flag, a's kept prefix and b's shift, and one for the narrower temporaries
_PAIR_INDEX_BYTES = 12 * 8

#: the bytes of int64 shifts and products ``multiply`` aims one block at
_BLOCK_BYTES = 2**19


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
        if not isinstance(v, int) or isinstance(v, bool):
            return False
        if fac is Z:
            return v != 0
        return 0 <= v < fac.order and v != fac.identity

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
    b's own columns: one gather of windows over b's rows padded with
    ``_PAD`` places every suffix at once.
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
    lead = max(int(shift.max(initial=0)), 0)
    padded = np.pad(b, ((0, 0), (lead, width)), constant_values=_PAD)
    out = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)[j, lead - shift]
    cols = min(a.shape[1], width)
    prefix = np.arange(cols, dtype=np.int32) < keep[:, None].astype(np.int32)
    np.copyto(out[:, :cols], a[i, :cols], where=prefix)
    hit = np.flatnonzero(m)
    out[hit, keep[hit]] = merged[hit]
    return out


def _lookup(w: PolyElement, *queries: np.ndarray) -> list[np.ndarray]:
    """For each array of query rows, the index of each row's word in w's
    support, -1 where it is not there; a sorted support is one merge-sort run."""
    width = w.rows.shape[1]
    own = _keys(w.rows)
    order = np.argsort(own, kind="stable")
    own = own[order]
    out = []
    for rows in queries:
        # a word longer than all of w's keeps no _PAD in its first width
        # columns, so it matches none of w's rows, which all end in _PAD
        keys = _keys(_widen(rows, max(width, rows.shape[1]))[:, :width])
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
    them by XOR, and ``_words`` checks that equal words agree.  The words
    are distinct, as ``add`` and ``multiply`` leave them; both rely on it.
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
    """The largest |entry| as a Python int: np.abs would wrap at -2^63."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop the trailing zero degrees of alpha and of beta, keeping one of each."""
    while coeffs.shape[1] > 1 and not coeffs[:, -1].any():
        coeffs = coeffs[:, :-1]
    while coeffs.shape[2] > 1 and not coeffs[:, :, -1].any():
        coeffs = coeffs[:, :, :-1]
    return coeffs


def _sort_words(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of the rows by their bytes, and which rows in that
    order begin a new word.  The merge sort takes each run of rows already
    in order in one pass."""
    keys = _keys(rows)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return order, starts


def _words(rows: np.ndarray, parity: np.ndarray, a: PolyElement,
           b: PolyElement) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words of the rows of a sum or a product of a and b, sorted by
    their bytes: the word of each row, the first row of each word, and
    which words can sum to 0.  A word met once carries one polynomial of an
    operand, or the product of one of each times gamma_t^2 = t^2 - 1 where
    both are odd in t, so unless an operand holds a zero polynomial only
    the words met more than once can vanish.  Equal words carrying
    different parities raise ArithmeticError."""
    order, starts = _sort_words(rows)
    word = np.empty(len(rows), dtype=np.intp)
    word[order] = np.cumsum(starts) - 1
    first = order[starts]
    if (parity != parity[first][word]).any():
        raise ArithmeticError("equal words carry different parities")
    if a.coeffs.any(axis=(1, 2)).all() and b.coeffs.any(axis=(1, 2)).all():
        suspect = np.diff(np.flatnonzero(np.append(starts, True))) > 1
    else:
        suspect = np.ones(len(first), dtype=bool)
    return word, first, suspect


def _element(rows: np.ndarray, sums: np.ndarray, parity: np.ndarray,
             suspect: np.ndarray) -> PolyElement:
    """The words ``rows`` with the polynomials ``sums``, less those of the
    ``suspect`` words that are 0, with the rows and degrees trimmed."""
    zero = np.flatnonzero(suspect)
    zero = zero[~sums[zero].any(axis=(1, 2))]
    if zero.size:
        rows, sums, parity = (np.delete(x, zero, axis=0) for x in (rows, sums, parity))
    while rows.shape[1] > 1 and (rows[:, -2] == _PAD).all():  # no word left is that long
        rows = rows[:, :-1]
    # a trimmed view would be copied again by each product's ravel
    return PolyElement(np.ascontiguousarray(rows), _trim(sums), parity)


def _widen(rows: np.ndarray, width: int) -> np.ndarray:
    if rows.shape[1] == width:
        return rows
    out = np.full((len(rows), width), _PAD, dtype=np.int8)
    out[:, : rows.shape[1]] = rows
    return out


def add(a: PolyElement, b: PolyElement) -> PolyElement:
    """Sum of two elements: both supports stacked, rows padded to one width,
    and each operand's polynomials written straight into the sum's words,
    padded to one degree shape, with no stacked copy of them.  Equal words
    carrying different parities raise ArithmeticError."""
    # a word's sum holds at most one term per row of a and of b
    _check_int64(max(_max_abs(a.coeffs), _max_abs(b.coeffs)), a.support_size + b.support_size)
    width = max(a.rows.shape[1], b.rows.shape[1])
    rows = np.concatenate([_widen(a.rows, width), _widen(b.rows, width)])
    parity = np.concatenate([a.parity, b.parity])
    word, first, suspect = _words(rows, parity, a, b)
    (na, da, ea), (nb, db, eb) = a.coeffs.shape, b.coeffs.shape
    sums = np.zeros((len(first), max(da, db), max(ea, eb)), dtype=np.int64)
    # the larger operand is written in place and the smaller added through
    # a gathered copy of its words, which are distinct
    parts = [(word[:na], a.coeffs), (word[na:], b.coeffs)]
    if na < nb:
        parts.reverse()
    (at, big), (at_small, small) = parts
    sums[at, : big.shape[1], : big.shape[2]] = big
    sums[at_small, : small.shape[1], : small.shape[2]] += small
    return _element(rows[first], sums, parity[first], suspect)


def multiply(a: PolyElement, b: PolyElement) -> PolyElement:
    """Convolution product: the product's words first, then each block of
    polynomials added straight into its words' sums.

    Every pair of words is spelled by ``_row_products`` and the rows are
    sorted once, which gives each pair its word and sizes the sorted int64
    sums.  The operand with fewer degree cells (d, e), the narrow one,
    indexes the inner dimension of one int64 product per block of the other
    operand's words: the block's polynomials are shifted by each cell once,
    and a narrow word's polynomial weights the shifts into its products
    with the block.  Where both words are odd in a variable t,
    gamma_t^2 = t^2 - 1: the pair's polynomial p becomes t^2 p - p, read
    off two spare degrees of t that are allocated only when some pair needs
    them.  The block's products are then added into their sums by one
    indexed add per narrow word, or per word of the block where those are
    fewer.  The adds need no care for collisions: the products of one word
    with distinct words are distinct, since multiplying by a fixed group
    element is injective and an operand's words are distinct.  The pairs
    run major over the narrow operand, so where its word is the empty word
    the other operand's words come out in their own sorted order.

    Raises MemoryError, before it allocates, when the pairs' rows and
    index arrays, the int64 sums, counted at one word per pair, and one
    block's shifts and products would exceed ``_GRID_BUDGET`` bytes; the
    budget sits far above the largest product any CLI path builds, X c_3*
    in the w_4 build.
    """
    (na, da, ea), (nb, db, eb) = a.coeffs.shape, b.coeffs.shape
    # an entry sums min(da, db) min(ea, eb) products a pair, doubled by each gamma^2
    _check_int64(_max_abs(a.coeffs), _max_abs(b.coeffs), min(da, db) * min(ea, eb), 4 * na * nb)
    narrow, wide = (a, b) if da * ea <= db * eb else (b, a)
    (nn, dn, en), (nw, dw, ew) = narrow.coeffs.shape, wide.coeffs.shape
    spare = 2 * (a.parity.any(axis=0) & b.parity.any(axis=0))  # where some pair is odd
    d_out, e_out = da + db - 1 + int(spare[0]), ea + eb - 1 + int(spare[1])
    poly = 8 * d_out * e_out  # the bytes of one int64 polynomial of the product
    block = max(min(_BLOCK_BYTES // ((dn * en + nn) * poly), nw), 1)  # wide words a block
    # a pair's row has at most wa + wb - 1 codes, spelled beside a gathered
    # copy of a's row and its prefix mask
    row = 3 * a.rows.shape[1] + b.rows.shape[1] + _PAIR_INDEX_BYTES
    need = na * nb * (poly + row) + (dn * en + nn) * block * poly
    if need > _GRID_BUDGET:
        raise MemoryError(f"{na * nb} word pairs need {need} bytes of rows and int64 "
                          f"polynomials; the budget is {_GRID_BUDGET}")
    pairs = np.repeat(np.arange(nn), nw), np.tile(np.arange(nw), nn)  # (narrow, wide) words
    rows = _row_products(a.rows, b.rows, *(pairs if narrow is a else pairs[::-1]))
    del pairs
    parity = (narrow.parity[:, None] ^ wide.parity[None]).reshape(-1, 2)
    word, first, suspect = _words(rows, parity, a, b)
    rows, parity, word = rows[first], parity[first], word.reshape(nn, nw)
    odd = (narrow.parity[:, None] & wide.parity[None]).astype(bool)
    sums = np.zeros((len(first), d_out, e_out), dtype=np.int64)
    for start in range(0, nw, block):
        stop = min(start + block, nw)
        shifted = np.zeros((dn, en, stop - start, d_out, e_out), dtype=np.int64)
        for d, e in itertools.product(range(dn), range(en)):
            shifted[d, e, :, d : d + dw, e : e + ew] = wide.coeffs[start:stop]
        prod = narrow.coeffs.reshape(nn, dn * en) @ shifted.reshape(dn * en, -1)
        prod = prod.reshape(nn, stop - start, d_out, e_out)
        del shifted  # before the gamma^2 rolls, which copy the odd pairs
        for axis in np.flatnonzero(spare):
            hit = odd[:, start:stop, axis]
            p = prod[hit]
            prod[hit] = np.roll(p, 2, axis=axis + 1) - p
        at = word[:, start:stop]
        if nn > stop - start:
            prod, at = prod.swapaxes(0, 1), at.T
        for polys, words in zip(prod, at):
            sums[words] += polys
    return _element(rows, sums, parity, suspect)


def star(a: PolyElement) -> PolyElement:
    """Adjoint: words reversed with v^k -> v^-k; conj(gamma_t) = -gamma_t
    flips the sign of every word odd in exactly one variable."""
    back = _lengths(a.rows)[:, None] - 1 - np.arange(a.rows.shape[1])  # the column read backwards
    rows = np.where(back >= 0, -np.take_along_axis(a.rows, np.maximum(back, 0), axis=1), _PAD)
    sign = 1 - 2 * (a.parity[:, 0] ^ a.parity[:, 1]).astype(np.int64)
    return PolyElement(rows, a.coeffs * sign[:, None, None], a.parity)


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


def conjugate_word(k: int) -> Word:
    """y = v^k x v^-k as a flat word of C2 * Z; k = 0 is x itself."""
    return (1, k, 0, 1, 1, -k) if k else (0, 1)


def unitary_commutator(w: PolyElement, c: PolyElement) -> PolyElement:
    """w c w* c* for a w with w w* = 1, which the caller checks, as
    (t + w (c - t) w*) c*, t the coefficient of c's empty word.  For
    c = t + gamma_t g, as ``unitary`` builds it, w c w* then takes
    |w| + |w|^2 pairs instead of the 2|w| + 2|w|^2 of (w c) w*."""
    empty = c.rows[:, 0] == _PAD
    t, rest = (PolyElement(c.rows[r], _trim(c.coeffs[r]), c.parity[r]) for r in (empty, ~empty))
    return multiply(add(t, multiply(multiply(w, rest), star(w))), star(c))


# -- exact pairings of alpha-only words ---------------------------------------------


def _sum_of_products(p: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """sum_i p_i * q_i over the rows, q = p if omitted, as one polynomial: its
    int64 coefficients of alpha, len(p[0]) + len(q[0]) - 1 of them even for no rows.

    One float64 GEMM, a symmetric rank-k update for q = p: every partial sum
    of the integer products is at most rows * max|p| * max|q| in size, so
    below 2^53 each is exact, whatever order BLAS sums in.
    """
    bound = _max_abs(p) * _max_abs(p if q is None else q) * len(p)
    if bound >= _FLOAT_EXACT:
        raise OverflowError(f"a float64 pairing may round (bound {bound} >= 2^53)")
    f = p.astype(np.float64)
    m = (f.T @ (f if q is None else q.astype(np.float64))).astype(np.int64)  # alpha^(d + e)
    _check_int64(bound, min(m.shape))  # each entry of out sums at most min(m.shape) of m's
    out = np.zeros(sum(m.shape) - 1, dtype=np.int64)
    np.add.at(out, np.add.outer(*map(np.arange, m.shape)), m)
    return out


def _pairing(w: PolyElement, images: np.ndarray | None, weights: np.ndarray) -> np.ndarray:
    """sum of weight * P_g P_image(g) over the maps, one row of ``images``
    each (-1 where a word's image is not in the support), and over the even
    and the odd words g, as int64 coefficients of alpha.  ``images`` None is
    the identity alone, each parity's rows gathered once.  ``weights[map,
    parity]`` holds a fixed polynomial in alpha, lowest degree first.  The
    decay words carry alpha alone: their beta degree and parity are 0.
    """
    parity, coeffs = w.parity[:, 0], w.coeffs[:, :, 0]
    if images is None:
        sums = [_sum_of_products(coeffs[parity == p]) for p in (0, 1)]
    else:
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


def parseval(w: PolyElement) -> Grid:
    """tau(w* w) = sum over words of |gamma|^(2 parity) P^2."""
    return _grid(_pairing(w, None, _PARSEVAL_WEIGHTS)[:, None])


def paired_trace(w: PolyElement, k: int) -> Grid:
    """tau(w c w* c*) with c = alpha + gamma y, y = v^k x v^-k, as <w c, c w>,
    for a w with <w, w> = tau(w* w) = 1, as ``parseval`` checks.

    Neither w c nor c w is formed: (w c)(g) = alpha w(g) + gamma w(g y) and
    (c w)(g) = alpha w(g) + gamma w(y g), so, with conj(gamma) = -gamma,

        <w c, c w> = alpha^2 <w, w> + alpha (1 - alpha^2) (S(y g) - S(g y))
                     + (1 - alpha^2) T(y g y),

    sums over the words g of w whose image under the map lies in w's support.
    y g and g y flip the parity p of g, so w(g) conj(w(image)) carries one
    gamma and the sign (-1)^(1 - p): S = odd - even.  y g y keeps the
    parity: T = even + (1 - alpha^2) odd, as in <w, w>.
    """
    y = _encode([conjugate_word(k)])
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


# -- the commutator trace identity over C2 * C2 ------------------------------------

#: tau(uv) = alpha beta, as a ``trace`` grid
PRODUCT_RULE = ((0, 0), (0, 1))

#: tau(u v u* v*) = 1 - (1 - alpha^2)(1 - beta^2) = alpha^2 + beta^2 - alpha^2 beta^2
COMMUTATOR_CLOSED_FORM = ((0, 0, 1), (0, 0, 0), (1, 0, -1))


def free_pair() -> tuple[PolyElement, PolyElement]:
    """u = alpha + gamma_alpha x and beta + gamma_beta y, y = v x v^-1:
    free unitaries with traces alpha and beta on the two factors of C2 * C2."""
    return unitary(conjugate_word(0), 0), unitary(conjugate_word(1), 1)


@functools.cache
def _free_pair_traces() -> tuple[Grid, Grid]:
    """tau(uv) and tau(u v u* v*) of the free pair, expanded once per process.

    Raises ArithmeticError unless u u* = 1, the premise of
    ``unitary_commutator``, and u v u* v* is unitary, both word by word.
    """
    u, v = free_pair()
    if not is_unitary(star(u)):
        raise ArithmeticError("u is not unitary: u u* != 1")
    comm = unitary_commutator(u, v)
    if not is_unitary(comm):
        raise ArithmeticError("u v u* v* is not unitary")
    return trace(multiply(u, v)), trace(comm)


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
