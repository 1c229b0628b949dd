"""Exact *-algebra arithmetic on free products of groups.

Elements are finitely supported complex functions on the normal-form words
of a free product (factors: finite groups or infinite cyclic), multiplied
by convolution.  The trace is the coefficient of the empty word; freeness
of the factor subalgebras is automatic in this model, which is what makes
it a trustworthy oracle for commutator trace identities: nothing here
assumes any trace formula, products are expanded word by word.

Words are flat tuples (factor, value, factor, value, ...) with adjacent
factors distinct; a factor is named by its index or by its mapping label.
For a finite factor the value is a non-identity element index, for an
infinite cyclic factor it is a nonzero exponent.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

from .groups import FiniteGroup

#: marker for an infinite cyclic free factor
Z = "Z"

#: coefficients with modulus below this are dropped after every operation
PRUNE_THRESHOLD = 1e-15

#: bound on the convolution working set (support pairs) and result support
DEFAULT_SUPPORT_CAP = 2_000_000

#: unitarity tolerance used by the length functions
UNITARY_TOL = 1e-9

Word = tuple


class SupportCapExceeded(RuntimeError):
    """A product would touch more than ``DEFAULT_SUPPORT_CAP`` word pairs.

    The cap bounds the convolution working set, and so the size of the
    stored result; hitting it raises instead of truncating silently.
    """

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"product needs {needed} support pairs, exceeding the cap of {cap}"
        )
        self.needed = needed
        self.cap = cap


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

    def is_infinite_cyclic(self, i) -> bool:
        return self.factors[i] is Z

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeProductGroup):
            return NotImplemented
        return self.factors.keys() == other.factors.keys() and all(
            fac is other.factors[f] for f, fac in self.factors.items()
        )

    def __repr__(self) -> str:
        names = ["Z" if fac is Z else fac.name for fac in self.factors.values()]
        return "FreeProductGroup(" + " * ".join(names) + ")"


class AlgebraElement:
    """Finitely supported element of the group algebra of a free product.

    Immutable after construction; all operations return new elements.
    """

    __slots__ = ("ambient", "_coeffs")

    def __init__(self, ambient: FreeProductGroup, coeffs: Mapping[Word, complex]):
        pruned = {}
        for w, c in coeffs.items():
            c = complex(c)
            if abs(c) >= PRUNE_THRESHOLD:
                pruned[w] = c
        self.ambient = ambient
        self._coeffs = pruned

    @classmethod
    def one(cls, ambient: FreeProductGroup, scale: complex = 1.0) -> "AlgebraElement":
        return cls(ambient, {(): scale})

    @classmethod
    def from_word(cls, ambient: FreeProductGroup, word: Word, scale: complex = 1.0) -> "AlgebraElement":
        return cls(ambient, {word: scale})

    @property
    def support_size(self) -> int:
        return len(self._coeffs)

    def coefficient(self, word: Word) -> complex:
        return self._coeffs.get(word, 0j)

    def items_sorted(self) -> list[tuple[Word, complex]]:
        return sorted(self._coeffs.items())

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_ambient(other)
        out = dict(self._coeffs)
        for w, c in other._coeffs.items():
            out[w] = out.get(w, 0j) + c
        return AlgebraElement(self.ambient, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __neg__(self) -> "AlgebraElement":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.ambient, {w: scalar * c for w, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return AlgebraElement(self.ambient, {w: c * other for w, c in self._coeffs.items()})

    def _check_ambient(self, other: "AlgebraElement") -> None:
        if self.ambient != other.ambient:
            raise ValueError("elements live over different free products")

    def __repr__(self) -> str:
        n = self.support_size
        return f"AlgebraElement(support={n}, trace={self.coefficient(()):.6g})"


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution product.

    Summation runs in sorted word order on both sides so results are
    bit-identical no matter how the operands were assembled.
    """
    a._check_ambient(b)
    pairs = a.support_size * b.support_size
    if pairs > DEFAULT_SUPPORT_CAP:
        raise SupportCapExceeded(pairs, DEFAULT_SUPPORT_CAP)
    concat = a.ambient.concat
    acc: dict[Word, complex] = {}
    b_items = b.items_sorted()
    for wa, ca in a.items_sorted():
        for wb, cb in b_items:
            w = concat(wa, wb)
            acc[w] = acc.get(w, 0j) + ca * cb
    return AlgebraElement(a.ambient, acc)


def star(a: AlgebraElement) -> AlgebraElement:
    """Adjoint: coefficient of w becomes the conjugate coefficient of w^-1."""
    inv = a.ambient.inverse_word
    return AlgebraElement(a.ambient, {inv(w): c.conjugate() for w, c in a._coeffs.items()})


def trace(a: AlgebraElement) -> complex:
    return a.coefficient(())


def is_unitary(a: AlgebraElement, tol: float = UNITARY_TOL) -> bool:
    """True iff every coefficient of a* a - 1 has modulus at most tol."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    p = multiply(star(a), a)
    dev = abs(p.coefficient(()) - 1.0)
    for w, c in p._coeffs.items():
        if w:
            dev = max(dev, abs(c))
    return dev <= tol


def ell_from_trace(tau: complex) -> float:
    return math.sqrt(max(0.0, 2.0 - 2.0 * tau.real))


def ell_bar_from_trace(tau: complex) -> float:
    return math.sqrt(max(0.0, 2.0 * (1.0 - abs(tau))))


def _require_unitary(a: AlgebraElement) -> None:
    if not is_unitary(a):
        raise ValueError("length functions are only defined for unitaries")


def ell(a: AlgebraElement) -> float:
    """2-norm distance from the identity, sqrt(2 - 2 Re trace)."""
    _require_unitary(a)
    return ell_from_trace(trace(a))


def ell_bar(a: AlgebraElement) -> float:
    """Projective length: 2-norm distance to the nearest unit scalar,
    sqrt(2 (1 - |trace|))."""
    _require_unitary(a)
    return ell_bar_from_trace(trace(a))


def order_two_unitary(ambient: FreeProductGroup, alpha: float, factor: int = 0) -> AlgebraElement:
    """The unitary alpha + i sqrt(1 - alpha^2) s over an order-two factor.

    Its trace is exactly alpha, which makes it the workhorse for realizing
    prescribed traces in the exact model.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (-1, 1)")
    fac = ambient.factors[factor]
    if fac is Z or fac.order != 2:
        raise ValueError("factor must be an order-two group")
    s = 1 - fac.identity  # the unique nontrivial element index
    word = ambient.word([(factor, s)])
    beta = 1j * math.sqrt(1.0 - alpha * alpha)
    return AlgebraElement(ambient, {(): alpha, word: beta})


def haar_generator(ambient: FreeProductGroup, factor: int) -> AlgebraElement:
    """Generator word of an infinite cyclic factor: all nonzero powers are
    traceless, i.e. a Haar unitary of the algebra."""
    if not ambient.is_infinite_cyclic(factor):
        raise ValueError("factor must be infinite cyclic")
    return AlgebraElement.from_word(ambient, ambient.word([(factor, 1)]))


def commutator_element(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return multiply(multiply(multiply(a, b), star(a)), star(b))


class CommutatorTraceCheck:
    """Exact commutator trace against the closed form 1 - (1-a^2)(1-b^2)."""

    __slots__ = ("alpha", "beta", "lhs", "rhs", "deviation")

    def __init__(self, alpha: float, beta: float, lhs: complex, rhs: float):
        self.alpha = alpha
        self.beta = beta
        self.lhs = lhs
        self.rhs = rhs
        self.deviation = abs(lhs - rhs)

    def __repr__(self) -> str:
        return (
            f"CommutatorTraceCheck(alpha={self.alpha}, beta={self.beta}, "
            f"deviation={self.deviation:.3e})"
        )


def verify_free_commutator_identity(alpha: float, beta: float) -> CommutatorTraceCheck:
    """Expand tau(u v u* v*) over C2 * C2 and compare with the product formula.

    u and v are order-two unitaries with traces alpha, beta on the two
    distinct free factors, so their freeness is structural, not assumed.
    """
    ambient = two_involution_ambient()
    u = order_two_unitary(ambient, alpha, 0)
    v = order_two_unitary(ambient, beta, 1)
    lhs = trace(commutator_element(u, v))
    rhs = 1.0 - (1.0 - alpha * alpha) * (1.0 - beta * beta)
    return CommutatorTraceCheck(alpha, beta, lhs, rhs)


# Each call site gets its own C2 instances; FreeProductGroup equality is by
# factor identity, so cached factors keep ambients of repeated calls compatible.
_C2_CACHE: dict[int, FiniteGroup] = {}


def _order_two_factor(slot: int) -> FiniteGroup:
    if slot not in _C2_CACHE:
        from .groups import cyclic_group

        _C2_CACHE[slot] = cyclic_group(2)
    return _C2_CACHE[slot]


def two_involution_ambient() -> FreeProductGroup:
    """C2 * C2, the exact carrier for two-variable trace identities."""
    return FreeProductGroup((_order_two_factor(0), _order_two_factor(1)))


def involution_haar_ambient() -> FreeProductGroup:
    """C2 * Z, the exact carrier for the contraction dynamics."""
    return FreeProductGroup((_order_two_factor(0), Z))

