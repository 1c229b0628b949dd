"""Reduced words in free groups, and the nested-commutator family w_n.

A word is an element of the free product of one infinite cyclic factor per
generator name, reduced by ``algebra.FreeProductGroup``.  It is stored as
syllables (generator, nonzero exponent) with adjacent generators distinct.
The commutator words w_n used by the contraction dynamics have 3 * 2^n - 4
syllables for n >= 2: each nesting level doubles them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .algebra import FreeProductGroup, Word, Z


def _free_group(syllables: Iterable[tuple[str, int]]) -> FreeProductGroup:
    """The free group on the generator names in ``syllables``."""
    return FreeProductGroup({g: Z for g, _ in syllables})


def _flat(syllables: tuple[tuple[str, int], ...]) -> Word:
    return tuple(x for syllable in syllables for x in syllable)


def _from_flat(word: Word) -> "FreeWord":
    return FreeWord(tuple(zip(word[::2], word[1::2])))


@dataclass(frozen=True)
class FreeWord:
    """A reduced word; ``syllables`` is a tuple of (generator, exponent)."""

    syllables: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        _free_group(self.syllables).word(self.syllables)  # raises unless reduced

    @classmethod
    def gen(cls, name: str, exponent: int = 1) -> "FreeWord":
        return reduce_free_word([(name, exponent)])

    @classmethod
    def identity(cls) -> "FreeWord":
        return cls(())

    def is_identity(self) -> bool:
        return not self.syllables

    def letter_length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def inverse(self) -> "FreeWord":
        return _from_flat(_free_group(self.syllables).inverse_word(_flat(self.syllables)))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        group = _free_group(self.syllables + other.syllables)
        return _from_flat(group.concat(_flat(self.syllables), _flat(other.syllables)))

    def __pow__(self, n: int) -> "FreeWord":
        if n == 0:
            return FreeWord.identity()
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.syllables)


def reduce_free_word(raw: Iterable[tuple[str, int]]) -> FreeWord:
    """Reduce an arbitrary syllable list to its unique normal form."""
    raw = [(g, int(e)) for g, e in raw]
    return _from_flat(_free_group(raw).normal_form(raw))


def commutator(a, b):
    """[a, b] = a b a^-1 b^-1, for any word type with ``*`` and ``inverse()``."""
    return a * b * a.inverse() * b.inverse()


def w_sequence(n: int) -> FreeWord:
    """The n-th word of the nested-commutator family in <x, y>.

    The first word is x and each successor is the commutator of the
    previous word with the conjugate y^k x y^-k (k = index of the previous
    word), so evaluating at a unitary and a Haar unitary produces the
    contracting sequence studied by the dynamics module.
    """
    if n < 1:
        raise ValueError("word index must be >= 1")
    x = FreeWord.gen("x")
    y = FreeWord.gen("y")
    w = x
    for k in range(1, n):
        w = commutator(w, (y**k) * x * (y**-k))
    return w

