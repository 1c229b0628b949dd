"""One-variable words with constants in a finite group (elements of Z * G).

A word alternates group constants and powers of the variable t,

    g0 t^e1 g1 t^e2 ... t^ek gk,

and is kept in free-product normal form: every exponent is nonzero and
every interior constant differs from the identity (leading and trailing
constants may be trivial).  Normal forms come from
``algebra.FreeProductGroup`` over the factors labelled ``"t"`` (Z) and
``"g"`` (G); raw token streams use the same labels.  Substituting a group
element for t turns the word into an element of G; a word whose every
substitution is trivial is a mixed identity for G.  ``is_mixed_identity``
decides this by evaluating at every element; ``mixed_identity_scan``
decides a whole window of words with array gathers over the
multiplication table, each exponent tuple for a chunk of interior
constants and every substitution at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import FreeProductGroup, Word, Z
from .groups import FiniteGroup

#: entries of the (interiors x |G|) array that ``mixed_identity_scan``
#: fills in one chunk, which bounds its memory at deep windows
SCAN_CHUNK_CELLS = 1 << 16


def _free_product(group: FiniteGroup) -> FreeProductGroup:
    return FreeProductGroup({"t": Z, "g": group})


@dataclass(frozen=True)
class MixedWord:
    group: FiniteGroup
    coeffs: tuple[int, ...]
    exps: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.exps) + 1:
            raise ValueError("coefficient/exponent lengths are inconsistent")
        self._word()

    @classmethod
    def from_tokens(cls, group: FiniteGroup, tokens: Iterable[tuple[str, int]]) -> "MixedWord":
        """Normal form of a raw ("t", exponent) / ("g", element) stream."""
        return cls._from_word(group, _free_product(group).normal_form(tokens))

    @classmethod
    def _from_word(cls, group: FiniteGroup, word: Word) -> "MixedWord":
        coeffs = [group.identity]
        exps: list[int] = []
        for label, v in zip(word[::2], word[1::2]):
            if label == "g":
                coeffs[-1] = v
            else:
                exps.append(v)
                coeffs.append(group.identity)
        return cls(group, tuple(coeffs), tuple(exps))

    def _word(self) -> Word:
        """This word in Z * G, where trivial constants are omitted; ValueError
        unless ``FreeProductGroup.word`` finds it in normal form."""
        syllables = [("g", self.coeffs[0])]
        for e, g in zip(self.exps, self.coeffs[1:]):
            syllables += [("t", e), ("g", g)]
        one = ("g", self.group.identity)
        return _free_product(self.group).word(s for s in syllables if s != one)

    @classmethod
    def t_power(cls, group: FiniteGroup, e: int) -> "MixedWord":
        return cls.from_tokens(group, [("t", e)])

    def __mul__(self, other: "MixedWord") -> "MixedWord":
        if self.group is not other.group:
            raise ValueError("words over different coefficient groups")
        word = _free_product(self.group).concat(self._word(), other._word())
        return MixedWord._from_word(self.group, word)

    def inverse(self) -> "MixedWord":
        return MixedWord._from_word(self.group, _free_product(self.group).inverse_word(self._word()))

    def conjugate_variable(self, by: int) -> "MixedWord":
        """The word with t replaced by (by) t (by)^-1."""
        toks: list[tuple[str, int]] = [("g", self.coeffs[0])]
        inv = self.group.inv(by)
        for e, g in zip(self.exps, self.coeffs[1:]):
            toks.extend([("g", by), ("t", e), ("g", inv), ("g", g)])
        return MixedWord.from_tokens(self.group, toks)

    def evaluate(self, g: int) -> int:
        """Substitute the group element g for the variable t."""
        out = self.coeffs[0]
        grp = self.group
        for e, c in zip(self.exps, self.coeffs[1:]):
            out = grp.mul(grp.mul(out, grp.power(g, e)), c)
        return out

    def __str__(self) -> str:
        return _format_word(self.group.labels, self.coeffs, self.exps)


def _format_word(labels: Sequence[str], coeffs: Sequence[int], exps: Sequence[int]) -> str:
    """The ``g0 . t^e1 . g1 . ...`` literal, with ``labels[g]`` naming g."""
    parts = [labels[coeffs[0]]]
    for e, g in zip(exps, coeffs[1:]):
        parts += (f"t^{e}", labels[g])
    return " . ".join(parts)


def parse_mixed_word(group: FiniteGroup, literal: str) -> MixedWord:
    """Parse the ``g0 . t^e1 . g1 . ...`` literal syntax using group labels."""
    segments = [s.strip() for s in literal.split(".")]
    if not segments or any(not s for s in segments):
        raise ValueError(f"malformed mixed-word literal: {literal!r}")
    tokens: list[tuple[str, int]] = []
    for pos, seg in enumerate(segments):
        if pos % 2 == 1:
            if not seg.startswith("t^"):
                raise ValueError(f"expected t^e at segment {pos}: {seg!r}")
            tokens.append(("t", int(seg[2:])))
        else:
            tokens.append(("g", group.index_of(seg)))
    if len(segments) % 2 == 0:
        raise ValueError("literal must start and end with a coefficient label")
    return MixedWord.from_tokens(group, tokens)


def mixed_commutator(a: MixedWord, b: MixedWord) -> MixedWord:
    """[a, b] = a b a^-1 b^-1."""
    return a * b * a.inverse() * b.inverse()


def iterated_commutator(ws: Sequence[MixedWord]) -> MixedWord:
    """Right-nested commutator [w1, [w2, ... [w_{l-1}, w_l]]]."""
    if not ws:
        raise ValueError("need at least one word")
    out = ws[-1]
    for w in reversed(ws[:-1]):
        out = mixed_commutator(w, out)
    return out


@dataclass(frozen=True)
class MixedIdentityVerdict:
    is_identity: bool
    witness: int | None = None
    value: int | None = None

    def __bool__(self) -> bool:
        return self.is_identity


def is_mixed_identity(word: MixedWord) -> MixedIdentityVerdict:
    """Check whether every substitution for t gives the identity.

    Witness search is an ascending scan over element indices, so reports
    are reproducible.
    """
    for g in range(word.group.order):
        val = word.evaluate(g)
        if val != word.group.identity:
            return MixedIdentityVerdict(False, witness=g, value=val)
    return MixedIdentityVerdict(True)


def mixed_identity_scan(group: FiniteGroup, max_syllables: int, exp_bound: int) -> dict:
    """Report every identity among the normal-form words with at most
    ``max_syllables`` t-powers and exponents bounded by ``exp_bound``.

    g0 u(t) gk with u = t^e1 g1 ... t^ek is an identity exactly when u is a
    constant c on G, and then gk = (g0 c)^-1.  So each exponent tuple is
    decided for a chunk of interiors (g1, ..., g_{k-1}) at once: an
    (interiors x |G|) array holds u(t) for every t, built by one step
    ``value = table[table[value, g_j], t^e_j]`` a syllable, and a row equal
    to its first column is a constant choice.  Each constant choice yields
    one identity per g0 (order: k, exponents, g0, interior).  ``checked``
    counts the window's words.  Never concludes that a group has no mixed
    identities, only that none was found within the window.
    """
    if max_syllables < 1 or exp_bound < 1:
        raise ValueError("depth and exponent bound must be >= 1")
    n, labels = group.order, group.labels
    table = np.array(group.table, dtype=np.intp)
    inv = np.array(group.inverse, dtype=np.intp)
    exp_values = [e for m in range(1, exp_bound + 1) for e in (m, -m)]
    # powers[e] is the row t -> t^e
    powers = {e: np.array([[group.power(g, e) for g in range(n)]], dtype=np.intp)
              for e in exp_values}
    nontrivial = [g for g in range(n) if g != group.identity]
    rows = max(1, SCAN_CHUNK_CELLS // n)
    identities: list[str] = []

    for k in range(1, max_syllables + 1):
        # per exponent tuple: the middles " . t^e1 . g1 ... . t^ek . " and
        # the constants c of its constant choices, in interior order
        found = {exps: ([], []) for exps in itertools.product(exp_values, repeat=k)}
        interiors = itertools.product(nontrivial, repeat=k - 1)
        while batch := list(itertools.islice(interiors, rows)):
            chunk = np.array(batch, dtype=np.intp)
            columns = [chunk[:, j, None] for j in range(k - 1)]
            for exps, (mids, consts) in found.items():
                value = powers[exps[0]]
                for h, e in zip(columns, exps[1:]):
                    value = table[table[value, h], powers[e]]
                constant = (value == value[:, :1]).all(axis=1)
                for row in chunk[constant].tolist():
                    middle = "".join(f" . t^{e} . {labels[h]}" for e, h in zip(exps, row))
                    mids.append(f"{middle} . t^{exps[-1]} . ")
                consts += value[constant, 0].tolist()
        for mids, consts in found.values():
            # ends[g0, i] = (g0 c_i)^-1, the last constant of the i-th choice
            ends = inv[table[:, consts]]
            identities += [labels[g0] + mid + labels[gk]
                           for g0, row in enumerate(ends.tolist()) for mid, gk in zip(mids, row)]
    return {
        "group": group.name,
        "order": group.order,
        "max_syllables": max_syllables,
        "exp_bound": exp_bound,
        "checked": sum(len(exp_values) ** k * n * n * (n - 1) ** (k - 1)
                       for k in range(1, max_syllables + 1)),
        "identities": identities,
        "identity_found": bool(identities),
    }

