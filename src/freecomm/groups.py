"""Finite groups presented by multiplication tables over indices 0..n-1.

The table presentation is deliberately dumb: everything downstream (mixed
words, free products, representation checks) only needs ``mul``, ``inv``,
an identity index and printable labels, and a table makes all of those
exact and serializable.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class FiniteGroup:
    """A finite group given by an ``n x n`` multiplication table of indices:
    integer entries, ``labels`` a list or tuple of strings, each nonempty
    and free of '.' and surrounding whitespace, ``name`` a str."""

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
        name: str = "group",
    ):
        n = len(table)
        if n == 0:
            raise ValueError("group must have at least one element")
        # rows are checked in order, so the array stops at a ragged row
        ragged = next((i for i, row in enumerate(table) if len(row) != n), n)
        t = np.asarray(table[:ragged]).reshape(ragged, n)
        if t.size and t.dtype.kind not in "iu":  # floats, strings, ints beyond int64
            raise ValueError("table entries must be integers")
        everyone = np.arange(n)
        bad = np.flatnonzero((np.sort(t, axis=1) != everyone).any(axis=1))
        if bad.size:
            raise ValueError(f"table row {bad[0]} is not a permutation of 0..{n - 1}")
        if ragged < n:
            raise ValueError(f"table row {ragged} has length {len(table[ragged])}, expected {n}")
        t = t.astype(np.min_scalar_type(n), copy=False)  # entries lie in 0..n-1
        bad = np.flatnonzero((np.sort(t, axis=0) != everyone[:, None]).any(axis=0))
        if bad.size:
            raise ValueError(f"table column {bad[0]} is not a permutation of 0..{n - 1}")

        self.order = n
        self.table = tuple(map(tuple, t.tolist()))
        if not isinstance(name, str):
            raise ValueError("'name' must be a string")
        self.name = name
        if labels is None:
            labels = [f"g{i}" for i in range(n)]
        if not (isinstance(labels, (list, tuple)) and all(isinstance(x, str) for x in labels)):
            raise ValueError("'labels' must be a list or tuple of strings")
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError("labels length does not match group order")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
        if any(not x or "." in x or x != x.strip() for x in labels):
            # the mixed-word literal splits on "." and strips each segment
            raise ValueError("'labels' must be nonempty, without '.' or surrounding whitespace")
        self.labels = labels

        self.identity = self._find_identity(t)
        self.inverse = self._build_inverses(t)
        self._check_associativity(t)

    # -- construction checks -------------------------------------------------

    def _find_identity(self, t: np.ndarray) -> int:
        everyone = np.arange(self.order)
        two_sided = (t == everyone).all(axis=1) & (t == everyone[:, None]).all(axis=0)
        if not two_sided.any():
            raise ValueError("table has no two-sided identity")
        return int(two_sided.argmax())

    def _build_inverses(self, t: np.ndarray) -> tuple[int, ...]:
        e = self.identity
        inv = (t == e).argmax(axis=1)  # the only right inverse: rows are permutations
        bad = np.flatnonzero(t[inv, np.arange(self.order)] != e)
        if bad.size:
            raise ValueError(f"element {bad[0]} has no two-sided inverse")
        return tuple(inv.tolist())

    def _check_associativity(self, t: np.ndarray) -> None:
        """Light's test (Clifford & Preston, I, 1.2): exact at every order.

        The elements b with (a b) c = a (b c) for all a, c are closed under
        products and include the identity, so it suffices to check b over a
        set S from which right multiplication reaches every element; S is
        chosen greedily, at most log2(n) elements for a group.  For each s
        in S the n x n arrays (a s) c and a (s c) are compared at once, and
        the first mismatch in row-major order is reported.
        """
        gens: list[int] = []
        reached = self.generated(gens)
        for g in range(self.order):
            if g not in reached:
                gens.append(g)
                reached = self.generated(gens)
        for s in gens:
            bad = t[t[:, s]] != t[:, t[s]]
            if bad.any():
                a, c = divmod(int(bad.argmax()), self.order)
                raise ValueError(f"table is not associative at ({a}, {s}, {c})")

    def generated(self, gens: Iterable[int]) -> frozenset[int]:
        """Indices reached from the identity by right multiplication by
        ``gens``; for a group, the subgroup they generate."""
        t, steps = self.table, tuple(gens)
        reached = {self.identity}
        queue = [self.identity]
        for a in queue:  # grows while it is read: a breadth-first search
            for s in steps:
                b = t[a][s]
                if b not in reached:
                    reached.add(b)
                    queue.append(b)
        return frozenset(reached)

    # -- group arithmetic -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inverse[a], -e
        e %= self.order  # a^|G| = 1
        out = self.identity
        for _ in range(e):
            out = self.table[out][a]
        return out

    def conjugate(self, a: int, by: int) -> int:
        return self.table[self.table[by][a]][self.inverse[by]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def exponent(self) -> int:
        out = 1
        for a in range(self.order):
            out = math.lcm(out, self.element_order(a))
        return out

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def label(self, a: int) -> str:
        return self.labels[a]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r} in {self.name}") from None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Text format: order, labels, flattened row-major multiplication table."""
        return {
            "name": self.name,
            "order": self.order,
            "labels": list(self.labels),
            "table": [x for row in self.table for x in row],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteGroup":
        """Read ``to_json_dict``'s format strictly, with a ValueError that
        names the field; ``labels`` and ``name`` may be left out."""
        if not isinstance(data, dict):
            raise ValueError(f"the top level must be a JSON object, not {type(data).__name__}")
        n, flat = data.get("order"), data.get("table")
        if type(n) is not int:  # nor a bool, a float or missing
            raise ValueError("field 'order' must be an integer")
        if not (isinstance(flat, list) and all(type(x) is int for x in flat)):
            raise ValueError("field 'table' must be a list of integers")
        if len(flat) != n * n:
            raise ValueError(f"flattened table has {len(flat)} entries, expected {n * n}")
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        return cls(table, labels=data.get("labels"), name=data.get("name", "group"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))


def load_finite_group(path: str | Path) -> FiniteGroup:
    return FiniteGroup.from_json_dict(json.loads(Path(path).read_text()))


# -- stock constructions ------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return FiniteGroup(table, labels=labels, name=f"C{n}")


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "e"


def symmetric_group(n: int) -> FiniteGroup:
    """Sym(n) on 0..n-1; elements listed identity first, then by increasing
    support in cycle-notation order, so witness scans are reproducible."""
    if n < 1:
        raise ValueError("n must be positive")
    perms = list(itertools.permutations(range(n)))

    def sort_key(p: tuple[int, ...]):
        moved = sum(1 for i in range(n) if p[i] != i)
        return (moved, _cycle_notation(p))

    perms.sort(key=sort_key)
    index = {p: i for i, p in enumerate(perms)}
    # composition: (p * q)(x) = p(q(x))
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    labels = [_cycle_notation(p) for p in perms]
    return FiniteGroup(table, labels=labels, name=f"Sym{n}")


def quaternion_group() -> FiniteGroup:
    """Q8 = {1, -1, i, -i, j, -j, k, -k}: element 2u + s is (-1)^s times
    unit u of 1, i, j, k.  Units multiply as in C2 x C2, so the unit of a
    product is u XOR v; its sign is flipped by i^2 = j^2 = k^2 = -1 (u = v
    != 0) and against the cycle ij = k, jk = i, ki = j (v - u = 2 mod 3)."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a: int, b: int) -> int:
        (u, s), (v, t) = divmod(a, 2), divmod(b, 2)
        flip = u and v and (v - u) % 3 != 1
        return 2 * (u ^ v) + (s ^ t ^ bool(flip))

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(table, labels=names, name="Q8")


def klein_group() -> FiniteGroup:
    """C2 x C2 with element 2a + b for (g^a, g^b): a product is the XOR."""
    table = [[a ^ b for b in range(4)] for a in range(4)]
    return FiniteGroup(table, labels=["e|e", "e|g", "g|e", "g|g"], name="Klein4")
