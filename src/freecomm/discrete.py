"""Operator-norm contraction and discreteness filtrations for matrix groups.

The commutator of two unitaries contracts in operator norm,
ell([U, V]) <= 2 ell(U) ell(V) with ell(g) = ||1 - g||, and for a group
that closes up at desk scale the subgroup generated by elements with
ell < 1/2 can be checked to be abelian and normal directly on the Cayley
table.  Failure to close (an element creeping arbitrarily close to the
identity) is reported as an explicit non-discreteness witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import FiniteGroup
from .matrices import as_array, op_norm, unitarity_defect, UNITARY_OP_TOL

#: two elements within this op-norm distance are identified
DEFAULT_MERGE_EPS = 1e-8

#: an element this close to the identity (but not merged with it) is a
#: discreteness obstruction
NEAR_IDENTITY_BAND = 0.01


def ell_op(u, check: bool = True) -> float:
    """Operator-norm length ||1 - U||; for unitary U this is
    max over eigenvalues of |1 - lambda|."""
    a = as_array(u)
    if check and unitarity_defect(a) > 1e-8:
        raise ValueError("ell_op expects a unitary matrix")
    return op_norm(np.eye(a.shape[0]) - a)


@dataclass(frozen=True)
class CommutatorBound:
    lhs: float
    rhs: float
    margin: float


def commutator_ineq_check(u, v) -> CommutatorBound:
    """ell([U,V]) against 2 ell(U) ell(V); the margin is rhs - lhs."""
    a, b = as_array(u), as_array(v)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    comm = a @ b @ a.conj().T @ b.conj().T
    lhs = ell_op(comm, check=False)
    rhs = 2.0 * ell_op(a, check=False) * ell_op(b, check=False)
    return CommutatorBound(lhs=lhs, rhs=rhs, margin=rhs - lhs)


@dataclass(frozen=True)
class NonClosure:
    """Witness that a generated set fails to close discretely."""

    reason: str  # "near_identity" or "cap_exceeded"
    element: np.ndarray
    ell: float
    elements_found: int


class MatrixGroup(FiniteGroup):
    """Finite unitary matrix group: its Cayley table, with a matrix per index.

    A ``FiniteGroup`` on the indices (identity 0), so the table passes the
    exact group checks on construction.  Subgroup generation and verdict
    checks run on the index table, so long products never accumulate
    floating-point drift.
    """

    def __init__(
        self,
        elements: Sequence[np.ndarray],
        table: Sequence[Sequence[int]],
        generator_indices: Sequence[int],
    ):
        super().__init__(table, name="matrix-group")
        self.elements = tuple(elements)
        self.generator_indices = tuple(generator_indices)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def element_ells(self) -> list[float]:
        eye = np.eye(self.dim)
        return [op_norm(eye - g) for g in self.elements]


class _ElementIndex:
    """Nearest-element lookup with a cheap Frobenius sandwich before the
    exact op-norm comparison (op <= fro <= sqrt(N) * op).  The flattened
    elements fill the prefix of one array that doubles when full."""

    def __init__(self, dim: int):
        self.dim = dim
        self._flat = np.empty((16, dim * dim), dtype=complex)
        self.matrices: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.matrices)

    def find(self, m: np.ndarray) -> int | None:
        if not self.matrices:
            return None
        fro = np.linalg.norm(self._flat[: len(self)] - m.ravel(), axis=1)
        # fro <= eps  =>  op <= eps; fro > eps*sqrt(N)  =>  op > eps
        certain = np.nonzero(fro <= DEFAULT_MERGE_EPS)[0]
        if certain.size:
            return int(certain[0])
        maybe = np.nonzero(fro <= DEFAULT_MERGE_EPS * np.sqrt(self.dim))[0]
        for idx in maybe:
            if op_norm(self.matrices[idx] - m) <= DEFAULT_MERGE_EPS:
                return int(idx)
        return None

    def add(self, m: np.ndarray) -> int:
        k = len(self)
        if k == len(self._flat):
            self._flat = np.concatenate([self._flat, np.empty_like(self._flat)])
        self._flat[k] = m.ravel()
        self.matrices.append(m)
        return k


def group_closure(generators: Sequence, cap: int = 10_000) -> MatrixGroup | NonClosure:
    """Breadth-first closure of unitary generators under products.

    Deterministic: elements are indexed in discovery order (identity
    first), and rerunning with the same input yields the same indexing.
    Returns a NonClosure witness when the element count passes ``cap`` or
    a product lands within ``NEAR_IDENTITY_BAND`` of the identity without
    merging with it (within ``DEFAULT_MERGE_EPS``).

    The Cayley table is read off the search by index arithmetic alone
    (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 4.1):
    each element j > 0 was first met as elements[p] @ steps[k], so
    elements[i] @ elements[j] is the step-k neighbour of elements[i] @
    elements[p], a row entry already filled.  A table that float merging
    made inconsistent fails the ``FiniteGroup`` checks with ValueError.
    """
    gens = [as_array(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].shape[0]
    for g in gens:
        if g.shape != (dim, dim):
            raise ValueError("generators must share a dimension")
        if unitarity_defect(g) > UNITARY_OP_TOL:
            raise ValueError("generators must be unitary")
    if cap < len(gens):
        raise ValueError("cap smaller than the generating set")

    steps = gens + [g.conj().T for g in gens]
    index = _ElementIndex(dim)
    index.add(np.eye(dim, dtype=complex))
    right: list[list[int]] = []  # right[i][k]: index of elements[i] @ steps[k]
    found_by: list[tuple[int, int]] = []  # (parent, step) of elements 1, 2, ...
    i = 0
    while i < len(index):  # discovery order is breadth-first order
        row = []
        for k, s in enumerate(steps):
            p = index.matrices[i] @ s
            found = index.find(p)
            if found is None:
                d_id = op_norm(p - np.eye(dim))
                if d_id <= NEAR_IDENTITY_BAND:
                    # not merged with the identity, yet inside the band
                    return NonClosure("near_identity", p, d_id, len(index))
                if len(index) >= cap:
                    return NonClosure("cap_exceeded", p, d_id, len(index))
                found = index.add(p)
                found_by.append((i, k))
            row.append(found)
        right.append(row)
        i += 1

    table = []
    for i in range(len(index)):
        row = [i]
        for parent, k in found_by:
            row.append(right[row[parent]][k])
        table.append(row)
    return MatrixGroup(
        elements=index.matrices,
        table=table,
        generator_indices=right[0][: len(gens)],
    )


@dataclass
class FilterReport:
    """Subgroup generated by short elements, with abelian/normal verdicts."""

    threshold: float
    group_order: int
    element_ells: tuple[float, ...]
    generator_indices: tuple[int, ...]
    subgroup_indices: tuple[int, ...]
    is_abelian: bool
    is_normal: bool

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "group_order": self.group_order,
            "element_ells": list(self.element_ells),
            "generator_indices": list(self.generator_indices),
            "subgroup_indices": list(self.subgroup_indices),
            "subgroup_order": len(self.subgroup_indices),
            "is_abelian": self.is_abelian,
            "is_normal": self.is_normal,
        }


def gamma_filter(group: MatrixGroup, threshold: float) -> FilterReport:
    """Subgroup generated by {g : ||1 - g|| < threshold}, generated and
    verified entirely inside the Cayley table."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    ells = group.element_ells()
    gens = [i for i, l in enumerate(ells) if l < threshold]

    members = group.generated(gens)
    sub = tuple(sorted(members))

    # exact on the table: <S> is abelian iff S commutes pairwise, and
    # normal iff g s g^-1 lies in <S> for g among G's generators (G is
    # finite, so g <S> g^-1 inside <S> makes them equal) and s in S
    abelian = all(group.mul(i, j) == group.mul(j, i) for i in gens for j in gens if j < i)
    normal = all(
        group.conjugate(s, g) in members for g in group.generator_indices for s in gens
    )
    return FilterReport(
        threshold=threshold,
        group_order=group.order,
        element_ells=tuple(ells),
        generator_indices=tuple(gens),
        subgroup_indices=sub,
        is_abelian=abelian,
        is_normal=normal,
    )


@dataclass(frozen=True)
class HeisenbergPair:
    clock: np.ndarray
    shift: np.ndarray
    commutator_scalar: complex
    min_ell: float


def heisenberg_irrep(n: int) -> HeisenbergPair:
    """Clock and shift matrices: the commutator is the scalar e^{2 pi i/n},
    and both generators sit at operator-norm distance >= sqrt(3) from 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    omega = np.exp(2j * np.pi / n)
    clock = np.diag(omega ** np.arange(n))
    shift = np.zeros((n, n), dtype=complex)
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    comm = clock @ shift @ clock.conj().T @ shift.conj().T
    scalar = complex(comm[0, 0])
    if np.linalg.norm(comm - scalar * np.eye(n)) > 1e-10:
        raise AssertionError("clock/shift commutator is not scalar")
    min_ell = min(ell_op(clock), ell_op(shift))
    return HeisenbergPair(clock=clock, shift=shift, commutator_scalar=scalar, min_ell=min_ell)
