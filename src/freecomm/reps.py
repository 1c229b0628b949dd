"""Commutant and invariant-subspace analysis for finite unitary reps.

The guarantee checked here: a nontrivial irreducible representation of
least dimension among the nontrivial irreducibles leaves no invariant
abelian Lie subalgebra of traceless skew-Hermitian matrices, which makes
the family of discrete subgroups over the projective image uniformly
discrete.  Irreducibility and the invariant directions are integers given
exactly by the character of the representation (Schur orthogonality); the
least-dimension data is a caller-supplied fixture (character tables are
inputs here, never computed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discrete import MatrixGroup, ell_op, group_closure
from .groups import FiniteGroup
from .matrices import as_array

_HOM_TOL = 1e-10

#: Frobenius distance at which ``dihedral_chain_demo`` takes two matrices as equal
_MEMBER_TOL = 1e-10


@dataclass(frozen=True)
class FiniteRep:
    """A unitary representation of a finite group, one matrix per element."""

    group: FiniteGroup
    images: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.images) != self.group.order:
            raise ValueError("need one image per group element")
        images = tuple(np.asarray(m, dtype=complex) for m in self.images)
        n = images[0].shape[0]
        for m in images:
            if m.shape != (n, n):
                raise ValueError("images must be square of equal size")
            if np.linalg.norm(m.conj().T @ m - np.eye(n)) > _HOM_TOL * max(1.0, n):
                raise ValueError("images must be unitary")
        t = self.group.table
        for a in range(self.group.order):
            for b in range(self.group.order):
                if np.linalg.norm(images[a] @ images[b] - images[t[a][b]]) > _HOM_TOL * max(1.0, n):
                    raise ValueError(f"not a homomorphism at pair ({a}, {b})")
        object.__setattr__(self, "images", images)

    @property
    def dim(self) -> int:
        return self.images[0].shape[0]

    @property
    def unit_determinant(self) -> bool:
        return all(abs(np.linalg.det(m) - 1.0) <= 1e-8 for m in self.images)


def rep_from_matrix_group(mg: MatrixGroup, name: str = "matrix-group") -> FiniteRep:
    """Package a closed matrix group as a representation of its own Cayley table."""
    return FiniteRep(group=FiniteGroup(mg.table, name=name), images=mg.elements)


def commutant_dimension(rep: FiniteRep) -> int:
    """Complex dimension of {X : pi(g) X = X pi(g) for all g}.

    By Schur orthogonality it is (1/|G|) sum_g |tr pi(g)|^2, the sum of the
    squared multiplicities of the irreducible constituents, so it is 1
    exactly when the representation is irreducible.
    """
    return round(sum(abs(np.trace(m)) ** 2 for m in rep.images) / rep.group.order)


@dataclass(frozen=True)
class CriterionVerdict:
    irreducible: bool
    commutant_dim: int
    fixed_space_dim: int
    least_dimension: bool
    guarantee: bool

    def to_json_dict(self) -> dict:
        return {
            "irreducible": self.irreducible,
            "commutant_dim": self.commutant_dim,
            "fixed_space_dim": self.fixed_space_dim,
            "least_dimension": self.least_dimension,
            "guarantee": self.guarantee,
        }


def least_dimension_criterion(
    rep: FiniteRep, nontrivial_irrep_dims: Sequence[int]
) -> CriterionVerdict:
    """Sufficient criterion for uniform discreteness over the projective image.

    guarantee = irreducible and (dim <= min of the nontrivial irrep
    dimensions).  When false the result is inconclusive, never a
    refutation.
    """
    dims = [int(d) for d in nontrivial_irrep_dims]
    if not dims:
        raise ValueError("need a nonempty list of nontrivial irreducible dimensions")
    cdim = commutant_dimension(rep)
    irreducible = cdim == 1
    least = rep.dim <= min(dims)
    return CriterionVerdict(
        irreducible=irreducible,
        commutant_dim=cdim,
        # the commutant is a *-algebra containing 1: its skew-Hermitian part
        # has real dimension cdim, and the traceless part one less
        fixed_space_dim=cdim - 1,
        least_dimension=least,
        guarantee=irreducible and least,
    )


# -- concrete representations ---------------------------------------------------


def cyclic_su2_rep(m: int) -> FiniteRep:
    """Z/m inside SU(2) as diag(e^{2 pi i k/m}, e^{-2 pi i k/m})."""
    from .groups import cyclic_group

    if m < 2:
        raise ValueError("order must be >= 2")
    group = cyclic_group(m)
    images = [
        np.diag([np.exp(2j * np.pi * k / m), np.exp(-2j * np.pi * k / m)]) for k in range(m)
    ]
    return FiniteRep(group=group, images=tuple(images))


def trivial_rep(group: FiniteGroup, n: int) -> FiniteRep:
    return FiniteRep(group=group, images=tuple(np.eye(n, dtype=complex) for _ in range(group.order)))


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (unit) axis."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def icosahedral_rotation_group() -> MatrixGroup:
    """The 60 rotations of the icosahedron in SO(3) (isomorphic to Alt(5)),
    closed from a 5-fold vertex rotation and a 2-fold edge rotation."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    vertex_axis = np.array([0.0, 1.0, phi])
    five_fold = rotation_matrix(vertex_axis, 2.0 * math.pi / 5.0)
    two_fold = np.diag([-1.0, -1.0, 1.0])  # edge-midpoint axis (0, 0, 1)
    closed = group_closure([five_fold, two_fold], cap=200)
    if not isinstance(closed, MatrixGroup):
        raise AssertionError("icosahedral generators failed to close")
    return closed


def alt5_rotation_rep() -> FiniteRep:
    return rep_from_matrix_group(icosahedral_rotation_group(), name="Alt5-rotations")


def quaternion_su2_rep() -> FiniteRep:
    from .catalog import quaternion_generators

    closed = group_closure(list(quaternion_generators()), cap=20)
    if not isinstance(closed, MatrixGroup):
        raise AssertionError("quaternion generators failed to close")
    return rep_from_matrix_group(closed, name="Q8-su2")


# -- dihedral chain ---------------------------------------------------------------


def dihedral_so3(m: int) -> list[np.ndarray]:
    """The dihedral group of order 2m in SO(3): rotations about the z-axis
    plus half-turns about m equally spaced horizontal axes."""
    if m < 2:
        raise ValueError("need m >= 2")
    elements = [rotation_matrix(np.array([0.0, 0.0, 1.0]), 2.0 * math.pi * j / m) for j in range(m)]
    for j in range(m):
        half = math.pi * j / m
        elements.append(rotation_matrix(np.array([math.cos(half), math.sin(half), 0.0]), math.pi))
    return elements


@dataclass(frozen=True)
class DihedralChainRow:
    order: int
    min_nonzero_ell: float
    product_closed: bool
    contains_previous: bool


@dataclass(frozen=True)
class DihedralChainReport:
    axis_order: int
    doublings: int
    rows: tuple[DihedralChainRow, ...]

    @property
    def strictly_decreasing(self) -> bool:
        vals = [r.min_nonzero_ell for r in self.rows]
        return all(b < a for a, b in zip(vals, vals[1:]))

    def to_json_dict(self) -> dict:
        return {
            "axis_order": self.axis_order,
            "doublings": self.doublings,
            "strictly_decreasing": self.strictly_decreasing,
            "rows": [
                {
                    "order": r.order,
                    "min_nonzero_ell": r.min_nonzero_ell,
                    "product_closed": r.product_closed,
                    "contains_previous": r.contains_previous,
                }
                for r in self.rows
            ],
        }


def _set_contains(haystack: np.ndarray, needle: np.ndarray) -> bool:
    dists = np.linalg.norm(haystack - needle.ravel(), axis=1)
    return bool(np.min(dists) <= _MEMBER_TOL)


def dihedral_chain_demo(axis_order: int, doublings: int) -> DihedralChainReport:
    """Each dihedral group embeds in the one with doubled rotation order,
    while the shortest nontrivial element shrinks toward the identity: an
    ascending chain that is not uniformly discrete.

    Lengths are measured on the constructed matrices, not assumed.
    """
    if axis_order < 3:
        raise ValueError("axis order must be >= 3")
    if doublings < 1:
        raise ValueError("need at least one doubling")
    rows = []
    prev: list[np.ndarray] | None = None
    for j in range(doublings + 1):
        m = axis_order * (2**j)
        elements = dihedral_so3(m)
        flat = np.stack([e.ravel() for e in elements])
        ells = [ell_op(as_array(e).astype(complex), check=False) for e in elements]
        nonzero = [l for l in ells if l > 1e-8]
        closed = all(
            _set_contains(flat, elements[a] @ elements[b])
            for a in range(len(elements))
            for b in range(len(elements))
        )
        contains_prev = (
            True
            if prev is None
            else all(_set_contains(flat, e) for e in prev)
        )
        rows.append(
            DihedralChainRow(
                order=len(elements),
                min_nonzero_ell=min(nonzero),
                product_closed=closed,
                contains_previous=contains_prev,
            )
        )
        prev = elements
    return DihedralChainReport(axis_order=axis_order, doublings=doublings, rows=tuple(rows))
