"""Commutant and invariant-subspace analysis for finite unitary groups.

A representation is given by its image: a closed ``MatrixGroup`` from
``group_closure``.  The commutant, hence irreducibility and the number of
invariant directions, depends only on that image (Serre, Linear
Representations of Finite Groups, 2.3).

The guarantee checked here: a nontrivial irreducible representation of
least dimension among the nontrivial irreducibles leaves no invariant
abelian Lie subalgebra of traceless skew-Hermitian matrices, which makes
the family of discrete subgroups over the projective image uniformly
discrete.  Irreducibility and the invariant directions are integers given
exactly by the character (Schur orthogonality); the least-dimension data
is a caller-supplied fixture (character tables are inputs here, never
computed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discrete import MatrixGroup, group_closure


def commutant_dimension(group: MatrixGroup) -> int:
    """Complex dimension of {X : g X = X g for all g in the group}.

    By Schur orthogonality it is (1/|G|) sum_g |tr g|^2, the sum of the
    squared multiplicities of the irreducible constituents, so it is 1
    exactly when the group acts irreducibly.
    """
    return round(sum(abs(np.trace(m)) ** 2 for m in group.elements) / group.order)


@dataclass(frozen=True)
class CriterionVerdict:
    irreducible: bool
    commutant_dim: int
    fixed_space_dim: int
    least_dimension: bool
    guarantee: bool


def least_dimension_criterion(
    group: MatrixGroup, nontrivial_irrep_dims: Sequence[int]
) -> CriterionVerdict:
    """Sufficient criterion for uniform discreteness over the projective image.

    guarantee = irreducible and (dim <= min of the nontrivial irrep
    dimensions).  When false the result is inconclusive, never a
    refutation.
    """
    dims = [int(d) for d in nontrivial_irrep_dims]
    if not dims:
        raise ValueError("need a nonempty list of nontrivial irreducible dimensions")
    cdim = commutant_dimension(group)
    irreducible = cdim == 1
    least = group.dim <= min(dims)
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


def _closed(generators) -> MatrixGroup:
    closed = group_closure(generators)
    if not isinstance(closed, MatrixGroup):
        raise ValueError(f"generators do not close to a finite group ({closed.reason})")
    return closed


def cyclic_su2_rep(m: int) -> MatrixGroup:
    """Z/m inside SU(2), closed from diag(e^{2 pi i/m}, e^{-2 pi i/m}).

    Requires 2 <= m <= 628: from m = 629 on the generator lies within
    ``group_closure``'s near-identity band, and ValueError is raised.
    """
    if m < 2:
        raise ValueError("order must be >= 2")
    z = np.exp(2j * np.pi / m)
    return _closed([np.diag([z, z.conjugate()])])


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
    return _closed([five_fold, two_fold])


# -- dihedral chain ---------------------------------------------------------------


def dihedral_generators(m: int) -> list[np.ndarray]:
    """Rotation by 2 pi/m about the z-axis and the half-turn about the
    x-axis: they generate the dihedral group of order 2m in SO(3)."""
    if m < 2:
        raise ValueError("need m >= 2")
    return [rotation_matrix(np.array([0.0, 0.0, 1.0]), 2.0 * math.pi / m), np.diag([1.0, -1.0, -1.0])]


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


def _dihedral_row(m: int, previous: list[np.ndarray] | None) -> DihedralChainRow:
    """Close the order-2m dihedral generators, and (unless ``previous`` is
    None) those together with ``previous``: the earlier group lies inside
    exactly when the joint closure adds no element.  ValueError from
    m = 629 on, where the rotation falls in the near-identity band.
    """
    gens = dihedral_generators(m)
    closed = _closed(gens)
    joint = closed if previous is None else group_closure(gens + previous, cap=closed.order)
    return DihedralChainRow(
        order=closed.order,
        min_nonzero_ell=min(l for l in closed.element_ells() if l > 0),
        product_closed=closed.order == 2 * m,
        contains_previous=isinstance(joint, MatrixGroup),
    )


def dihedral_chain_demo(axis_order: int, doublings: int) -> DihedralChainReport:
    """Each dihedral group embeds in the one with doubled rotation order,
    while the shortest nontrivial element shrinks toward the identity: an
    ascending chain that is not uniformly discrete.

    Every row is a ``group_closure`` of two generators; orders, inclusions
    and lengths are measured on the closed groups, not assumed.  The last
    row's m = axis_order * 2^doublings must be at most 628 (see
    ``cyclic_su2_rep``); a longer chain raises ValueError.
    """
    if axis_order < 3:
        raise ValueError("axis order must be >= 3")
    if doublings < 1:
        raise ValueError("need at least one doubling")
    rows = []
    previous = None
    for j in range(doublings + 1):
        m = axis_order * 2**j
        rows.append(_dihedral_row(m, previous))
        previous = dihedral_generators(m)
    return DihedralChainReport(axis_order=axis_order, doublings=doublings, rows=tuple(rows))
