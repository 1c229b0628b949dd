import math

import numpy as np
import pytest

from freecomm.discrete import MatrixGroup, group_closure
from freecomm.groups import cyclic_group
from freecomm.reps import (
    FiniteRep,
    alt5_rotation_rep,
    commutant_dimension,
    cyclic_su2_rep,
    dihedral_chain_demo,
    dihedral_so3,
    least_dimension_criterion,
    quaternion_su2_rep,
    trivial_rep,
)

from oracles import adjoint_fixed_space, su_basis, svd_commutant_dimension


def _c3_direct_sum():
    g = cyclic_group(3)
    w = np.exp(2j * np.pi / 3)
    return FiniteRep(group=g, images=tuple(np.diag([w**k, w ** (2 * k)]) for k in range(3)))


def _direct_sum(a, b):
    images = []
    for ma, mb in zip(a.images, b.images):
        m = np.zeros((a.dim + b.dim,) * 2, dtype=complex)
        m[: a.dim, : a.dim] = ma
        m[a.dim :, a.dim :] = mb
        images.append(m)
    return FiniteRep(group=a.group, images=tuple(images))


def test_rep_validation_catches_non_homomorphism():
    g = cyclic_group(2)
    with pytest.raises(ValueError, match="homomorphism"):
        FiniteRep(group=g, images=(np.eye(2), np.diag([1.0, 1j])))
    with pytest.raises(ValueError, match="unitary"):
        FiniteRep(group=g, images=(np.eye(2), 2 * np.eye(2)))


def test_su_basis_spans():
    for n in (2, 3):
        basis = su_basis(n)
        assert len(basis) == n * n - 1
        for b in basis:
            assert abs(np.trace(b)) <= 1e-12
            assert np.linalg.norm(b + b.conj().T) <= 1e-12
        flat = np.stack([np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in basis])
        assert np.linalg.matrix_rank(flat) == n * n - 1


def test_commutant_trivial_rep():
    rep = trivial_rep(cyclic_group(3), 2)
    assert commutant_dimension(rep) == 4
    assert len(adjoint_fixed_space(rep)) == 3


def test_commutant_quaternion_irrep():
    rep = quaternion_su2_rep()
    assert commutant_dimension(rep) == 1
    assert len(adjoint_fixed_space(rep)) == 0


def test_commutant_direct_sum_of_inequivalent():
    rep = _c3_direct_sum()
    assert commutant_dimension(rep) == 2
    assert len(adjoint_fixed_space(rep)) == 1


def test_cyclic_su2_fixed_direction():
    rep = cyclic_su2_rep(8)
    fixed = adjoint_fixed_space(rep)
    assert len(fixed) == 1
    b = fixed[0]
    # the fixed direction is the traceless diagonal
    assert abs(b[0, 1]) <= 1e-9 and abs(b[1, 0]) <= 1e-9
    for m in rep.images:
        assert np.linalg.norm(m @ b @ m.conj().T - b) <= 1e-9


def test_fixed_space_zero_iff_commutant_scalar():
    reps = [
        quaternion_su2_rep(),
        cyclic_su2_rep(6),
        trivial_rep(cyclic_group(2), 3),
        alt5_rotation_rep(),
    ]
    for rep in reps:
        assert (len(adjoint_fixed_space(rep)) == 0) == (commutant_dimension(rep) == 1)


def test_character_formula_matches_svd_oracle():
    from freecomm.catalog import rep_catalog

    bundled = [rep for rep, _ in rep_catalog().values()]
    bundled += [trivial_rep(cyclic_group(3), 2), trivial_rep(cyclic_group(2), 3), _c3_direct_sum()]
    sums = [_direct_sum(rep, rep) for rep in bundled]
    sums += [_direct_sum(rep, trivial_rep(rep.group, 1)) for rep in bundled]
    for rep in bundled + sums:
        verdict = least_dimension_criterion(rep, [1])
        assert verdict.commutant_dim == commutant_dimension(rep) == svd_commutant_dimension(rep)
        assert verdict.fixed_space_dim == len(adjoint_fixed_space(rep))


def test_least_dimension_alt5():
    rep = alt5_rotation_rep()
    assert rep.group.order == 60
    assert rep.unit_determinant
    verdict = least_dimension_criterion(rep, [3, 3, 4, 5])
    assert verdict.irreducible
    assert verdict.commutant_dim == 1
    assert verdict.fixed_space_dim == 0
    assert verdict.least_dimension
    assert verdict.guarantee


def test_least_dimension_quaternion_fails_dim_test():
    verdict = least_dimension_criterion(quaternion_su2_rep(), [1, 1, 1, 2])
    assert verdict.irreducible
    assert not verdict.least_dimension  # a 1-dim nontrivial irrep exists
    assert not verdict.guarantee


def test_least_dimension_reducible_fails():
    verdict = least_dimension_criterion(cyclic_su2_rep(8), [1] * 7)
    assert not verdict.irreducible
    assert not verdict.guarantee


def test_least_dimension_empty_dims_rejected():
    with pytest.raises(ValueError):
        least_dimension_criterion(cyclic_su2_rep(4), [])


def test_least_dimension_monotone_in_dims():
    rep = alt5_rotation_rep()
    base = least_dimension_criterion(rep, [3, 3, 4, 5])
    raised = least_dimension_criterion(rep, [5, 7, 9])
    assert base.guarantee
    assert raised.guarantee  # raising the minimum cannot revoke the guarantee


def test_dihedral_chain_first_doubling():
    report = dihedral_chain_demo(6, 1)
    assert [r.order for r in report.rows] == [12, 24]
    assert abs(report.rows[0].min_nonzero_ell - 1.0) <= 1e-9  # 2 sin(pi/6)
    assert abs(report.rows[1].min_nonzero_ell - 2 * math.sin(math.pi / 12)) <= 1e-9
    assert all(r.product_closed for r in report.rows)
    assert all(r.contains_previous for r in report.rows)


def test_dihedral_chain_strictly_decreasing():
    report = dihedral_chain_demo(6, 4)
    vals = [r.min_nonzero_ell for r in report.rows]
    assert report.strictly_decreasing
    assert vals[0] == pytest.approx(1.0, abs=1e-9)
    assert vals[-1] == pytest.approx(2 * math.sin(math.pi / 96), abs=1e-9)


def test_dihedral_matches_closure_oracle():
    elements = dihedral_so3(6)
    gens = [elements[1].astype(complex), elements[6].astype(complex)]
    mg = group_closure(gens, cap=100)
    assert isinstance(mg, MatrixGroup)
    assert mg.order == 12


def test_dihedral_validation():
    with pytest.raises(ValueError):
        dihedral_chain_demo(2, 1)
    with pytest.raises(ValueError):
        dihedral_chain_demo(6, 0)


def test_verdict_json_dict():
    verdict = least_dimension_criterion(alt5_rotation_rep(), [3, 3, 4, 5])
    doc = verdict.to_json_dict()
    assert doc == {
        "irreducible": True,
        "commutant_dim": 1,
        "fixed_space_dim": 0,
        "least_dimension": True,
        "guarantee": True,
    }
