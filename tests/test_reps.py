import math

import numpy as np
import pytest

from freecomm.catalog import quaternion_generators, unitary_group_catalog
from freecomm.discrete import MatrixGroup, group_closure
from freecomm.reps import (
    _closed,
    _dihedral_row,
    commutant_dimension,
    cyclic_su2_rep,
    dihedral_chain_demo,
    dihedral_generators,
    icosahedral_rotation_group,
    least_dimension_criterion,
)

from oracles import adjoint_fixed_space, naive_closure, su_basis, svd_commutant_dimension


def _trivial(n):
    return _closed([np.eye(n)])


def _quaternion():
    return _closed(list(quaternion_generators()))


def _block_diagonal(a, b):
    m = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    m[: a.shape[0], : a.shape[0]] = a
    m[a.shape[0] :, a.shape[0] :] = b
    return m


def _c3_direct_sum():
    w = np.exp(2j * np.pi / 3)
    return _closed([np.diag([w, w**2])])


def _block_sums(group):
    """Closures of diag(g, g) and of diag(g, 1) over the generators g: the
    representation doubled, and plus the trivial one."""
    gens = [group.elements[i] for i in group.generator_indices]
    return (_closed([_block_diagonal(g, g) for g in gens]),
            _closed([_block_diagonal(g, np.eye(1)) for g in gens]))


def test_closure_rejects_non_unitary_generator():
    with pytest.raises(ValueError, match="unitary"):
        group_closure([np.eye(2), 2 * np.eye(2)])
    with pytest.raises(ValueError, match="unitary"):
        group_closure([np.array([[1.0, 1.0], [0.0, 1.0]])])


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
    rep = _trivial(2)
    assert commutant_dimension(rep) == 4
    assert len(adjoint_fixed_space(rep)) == 3


def test_commutant_quaternion_irrep():
    rep = _quaternion()
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
    for m in rep.elements:
        assert np.linalg.norm(m @ b @ m.conj().T - b) <= 1e-9


def test_fixed_space_zero_iff_commutant_scalar():
    reps = [
        _quaternion(),
        cyclic_su2_rep(6),
        _trivial(3),
        icosahedral_rotation_group(),
    ]
    for rep in reps:
        assert (len(adjoint_fixed_space(rep)) == 0) == (commutant_dimension(rep) == 1)


def test_character_formula_matches_svd_oracle():
    bundled = [_closed(list(gens)) for gens in unitary_group_catalog().values()]
    bundled += [icosahedral_rotation_group(), cyclic_su2_rep(8)]
    bundled += [_trivial(2), _trivial(3), _c3_direct_sum()]
    sums = [s for rep in bundled for s in _block_sums(rep)]
    for rep in bundled + sums:
        verdict = least_dimension_criterion(rep, [1])
        assert verdict.commutant_dim == commutant_dimension(rep) == svd_commutant_dimension(rep)
        assert verdict.fixed_space_dim == len(adjoint_fixed_space(rep))


def test_least_dimension_alt5():
    rep = icosahedral_rotation_group()
    assert rep.order == 60
    assert all(abs(np.linalg.det(m) - 1.0) <= 1e-8 for m in rep.elements)
    verdict = least_dimension_criterion(rep, [3, 3, 4, 5])
    assert verdict.irreducible
    assert verdict.commutant_dim == 1
    assert verdict.fixed_space_dim == 0
    assert verdict.least_dimension
    assert verdict.guarantee


def test_least_dimension_quaternion_fails_dim_test():
    verdict = least_dimension_criterion(_quaternion(), [1, 1, 1, 2])
    assert verdict.irreducible
    assert not verdict.least_dimension  # a 1-dim nontrivial irrep exists
    assert not verdict.guarantee


def test_least_dimension_reducible_fails():
    verdict = least_dimension_criterion(cyclic_su2_rep(8), [1] * 7)
    assert not verdict.irreducible
    assert not verdict.guarantee


def test_cyclic_su2_rep_closes_up_to_the_near_identity_band():
    assert cyclic_su2_rep(628).order == 628
    with pytest.raises(ValueError, match="near_identity"):
        cyclic_su2_rep(629)
    with pytest.raises(ValueError):
        cyclic_su2_rep(1)


def test_least_dimension_empty_dims_rejected():
    with pytest.raises(ValueError):
        least_dimension_criterion(cyclic_su2_rep(4), [])


def test_least_dimension_monotone_in_dims():
    rep = icosahedral_rotation_group()
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
    gens = [g.astype(complex) for g in dihedral_generators(6)]
    mg = group_closure(gens, cap=100)
    assert isinstance(mg, MatrixGroup)
    assert mg.order == len(naive_closure(gens)) == 12


def test_dihedral_row_detects_a_missing_subgroup():
    assert _dihedral_row(12, dihedral_generators(6)).contains_previous
    row = _dihedral_row(9, dihedral_generators(6))  # D6 is not inside D9
    assert row.product_closed and row.order == 18
    assert not row.contains_previous
    # from m = 629 on the rotation falls in the near-identity band
    assert _dihedral_row(628, None).order == 1256
    with pytest.raises(ValueError):
        _dihedral_row(629, None)


def test_dihedral_validation():
    with pytest.raises(ValueError):
        dihedral_chain_demo(2, 1)
    with pytest.raises(ValueError):
        dihedral_chain_demo(6, 0)


def test_verdict_json_dict():
    verdict = least_dimension_criterion(icosahedral_rotation_group(), [3, 3, 4, 5])
    doc = verdict.to_json_dict()
    assert doc == {
        "irreducible": True,
        "commutant_dim": 1,
        "fixed_space_dim": 0,
        "least_dimension": True,
        "guarantee": True,
    }
