import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import freecomm.discrete as discrete

from freecomm.catalog import (
    binary_tetrahedral_generators,
    finite_group_catalog,
    pauli_generators,
    quaternion_generators,
    unitary_group_catalog,
)
from freecomm.discrete import (
    MatrixGroup,
    NonClosure,
    commutator_ineq_check,
    ell_op,
    gamma_filter,
    group_closure,
    heisenberg_irrep,
)
from freecomm.matrices import op_norm, sample_haar, subseed
from freecomm.reps import dihedral_generators, icosahedral_rotation_group, rotation_matrix

from oracles import naive_closure, sequential_closure, subgroup_verdicts


def test_ell_op_examples():
    assert ell_op(np.eye(3)) <= 1e-12
    assert abs(ell_op(-np.eye(3)) - 2.0) <= 1e-12
    u = np.diag([1.0, np.exp(2j * np.pi / 3)])
    assert abs(ell_op(u) - math.sqrt(3)) <= 1e-12


def test_ell_op_rejects_non_unitary():
    with pytest.raises(ValueError):
        ell_op(2 * np.eye(2))


def test_ell_op_and_closure_share_one_unitarity_gate():
    # U*U - I = diag(2d + d^2, 0): a defect of 5e-9 fails both, 5e-11 passes both
    near = np.diag([1.0 + 2.5e-9, 1.0])
    with pytest.raises(ValueError, match="not unitary"):
        ell_op(near)
    with pytest.raises(ValueError, match="not unitary"):
        group_closure([near])
    nearer = np.diag([1.0 + 2.5e-11, 1.0])
    assert ell_op(nearer) <= 1e-10
    assert group_closure([nearer]).order == 1


@pytest.mark.parametrize("u, v", [
    (2 * np.eye(2), np.diag([1.0, -1.0])),  # margin 1.0 if unchecked
    (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])),  # margin -3.24
], ids=["scalar-two", "shears"])
def test_commutator_check_rejects_non_unitary_pairs(u, v):
    with pytest.raises(ValueError, match="not unitary"):
        commutator_ineq_check(u, v)


def test_commutator_inequality_examples():
    u = np.diag([1.0, -1.0]).astype(complex)
    v = np.diag([np.exp(1j), np.exp(-1j)])
    chk = commutator_ineq_check(u, v)
    assert chk.lhs <= 1e-12  # commuting pair

    x, z = pauli_generators()
    chk = commutator_ineq_check(x, z)
    assert abs(chk.lhs - 2.0) <= 1e-12  # [X, Z] = -1
    assert abs(chk.rhs - 8.0) <= 1e-12


def test_commutator_inequality_seeded_haar():
    for k in range(100):
        u = sample_haar(4, subseed(31, k, 0)).array
        v = sample_haar(4, subseed(31, k, 1)).array
        assert commutator_ineq_check(u, v).margin >= -1e-9


def test_pauli_closure_matches_naive_oracle():
    x, z = pauli_generators()
    mg = group_closure([x, z])
    assert isinstance(mg, MatrixGroup)
    assert mg.order == 8
    oracle = naive_closure([x, z])
    assert len(oracle) == 8
    # same elements up to tolerance
    for e in oracle:
        assert any(np.linalg.norm(e - m) <= 1e-8 for m in mg.elements)


def test_trivial_closure():
    mg = group_closure([np.eye(2)])
    assert isinstance(mg, MatrixGroup)
    assert mg.order == 1


def _dicyclic_generators(order):
    """diag(e^{i pi/m}, e^{-i pi/m}) and j with 4m = order, conjugated by a
    fixed SU(2) element so that no entry is exact."""
    a, b, c, d = np.array([1.0, 2.0, 3.0, 4.0]) / math.sqrt(30.0)
    conj = np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])
    angle = 4 * math.pi / order
    rot = np.diag([np.exp(1j * angle), np.exp(-1j * angle)])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    return [conj @ g @ conj.conj().T for g in (rot, j)]


CLOSURE_INPUTS = {
    **{name: list(gens) for name, gens in unitary_group_catalog().items()},
    "dicyclic120": _dicyclic_generators(120),
}


def test_closure_cayley_table_consistent():
    # the table is read off the search words; check it against the products
    for name, gens in CLOSURE_INPUTS.items():
        mg = group_closure(gens)
        assert isinstance(mg, MatrixGroup), name
        for i in range(mg.order):
            for j in range(mg.order):
                prod = mg.elements[i] @ mg.elements[j]
                assert np.linalg.norm(prod - mg.elements[mg.mul(i, j)]) <= 1e-8, name
        for i in range(mg.order):
            assert mg.mul(i, mg.inv(i)) == mg.identity, name
        for k, g in zip(mg.generator_indices, gens):
            assert np.linalg.norm(mg.elements[k] - g) <= 1e-8, name
    dicyclic = group_closure(CLOSURE_INPUTS["dicyclic120"])
    assert dicyclic.order == 120
    assert dicyclic.exponent() == 60


def test_irrational_rotation_is_non_discrete():
    rot = np.array([[np.exp(1j)]])
    out = group_closure([rot], cap=10_000)
    assert isinstance(out, NonClosure)
    assert out.reason == "near_identity"
    assert 1e-8 <= out.ell <= 0.01
    # the witness really is that close to the identity
    assert abs(abs(out.element[0, 0]) - 1.0) <= 1e-12
    assert abs(out.element[0, 0] - 1.0) == pytest.approx(out.ell, abs=1e-12)


def test_cap_exceeded_witness():
    rot = np.array([[np.exp(1j)]])
    out = group_closure([rot], cap=50)
    assert isinstance(out, NonClosure)
    assert out.reason == "cap_exceeded"
    assert out.elements_found == 50


def test_closure_validation():
    with pytest.raises(ValueError):
        group_closure([])
    with pytest.raises(ValueError):
        group_closure([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        group_closure([2 * np.eye(2)])
    with pytest.raises(ValueError):
        group_closure([np.eye(2)], cap=0)


def test_closure_determinism():
    gens = list(binary_tetrahedral_generators())
    a = group_closure(gens)
    b = group_closure(gens)
    assert a.order == b.order == 24
    assert a.table == b.table
    for x, y in zip(a.elements, b.elements):
        assert np.array_equal(x, y)


def test_quaternion_filter_is_trivial():
    mg = group_closure(list(quaternion_generators()))
    ells = mg.element_ells()
    assert min(l for l in ells if l > 1e-9) >= math.sqrt(2) - 1e-9
    rep = gamma_filter(mg, 0.5)
    assert rep.subgroup_indices == (mg.identity,)
    assert rep.is_abelian and rep.is_normal


def test_cyclic13_filter_is_whole_group():
    mg = group_closure([np.array([[np.exp(2j * np.pi / 13)]])])
    assert mg.order == 13
    rep = gamma_filter(mg, 0.5)
    short = [l for l in rep.element_ells if 1e-9 < l < 0.5]
    assert len(short) == 2  # the generator and its inverse
    assert abs(min(short) - 2 * math.sin(math.pi / 13)) <= 1e-9
    assert len(rep.subgroup_indices) == 13
    assert rep.is_abelian and rep.is_normal


def test_filter_threshold_zero():
    mg = group_closure(list(pauli_generators()))
    rep = gamma_filter(mg, 0.0)
    assert rep.subgroup_indices == (mg.identity,)


def test_filter_threshold_is_strict():
    # an element whose length equals the threshold is not short
    mg = group_closure(list(binary_tetrahedral_generators()))
    ells = mg.element_ells()
    t = min(l for l in ells if l > 1e-9)
    rep = gamma_filter(mg, t)
    assert rep.generator_indices == tuple(i for i, l in enumerate(ells) if l < t)
    assert ells.index(t) not in rep.generator_indices


def test_filter_monotone_in_threshold():
    mg = group_closure(list(binary_tetrahedral_generators()))
    prev: set[int] = set()
    for t in (0.0, 0.3, 0.5, 1.01, 2.1):
        sub = set(gamma_filter(mg, t).subgroup_indices)
        assert prev <= sub
        prev = sub
    assert len(prev) == 24  # threshold beyond 2 captures everything


def test_filter_verdicts_match_full_scans():
    # verdicts from the generators of <S> against the |G| |H| and |H|^2
    # scans, at a threshold between each pair of consecutive distinct
    # lengths (and above the largest), on every bundled and dicyclic group
    for name, gens in CLOSURE_INPUTS.items():
        mg = group_closure(gens)
        ells = sorted(set(np.round(mg.element_ells(), 9)))
        for t in [(a + b) / 2 for a, b in zip(ells, ells[1:])] + [ells[-1] + 1.0]:
            rep = gamma_filter(mg, t)
            want = subgroup_verdicts(mg, frozenset(rep.subgroup_indices))
            assert (rep.is_abelian, rep.is_normal) == want, (name, t)


def test_filter_verdicts_match_full_scans_for_non_class_lengths():
    # the element lengths of a unitary group are class functions, so every
    # filtered subgroup above is normal; 1 x 1 elements with lengths that
    # are not, on the tables of the finite catalog, give subgroups that are
    # neither abelian nor normal
    verdicts = set()
    for name, g in finite_group_catalog().items():
        gens: list[int] = []
        for x in range(g.order):  # a greedy generating set
            if x not in g.generated(gens):
                gens.append(x)
        angles = [0.0 if x == g.identity else 0.1 * (x + 1) for x in range(g.order)]
        mg = MatrixGroup([np.array([[np.exp(1j * a)]]) for a in angles], g.table, gens)
        for t in sorted(mg.element_ells())[1:]:
            rep = gamma_filter(mg, t + 1e-9)
            want = subgroup_verdicts(mg, frozenset(rep.subgroup_indices))
            assert (rep.is_abelian, rep.is_normal) == want, (name, t)
            verdicts.add(want)
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_heisenberg_examples():
    h3 = heisenberg_irrep(3)
    assert abs(ell_op(h3.clock) - math.sqrt(3)) <= 1e-12
    h2 = heisenberg_irrep(2)
    assert abs(ell_op(h2.shift) - 2.0) <= 1e-12
    h7 = heisenberg_irrep(7)
    assert h7.min_ell >= math.sqrt(3) - 1e-9
    assert abs(h7.commutator_scalar - np.exp(2j * np.pi / 7)) <= 1e-10


def test_heisenberg_range_and_validation():
    for n in range(2, 13):
        h = heisenberg_irrep(n)
        assert h.min_ell >= math.sqrt(3) - 1e-9
        assert abs(h.commutator_scalar - 1.0) > 0.1
    with pytest.raises(ValueError):
        heisenberg_irrep(1)


def test_catalog_filters_all_abelian_normal():
    for name, gens in unitary_group_catalog().items():
        mg = group_closure(list(gens))
        assert isinstance(mg, MatrixGroup), name
        rep = gamma_filter(mg, 0.5)
        assert rep.is_abelian and rep.is_normal, name


def _benchmark_closure_inputs():
    """The closure-filter inputs of the benchmark at seed 1: dicyclic groups
    of order 120, 240 and 320 and the 1-rad rotation pair, which never
    closes up, all conjugated by one seeded SU(2) element."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    w = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(w)
    conj = w.random_su2(w._rng("closure-filter", 1))
    out = {f"bench-dicyclic{o}": list(w.dicyclic_pair(math.pi / (o // 4), conj))
           for o in w.DICYCLIC_ORDERS}
    out["bench-rotation"] = list(w.dicyclic_pair(w.ROTATION_ANGLE, conj))
    return out


def _assert_same_closure(gens, cap=10_000):
    got, want = group_closure(gens, cap=cap), sequential_closure(gens, cap=cap)
    if isinstance(want, NonClosure):
        assert isinstance(got, NonClosure)
        assert (got.reason, got.ell, got.elements_found) == (want.reason, want.ell, want.elements_found)
        assert got.element.tobytes() == want.element.tobytes()
        return got
    elements, table, generator_indices = want
    assert isinstance(got, MatrixGroup)
    assert [e.tobytes() for e in got.elements] == [e.tobytes() for e in elements]
    assert got.table == tuple(map(tuple, table))
    assert got.generator_indices == tuple(generator_indices)
    return got


def test_layered_closure_matches_sequential_oracle():
    # bitwise: elements, Cayley table, generator indices and witnesses
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    icosahedral = [rotation_matrix(np.array([0.0, 1.0, phi]), 2.0 * math.pi / 5.0),
                   np.diag([-1.0, -1.0, 1.0])]
    inputs = {
        **CLOSURE_INPUTS,
        **_benchmark_closure_inputs(),
        **{f"clock-shift{n}": [heisenberg_irrep(n).clock, heisenberg_irrep(n).shift]
           for n in range(3, 7)},
        "icosahedral": icosahedral,
        **{f"dihedral{m}": dihedral_generators(m) for m in (3, 5, 12, 24)},
    }
    for name, gens in inputs.items():
        out = _assert_same_closure(gens)
        assert isinstance(out, NonClosure) == (name == "bench-rotation"), name
    assert group_closure(icosahedral).table == icosahedral_rotation_group().table
    # the cap witness, and a cap reached exactly by a closing group
    assert _assert_same_closure([np.array([[np.exp(1j)]])], cap=50).reason == "cap_exceeded"
    assert _assert_same_closure(dihedral_generators(12) + dihedral_generators(6), cap=24).order == 24


def _band_generators(phases):
    """A pair-swapping permutation s and s z, z = diag(e^{i phases}): the
    product s (s z) = z lands at Frobenius distance |z - 1| from the
    identity, and s z at the same distance from s."""
    s = np.eye(4)[[1, 0, 3, 2]].astype(complex)
    return [s, s @ np.diag(np.exp(1j * np.asarray(phases)))]


def _counting_op_norm(monkeypatch):
    calls = []

    def counted(a):
        calls.append(1)
        return op_norm(a)

    monkeypatch.setattr(discrete, "op_norm", counted)
    return calls


def test_maybe_band_merges_through_op_norm(monkeypatch):
    # z = e^{i d} 1 with d = 0.9 eps: fro |z - 1| = 2 |e^{id} - 1| = 1.8 eps
    # lies in (eps, 2 eps] = (eps, eps sqrt(N)], and op |e^{id} - 1| <= eps.
    # s z merges with s, found earlier in the same layer, and z = s (s z)
    # with the identity, an earlier layer; only the op norm can merge them
    gens = _band_generators([0.9e-8] * 4)
    s, sz = gens
    eps = discrete.DEFAULT_MERGE_EPS
    assert eps < np.linalg.norm(sz - s) <= 2 * eps and op_norm(sz - s) <= eps
    calls = _counting_op_norm(monkeypatch)
    mg = _assert_same_closure(gens)
    assert calls  # the fallback ran
    assert mg.order == 2
    assert mg.generator_indices == (1, 1)
    assert mg.table == ((0, 1), (1, 0))


def test_maybe_band_without_op_match_is_near_identity(monkeypatch):
    # z = diag(e^{i d}, 1, 1, 1) with d = 1.5 eps: fro and op are both
    # |e^{id} - 1| = 1.5 eps, inside the band but op > eps, so s z stays
    # apart from s, and z = s (s z) is a near-identity witness
    gens = _band_generators([1.5e-8, 0.0, 0.0, 0.0])
    calls = _counting_op_norm(monkeypatch)
    out = _assert_same_closure(gens)
    assert calls
    assert isinstance(out, NonClosure) and out.reason == "near_identity"
    assert out.ell == pytest.approx(1.5e-8, rel=1e-6)
    assert out.elements_found == 4


def test_element_ells_match_op_norm_bitwise():
    for gens in CLOSURE_INPUTS.values():
        mg = group_closure(gens)
        eye = np.eye(mg.dim)
        assert mg.element_ells() == [op_norm(eye - g) for g in mg.elements]
