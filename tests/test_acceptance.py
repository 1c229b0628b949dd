"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion with its runtime.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import freecomm as fc
from freecomm.algebra import ell_bar_from_trace, ell_from_trace, evaluate, free_pair
from freecomm.catalog import unitary_group_catalog
from freecomm.discrete import MatrixGroup
from freecomm.dynamics import decay_curve_exact, find_small_element
from freecomm.matrices import freeness_trial, subseed
from freecomm.reporting import atomic_write_bytes, canonical_json_bytes, round_floats
from freecomm.reps import cyclic_su2_rep, dihedral_chain_demo, icosahedral_rotation_group

GRID = (0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 0.9)
ALPHAS = (0.76, 0.8, 0.9, 0.95)
MASTER_SEED = 20260808


class _Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label}: {elapsed:.2f}s over budget"
            print(f"[PASS] {self.label} ({elapsed:.2f}s)")
        else:
            print(f"[FAIL] {self.label} ({elapsed:.2f}s)")
        return False


def test_criterion_01_exact_commutator_trace_identity():
    with _Budget("criterion 1: exact commutator trace identity", 1.0):
        for a in GRID:
            for b in GRID:
                chk = fc.verify_free_commutator_identity(a, b)
                assert chk.deviation <= 1e-12, (a, b, chk.deviation)


def test_criterion_02_freeness_product_rule():
    with _Budget("criterion 2: freeness product rule", 1.0):
        u, v = free_pair()
        tau_uv = fc.trace(fc.multiply(u, v))
        for a in GRID:
            for b in GRID:
                num, den = evaluate(tau_uv, a, b)
                dev = abs(num / den - a * b)
                assert dev <= 1e-12, (a, b, dev)


def test_criterion_03_two_sided_bound():
    with _Budget("criterion 3: two-sided commutator bound", 1.0):
        u, v = free_pair()
        comm = fc.multiply(fc.multiply(fc.multiply(u, v), fc.star(u)), fc.star(v))
        assert fc.is_unitary(comm)
        tau_comm = fc.trace(comm)
        for a in GRID:
            for b in GRID:
                num, den = evaluate(tau_comm, a, b)
                tau = complex(num / den)
                lc = ell_from_trace(tau)
                lbu, lbv = ell_bar_from_trace(complex(a)), ell_bar_from_trace(complex(b))
                assert lbu * lbv / math.sqrt(2) - 1e-10 <= lc, (a, b)
                assert lc <= math.sqrt(2) * lbu * lbv + 1e-10, (a, b)
                assert abs(ell_bar_from_trace(tau) - lc) <= 1e-10, (a, b)


def test_criterion_04_decay_chain():
    with _Budget("criterion 4: exact decay chain", 120.0):
        for alpha in ALPHAS:
            report = decay_curve_exact(alpha, 6)
            # expansion stays exact through n = 4; supports square past that,
            # and n = 5 is the exact trace paired off w_4
            assert [s.source for s in report.steps] == (
                ["exact"] * 4 + ["exact_trace", "recursion"]), alpha
            for s in report.steps:
                assert s.lower - 1e-10 <= s.ell <= s.upper + 1e-10, (alpha, s.n)
                assert abs(s.trace - s.recursion_trace) <= 1e-10, (alpha, s.n)


def test_criterion_05_epsilon_small_element():
    with _Budget("criterion 5: epsilon-small element", 120.0):
        res = find_small_element(0.9, 0.1)
        assert res.n <= 6
        assert res.ell < 0.1
        assert res.word == fc.w_sequence(res.n)
        # the reported word re-evaluates to the reported length
        from freecomm.dynamics import iter_exact_steps

        for step in iter_exact_steps(0.9):
            if step.n == res.n:
                assert abs(step.ell - res.ell) <= 1e-10
                break


def test_criterion_06_matrix_model_freeness():
    with _Budget("criterion 6: matrix-model freeness", 60.0):
        for trial in range(10):
            rep = freeness_trial(256, MASTER_SEED, trial)
            assert rep.d1 <= 0.05 and rep.d2 <= 0.05, (256, trial, rep.d1, rep.d2)
        for trial in range(3):
            rep = freeness_trial(1024, MASTER_SEED, trial)
            assert rep.d1 <= 0.02 and rep.d2 <= 0.02, (1024, trial, rep.d1, rep.d2)


def test_criterion_07_cstar_contraction_inequality():
    with _Budget("criterion 7: operator-norm contraction", 60.0):
        violations = 0
        for dim in (2, 4, 8):
            for k in range(1000):
                u = fc.sample_haar(dim, subseed(MASTER_SEED, dim, k, 0)).array
                v = fc.sample_haar(dim, subseed(MASTER_SEED, dim, k, 1)).array
                if fc.commutator_ineq_check(u, v).margin < -1e-9:
                    violations += 1
        assert violations == 0


def test_criterion_08_filter_instances():
    with _Budget("criterion 8: short-element filtrations", 10.0):
        catalog = unitary_group_catalog()
        expected_orders = {
            "quaternion_su2": 8,
            "pauli_u2": 8,
            "binary_tetrahedral_su2": 24,
            "cyclic13_u1": 13,
        }
        for name, gens in catalog.items():
            mg = fc.group_closure(list(gens))
            assert isinstance(mg, MatrixGroup), name
            assert mg.order == expected_orders[name]
            rep = fc.gamma_filter(mg, 0.5)
            assert rep.is_abelian and rep.is_normal, name
            if name == "cyclic13_u1":
                assert len(rep.subgroup_indices) == 13
                short = [l for l in rep.element_ells if 1e-9 < l < 0.5]
                assert abs(min(short) - 2 * math.sin(math.pi / 13)) <= 1e-9
                assert 2 * math.sin(math.pi / 13) < 0.5
            else:
                assert rep.subgroup_indices == (mg.identity,)


def test_criterion_09_heisenberg_bound():
    with _Budget("criterion 9: Heisenberg sqrt(3) bound", 1.0):
        for n in range(2, 13):
            h = fc.heisenberg_irrep(n)
            assert h.min_ell >= math.sqrt(3) - 1e-9, n
            assert abs(h.commutator_scalar - 1.0) > 1e-6, n


def test_criterion_10_mixed_identities():
    with _Budget("criterion 10: mixed identities", 1.0):
        from freecomm.catalog import finite_group_catalog
        from freecomm.mixed import MixedWord, mixed_commutator

        for name, group in finite_group_catalog().items():
            w = MixedWord.t_power(group, group.exponent())
            assert fc.is_mixed_identity(w).is_identity, name

        s3 = fc.symmetric_group(3)
        t = MixedWord.t_power(s3, 1)
        w = mixed_commutator(t, t.conjugate_variable(s3.index_of("(12)")))
        verdict = fc.is_mixed_identity(w)
        assert not verdict.is_identity
        assert w.evaluate(verdict.witness) != s3.identity  # witness re-verifies


def test_criterion_11_pu_n_analysis():
    with _Budget("criterion 11: projective unitary analysis", 10.0):
        alt5 = icosahedral_rotation_group()
        v = fc.least_dimension_criterion(alt5, [3, 3, 4, 5])
        assert v.commutant_dim == 1
        assert v.fixed_space_dim == 0
        assert v.guarantee

        c8 = cyclic_su2_rep(8)
        v8 = fc.least_dimension_criterion(c8, [1] * 7)
        assert v8.fixed_space_dim == 1
        assert not v8.guarantee

        chain = dihedral_chain_demo(6, 4)
        vals = [r.min_nonzero_ell for r in chain.rows]
        assert chain.strictly_decreasing
        assert vals[0] == pytest.approx(1.0, abs=1e-9)
        assert vals[1] == pytest.approx(2 * math.sin(math.pi / 12), abs=1e-9)
        assert vals[-1] < 0.1


_CLI_CASES = [
    ["verify-identity", "--alpha-grid", "0,0.5,0.9", "--beta-grid", "0,0.5"],
    ["dynamics", "--alpha", "0.9", "--n-max", "5", "--format", "json"],
    ["dynamics", "--alpha", "0.9", "--n-max", "2", "--format", "json"],
    ["dynamics", "--alpha", "0.75", "--n-max", "2100", "--format", "json"],
    ["dynamics", "--alpha", "0.9", "--model", "matrix", "--n", "256", "--seed", "7",
     "--n-max", "3", "--format", "json"],
    ["dynamics", "--alpha=-0.9", "--model", "matrix", "--n", "256", "--seed", "7",
     "--n-max", "3", "--format", "json"],
    ["freeness", "--n", "256", "--trials", "3", "--seed", str(MASTER_SEED)],
    # odd N, where the Haar draw's last bits depend on the thread count
    ["freeness", "--n", "257", "--seed", "20220"],
    ["dynamics", "--alpha", "0.9", "--model", "matrix", "--n", "255", "--seed", "7",
     "--n-max", "3", "--format", "json"],
    # lengths read off LAPACK's QR of the N x 2k factor
    ["dynamics", "--model", "matrix", "--alpha", "0.9", "--n", "1024", "--seed", "0",
     "--n-max", "6", "--format", "json"],
    ["dynamics", "--model", "matrix", "--alpha", "0.9", "--n", "513", "--seed", "0",
     "--n-max", "6", "--format", "json"],
    ["mif", "--group-name", "sym3", "--depth", "2",
     "--word", "e . t^1 . (12) . t^1 . (12) . t^-1 . (12) . t^-1 . (12)"],
]


def _run_cli_with_threads(args, out_path, threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, "-m", "freecomm.cli", *args, "--out", str(out_path)]
    res = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return Path(out_path).read_bytes()


def test_criterion_12_determinism(tmp_path):
    with _Budget("criterion 12: byte-identical seeded reports", 300.0):
        # in-process rerun determinism of a seeded computation
        a = [freeness_trial(256, MASTER_SEED, t).to_json_dict() for t in range(3)]
        b = [freeness_trial(256, MASTER_SEED, t).to_json_dict() for t in range(3)]
        assert canonical_json_bytes({"trials": a}) == canonical_json_bytes({"trials": b})

        # CLI reruns across one- and multi-threaded BLAS settings
        for i, args in enumerate(_CLI_CASES):
            ref = _run_cli_with_threads(args, tmp_path / f"case{i}_run0.json", 1)
            again = _run_cli_with_threads(args, tmp_path / f"case{i}_run1.json", 1)
            multi = _run_cli_with_threads(args, tmp_path / f"case{i}_run2.json", 4)
            assert again == ref, f"case {i} differs across reruns"
            assert multi == ref, f"case {i} differs across thread counts"

        # zassenhaus writes a directory of reports
        def run_zass(tag, threads):
            out = tmp_path / f"zass_{tag}"
            env = dict(os.environ)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            res = subprocess.run(
                [sys.executable, "-m", "freecomm.cli", "zassenhaus", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert res.returncode == 0, res.stderr
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        z1 = run_zass("a", 1)
        z2 = run_zass("b", 4)
        assert z1 == z2


def test_acceptance_reports_parse():
    # sanity: canonical json stays loadable
    doc = json.loads(canonical_json_bytes({"x": 0.1234567890123456789, "c": 1 + 2j}))
    assert doc["x"] == 0.123456789012
    assert doc["c"] == [1.0, 2.0]


def test_round_floats_passes_plain_lists_and_rounds_mixed_ones():
    words = ["e . t^2 . e", "g . t^-1 . g"]
    assert round_floats(words) == words
    assert round_floats((1, "a", 2)) == [1, "a", 2]
    assert round_floats(["a", 0.1234567890123456789, 3]) == ["a", 0.123456789012, 3]
    assert round_floats([1, 2.0000000000001]) == [1, 2.0]


def test_atomic_write_leaves_no_temporary_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError("no rename")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError, match="no rename"):
        atomic_write_bytes(tmp_path / "report.json", b"{}")
    assert list(tmp_path.iterdir()) == []
