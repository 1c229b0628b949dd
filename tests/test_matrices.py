import math

import numpy as np
import pytest

from freecomm import matrices
from freecomm.discrete import commutator_ineq_check, ell_op
from freecomm.matrices import (
    UNITARY_OP_TOL,
    CMVMatrix,
    Reflection,
    UnitaryMatrix,
    as_array,
    check_unitary,
    corner_haar,
    freeness_report,
    freeness_trial,
    normalized_trace,
    op_norm,
    sample_cue,
    sample_haar,
    subseed,
    unitarity_defect,
    unitary_with_trace,
)

from oracles import (
    dense_cmv,
    dense_unitarity_defect,
    einsum_panel_gram,
    ks_uniform,
    orthonormalize_haar,
    traced_peak,
    two_norm_dist,
    unblocked_haar,
    whole_cmv_matmul,
    whole_cmv_rmatmul,
    whole_freeness_report,
)


def test_haar_dimension_one_is_phase():
    u = sample_haar(1, 3).array
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_determinism():
    a = sample_haar(32, 123).array
    b = sample_haar(32, 123).array
    assert np.array_equal(a, b)
    c = sample_haar(32, 124).array
    assert not np.allclose(a, c)


def test_haar_bit_identical_across_thread_counts():
    # the blocked sampler uses BLAS only for GEMM, whose bytes agree across
    # thread counts at these sizes but not at every size (N = 257 differs
    # in its last bits; report bytes are pinned by criterion 12 instead);
    # sizes cover one panel, several panels and a ragged last panel, for
    # square unitaries and tall frames.  The CMV draw and its dense form
    # use no BLAS; even and odd N end in a 2 x 2 and a lone last block
    import hashlib
    import os
    import subprocess
    import sys

    script = (
        "import hashlib\n"
        "from freecomm.matrices import _haar_frame, sample_cue, sample_haar\n"
        "h = hashlib.sha256()\n"
        "for n in (2, 64, 200, 1024):\n"
        "    h.update(sample_haar(n, 12345).array.tobytes())\n"
        "for n, k in ((1024, 51), (200, 40)):\n"
        "    h.update(_haar_frame(n, k, 12345).tobytes())\n"
        "for n in (1024, 255):\n"
        "    c = sample_cue(n, 12345)\n"
        "    h.update(c.alpha.tobytes() + c.array.tobytes())\n"
        "print(h.hexdigest())\n"
    )
    digests = set()
    for threads in ("1", "2", "4"):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        res = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        digests.add(res.stdout.strip())
    assert len(digests) == 1


def _panel(k, seed):
    """A 32-column lower-trapezoidal complex-Gaussian panel of height k."""
    from freecomm.matrices import make_rng

    rng = make_rng(subseed(seed, k))
    return np.tril(rng.standard_normal((k, 32)) + 1j * rng.standard_normal((k, 32)))


GRAM_HEIGHTS = (200, 257, 300, 480, 513, 1000)


def test_panel_gram_bit_identical_across_thread_counts():
    # one-shot V* V GEMMs change their last bits with the thread count at
    # these heights; the sum of 128-row chunk products does not
    import hashlib
    import os
    import subprocess
    import sys

    script = (
        "import hashlib\n"
        "from test_matrices import GRAM_HEIGHTS, _panel\n"
        "from freecomm.matrices import _panel_gram\n"
        "h = hashlib.sha256()\n"
        "for k in GRAM_HEIGHTS:\n"
        "    v = _panel(k, 4321)\n"
        "    h.update(_panel_gram(v.conj().T, v).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    digests = set()
    for threads in ("1", "2", "4"):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [tests_dir, env.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        digests.add(res.stdout.strip())
    assert len(digests) == 1


def test_panel_gram_matches_einsum():
    from freecomm.matrices import _panel_gram

    for k in (1, 31, 128, 129) + GRAM_HEIGHTS:
        v = _panel(k, 99)
        gram = _panel_gram(v.conj().T, v)
        assert gram.shape == (32, 32)
        assert np.max(np.abs(gram - einsum_panel_gram(v))) <= 1e-13 * np.max(np.abs(gram))


def test_blocked_haar_matches_unblocked_reflectors():
    # one panel (40), several panels with a ragged last one (130), and a
    # thin 130 x 45 frame
    from freecomm.matrices import _haar_frame

    for n, k in ((40, 40), (130, 130), (130, 45)):
        u = _haar_frame(n, k, subseed(78, n, k))
        assert u.shape == (n, k)
        assert np.max(np.abs(u - unblocked_haar(n, k, subseed(78, n, k)))) <= 1e-12
        assert np.allclose(u.conj().T @ u, np.eye(k), atol=1e-12)


def test_orthonormalization_matches_lapack_span():
    # the QR oracle: same Q R = Z factorization as LAPACK up to column
    # phases, within one panel (40) and across panels with a ragged last
    # one (130), and for a tall 130 x 45 input (thin Q)
    from freecomm.matrices import make_rng

    for n, k in ((40, 40), (130, 130), (130, 45)):
        rng = make_rng(subseed(77, n))
        z = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
        u = orthonormalize_haar(z)
        q, r = np.linalg.qr(z)
        u_ref = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[np.newaxis, :]
        assert u.shape == (n, k)
        assert np.allclose(u, u_ref, atol=1e-10)
        # and the result has orthonormal columns with R' = U* Z upper
        # triangular, positive diagonal
        assert np.allclose(u.conj().T @ u, np.eye(k), atol=1e-12)
        r_prime = u.conj().T @ z
        assert np.allclose(np.tril(r_prime, -1), 0, atol=1e-10)
        assert np.all(np.diagonal(r_prime).real > 0)
        assert np.allclose(np.diagonal(r_prime).imag, 0, atol=1e-10)


def test_haar_unitarity_invariant():
    for seed in range(5):
        u = sample_haar(64, seed)
        assert unitarity_defect(u.array) <= 1e-10


def test_haar_trace_fluctuation():
    # normalized traces of Haar samples concentrate at O(1/N)
    n = 256
    for seed in range(10):
        tau = normalized_trace(sample_haar(n, seed).array)
        assert abs(tau) <= 10.0 / n


def test_haar_entry_modulus_is_uniform():
    # at N=2, |U_00|^2 follows the uniform law on [0, 1], for a full draw
    # and for a 2 x 1 frame
    from freecomm.matrices import _haar_frame

    samples = [
        abs(sample_haar(2, subseed(5150, k)).array[0, 0]) ** 2 for k in range(10_000)
    ]
    assert ks_uniform(samples) <= 0.05
    samples = [abs(_haar_frame(2, 1, subseed(5151, k))[0, 0]) ** 2 for k in range(10_000)]
    assert ks_uniform(samples) <= 0.05


def test_haar_determinant_phase_is_uniform():
    # arg det / 2 pi is uniform for a Haar unitary; the reflectors alone
    # have det (-1)^N, so this sees the column phases -s_k
    samples = [
        np.angle(np.linalg.det(sample_haar(3, subseed(5152, k)).array)) / (2 * np.pi) % 1.0
        for k in range(5_000)
    ]
    assert ks_uniform(samples) <= 0.03


def test_unitary_with_trace_counting():
    # the basis spans the smaller eigenspace: -1 with sign 1, +1 with sign -1
    for alpha, spectrum, sign in ((0.5, [-1, 1, 1, 1], 1), (-0.5, [-1, -1, -1, 1], -1)):
        u, realized = unitary_with_trace(alpha, 4, 0)
        assert realized == alpha
        assert (u.basis.shape, u.sign) == ((4, 1), sign)
        eig = np.sort_complex(np.linalg.eigvals(u.array))
        assert np.allclose(np.sort(eig.real), spectrum, atol=1e-9)
        assert np.allclose(eig.imag, 0, atol=1e-9)


def test_unitary_with_trace_alpha_one_is_identity():
    u, realized = unitary_with_trace(1.0, 4, 0)
    assert realized == 1.0
    assert np.array_equal(u.array, np.eye(4))


def test_unitary_with_trace_large():
    u, realized = unitary_with_trace(0.9, 1000, 7)
    assert realized == 0.9
    ell = math.sqrt(2 - 2 * realized)
    assert abs(ell - math.sqrt(0.2)) <= 1e-12
    assert abs(normalized_trace(u.array) - realized) <= 1e-10


def test_unitary_with_trace_validation():
    with pytest.raises(ValueError):
        sample_haar(0, 0)
    with pytest.raises(ValueError):
        unitary_with_trace(0.5, 1, 0)
    with pytest.raises(ValueError):
        unitary_with_trace(1.5, 8, 0)


def test_corner_haar_trace_and_length():
    u = corner_haar(0.2, 500, 3)
    tau = normalized_trace(u.array)
    assert tau.real >= 0.75
    ell = math.sqrt(2 - 2 * tau.real)
    assert abs(ell - math.sqrt(0.4)) <= 0.05


def test_corner_haar_degenerate_blocks_rejected():
    with pytest.raises(ValueError):
        corner_haar(0.999, 4, 0)  # corner rounds to the whole space
    with pytest.raises(ValueError):
        corner_haar(0.01, 4, 0)  # corner rounds to nothing


def test_trace_and_distance_basics():
    assert normalized_trace(np.eye(3)) == 1.0
    assert abs(two_norm_dist(np.eye(3), -np.eye(3)) - 2.0) <= 1e-12
    m = np.diag([1.0, np.exp(2j * np.pi / 3)]) - np.eye(2)
    assert abs(op_norm(m) - math.sqrt(3)) <= 1e-12


def test_two_norm_matches_length_formula():
    for seed in range(5):
        u = sample_haar(40, seed).array
        lhs = two_norm_dist(np.eye(40), u) ** 2
        rhs = 2 - 2 * normalized_trace(u).real
        assert abs(lhs - rhs) <= 1e-12


def test_op_norm_matches_svd():
    rng = np.random.Generator(np.random.Philox(99))
    for n in (65, 128, 256):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sigma = op_norm(a)
        assert abs(sigma - np.linalg.svd(a, compute_uv=False)[0]) <= 1e-12
        # independent route: the top eigenvalue of the Hermitian A*A
        lam = np.linalg.eigvalsh(a.conj().T @ a)[-1]
        assert abs(sigma - math.sqrt(lam)) <= 1e-12 * sigma


def test_op_norm_rejects_nonsquare():
    with pytest.raises(ValueError):
        op_norm(np.ones((2, 3)))


def _perturbed(q, eps, seed):
    """q plus eps times a complex Gaussian matrix scaled to unit column norms."""
    from freecomm.matrices import make_rng

    rng = make_rng(seed)
    z = rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)
    return q + eps * z / math.sqrt(2 * q.shape[0])


DEFECT_SHAPES = [(1, 1), (63, 63), (64, 64), (65, 65), (130, 130), (257, 257),
                 (130, 45), (1024, 51)]


@pytest.mark.parametrize("shape", DEFECT_SHAPES)
def test_unitarity_defect_matches_dense_oracle(shape):
    # exact draws (Frobenius branch near 1e-14), and perturbed ones on both
    # sides of the 1e-10 bound where the op norm of E takes over
    from freecomm.matrices import _haar_frame

    q = _haar_frame(*shape, subseed(31, *shape))
    for eps in (0.0, 1e-12, 1e-9):
        a = _perturbed(q, eps, subseed(32, *shape)) if eps else q
        got, want = unitarity_defect(a), dense_unitarity_defect(a)
        assert abs(got - want) <= 1e-14 + 1e-12 * want


def test_unitarity_defect_catches_half_counted_blocks():
    # a mutant that counts each off-diagonal block of E once under-reports
    # the Frobenius norm by about 1/sqrt(2), far outside the oracle's tolerance
    from freecomm.matrices import _DEFECT_BLOCK, _haar_frame

    a = _perturbed(_haar_frame(257, 257, 33), 1e-12, 34)
    sq = 0.0
    for i in range(0, 257, _DEFECT_BLOCK):
        b = min(_DEFECT_BLOCK, 257 - i)
        g = a[:, i : i + b].conj().T @ a[:, i:]
        g[np.arange(b), np.arange(b)] -= 1.0
        sq += np.vdot(g, g).real
    mutant, want = math.sqrt(sq), dense_unitarity_defect(a)
    assert want <= UNITARY_OP_TOL  # the Frobenius branch
    assert abs(unitarity_defect(a) - want) <= 1e-14 + 1e-12 * want
    assert mutant < 0.9 * want


def test_unitary_matrix_rejects_one_moved_entry():
    q = sample_haar(130, 35).array.copy()
    q[57, 3] += 1e-9
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryMatrix(q)


def test_unitary_matrix_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitaryMatrix(np.ones((2, 2)))


def test_reflection_rejects_non_orthonormal_basis():
    # the k x k check on Q*Q that stands in for the N x N check of u
    with pytest.raises(ValueError):
        Reflection(np.ones((4, 2)), 1)
    with pytest.raises(ValueError):
        Reflection(np.eye(4)[:, :2] * (1.0 + 1e-8), 1)
    # u*u - I = 4 Q (Q*Q - I) Q*: a basis defect of 3e-11 passes the
    # 1e-10 bound on Q but not the one on u
    with pytest.raises(ValueError):
        Reflection(np.eye(4)[:, :1] * (1.0 + 1.5e-11), 1)
    Reflection(np.eye(4)[:, :1] * (1.0 + 1e-11), 1)
    with pytest.raises(ValueError):
        Reflection(np.eye(2, 3), 1)
    with pytest.raises(ValueError):
        Reflection(np.eye(4)[:, :2], 2)
    u = Reflection(np.eye(4)[:, :2], -1)
    assert np.array_equal(u.array, np.diag([1.0, 1.0, -1.0, -1.0]))
    assert not u.basis.flags.writeable


def test_freeness_report_identity_partner():
    u = sample_haar(32, 5).array
    rep = freeness_report(u, np.eye(32))
    assert rep.d1 == 0.0
    assert rep.d2 <= 1e-12


def test_freeness_report_pairing_matches_full_commutator():
    u = sample_haar(48, 21).array
    v = sample_haar(48, 22).array
    rep = freeness_report(u, v)
    assert abs(rep.tau_uv - normalized_trace(u @ v)) <= 1e-14
    full = normalized_trace(u @ v @ u.conj().T @ v.conj().T)
    assert abs(rep.tau_commutator - full) <= 1e-13


def test_freeness_report_self_pair_is_not_free():
    u = sample_haar(64, 8).array
    rep = freeness_report(u, u)
    # tau([U, U]) = 1 while the free prediction is near 0
    assert rep.d2 >= 0.5


@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 130, 257, 513])
def test_freeness_report_bitwise_matches_whole_products(n):
    # a CMV u with a Haar v, as a trial draws them; UV in blocks of 64
    # columns against the whole UV and VU, ragged last blocks included
    u = sample_cue(n, subseed(4420, n))
    v = sample_haar(n, subseed(4421, n))
    got, want = freeness_report(u, v), whole_freeness_report(u, v)
    for field in ("dim", "tau_u", "tau_v", "tau_uv", "tau_commutator", "d1", "d2"):
        assert getattr(got, field) == getattr(want, field), field


def test_freeness_report_holds_one_product():
    # above its inputs, a trial at N = 512 holds VU and blocks of UV: at
    # most two N x N complex arrays, where the whole UV and VU and the
    # N/2 x N temporaries of one CMV product take three
    n = 512
    u, v = sample_cue(n, subseed(4422, 0)), sample_haar(n, subseed(4422, 1))
    assert traced_peak(freeness_report, u, v) <= 2 * 16 * n * n


def test_freeness_trial_determinism():
    a = freeness_trial(64, 2026, 0)
    b = freeness_trial(64, 2026, 0)
    assert a == b
    c = freeness_trial(64, 2026, 1)
    assert a != c


def test_freeness_trial_deviations_small():
    for trial in range(4):
        rep = freeness_trial(256, 2026, trial)
        assert rep.d1 <= 0.05 and rep.d2 <= 0.05


def test_freeness_report_checks_raw_operands():
    # a raw array goes through check_unitary: 2 I and the all-ones matrix
    # are not unitary, so no deviation (d2 = 15 here) is reported
    with pytest.raises(ValueError, match="not unitary"):
        freeness_report(2 * np.eye(4), np.ones((4, 4)))
    with pytest.raises(ValueError, match="not unitary"):
        freeness_report(sample_haar(4, 0), 0.5 * np.eye(4))


def test_typed_unitaries_pass_the_gate_unchecked(monkeypatch):
    # each typed unitary held its bound when it was built; a raw array is
    # still checked
    typed = [sample_haar(8, 3), unitary_with_trace(0.5, 8, 0)[0], sample_cue(8, 0)]
    checked = []
    monkeypatch.setattr(matrices, "unitarity_defect", lambda a: checked.append(a) or 0.0)
    for u in typed:
        assert np.array_equal(check_unitary(u), u.array)
    assert check_unitary(typed[0]) is typed[0].array
    assert ell_op(typed[0]) == op_norm(np.eye(8) - typed[0].array)
    commutator_ineq_check(typed[0], typed[1])
    assert checked == []
    check_unitary(np.eye(2))
    assert len(checked) == 1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        two_norm_dist(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        freeness_report(np.eye(2), np.eye(3))


# -- the CMV matrix of a CUE draw ---------------------------------------------


def _moment_samples(n, draws, seed, sampler):
    return [sampler(n, subseed(seed, k)) for k in range(draws)]


def test_cue_trace_power_moments():
    # Diaconis & Shahshahani: E|tr U^j|^2 = min(j, N) for a Haar (CUE) U.
    # 4000 draws at N = 5 put the standard error near 1.6% of the mean; the
    # 8% tolerance is five of them.  A Beta exponent of N - k in place of
    # N - k - 1 moves j = 1 to ~0.66 and j = 5 to ~6.0.
    n, draws = 5, 4000
    c = np.stack([u.array for u in _moment_samples(n, draws, 4401, sample_cue)])
    power = np.broadcast_to(np.eye(n), c.shape)
    for j in range(1, n + 2):
        power = power @ c
        mean = float(np.mean(np.abs(np.trace(power, axis1=1, axis2=2)) ** 2))
        assert abs(mean - min(j, n)) <= 0.08 * min(j, n), (j, mean)


def test_cue_times_independent_haar_has_unit_trace_moment():
    # C V is Haar for independent Haar V, whatever C is: E|tr(C V)|^2 = 1
    n, draws = 5, 4000
    cs = _moment_samples(n, draws, 4402, sample_cue)
    vs = _moment_samples(n, draws, 4403, sample_haar)
    mean = float(np.mean([abs(np.trace(c @ v.array)) ** 2 for c, v in zip(cs, vs)]))
    assert abs(mean - 1.0) <= 0.08


def test_cue_commutator_trace_matches_haar_pair():
    # E tr(U V U* V*) = E|tr U|^2 / N for Haar V, which is 1/N when U has
    # the CUE law: a CMV draw against a Haar x Haar run at N = 3, 4000
    # draws each (standard error ~0.015 per mean).  A Beta exponent of
    # N - k moves the CMV mean to ~0.22.
    n, draws = 3, 4000

    def mean_commutator(us, vs):
        taus = [freeness_report(u, v).tau_commutator for u, v in zip(us, vs)]
        return complex(np.mean(taus)) * n

    vs = _moment_samples(n, draws, 4404, sample_haar)
    cmv = mean_commutator(_moment_samples(n, draws, 4405, sample_cue), vs)
    haar = mean_commutator(_moment_samples(n, draws, 4406, sample_haar), vs)
    assert abs(cmv - 1.0 / n) <= 0.06 and abs(haar - 1.0 / n) <= 0.06
    assert abs(cmv - haar) <= 0.06


@pytest.mark.parametrize("n", [1, 2, 7, 64, 130, 200, 255])
def test_cmv_products_match_dense(n):
    c = sample_cue(n, subseed(4410, n))
    dense = dense_cmv(c.alpha)
    assert np.abs(as_array(c) - dense).max() <= 1e-13
    assert unitarity_defect(dense) <= 1e-13
    x = sample_haar(n, subseed(4411, n)).array
    thin = x[:, : (n + 2) // 3]
    # the factors go over 64 columns at a time, entry by entry as over all
    # columns at once
    for y in (x, thin):
        assert np.array_equal(c @ y, whole_cmv_matmul(c, y))
        assert np.array_equal(y.T @ c, whole_cmv_rmatmul(y.T, c))
    assert np.abs(c @ x - dense @ x).max() <= 1e-13
    assert np.abs(c @ thin - dense @ thin).max() <= 1e-13
    assert np.abs(x @ c - x @ dense).max() <= 1e-13
    assert np.abs(thin.T @ c - thin.T @ dense).max() <= 1e-13
    assert abs(c.trace() - np.trace(dense)) <= 1e-13
    assert abs(normalized_trace(c) - normalized_trace(dense)) <= 1e-13
    for a, b in ((c, x), (x, c), (c, c)):
        got = freeness_report(a, b)
        want = freeness_report(as_array(a), as_array(b))
        for field in ("tau_u", "tau_v", "tau_uv", "tau_commutator", "d1", "d2"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-13, field


def test_cmv_draw_is_deterministic_and_read_only():
    a, b = sample_cue(33, 5), sample_cue(33, 5)
    assert np.array_equal(a.alpha, b.alpha)
    assert not np.array_equal(a.alpha, sample_cue(33, 6).alpha)
    assert abs(abs(a.alpha[-1]) - 1.0) <= 1e-15
    assert np.all(np.abs(a.alpha) <= 1.0 + 1e-15)
    assert not a.alpha.flags.writeable


def test_cmv_rejects_non_unitary_and_bad_shapes():
    # a coefficient outside the disk makes its block's defect |a|^2 - 1
    with pytest.raises(ValueError):
        CMVMatrix(np.array([0.5, 1.0 + 1e-9, 1.0]))
    # the last coefficient must lie on the unit circle
    with pytest.raises(ValueError):
        CMVMatrix(np.array([0.5, 0.5, 0.999]))
    with pytest.raises(ValueError):
        CMVMatrix(np.array([]))
    with pytest.raises(ValueError):
        CMVMatrix(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        sample_cue(0, 1)
    c = CMVMatrix(np.array([0.5, 1j]))
    with pytest.raises(ValueError):
        c @ np.ones(2)
    with pytest.raises(ValueError):
        np.ones((3, 3)) @ c
    with pytest.raises(ValueError):
        freeness_report(c, np.eye(3))
