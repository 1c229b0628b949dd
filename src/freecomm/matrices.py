"""Seeded finite-dimensional unitary models.

Randomness comes from numpy's Philox counter-based generator.  Sub-streams
are derived by hashing (master seed, path indices) through SeedSequence,
so independent trials are reproducible regardless of evaluation order or
thread count.

Reports print traces and Frobenius norms of words in a pair (u, v), which
conjugating both by one unitary leaves alone; so one matrix of a pair needs
a Haar eigenbasis and the other only the CUE eigenvalue law (``sample_cue``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: op-norm tolerance every constructed unitary must satisfy
UNITARY_OP_TOL = 1e-10

#: column width of the Householder panels in ``_orthonormalize_haar``
_PANEL_WIDTH = 32


def subseed(master: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=tuple(path))


def make_rng(seed: int | np.random.SeedSequence, *path: int) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        ss = seed if not path else np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + tuple(path)
        )
    else:
        ss = subseed(int(seed), *path)
    return np.random.Generator(np.random.Philox(ss))


def as_array(u) -> np.ndarray:
    if isinstance(u, (UnitaryMatrix, Reflection, CMVMatrix)):
        return u.array
    return np.asarray(u, dtype=complex)


def op_norm(a: np.ndarray) -> float:
    """Largest singular value, from LAPACK's SVD (values only) at every size.

    Exact to rounding.  Above a few dozen rows the last few ulps can depend
    on the BLAS thread count, far below the 12 significant digits reports
    print; no CLI report prints the op norm of a matrix that large.
    """
    a = as_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("op_norm expects a square matrix")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def normalized_trace(u) -> complex:
    if isinstance(u, CMVMatrix):
        return complex(u.trace()) / u.shape[0]
    a = as_array(u)
    return complex(np.trace(a)) / a.shape[0]


def unitarity_defect(u) -> float:
    """Upper bound on ||U*U - I||_op (Frobenius shortcut, exact op norm only
    when the cheap bound is not already conclusive).  For a tall U this is
    the defect of its columns from an orthonormal frame."""
    a = as_array(u)
    e = a.conj().T @ a - np.eye(a.shape[1])
    fro = float(np.linalg.norm(e))
    if fro <= UNITARY_OP_TOL:
        return fro
    return op_norm(e)


@dataclass(frozen=True)
class UnitaryMatrix:
    """An N x N unitary, checked on construction and stored read-only."""

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("unitary must be square")
        defect = unitarity_defect(a)
        if defect > UNITARY_OP_TOL:
            raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "array", a)


@dataclass(frozen=True)
class Reflection:
    """The N x N unitary sign (I - 2 Q Q*), kept as its N x k factor Q.

    Q must have orthonormal columns.  u*u - I = 4 Q (Q*Q - I) Q* has
    operator norm at most 4 d (1 + d), d = ||Q*Q - I||_op, and that bound
    is held to ``UNITARY_OP_TOL`` on construction: a k x k check that
    gives the bound of the N x N one of ``UnitaryMatrix``.  The spectrum is -sign on the span of Q and sign on
    its complement; ``array`` forms the dense matrix on access.
    """

    basis: np.ndarray
    sign: int

    def __post_init__(self):
        q = np.asarray(self.basis, dtype=complex)
        if q.ndim != 2 or q.shape[0] < q.shape[1]:
            raise ValueError("basis must be an N x k array with k <= N")
        if self.sign not in (1, -1):
            raise ValueError("sign must be 1 or -1")
        defect = unitarity_defect(q)
        if 4.0 * defect * (1.0 + defect) > UNITARY_OP_TOL:
            raise ValueError(f"basis is not orthonormal: defect {defect:.3e}")
        q = q.copy()
        q.flags.writeable = False
        object.__setattr__(self, "basis", q)

    @property
    def array(self) -> np.ndarray:
        q = self.basis
        return self.sign * (np.eye(q.shape[0]) - 2.0 * (q @ q.conj().T))


@dataclass(frozen=True, eq=False)
class CMVMatrix:
    """The five-diagonal CMV unitary C = L M of Verblunsky coefficients
    alpha_0 .. alpha_{N-1} (Killip & Nenciu 2004).

    Theta_k = [[conj alpha_k, rho_k], [rho_k, -alpha_k]], rho_k =
    sqrt(1 - |alpha_k|^2), acts on coordinates k, k + 1; L = Theta_0 + Theta_2
    + ..., M = 1 + Theta_1 + Theta_3 + ... (direct sums), and the last
    coordinate alone gets conj alpha_{N-1}.  ||C*C - I|| <= e_L + e_M (1 + e_L),
    e_L and e_M the largest block defects ||alpha_k|^2 + rho_k^2 - 1| of L and
    M, is held to ``UNITARY_OP_TOL``.  Products go through the 2 x 2 blocks.
    """

    alpha: np.ndarray

    __array_ufunc__ = None  # so ndarray @ CMVMatrix defers to __rmatmul__

    def __post_init__(self):
        a = np.array(self.alpha, dtype=complex)
        if a.ndim != 1 or not a.size:
            raise ValueError("need a nonempty vector of Verblunsky coefficients")
        rho = np.sqrt(np.maximum(1.0 - np.abs(a[:-1]) ** 2, 0.0))
        defect = np.abs(np.abs(a) ** 2 + np.append(rho, 0.0) ** 2 - 1.0)
        e_l, e_m = defect[0::2].max(), defect[1::2].max(initial=0.0)
        if not e_l + e_m * (1.0 + e_l) <= UNITARY_OP_TOL:
            raise ValueError(f"CMV matrix is not unitary: defects {e_l:.3e}, {e_m:.3e}")
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "_rho", rho)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.alpha),) * 2

    def _factor(self, start: int, x: np.ndarray) -> np.ndarray:
        """L x (start 0) or M x (start 1): Theta_k on rows k, k + 1 for
        k = start, start + 2, ..., and conj alpha_{N-1} on a lone last row."""
        n = len(self.alpha)
        if x.ndim != 2 or x.shape[0] != n:
            raise ValueError("dimension mismatch")
        a, r = self.alpha[start : n - 1 : 2, None], self._rho[start : n - 1 : 2, None]
        top, bottom = x[start : n - 1 : 2], x[start + 1 : n : 2]
        y = x.astype(complex)
        y[start : n - 1 : 2] = a.conj() * top + r * bottom
        y[start + 1 : n : 2] = r * top - a * bottom
        if (n - 1 - start) % 2 == 0:
            y[n - 1] *= self.alpha[n - 1].conj()
        return y

    def __matmul__(self, x) -> np.ndarray:
        return self._factor(0, self._factor(1, as_array(x)))

    def __rmatmul__(self, x) -> np.ndarray:
        # each Theta_k is symmetric, so X L M = (M (L X^T))^T
        return self._factor(1, self._factor(0, as_array(x).T)).T

    def trace(self) -> complex:
        """The diagonal of L M is -alpha_{k-1} conj alpha_k, with alpha_{-1} = -1."""
        a = self.alpha
        return complex(-(np.append(-1.0, a[:-1]) * a.conj()).sum())

    @property
    def array(self) -> np.ndarray:
        return self @ np.eye(len(self.alpha))


def _orthonormalize_haar(z: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the columns of z (N x m, m <= N), by
    Householder QR with the triangular factor's diagonal phases divided
    out, so the result follows the exact Haar law: a Haar unitary for
    square z, a Haar-distributed N x m frame for tall z.

    Blocked compact-WY form (Schreiber & Van Loan 1989).  The columns are
    factored in panels of ``_PANEL_WIDTH``.  Inside a panel, each reflector
    H = I - tau v v* (v[0] carries the phase of the pivot, tau = 2/|v|^2)
    is applied to the panel's own columns with fixed-order einsum kernels.
    The panel's reflectors are then gathered as H_1 ... H_b = I - V T V*,
    with T upper triangular (LAPACK ``larft``, forward and columnwise), and
    the trailing columns get C -= V (T* (V* C)).  Q is formed by applying
    the blocks to the first m columns of the identity in reverse,
    C -= V (T (V* C)).

    The two block updates are complex GEMM, which carries almost all of the
    work; everything else is einsum.  The result must be bit-identical at
    every BLAS thread count.  LAPACK's own QR is not: its bytes change
    between one thread and several.  Threaded GEMM splits the output
    matrix, not the inner sums, across threads, so each entry is summed in
    the same order at every thread count, as
    ``test_haar_bit_identical_across_thread_counts`` checks.
    """
    n, m = z.shape
    a = z.astype(complex)
    blocks: list[tuple[int, np.ndarray, np.ndarray]] = []
    for k0 in range(0, m, _PANEL_WIDTH):
        k1 = min(k0 + _PANEL_WIDTH, m)
        b = k1 - k0
        v_blk = np.zeros((n - k0, b), dtype=complex)
        taus = np.zeros(b)
        for j in range(b):
            k = k0 + j
            x = a[k:, k]
            xnorm = float(np.sqrt(np.einsum("i,i->", x.conj(), x).real))
            alpha = x[0]
            s = alpha / abs(alpha) if abs(alpha) > 0 else 1.0 + 0j
            v = v_blk[j:, j]
            v[:] = x
            v[0] += s * xnorm
            vnorm2 = float(np.einsum("i,i->", v.conj(), v).real)
            if vnorm2 > 0:
                taus[j] = 2.0 / vnorm2
                w = np.einsum("i,ij->j", v.conj(), a[k:, k:k1])
                a[k:, k:k1] -= np.multiply.outer(v, taus[j] * w)
        gram = np.einsum("ij,ik->jk", v_blk.conj(), v_blk)
        t = np.zeros((b, b), dtype=complex)
        for j in range(b):
            t[j, j] = taus[j]
            t[:j, j] = -taus[j] * np.einsum("ij,j->i", t[:j, :j], gram[:j, j])
        if k1 < m:
            c = a[k0:, k1:]
            c -= v_blk @ (t.conj().T @ (v_blk.conj().T @ c))
        blocks.append((k0, v_blk, t))
    r_diag = np.diagonal(a).copy()
    q = np.eye(n, m, dtype=complex)
    for k0, v_blk, t in reversed(blocks):
        c = q[k0:, k0:]
        c -= v_blk @ (t @ (v_blk.conj().T @ c))
    mods = np.abs(r_diag)
    phases = np.where(mods > 0, r_diag / np.where(mods > 0, mods, 1.0), 1.0)
    return q * phases[np.newaxis, :]


def _haar_frame(n: int, k: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """N x k orthonormal frame with the law of the first k columns of a
    Haar unitary: an i.i.d. complex-Gaussian N x k matrix, orthonormalized."""
    rng = make_rng(seed)
    z = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)
    return _orthonormalize_haar(z)


def sample_haar(n: int, seed: int | np.random.SeedSequence) -> UnitaryMatrix:
    """Haar-distributed unitary, deterministic for a fixed (n, seed).

    Orthonormalizes an i.i.d. complex-Gaussian matrix and divides out the
    triangular factor's diagonal phases; the diagonal-phase correction
    makes the law exactly Haar rather than merely approximately so.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    return UnitaryMatrix(_haar_frame(n, n, seed))


def sample_cue(n: int, seed: int | np.random.SeedSequence) -> CMVMatrix:
    """A ``CMVMatrix`` with the CUE (Haar) eigenvalue law, in O(N): its
    Verblunsky coefficients are independent with uniform phases, and
    rho_k^2 = 1 - |alpha_k|^2 ~ U^(1/(N-k-1)) for k < N - 1, |alpha_{N-1}| = 1
    (Killip & Nenciu 2004, beta = 2)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    rng = make_rng(seed)
    rho_sq = rng.random(n - 1) ** (1.0 / np.arange(n - 1, 0, -1))
    alpha = np.exp(2j * np.pi * rng.random(n))
    alpha[:-1] *= np.sqrt(1.0 - rho_sq)
    return CMVMatrix(alpha)


def unitary_with_trace(alpha: float, n: int, seed) -> tuple[Reflection, float]:
    """Plus/minus-one spectrum realizing a target trace.

    round(n (1 + alpha) / 2) eigenvalues are +1 and the rest -1, in a Haar
    basis; the realized trace (multiplicity difference over n) is returned
    exactly.  The unitary comes as ``Reflection(Q, sign)`` with Q a Haar
    frame of the smaller eigenspace: the -1 eigenspace with sign 1, or the
    +1 eigenspace with sign -1 when that one is smaller.  Only Q is drawn,
    at O(N k^2) cost.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    m_plus = int(round(n * (1.0 + alpha) / 2.0))
    m_plus = min(max(m_plus, 0), n)
    realized = (2 * m_plus - n) / n
    sign = 1 if 2 * m_plus >= n else -1
    k = n - m_plus if sign == 1 else m_plus
    return Reflection(_haar_frame(n, k, seed), sign), realized


def corner_haar(t: float, n: int, seed: int) -> UnitaryMatrix:
    """Haar unitary on a corner of relative size t, identity elsewhere,
    in a Haar-rotated basis.  Expected normalized trace is about 1 - t."""
    k = int(round(t * n))
    if not 1 <= k < n:
        raise ValueError(f"degenerate block sizes: corner {k} of {n}")
    h = sample_haar(k, subseed(seed, 0)).array
    q = sample_haar(n, subseed(seed, 1)).array
    block = np.eye(n, dtype=complex)
    block[:k, :k] = h
    u = q @ block @ q.conj().T
    return UnitaryMatrix(u)


@dataclass(frozen=True)
class FreenessReport:
    """Deviations of a matrix pair from the free trace identities."""

    dim: int
    tau_u: complex
    tau_v: complex
    tau_uv: complex
    tau_commutator: complex
    d1: float  # |tau(UV) - tau(U) tau(V)|
    d2: float  # |tau(UVU*V*) - (1 - (1-|tau U|^2)(1-|tau V|^2))|

    def to_json_dict(self) -> dict:
        return {k: [v.real, v.imag] if isinstance(v, complex) else v
                for k, v in vars(self).items()}


def freeness_report(u, v) -> FreenessReport:
    a, b = (x if isinstance(x, CMVMatrix) else as_array(x) for x in (u, v))  # O(N^2) products
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    n = a.shape[0]
    tu, tv = normalized_trace(a), normalized_trace(b)
    uv, vu = a @ b, b @ a
    tuv = normalized_trace(uv)
    # tau(UVU*V*) = tr(UV (VU)*) / N, paired entrywise; numpy's own
    # fixed-order sum, not a BLAS dot, keeps the bytes thread-invariant
    tcomm = complex((uv * vu.conj()).sum()) / n
    d1 = abs(tuv - tu * tv)
    rhs = 1.0 - (1.0 - abs(tu) ** 2) * (1.0 - abs(tv) ** 2)
    d2 = abs(tcomm - rhs)
    return FreenessReport(n, tu, tv, tuv, tcomm, d1, d2)


def freeness_trial(n: int, master_seed: int, trial: int) -> FreenessReport:
    """One seeded trial: u with the CUE law as a ``CMVMatrix`` and an
    independent Haar v, which gives u a Haar eigenbasis relative to v."""
    u = sample_cue(n, subseed(master_seed, trial, 0))
    v = sample_haar(n, subseed(master_seed, trial, 1))
    return freeness_report(u, v)
