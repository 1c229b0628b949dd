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

import math
from dataclasses import dataclass

import numpy as np

#: op-norm tolerance every constructed unitary must satisfy
UNITARY_OP_TOL = 1e-10

#: column width of the Householder panels in ``_haar_frame``
_PANEL_WIDTH = 32

#: rows per GEMM in ``_panel_gram``: a 32 x 32 x 128 product stays below
#: OpenBLAS's threading cut-off
_GRAM_CHUNK = 128

#: column width of the blocks of U*U - I that ``unitarity_defect`` sums
_DEFECT_BLOCK = 64

#: the strict upper triangle of a panel's top square, zeroed in each draw
_STRICT_UPPER = np.triu(np.ones((_PANEL_WIDTH, _PANEL_WIDTH), dtype=bool), 1)


def subseed(master: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=tuple(path))


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    ss = seed if isinstance(seed, np.random.SeedSequence) else subseed(int(seed))
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
    """Upper bound on ||U*U - I||_op: the Frobenius norm of E = U*U - I,
    and the exact op norm of E only when that cheap bound is not already
    conclusive.  For a tall U this is the defect of its columns from an
    orthonormal frame.

    E is Hermitian, so its squared Frobenius norm is summed over the
    blocks of ``_DEFECT_BLOCK`` columns on and above the block diagonal,
    the diagonal blocks once and the others twice: about half of the
    flops of U*U, and no m x m array.  Each block row of E comes from one
    GEMM.
    """
    a = as_array(u)
    m = a.shape[1]
    sq = 0.0
    for i in range(0, m, _DEFECT_BLOCK):
        b = min(_DEFECT_BLOCK, m - i)
        g = a[:, i : i + b].conj().T @ a[:, i:]
        g[np.arange(b), np.arange(b)] -= 1.0
        diagonal_block = g[:, :b]
        sq += 2.0 * np.vdot(g, g).real - np.vdot(diagonal_block, diagonal_block).real
    fro = math.sqrt(sq)
    if fro <= UNITARY_OP_TOL:
        return fro
    return op_norm(a.conj().T @ a - np.eye(m))


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

    def _factor(self, start: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = L x (start 0) or M x (start 1), elementwise: Theta_k on rows
        k, k + 1 for k = start, start + 2, ..., and conj alpha_{N-1} on a
        lone last row.  ``out`` may be ``x`` itself."""
        n = len(self.alpha)
        if x.ndim != 2 or x.shape[0] != n:
            raise ValueError("dimension mismatch")
        a, r = self.alpha[start : n - 1 : 2, None], self._rho[start : n - 1 : 2, None]
        top, bottom = x[start : n - 1 : 2], x[start + 1 : n : 2]
        out_top, out_bottom = out[start : n - 1 : 2], out[start + 1 : n : 2]
        a_bottom, r_top = a * bottom, r * top  # the products still needing x
        np.multiply(a.conj(), top, out=out_top)
        np.multiply(r, bottom, out=out_bottom)
        np.add(out_top, out_bottom, out=out_top)
        np.subtract(r_top, a_bottom, out=out_bottom)
        out[:start] = x[:start]
        if (n - 1 - start) % 2 == 0:
            np.multiply(x[n - 1], self.alpha[n - 1].conj(), out=out[n - 1])
        return out

    def __matmul__(self, x) -> np.ndarray:
        x = as_array(x)
        y = self._factor(1, x, np.empty_like(x, dtype=complex))
        return self._factor(0, y, y)

    def __rmatmul__(self, x) -> np.ndarray:
        # each Theta_k is symmetric, so X L M = (M (L X^T))^T
        x = as_array(x).T
        y = self._factor(0, x, np.empty_like(x, dtype=complex))
        return self._factor(1, y, y).T

    def trace(self) -> complex:
        """The diagonal of L M is -alpha_{k-1} conj alpha_k, with alpha_{-1} = -1."""
        a = self.alpha
        return complex(-(np.append(-1.0, a[:-1]) * a.conj()).sum())

    @property
    def array(self) -> np.ndarray:
        return self @ np.eye(len(self.alpha))


def _panel_gram(vh: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V* V for a panel V, given V* as ``vh``, summed over chunks of
    ``_GRAM_CHUNK`` rows in one fixed order.

    A one-shot V* V GEMM changes its last bits with the OpenBLAS thread
    count at some heights (200, 257, 300, 480, 513 and 1000 among them).
    A chunk product of a 32-column panel is small enough that the bundled
    OpenBLAS runs it on one thread, so the sum keeps its bytes across
    thread counts.  That is a measured property of this BLAS, not a BLAS
    guarantee; ``test_panel_gram_bit_identical_across_thread_counts``
    pins it.
    """
    gram = vh[:, :_GRAM_CHUNK] @ v[:_GRAM_CHUNK]
    for r in range(_GRAM_CHUNK, len(v), _GRAM_CHUNK):
        gram += vh[:, r : r + _GRAM_CHUNK] @ v[r : r + _GRAM_CHUNK]
    return gram


def _haar_frame(n: int, m: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """N x m frame (m <= N) with the exact law of the first m columns of a
    Haar unitary; m = N gives a Haar unitary.

    The Householder reflectors of a complex-Gaussian matrix's QR are
    independent, and the k-th comes from a fresh Gaussian vector x in
    C^(N-k+1) (Stewart 1980), so no matrix is factored: each x gives
    H_k = I - tau v v* on the last N - k + 1 coordinates, v = x + s |x| e_1
    with s the phase of x[0] and tau = 2/|v|^2, and H_k x = -s |x| e_1.
    The frame is Q = H_1 ... H_m I[:, :m] with column k multiplied by
    -s_k, the phase of R's k-th diagonal entry, which makes the law
    exactly Haar (Mezzadri 2007).  A Gaussian's scale drops out of H_k.

    Blocked compact-WY form (Schreiber & Van Loan 1989).  The reflectors
    come in panels of ``_PANEL_WIDTH``, drawn from the last panel to the
    first; the reflector vectors of a panel starting at k0 are the lower
    trapezoid of one (N - k0) x b Gaussian draw.  A panel's reflectors are
    gathered as H_k0 ... H_k1-1 = I - V T V*, with T upper triangular
    (LAPACK ``larft``, forward and columnwise), and applied to Q at once,
    C -= V (T (V* C)).

    That update is complex GEMM, which carries almost all of the work.
    T is built from the panel's Gram matrix V* V, a fixed-order sum of
    small GEMMs (``_panel_gram``), one short matrix-vector product per
    column; the rest is elementwise.  The draw's last bits can depend on
    the BLAS thread count: OpenBLAS's threaded GEMM keeps them at
    some sizes (64, 200, 255, 256, 512 and 1024, as
    ``test_haar_bit_identical_across_thread_counts`` checks) and changes
    them at others (190, 197, 257, 300 and 513 among them; a bare c* c at
    N = 257 differs too).  What holds is the report bytes, which print 12
    significant digits; criterion 12 checks them across thread counts, at
    odd N too.  LAPACK's own QR is not used: its bytes change between one
    thread and several.
    """
    rng = make_rng(seed)
    q = np.eye(n, m, dtype=complex)
    phases = np.empty(m, dtype=complex)
    for k0 in reversed(range(0, m, _PANEL_WIDTH)):
        b = min(_PANEL_WIDTH, m - k0)
        xy = rng.standard_normal((2, n - k0, b))  # the real parts, then the imaginary
        v = np.empty((n - k0, b), dtype=complex)
        v.real, v.imag = xy
        np.copyto(v[:b], 0.0, where=_STRICT_UPPER[:b, :b])
        diag = np.arange(b)
        s = v[diag, diag] / np.abs(v[diag, diag])
        v[diag, diag] += s * np.sqrt(np.einsum("ij,ij->j", v.conj(), v).real)
        phases[k0 : k0 + b] = -s
        vh = v.conj().T
        gram = _panel_gram(vh, v)
        taus = 2.0 / gram.diagonal().real
        t = np.zeros((b, b), dtype=complex)
        for j in range(b):
            t[j, j] = taus[j]
            t[:j, j] = -taus[j] * (t[:j, :j] @ gram[:j, j])
        c = q[k0:, k0:]
        c -= v @ (t @ (vh @ c))
    q *= phases
    return q


def sample_haar(n: int, seed: int | np.random.SeedSequence) -> UnitaryMatrix:
    """Haar-distributed unitary, deterministic for a fixed (n, seed): the
    product of N independent Householder reflectors with their phases
    divided out (``_haar_frame``)."""
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
    # tau(UVU*V*) = tr(UV (VU)*) / N, paired entrywise in place; numpy's
    # own fixed-order sum, not a BLAS dot, keeps the bytes thread-invariant
    np.conjugate(vu, out=vu)
    tcomm = complex(np.multiply(uv, vu, out=vu).sum()) / n
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
