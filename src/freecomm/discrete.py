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
from .matrices import check_unitary, op_norm

#: two elements within this op-norm distance are identified
DEFAULT_MERGE_EPS = 1e-8

#: an element this close to the identity (but not merged with it) is a
#: discreteness obstruction
NEAR_IDENTITY_BAND = 0.01


def ell_op(u) -> float:
    """Operator-norm length ||1 - U|| of a unitary U, the largest
    |1 - lambda| over its eigenvalues; ValueError if U is not unitary."""
    a = check_unitary(u)
    return op_norm(np.eye(a.shape[0]) - a)


@dataclass(frozen=True)
class CommutatorBound:
    lhs: float
    rhs: float
    margin: float


def commutator_ineq_check(u, v) -> CommutatorBound:
    """ell([U,V]) against 2 ell(U) ell(V); the margin is rhs - lhs.
    ValueError unless U and V are unitaries of one dimension."""
    a, b = check_unitary(u), check_unitary(v)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    comm = a @ b @ a.conj().T @ b.conj().T
    eye = np.eye(a.shape[0])
    lhs = op_norm(eye - comm)
    rhs = 2.0 * op_norm(eye - a) * op_norm(eye - b)
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
        """||1 - g|| for every element, from one stacked SVD."""
        diffs = np.eye(self.dim) - np.asarray(self.elements, dtype=complex)
        return np.linalg.svd(diffs, compute_uv=False)[:, 0].tolist()


#: entries of the largest query x element block the Frobenius screen forms
_SCREEN_BLOCK = 1 << 16

_EPS = np.finfo(float).eps


def _close_pairs(known: np.ndarray, queries: np.ndarray, limit: float) -> dict[int, list]:
    """Per query q, the (j, ||known[j] - queries[q]||_F) within ``limit``
    in increasing j, for stacks of flattened matrices.

    A screen from one GEMM per block of queries, |k|^2 + |p|^2 - 2 Re <k, p>,
    drops the pairs beyond ``limit``.  Its slack covers the rounding error
    of that expansion, below 8 (e + 4) eps (|k|^2 + |p|^2) for e entries
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), so it
    drops no pair within ``limit``.  Each pair that passes gets
    ``np.linalg.norm`` of its difference row, the value a lookup of one
    product at a time computes.
    """
    kk = np.square(known.view(float)).sum(axis=1)
    slack = 8.0 * (known.shape[1] + 4) * _EPS
    step = max(1, _SCREEN_BLOCK // len(known))
    out: dict[int, list] = {}
    for a in range(0, len(queries), step):
        p = queries[a : a + step]
        scale = np.square(p.view(float)).sum(axis=1)[:, None] + kk
        sq = scale - 2.0 * (p @ known.conj().T).real
        qs, js = np.nonzero(sq <= limit**2 + slack * scale)
        dist = np.linalg.norm(known[js] - p[qs], axis=1)
        for q, j, d in zip((qs + a).tolist(), js.tolist(), dist.tolist()):
            if d <= limit:
                out.setdefault(q, []).append((j, d))
    return out


def check_generators(generators: Sequence) -> list[np.ndarray]:
    """The generators as arrays; ValueError unless there is at least one
    and all are unitary matrices of one dimension."""
    gens = [check_unitary(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    if any(g.shape != gens[0].shape for g in gens):
        raise ValueError("generators must share a dimension")
    return gens


def group_closure(generators: Sequence, cap: int = 10_000) -> MatrixGroup | NonClosure:
    """Breadth-first closure of unitary generators under products.

    Deterministic: elements are indexed in discovery order (identity
    first), and rerunning with the same input yields the same indexing.
    Returns a NonClosure witness when the element count passes ``cap`` or
    a product lands within ``NEAR_IDENTITY_BAND`` of the identity without
    merging with it (within ``DEFAULT_MERGE_EPS``).

    A product merges with the first known element (lowest index) within
    eps = ``DEFAULT_MERGE_EPS`` in Frobenius norm, which bounds the op
    norm.  Failing that, the elements within eps sqrt(N) in Frobenius
    norm, the only ones that can be within eps in op norm, are tried in
    index order by their exact op-norm distance.  The search runs one BFS
    layer at a time: the layer's products come from one batched matmul and
    are compared at once with all earlier elements and with each other
    (``_close_pairs``), then resolved in one pass, in discovery order,
    against that band: the known elements, then the new ones found before
    them in the layer.  That makes the same merges, in the same order, as
    looking up one product at a time.  A product that becomes a new
    element gets its op-norm distance to the identity only when its
    Frobenius distance lets it lie in the near-identity band, or when it
    would pass the cap and needs a witness.

    The Cayley table is read off the search by index arithmetic alone
    (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 4.1):
    each element j > 0 was first met as elements[p] @ steps[k], so
    elements[i] @ elements[j] is the step-k neighbour of elements[i] @
    elements[p], an entry of an earlier layer's column.  A table that
    float merging made inconsistent fails the ``FiniteGroup`` checks with
    ValueError.
    """
    gens = check_generators(generators)
    dim = gens[0].shape[0]
    if cap < len(gens):
        raise ValueError("cap smaller than the generating set")

    eps, maybe_eps = DEFAULT_MERGE_EPS, DEFAULT_MERGE_EPS * np.sqrt(dim)
    # op(p - 1) <= band needs fro(p - 1) <= band sqrt(N); the factor leaves
    # room for rounding, so only products near the identity get an SVD
    band_fro = NEAR_IDENTITY_BAND * np.sqrt(dim) * (1.0 + 1e-6)
    steps = np.array(gens + [g.conj().T for g in gens])
    n_steps = len(steps)
    eye = np.eye(dim)
    mats = np.empty((16, dim, dim), dtype=complex)
    mats[0] = eye
    right = np.empty((16, n_steps), dtype=np.intp)  # right[i, k]: elements[i] @ steps[k]
    parents: list[int] = []  # element j > 0 was found as elements[parents[j-1]] @ steps[moves[j-1]]
    moves: list[int] = []
    n, lo = 1, 0
    while lo < n:  # elements lo..hi-1 form one BFS layer
        hi = n
        prods = (mats[lo:hi, None] @ steps[None]).reshape(-1, dim, dim)  # (i, k) order
        flat = prods.reshape(len(prods), -1)
        # columns below hi are the known elements, the rest this layer's products
        close = _close_pairs(np.concatenate([mats[:hi].reshape(hi, -1), flat]), flat, maybe_eps)
        to_id = np.linalg.norm(flat - eye.ravel(), axis=1).tolist()
        added: dict[int, int] = {}  # product -> element, for this layer's new ones
        for q, p in enumerate(prods):
            # the band in index order: known elements, then earlier new ones
            band = [(j if j < hi else added[j - hi], d) for j, d in close.get(q, ())
                    if j < hi or j - hi in added]
            match = next((j for j, d in band if d <= eps), None)
            if match is None:
                match = next((j for j, _ in band if op_norm(mats[j] - p) <= eps), None)
            if match is None:
                if to_id[q] <= band_fro or n >= cap:
                    d_id = op_norm(p - eye)
                    if d_id <= NEAR_IDENTITY_BAND:
                        # not merged with the identity, yet inside the band
                        return NonClosure("near_identity", p.copy(), d_id, n)
                    if n >= cap:
                        return NonClosure("cap_exceeded", p.copy(), d_id, n)
                if n == len(mats):
                    mats = np.concatenate([mats, np.empty_like(mats)])
                    right = np.concatenate([right, np.empty_like(right)])
                mats[n] = p
                parents.append(lo + q // n_steps)
                moves.append(q % n_steps)
                match = added[q] = n
                n += 1
            right[lo + q // n_steps, q % n_steps] = match
        lo = hi

    # table[i, j] = table[i, parent_j] @ step_j, one BFS layer of columns
    # at a time: every parent lies in an earlier layer
    parent, move = np.array(parents, dtype=np.intp), np.array(moves, dtype=np.intp)
    table = np.empty((n, n), dtype=np.min_scalar_type(n))
    table[:, 0] = np.arange(n)
    j = 1
    while j < n:
        end = j + int(np.searchsorted(parent[j - 1 :], j))  # the elements whose parents are below j
        cols = slice(j - 1, end - 1)
        table[:, j:end] = right[table[:, parent[cols]], move[cols]]
        j = end
    return MatrixGroup(
        elements=tuple(mats[:n].copy()),
        table=table,
        generator_indices=right[0, : len(gens)].tolist(),
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
        return {**vars(self), "subgroup_order": len(self.subgroup_indices)}


def gamma_filter(group: MatrixGroup, threshold: float) -> FilterReport:
    """Subgroup generated by {g : ||1 - g|| < threshold}, generated and
    verified entirely inside the Cayley table."""
    if not threshold >= 0:  # NaN too
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
