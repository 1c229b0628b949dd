"""Decay of the nested-commutator words w_n(u, v).

Two evaluation routes are kept deliberately separate:

* the exact route expands w_n(u, v) word by word in the group algebra of
  C2 * Z, where u = alpha + i sqrt(1-alpha^2) s and v is the cyclic
  generator (a Haar unitary of the algebra), and reads the trace off the
  identity coefficient;
* the scalar recursion tau_{n+1} = 1 - (1 - tau_n^2)(1 - alpha^2)
  predicts the same traces from freeness.

Agreement of the two routes is the point.  Exact supports square at every
step (2, 8, 128, 32768, ...), so past the support cap the curve switches
to the recursion and every such row is flagged ``source="recursion"``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import algebra
from .algebra import (
    AlgebraElement,
    DEFAULT_SUPPORT_CAP,
    SupportCapExceeded,
    ell_bar_from_trace,
    ell_from_trace,
    involution_haar_ambient,
    order_two_unitary,
    trace,
)
from .matrices import as_array, normalized_trace, two_norm_dist
from .words import FreeWord, w_sequence

#: slack for the exact-model bound chain
EXACT_SLACK = 1e-10

#: default slack envelope for finite-dimensional models
MATRIX_SLACK = 0.05

#: full unitarity verification is skipped once it would need more than
#: this many support pairs; the Parseval norm check still runs every step
_UNITARY_CHECK_PAIR_BUDGET = 1_000_000


@dataclass(frozen=True)
class DecayStep:
    n: int
    ell: float
    ell_bar: float
    lower: float
    upper: float
    in_bounds: bool
    trace: float
    recursion_trace: float
    source: str  # "exact", "recursion", or "matrix"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ell": self.ell,
            "ell_bar": self.ell_bar,
            "lower": self.lower,
            "upper": self.upper,
            "in_bounds": self.in_bounds,
            "trace": self.trace,
            "recursion_trace": self.recursion_trace,
            "source": self.source,
        }


@dataclass
class DecayReport:
    model: str
    descriptor: dict
    slack: float
    ell_u: float
    ell_bar_u: float
    steps: list[DecayStep] = field(default_factory=list)

    @property
    def all_in_bounds(self) -> bool:
        return all(s.in_bounds for s in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "descriptor": self.descriptor,
            "slack": self.slack,
            "ell_u": self.ell_u,
            "ell_bar_u": self.ell_bar_u,
            "all_in_bounds": self.all_in_bounds,
            "steps": [s.to_json_dict() for s in self.steps],
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("n,ell,ell_bar,lower,upper,in_bounds,source\n")
        for s in self.steps:
            buf.write(
                f"{s.n},{s.ell:.12g},{s.ell_bar:.12g},{s.lower:.12g},"
                f"{s.upper:.12g},{int(s.in_bounds)},{s.source}\n"
            )
        return buf.getvalue()


def trace_recursion(alpha: float, n_max: int) -> list[float]:
    """Predicted traces tau_1..tau_n of the commutator words."""
    taus = [float(alpha)]
    for _ in range(n_max - 1):
        t = taus[-1]
        taus.append(1.0 - (1.0 - t * t) * (1.0 - alpha * alpha))
    return taus


def _bounds(n: int, ell_u: float, ell_bar_u: float) -> tuple[float, float]:
    lower = (1.0 / math.sqrt(2.0)) ** (n - 1) * ell_bar_u**n
    upper = math.sqrt(2.0) ** (n - 1) * ell_u**n
    return lower, upper


class _ExactIteration:
    """Streams the exact commutator elements until the support cap bites."""

    def __init__(self, alpha: float, support_cap: int):
        if not -1.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (-1, 1)")
        self.ambient = involution_haar_ambient()
        self.alpha = float(alpha)
        self.cap = support_cap
        self.u = order_two_unitary(self.ambient, alpha, 0)
        self.element: AlgebraElement | None = self.u
        self.n = 1

    def _conjugated_u(self, k: int) -> AlgebraElement:
        """v^k u v^-k, built directly on words (v is the cyclic generator)."""
        beta = 1j * math.sqrt(1.0 - self.alpha * self.alpha)
        word = self.ambient.word([(1, k), (0, 1), (1, -k)])
        return AlgebraElement(self.ambient, {(): self.alpha, word: beta})

    def advance(self) -> None:
        """Replace the current element by its commutator with v^n u v^-n."""
        if self.element is not None:
            c = self._conjugated_u(self.n)
            try:
                self.element = algebra.commutator_element(self.element, c, self.cap)
            except SupportCapExceeded:
                self.element = None
        self.n += 1

    def exact_trace(self) -> float | None:
        if self.element is None:
            return None
        tau = trace(self.element)
        if abs(tau.imag) > 1e-12:
            raise AssertionError(f"commutator trace should be real, got {tau}")
        # cheap necessary condition for unitarity (Parseval norm)
        nrm = algebra.norm2(self.element)
        if abs(nrm - 1.0) > 1e-10:
            raise AssertionError(f"element 2-norm drifted from 1: {nrm}")
        if self.element.support_size**2 <= _UNITARY_CHECK_PAIR_BUDGET:
            if not algebra.is_unitary(self.element, 1e-9):
                raise AssertionError("exact commutator element failed unitarity")
        return tau.real


def iter_exact_steps(
    alpha: float,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    slack: float = EXACT_SLACK,
) -> Iterator[DecayStep]:
    """Unbounded stream of decay rows; callers slice what they need."""
    it = _ExactIteration(alpha, support_cap)
    ell_u = ell_from_trace(complex(alpha))
    ell_bar_u = ell_bar_from_trace(complex(alpha))
    while True:
        n = it.n
        tau_rec = trace_recursion(alpha, n)[-1]
        tau_exact = it.exact_trace()
        tau = tau_rec if tau_exact is None else tau_exact
        source = "recursion" if tau_exact is None else "exact"
        lower, upper = _bounds(n, ell_u, ell_bar_u)
        ell_n = ell_from_trace(complex(tau))
        in_bounds = lower - slack <= ell_n <= upper + slack
        yield DecayStep(
            n=n,
            ell=ell_n,
            ell_bar=ell_bar_from_trace(complex(tau)),
            lower=lower,
            upper=upper,
            in_bounds=in_bounds,
            trace=tau,
            recursion_trace=tau_rec,
            source=source,
        )
        it.advance()


def decay_curve_exact(
    alpha: float,
    n_max: int,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    slack: float = EXACT_SLACK,
) -> DecayReport:
    """Exact decay curve; rows past the support cap are recursion rows."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    steps = []
    for step in iter_exact_steps(alpha, support_cap, slack):
        steps.append(step)
        if step.n >= n_max:
            break
    report = DecayReport(
        model="exact",
        descriptor={"carrier": "C2 * Z", "alpha": float(alpha), "support_cap": support_cap},
        slack=slack,
        ell_u=ell_from_trace(complex(alpha)),
        ell_bar_u=ell_bar_from_trace(complex(alpha)),
        steps=steps,
    )
    return report


def _matrix_lengths(w: np.ndarray, tau: complex) -> tuple[float, float]:
    """ell and ell_bar measured on the matrix: the 2-norm distances to 1
    and to the nearest unit scalar tau/|tau|.  Unlike sqrt(2 - 2 Re tau)
    they do not cancel when tau is close to 1."""
    eye = np.eye(w.shape[0])
    phase = tau / abs(tau) if tau else 1.0
    return two_norm_dist(w, eye), two_norm_dist(w, phase * eye)


def decay_curve_matrix(u, v, n_max: int, slack: float = MATRIX_SLACK) -> DecayReport:
    """Numerical decay curve at finite dimension.

    The conjugates V^n U V^-n are tracked incrementally; bounds only hold
    up to the freeness error of the model, hence the wide slack envelope.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a, b = as_array(u), as_array(v)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    dim = a.shape[0]
    tau_u = normalized_trace(a)
    ell_u, ell_bar_u = _matrix_lengths(a, tau_u)

    steps = []
    current = a
    p = np.eye(dim, dtype=complex)
    for n in range(1, n_max + 1):
        tau = normalized_trace(current)
        lower, upper = _bounds(n, ell_u, ell_bar_u)
        ell_n, ell_bar_n = _matrix_lengths(current, tau)
        steps.append(
            DecayStep(
                n=n,
                ell=ell_n,
                ell_bar=ell_bar_n,
                lower=lower,
                upper=upper,
                in_bounds=lower - slack <= ell_n <= upper + slack,
                trace=tau.real,
                recursion_trace=trace_recursion(tau_u.real, n)[-1],
                source="matrix",
            )
        )
        if n < n_max:
            p = p @ b
            c = p @ a @ p.conj().T
            current = current @ c @ current.conj().T @ c.conj().T
    return DecayReport(
        model="matrix",
        descriptor={"dim": dim, "tau_u": [tau_u.real, tau_u.imag]},
        slack=slack,
        ell_u=ell_u,
        ell_bar_u=ell_bar_u,
        steps=steps,
    )


@dataclass(frozen=True)
class SmallElement:
    n: int
    word: FreeWord
    ell: float
    source: str

    def to_json_dict(self) -> dict:
        return {"n": self.n, "word": str(self.word), "ell": self.ell, "source": self.source}


def find_small_element(
    alpha: float,
    epsilon: float,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    max_n: int = 1000,
) -> SmallElement:
    """Least n with ell(w_n(u, v)) < epsilon in the exact model.

    Requires alpha > 3/4, i.e. ell(u) < 1/sqrt(2); the geometric upper
    bound then guarantees termination.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not alpha > 0.75:
        raise ValueError("need alpha > 3/4 so that ell(u) < 1/sqrt(2)")
    for step in iter_exact_steps(alpha, support_cap):
        if step.ell < epsilon:
            return SmallElement(step.n, w_sequence(step.n), step.ell, step.source)
        if step.n >= max_n:
            break
    raise RuntimeError(f"no word below epsilon={epsilon} within {max_n} steps")
