"""Exact trace identities for free pairs of unitaries.

u = alpha + gamma_alpha x and v = beta + gamma_beta y, with
gamma_t = i sqrt(1 - t^2), are unitaries on the two free factors of
C2 * C2 = <x, y>, so they are freely independent by construction.  Their
products are expanded word by word with integer polynomial coefficients in
alpha and beta, so each trace below is one polynomial for every alpha and
beta at once: the closed forms of tau(uv) and of the commutator uvu*v* are
checked with no analytic input at all, and then evaluated exactly.
"""

import math

from freecomm import is_unitary, multiply, star, trace, verify_free_commutator_identity
from freecomm.algebra import ell_bar_from_trace, ell_from_trace, evaluate, free_pair


def show(grid) -> str:
    """An integer coefficient grid (rows: powers of alpha, columns: of beta)
    as text, lowest total degree first."""
    terms = sorted((d + e, -d, c) for d, row in enumerate(grid) for e, c in enumerate(row) if c)
    text = ""
    for total, minus_d, c in terms:
        powers = [(name, k) for name, k in (("alpha", -minus_d), ("beta", total + minus_d)) if k]
        mono = " ".join(name if k == 1 else f"{name}^{k}" for name, k in powers)
        coeff = "" if abs(c) == 1 and mono else str(abs(c))
        text += (" - " if c < 0 else " + ") + " ".join(filter(None, (coeff, mono)))
    return text.removeprefix(" + ").strip() or "0"


u, v = free_pair()
uv = multiply(u, v)
comm = multiply(multiply(uv, star(u)), star(v))
print(f"tau(uv)        = {show(trace(uv))}")
print(f"tau(u v u* v*) = {show(trace(comm))}   (u v u* v* unitary: {is_unitary(comm)})")

print("\ntau(uv) = tau(u) tau(v) for free unitaries:")
for alpha, beta in [(0.5, 0.5), (0.9, -0.25), (0.0, 0.75)]:
    num, den = evaluate(trace(uv), alpha, beta)
    tau_uv = num / den
    print(f"  alpha={alpha:+.2f} beta={beta:+.2f}  tau(uv)={tau_uv:+.6f}  "
          f"alpha*beta={alpha * beta:+.6f}")

print("\ntau(u v u* v*) = 1 - (1 - alpha^2)(1 - beta^2):")
for alpha, beta in [(0.0, 0.0), (0.5, 0.5), (0.9, 0.0), (0.75, -0.75)]:
    chk = verify_free_commutator_identity(alpha, beta)
    print(f"  alpha={alpha:+.2f} beta={beta:+.2f}  expansion={chk.lhs:.12f}  "
          f"closed form={chk.rhs:.12f}  deviation={chk.deviation:.2e}")

print("\ntwo-sided bound  l_bar(u) l_bar(v)/sqrt(2) <= l([u,v]) <= sqrt(2) l_bar(u) l_bar(v):")
for alpha, beta in [(0.5, 0.5), (0.9, 0.5), (0.25, -0.75)]:
    num, den = evaluate(trace(comm), alpha, beta)
    tau = complex(num / den)
    lbu, lbv = ell_bar_from_trace(complex(alpha)), ell_bar_from_trace(complex(beta))
    lo, hi = lbu * lbv / math.sqrt(2), math.sqrt(2) * lbu * lbv
    print(f"  alpha={alpha:+.2f} beta={beta:+.2f}   {lo:.5f} <= {ell_from_trace(tau):.5f} <= {hi:.5f}"
          f"   (l_bar of commutator = {ell_bar_from_trace(tau):.5f})")
