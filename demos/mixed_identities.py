"""Mixed identities: words over a group with one free variable.

A word in <G, t> is a mixed identity when every substitution t -> g
collapses it to the identity.  Finite groups always have them (t to the
group exponent); specific words are refuted by exhaustive evaluation with
a reproducible witness.
"""

from freecomm import is_mixed_identity, iterated_commutator, symmetric_group
from freecomm.catalog import finite_group_catalog
from freecomm.mixed import MixedWord, mixed_commutator, mixed_identity_scan

print("the exponent word t^exp(G) is always an identity:")
for name, group in finite_group_catalog().items():
    w = MixedWord.t_power(group, group.exponent())
    print(f"  {name:12s} exp = {group.exponent():2d}  identity: "
          f"{is_mixed_identity(w).is_identity}")

s3 = symmetric_group(3)
a = s3.index_of("(12)")
t = MixedWord.t_power(s3, 1)
w = mixed_commutator(t, t.conjugate_variable(a))
print(f"\n[t, a t a^-1] with a = (12) over Sym(3):  {w}")
verdict = is_mixed_identity(w)
print(f"  identity: {verdict.is_identity}; witness g = {s3.label(verdict.witness)} "
      f"evaluates to {s3.label(verdict.value)}")

nested = iterated_commutator([t, t.conjugate_variable(a), MixedWord.t_power(s3, 2)])
print(f"\nright-nested commutator of three words: {nested}")
print("  nonzero evaluations:",
      sum(1 for g in range(s3.order) if nested.evaluate(g) != s3.identity), "of", s3.order)

print("\nsmall-window scan over Sym(3) (depth 2, exponents to 2):")
report = mixed_identity_scan(s3, 2, 2)
print(f"  checked {report['checked']} words, identities found: {report['identities'] or 'none'}")
print("  (no conclusion beyond the window: the scan never certifies a group MIF)")
