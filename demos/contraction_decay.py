"""Decay of the nested commutator words w_n(u, v).

With ell(u) < 1/sqrt(2) the words w_1 = x, w_{n+1} = [w_n, y^n x y^-n]
evaluate to unitaries whose distance to the identity shrinks geometrically
when x -> u and y -> a free Haar unitary v.  The exact expansion in
C2 * Z is compared against the scalar trace recursion, and the same
words are then fed finite random matrices.
"""

from freecomm import decay_curve_exact, decay_curve_matrix, find_small_element
from freecomm import sample_cue, subseed, unitary_with_trace

ALPHA = 0.9

print(f"exact model, alpha = {ALPHA} (trace of u):")
report = decay_curve_exact(ALPHA, 6)
print("  n   ell(w_n)     lower        upper        route")
for s in report.steps:
    print(f"  {s.n}   {s.ell:.6f}   {s.lower:.6f}   {s.upper:.6f}   {s.source}")
print("  (rows 1-4 expand w_n exactly, row 5 is the exact trace paired off w_4;")
print("   later rows extrapolate with the trace recursion the exact rows verify)")

res = find_small_element(ALPHA, 0.1)
print(f"\nfirst word below 0.1: n={res.n}, ell={res.ell:.6f}, "
      f"word has {sum(map(abs, res.word[1::2]))} letters")

print("\nmatrix model at N = 400 (same alpha, CUE-law CMV partner):")
u, realized = unitary_with_trace(ALPHA, 400, subseed(1, 0))
v = sample_cue(400, subseed(1, 1))
mreport = decay_curve_matrix(u, v, 4)
for s in mreport.steps:
    print(f"  n={s.n}  ell={s.ell:.5f}  in bounds (slack {mreport.slack}): {s.in_bounds}")
