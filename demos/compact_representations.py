"""When is a finite subgroup of a projective unitary group safely rigid?

For a nontrivial irreducible representation of least dimension, no
invariant abelian Lie-subalgebra direction survives, and the family of
discrete subgroups over the projective image is uniformly discrete.  The
rotation representation of Alt(5) passes; a cyclic group inside SU(2)
fails (it fixes the diagonal torus direction), and the dihedral chain in
SO(3) shows how an ascending family loses uniform discreteness.
"""

from freecomm import group_closure, least_dimension_criterion
from freecomm.catalog import quaternion_generators
from freecomm.reps import cyclic_su2_rep, dihedral_chain_demo, icosahedral_rotation_group

print("Alt(5) as the icosahedral rotation group (3-dim, nontrivial dims 3,3,4,5):")
alt5 = icosahedral_rotation_group()
v = least_dimension_criterion(alt5, [3, 3, 4, 5])
print(f"  commutant dim {v.commutant_dim}, fixed-space dim {v.fixed_space_dim}, "
      f"least-dimension {v.least_dimension} -> guarantee {v.guarantee}")

print("\nZ/8 in SU(2), diagonal:")
c8 = cyclic_su2_rep(8)
v8 = least_dimension_criterion(c8, [1] * 7)
print(f"  commutant dim {v8.commutant_dim}, fixed-space dim "
      f"{v8.fixed_space_dim} (the diagonal direction) -> guarantee {v8.guarantee}")

print("\nquaternion group, its 2-dim irrep (1-dim nontrivial irreps exist):")
q = group_closure(quaternion_generators())
vq = least_dimension_criterion(q, [1, 1, 1, 2])
print(f"  irreducible {vq.irreducible}, least-dimension {vq.least_dimension} "
      f"-> guarantee {vq.guarantee}")

print("\ndihedral chain in SO(3), each group inside the next, shortest element shrinking:")
chain = dihedral_chain_demo(6, 4)
for row in chain.rows:
    print(f"  order {row.order:4d}: min nonzero ||1-g|| = {row.min_nonzero_ell:.5f} "
          f"(closed={row.product_closed}, contains previous={row.contains_previous})")
print(f"  strictly decreasing: {chain.strictly_decreasing}")
