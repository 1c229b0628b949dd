"""freecomm: commutator contraction in unitary groups at desk scale.

Exact free-product trace arithmetic, nested-commutator decay dynamics,
seeded Haar matrix models, operator-norm discreteness filtrations, and
mixed-identity machinery for finite groups.
"""

__version__ = "0.1.0"

from .algebra import (
    FreeProductGroup,
    PolyElement,
    Z,
    is_unitary,
    multiply,
    star,
    trace,
    verify_free_commutator_identity,
)
from .discrete import (
    FilterReport,
    MatrixGroup,
    NonClosure,
    commutator_ineq_check,
    ell_op,
    gamma_filter,
    group_closure,
    heisenberg_irrep,
)
from .dynamics import (
    DecayReport,
    DecayStep,
    decay_curve_exact,
    decay_curve_matrix,
    find_small_element,
    trace_recursion,
    w_sequence,
)
from .groups import FiniteGroup, cyclic_group, load_finite_group, quaternion_group, symmetric_group
from .matrices import (
    CMVMatrix,
    Reflection,
    UnitaryMatrix,
    corner_haar,
    freeness_report,
    freeness_trial,
    normalized_trace,
    op_norm,
    sample_cue,
    sample_haar,
    subseed,
    unitary_with_trace,
)
from .mixed import (
    MixedWord,
    is_mixed_identity,
    iterated_commutator,
    mixed_commutator as commutator,
    parse_mixed_word,
)
from .reps import (
    CriterionVerdict,
    commutant_dimension,
    dihedral_chain_demo,
    least_dimension_criterion,
)

__all__ = [
    "CMVMatrix",
    "CriterionVerdict",
    "DecayReport",
    "DecayStep",
    "FilterReport",
    "FiniteGroup",
    "FreeProductGroup",
    "MatrixGroup",
    "MixedWord",
    "NonClosure",
    "PolyElement",
    "Reflection",
    "UnitaryMatrix",
    "Z",
    "commutant_dimension",
    "commutator",
    "commutator_ineq_check",
    "corner_haar",
    "cyclic_group",
    "decay_curve_exact",
    "decay_curve_matrix",
    "dihedral_chain_demo",
    "ell_op",
    "find_small_element",
    "freeness_report",
    "freeness_trial",
    "gamma_filter",
    "group_closure",
    "heisenberg_irrep",
    "is_mixed_identity",
    "is_unitary",
    "iterated_commutator",
    "least_dimension_criterion",
    "load_finite_group",
    "multiply",
    "normalized_trace",
    "op_norm",
    "parse_mixed_word",
    "quaternion_group",
    "sample_cue",
    "sample_haar",
    "star",
    "subseed",
    "symmetric_group",
    "trace",
    "trace_recursion",
    "unitary_with_trace",
    "verify_free_commutator_identity",
    "w_sequence",
]
