"""The mutant ledger: named one-line source mutants and the tests that kill them.

    python3 scripts/mutants.py [NAME ...]

Each mutant replaces one exact text in one file under ``src/`` with
another.  For each mutant (every one, or those named), the script copies
this checkout to a temporary directory, applies the mutant there, runs the
tests listed for it, and prints one line: ``killed`` when a test fails,
``survived`` when all pass.  An equivalent mutant changes no behaviour, so
its tests must pass; it prints ``equivalent`` with the reason.  The exit
status is 1 when a mutant that should be killed survives or an equivalent
one is killed.  Standard library only; the tests run with the interpreter
that runs this script, BLAS on one thread.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why the mutant changes no behaviour; empty if it must be killed


MUTANTS = (
    Mutant(
        "closure-candidate-band", "src/freecomm/discrete.py",
        "DEFAULT_MERGE_EPS * np.sqrt(dim)", "DEFAULT_MERGE_EPS * dim",
        ("tests/test_discrete.py",),
        equivalent="a candidate in the added band has Frobenius distance above eps sqrt(N), "
                   "so its op distance is above eps and the exact op-norm check rejects it",
    ),
    Mutant(
        "exact-slack", "src/freecomm/dynamics.py",
        "EXACT_SLACK = 1e-10", "EXACT_SLACK = 1e-3",
        ("tests/test_cli.py::test_dynamics_exact_rows_default_slack",),
    ),
    Mutant(
        "gamma-filter-strict", "src/freecomm/discrete.py",
        "if l < threshold]", "if l <= threshold]",
        ("tests/test_discrete.py::test_filter_threshold_is_strict",),
    ),
    Mutant(
        "matrix-slack", "src/freecomm/dynamics.py",
        "MATRIX_SLACK = 0.05", "MATRIX_SLACK = 0.1",
        ("tests/test_cli.py::test_dynamics_matrix_model",),
    ),
    Mutant(
        "unitary-op-tol", "src/freecomm/matrices.py",
        "UNITARY_OP_TOL = 1e-10", "UNITARY_OP_TOL = 1e-6",
        ("tests/test_matrices.py::test_unitary_matrix_rejects_one_moved_entry",),
    ),
    Mutant(
        "reflection-bound", "src/freecomm/matrices.py",
        "if 4.0 * defect * (1.0 + defect) > UNITARY_OP_TOL:", "if defect > UNITARY_OP_TOL:",
        ("tests/test_matrices.py::test_reflection_rejects_non_orthonormal_basis",),
    ),
    Mutant(
        "merge-eps", "src/freecomm/discrete.py",
        "DEFAULT_MERGE_EPS = 1e-8", "DEFAULT_MERGE_EPS = 1e-4",
        ("tests/test_discrete.py::test_maybe_band_merges_through_op_norm",),
    ),
    Mutant(
        "float-sig-digits", "src/freecomm/reporting.py",
        "FLOAT_SIG_DIGITS = 12", "FLOAT_SIG_DIGITS = 11",
        ("tests/test_cli.py::test_dynamics_matrix_edge_factors",),
    ),
    Mutant(
        "grid-budget-sums-only", "src/freecomm/algebra.py",
        "need = na * nb * (poly + row) + (dn * en + nn) * block * poly", "need = na * nb * poly",
        ("tests/test_algebra.py::test_multiply_refuses_a_grid_over_its_budget",
         "tests/test_algebra.py::test_exact_rows_fit_the_grid_budget"),
    ),
    Mutant(
        "grid-budget-drops-rows", "src/freecomm/algebra.py",
        "need = na * nb * (poly + row) + (dn * en + nn) * block * poly",
        "need = na * nb * poly + (dn * en + nn) * block * poly",
        ("tests/test_algebra.py::test_budget_counts_the_rows_before_spelling_them",),
    ),
    Mutant(
        "recursion-factor", "src/freecomm/dynamics.py",
        "t = 1.0 - (1.0 - t * t) * (1.0 - alpha * alpha)", "t = 1.0 - (1.0 - t * t) * (1.0 - alpha)",
        ("tests/test_dynamics.py::test_trace_recursion_matches_oracle",),
    ),
    Mutant(
        "product-drops-repeats", "src/freecomm/algebra.py",
        "sums[words] += polys", "sums[words] = polys",
        ("tests/test_algebra.py::test_multiply_matches_toeplitz_oracle_on_decay_shapes",),
    ),
    Mutant(
        "product-skips-zero-rows", "src/freecomm/algebra.py",
        "if a.coeffs.any(axis=(1, 2)).all() and b.coeffs.any(axis=(1, 2)).all():", "if True:",
        ("tests/test_algebra.py::test_multiply_matches_toeplitz_oracle",),
    ),
    Mutant(
        "power-modulus", "src/freecomm/groups.py",
        "e %= self.order  # a^|G| = 1", "e %= self.order + 1",
        ("tests/test_groups.py::test_power_reduces_the_exponent_by_the_order",),
    ),
    Mutant(
        "subgroup-order-gens", "src/freecomm/discrete.py",
        '"subgroup_order": len(self.subgroup_indices)', '"subgroup_order": len(self.generator_indices)',
        ("tests/test_cli.py::test_zassenhaus_threshold_zero",),
    ),
    Mutant(
        "q8-sign-flipped", "src/freecomm/groups.py",
        "flip = u and v and (v - u) % 3 != 1", "flip = u and v and (v - u) % 3 != 2",
        ("tests/test_groups.py::test_quaternion_table_matches_its_matrices",),
    ),
    Mutant(
        "scan-constant-two-columns", "src/freecomm/mixed.py",
        "constant = (value == value[:, :1]).all(axis=1)",
        "constant = (value[:, :2] == value[:, :1]).all(axis=1)",
        ("tests/test_mixed.py::test_scan_matches_brute_force",),
    ),
    Mutant(
        "scan-interior-before-g0", "src/freecomm/mixed.py",
        "for g0, row in enumerate(ends.tolist()) for mid, gk in zip(mids, row)]",
        "for mid, col in zip(mids, ends.T.tolist()) for g0, gk in enumerate(col)]",
        ("tests/test_mixed.py::test_scan_matches_brute_force",),
    ),
    Mutant(
        "round-floats-passes-floats", "src/freecomm/reporting.py",
        "if set(map(type, obj)) <= {str, int}:", "if set(map(type, obj)) <= {str, int, float}:",
        ("tests/test_acceptance.py::test_round_floats_passes_plain_lists_and_rounds_mixed_ones",),
    ),
    Mutant(
        "closure-band-known-only", "src/freecomm/discrete.py",
        "if j < hi or j - hi in added]", "if j < hi]",
        ("tests/test_discrete.py::test_layered_closure_matches_sequential_oracle",
         "tests/test_discrete.py::test_closure_cayley_table_consistent"),
    ),
    Mutant(
        "near-identity-gate-cap", "src/freecomm/discrete.py",
        "if to_id[q] <= band_fro or n >= cap:", "if n >= cap:",
        ("tests/test_discrete.py::test_irrational_rotation_is_non_discrete",
         "tests/test_discrete.py::test_maybe_band_without_op_match_is_near_identity"),
    ),
    Mutant(
        "range-type-strict", "src/freecomm/cli.py",
        "if not value >= least:", "if not value > least:",
        ("tests/test_cli.py::test_numeric_types_accept_their_least_value_and_name_it",),
    ),
    Mutant(
        "mixed-mul-any-group", "src/freecomm/mixed.py",
        "if self.group is not other.group:", "if False:",
        ("tests/test_mixed.py::test_words_over_two_groups_rejected",),
    ),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the mutant's old text, which must occur exactly once, in its file under root."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def outcome(mutant: Mutant) -> str:
    """'killed' or 'survived': the mutant's tests run on a mutated copy of this checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench", "BENCH_*.json"))
        apply(copy, mutant)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a test failed; anything else is no verdict
        raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    return "killed" if proc.returncode else "survived"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    wrong = 0
    for mutant in chosen:
        start = time.perf_counter()
        got = outcome(mutant)
        if mutant.equivalent:
            verdict = f"equivalent ({mutant.equivalent})" if got == "survived" else "killed, BUT LISTED EQUIVALENT"
            wrong += got == "killed"
        else:
            verdict = got if got == "killed" else "SURVIVED"
            wrong += got == "survived"
        print(f"{mutant.name:26} {mutant.path:28} {time.perf_counter() - start:6.1f} s  {verdict}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
