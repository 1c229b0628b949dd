"""Bundled test catalogs and their file formats.

A matrix catalog file, read by ``load_unitary_catalog``, is JSON of the
form {"entries": {name: {"generators": [matrix, ...]}}}, each matrix a
row-major array of (re, im) pairs; finite-group catalogs reuse the
multiplication-table document from :mod:`freecomm.groups`.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from .discrete import check_generators
from .groups import (
    FiniteGroup,
    cyclic_group,
    klein_group,
    quaternion_group,
    symmetric_group,
)


def matrix_from_pairs(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def quaternion_generators() -> tuple[np.ndarray, np.ndarray]:
    """The unit quaternions i and j as SU(2) matrices."""
    qi = np.array([[1j, 0], [0, -1j]])
    qj = np.array([[0, 1], [-1, 0]], dtype=complex)
    return qi, qj


def pauli_generators() -> tuple[np.ndarray, np.ndarray]:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return x, z


def binary_tetrahedral_generators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quaternions i, j and omega = (-1 + i + j + k)/2 (order 24 closure)."""
    qi, qj = quaternion_generators()
    qk = np.array([[0, 1j], [1j, 0]])
    omega = 0.5 * (-np.eye(2, dtype=complex) + qi + qj + qk)
    return qi, qj, omega


def unitary_group_catalog() -> dict[str, tuple[np.ndarray, ...]]:
    """Generator sets for the bundled discreteness-filtration checks."""
    return {
        "quaternion_su2": quaternion_generators(),
        "pauli_u2": pauli_generators(),
        "binary_tetrahedral_su2": binary_tetrahedral_generators(),
        "cyclic13_u1": (np.array([[np.exp(2j * np.pi / 13)]]),),
    }


def load_unitary_catalog(path: str | Path) -> dict[str, tuple[np.ndarray, ...]]:
    """The catalog file's entries, each checked as ``group_closure`` checks
    its generators; a malformed file raises KeyError, TypeError or
    ValueError."""
    entries = json.loads(Path(path).read_text())["entries"]
    if not isinstance(entries, dict):
        raise ValueError("entries must be a JSON object")
    out = {}
    for name, entry in entries.items():
        try:
            gens = check_generators([matrix_from_pairs(g) for g in entry["generators"]])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"entry {name!r}: {exc}") from exc
        out[name] = tuple(gens)
    return out


#: name -> constructor of each group the mixed-identity checks use
FINITE_GROUPS = {
    "cyclic2": partial(cyclic_group, 2),
    "cyclic3": partial(cyclic_group, 3),
    "cyclic6": partial(cyclic_group, 6),
    "klein4": klein_group,
    "sym3": partial(symmetric_group, 3),
    "sym4": partial(symmetric_group, 4),
    "quaternion8": quaternion_group,
}


def finite_group_catalog() -> dict[str, FiniteGroup]:
    """Every group of ``FINITE_GROUPS``, built."""
    return {name: build() for name, build in FINITE_GROUPS.items()}
