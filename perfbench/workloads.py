"""The benchmark workloads: seeded inputs and the item list of each.

An item is one in-process ``freecomm.cli.main([...])`` call or one public
API call.  Items come in four parts, one per layer family: ``exact-decay``
(exact algebra), ``mixed-scan`` (mixed words over finite groups),
``haar-models`` (matrix models) and ``closure-filter`` (discreteness).  A
workload runs two parts back to back: ``exact-words`` is the pure-Python
pair, ``matrix-groups`` the numpy pair, so each layer is exercised by one
workload and bypassed by the other.

``build`` runs inside the fresh child process as part of its set-up: it
draws every input from the workload seed, writes the input files the items
read (and the copies the output checks need) into the working directory,
and returns the manifest plus the in-memory arguments of the API items.
All paths in the manifest are relative to the working directory, so the
report bytes of two passes with the same seed are identical.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

#: workload -> its parts, in the order their items run
WORKLOADS = {
    "exact-words": ("exact-decay", "mixed-scan"),
    "matrix-groups": ("haar-models", "closure-filter"),
}

# exact-decay: 8 alphas, at least half above 3/4 (contraction regime).
EXACT_ALPHAS = 8
EXACT_N_MAX = 6
# |alpha| stays at least this large: coefficients of w_4 scale like powers of
# alpha, and near 0 they drop below the algebra's prune threshold, which
# would shrink the support (and the work) for some seeds only.
EXACT_MIN_ABS_ALPHA = 0.3

# haar-models
HAAR_N = 512
HAAR_TRIALS = 3
FREENESS_TOL = 0.05
MATRIX_ALPHA = 0.9
MATRIX_N_MAX = 4
# above the 64 cut-off where op_norm switches from SVD to power iteration
PAIR_N = 128

# closure-filter: dicyclic groups of order 4m, generated by
# diag(e^{i pi/m}, e^{-i pi/m}) and j, conjugated by a seeded SU(2) element.
DICYCLIC_ORDERS = (120, 240, 320)
# the same pair with rotation angle 1 rad never closes up
ROTATION_ANGLE = 1.0

# mixed-scan: (bundled group name, depth); exponent bound is the CLI default 2
MIF_SCANS = (("sym4", 2), ("quaternion8", 3), ("sym3", 3))
MIF_EXP_BOUND = 2
WORDS_PER_GROUP = 4


def _rng(part: str, seed: int) -> random.Random:
    return random.Random(f"{part}:{seed}")


def _cli(item_id: str, argv: list[str]) -> dict:
    return {"id": item_id, "kind": "cli", "argv": argv}


def build(workload: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """Write the inputs of one workload pass into ``workdir``.

    Returns ``(manifest, api_args)``: the JSON manifest (also written to
    ``inputs.json``) and, per API item id, the positional arguments.  Each
    item carries the name of its part; each part draws from its own stream.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "items": []}
    api_args = {}
    for part in WORKLOADS[workload]:
        found, args = PARTS[part](_rng(part, seed), workdir)
        manifest["items"] += [item | {"part": part} for item in found.pop("items")]
        manifest.update(found)
        api_args.update(args)
    (workdir / "inputs.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest, api_args


def _exact_decay(rng: random.Random, workdir: Path):
    alphas = []
    for k in range(EXACT_ALPHAS):
        if k < EXACT_ALPHAS // 2:
            a = round(rng.uniform(0.76, 0.94), 6)
        else:
            a = round(rng.uniform(EXACT_MIN_ABS_ALPHA, 0.94), 6) * rng.choice((-1, 1))
        alphas.append(a)
    items = [
        _cli(
            f"dynamics-{k}",
            ["dynamics", f"--alpha={a!r}", "--n-max", str(EXACT_N_MAX),
             "--format", "json", "--out", f"out/dynamics-{k}.json"],
        )
        for k, a in enumerate(alphas)
    ]
    items.append(_cli("verify-identity", ["verify-identity", "--out", "out/verify-identity.json"]))
    return {"alphas": alphas, "items": items}, {}


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary by LAPACK QR with Mezzadri's diagonal-phase correction.

    This is the benchmark's own sampler: the pair it makes is an input to
    ``commutator_ineq_check``, not a product of the library under test.
    """
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[np.newaxis, :]


def _haar_models(rng: random.Random, workdir: Path):
    freeness_seed = rng.randrange(2**31)
    matrix_seed = rng.randrange(2**31)
    pair_seed = rng.randrange(2**31)
    gen = np.random.default_rng(pair_seed)
    u = haar_unitary(gen, PAIR_N)
    v = haar_unitary(gen, PAIR_N)
    np.save(workdir / "pair.npy", np.stack([u, v]))
    items = [
        _cli("freeness", ["freeness", "--n", str(HAAR_N), "--trials", str(HAAR_TRIALS),
                          "--seed", str(freeness_seed), "--tol", repr(FREENESS_TOL),
                          "--out", "out/freeness.json"]),
        _cli("dynamics-matrix", ["dynamics", "--model", "matrix", "--alpha", repr(MATRIX_ALPHA),
                                 "--n", str(HAAR_N), "--n-max", str(MATRIX_N_MAX),
                                 "--seed", str(matrix_seed), "--format", "json",
                                 "--out", "out/dynamics-matrix.json"]),
        {"id": "commutator", "kind": "api", "call": "commutator_ineq_check"},
    ]
    manifest = {
        "freeness_seed": freeness_seed,
        "matrix_seed": matrix_seed,
        "pair_seed": pair_seed,
        "items": items,
    }
    return manifest, {"commutator": (u, v)}


def random_su2(rng: random.Random) -> np.ndarray:
    q = np.array([rng.gauss(0.0, 1.0) for _ in range(4)])
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def dicyclic_pair(angle: float, conj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """diag(e^{i angle}, e^{-i angle}) and j, both conjugated by ``conj``."""
    rot = np.diag([np.exp(1j * angle), np.exp(-1j * angle)])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    g = conj.conj().T
    return conj @ rot @ g, conj @ j @ g


def to_pairs(m: np.ndarray) -> list:
    """Row-major (re, im) pairs, the matrix format of catalog files."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _closure_filter(rng: random.Random, workdir: Path):
    conj = random_su2(rng)
    entries = {}
    for order in DICYCLIC_ORDERS:
        gens = dicyclic_pair(math.pi / (order // 4), conj)
        entries[f"dicyclic{order}"] = {"generators": [to_pairs(g) for g in gens]}
    (workdir / "catalog.json").write_text(json.dumps({"entries": entries}, sort_keys=True))
    rotation = dicyclic_pair(ROTATION_ANGLE, conj)
    items = [
        _cli("zassenhaus-generated", ["zassenhaus", "--catalog", "catalog.json",
                                      "--out", "out/zassenhaus-generated"]),
        _cli("zassenhaus-bundled", ["zassenhaus", "--out", "out/zassenhaus-bundled"]),
        {"id": "rotation-closure", "kind": "api", "call": "group_closure"},
    ]
    manifest = {"orders": list(DICYCLIC_ORDERS), "conj": to_pairs(conj), "items": items}
    return manifest, {"rotation-closure": (list(rotation),)}


def word_literal(labels: list[str], coeffs: list[int], exps: list[int]) -> str:
    """A mixed word in the CLI's literal syntax, ``g0 . t^e1 . g1 ...``."""
    parts = [labels[coeffs[0]]]
    for e, c in zip(exps, coeffs[1:]):
        parts += [f"t^{e}", labels[c]]
    return " . ".join(parts)


def _mixed_scan(rng: random.Random, workdir: Path):
    from freecomm.catalog import finite_group_catalog  # group labels are the CLI's vocabulary

    stock = finite_group_catalog()
    (workdir / "groups").mkdir()
    items = []
    for name, depth in MIF_SCANS:
        doc = stock[name].to_json_dict()
        (workdir / "groups" / f"{name}.json").write_text(json.dumps(doc))
        n, labels = doc["order"], doc["labels"]
        table = doc["table"]
        identity = next(e for e in range(n) if all(table[e * n + x] == x for x in range(n)))
        nontrivial = [g for g in range(n) if g != identity]
        words = []
        for _ in range(WORDS_PER_GROUP - 1):
            k = rng.randint(1, 3)
            exps = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(k)]
            coeffs = [rng.randrange(n)] + [rng.choice(nontrivial) for _ in range(k - 1)]
            coeffs.append(rng.randrange(n))
            words.append(word_literal(labels, coeffs, exps))
        # one identity: g t^(2n) g^-1, since g^n = 1 for every element
        g = rng.choice(nontrivial)
        g_inv = next(h for h in range(n) if table[g * n + h] == identity)
        words.append(word_literal(labels, [g, g_inv], [2 * n]))
        argv = ["mif", "--group-name", name, "--depth", str(depth),
                "--exp-bound", str(MIF_EXP_BOUND), "--out", f"out/mif-{name}.json"]
        for w in words:
            argv.append(f"--word={w}")
        items.append(_cli(f"mif-{name}", argv))
    return {"items": items}, {}


PARTS = {
    "exact-decay": _exact_decay,
    "haar-models": _haar_models,
    "closure-filter": _closure_filter,
    "mixed-scan": _mixed_scan,
}
