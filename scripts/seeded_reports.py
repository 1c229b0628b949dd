"""Write this checkout's seeded CLI reports and demo output into OUTDIR.

    python3 scripts/seeded_reports.py OUTDIR

Every call below is seeded or exact, so two checkouts that should agree
can be compared with ``diff -r OUTDIR_A OUTDIR_B``: the file names are
fixed, each file holds one call's stdout (the ``zassenhaus`` reports go
under ``zassenhaus/``), and ``exit_codes.txt`` lists every call's exit
status.  The package is imported from this checkout's ``src``; BLAS runs
on one thread.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from freecomm.catalog import finite_group_catalog  # noqa: E402

EXACT_ALPHAS = ("0.9", "-0.42", "0.75", "0.85")


def _mif_words(group) -> list[str]:
    """Words of the benchmark's shapes, g0 . t^e1 . g1 ... . t^ek . gk for
    k = 1, 2, 3, and the identity g . t^(2|G|) . g^-1."""
    n, label = group.order, group.label
    g = 1 if group.identity == 0 else 0
    words = []
    for k, exps in ((1, (2,)), (2, (1, -3)), (3, (-1, 2, 1))):
        coeffs = [(3 * i + k) % n for i in range(k + 1)]
        coeffs[1:k] = [c if c != group.identity else g for c in coeffs[1:k]]
        parts = [label(coeffs[0])]
        for e, c in zip(exps, coeffs[1:]):
            parts += [f"t^{e}", label(c)]
        words.append(" . ".join(parts))
    words.append(f"{label(g)} . t^{2 * n} . {label(group.inv(g))}")
    return words


def cli_calls() -> list[tuple[str, list[str]]]:
    calls = [
        ("verify-identity.json", ["verify-identity"]),
        # exact rounding near +-1 and near 0
        ("verify-identity_edges.json", ["verify-identity", "--alpha-grid=0.999999,-0.3,1e-9",
                                        "--beta-grid=-0.999999,0.7"]),
    ]
    for alpha in EXACT_ALPHAS:
        for n_max in ("6", "2100"):
            for fmt in ("csv", "json"):
                calls.append((f"dynamics-exact_a{alpha}_n{n_max}.{fmt}",
                              ["dynamics", f"--alpha={alpha}", "--n-max", n_max,
                               "--format", fmt]))
    calls += [
        ("dynamics-matrix.json", ["dynamics", "--model", "matrix", "--alpha", "0.9",
                                  "--n", "256", "--seed", "7", "--n-max", "3",
                                  "--format", "json"]),
        ("dynamics-matrix_n255.json", ["dynamics", "--model", "matrix", "--alpha", "0.9",
                                       "--n", "255", "--seed", "7", "--n-max", "3",
                                       "--format", "json"]),
        ("freeness.json", ["freeness", "--n", "256", "--trials", "3", "--seed", "20220"]),
        ("freeness_n257.json", ["freeness", "--n", "257", "--trials", "2", "--seed", "20220"]),
        # N = 130 ends in a ragged block of 2 columns
        ("freeness_n130.json", ["freeness", "--n", "130", "--trials", "2", "--seed", "20220"]),
        ("dynamics-matrix_n130.json", ["dynamics", "--model", "matrix", "--alpha", "0.9",
                                       "--n", "130", "--seed", "7", "--n-max", "3",
                                       "--format", "json"]),
        # eight rows read off the QR of a 102-column factor
        ("dynamics-matrix_n1024.json", ["dynamics", "--model", "matrix", "--alpha", "0.9",
                                        "--n", "1024", "--seed", "7", "--n-max", "8",
                                        "--format", "json"]),
        ("zassenhaus.txt", ["zassenhaus", "--out", "zassenhaus"]),
    ]
    groups = finite_group_catalog()
    scans = [(name, 2) for name in groups] + [("sym3", 3), ("quaternion8", 3), ("sym3", 4)]
    for name, depth in scans:
        argv = ["mif", "--group-name", name, "--depth", str(depth)]
        argv += [f"--word={w}" for w in _mif_words(groups[name])]
        calls.append((f"mif-{name}_d{depth}.json", argv))
    return calls


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    runs = [(name, ["-m", "freecomm.cli", *args]) for name, args in cli_calls()]
    runs += [(f"demo-{p.stem}.txt", [str(p)]) for p in sorted((ROOT / "demos").glob("*.py"))]
    codes = []
    for name, args in runs:
        res = subprocess.run([sys.executable, *args], cwd=out, env=env,
                             capture_output=True, timeout=600)
        (out / name).write_bytes(res.stdout)
        codes.append(f"{name} {res.returncode}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
