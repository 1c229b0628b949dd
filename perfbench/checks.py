"""Independent output checks, one set per workload part.

Every check re-derives the expected result by a route of its own: the
scalar trace recursion and closed forms, numpy SVD norms, the element
lengths of a dicyclic group from its eigenvalues, and a mixed-word
evaluator over the group's multiplication table.  Nothing here imports
freecomm, and no check pins sampled values or report bytes: a correct
change to the library (a new sampler, an exact op norm, an exact n = 5 row,
larger bundled catalogs) keeps passing.

``check_pass`` returns the problems found per item id; an item with any
problem, a nonzero exit code or an exception has failed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

import workloads as wl

#: bound slack of the exact model (freecomm.dynamics.EXACT_SLACK)
EXACT_SLACK = 1e-10
#: slack envelope of the matrix model (freecomm.dynamics.MATRIX_SLACK)
MATRIX_SLACK = 0.05
#: closure merge tolerance and near-identity band (freecomm.discrete defaults)
MERGE_EPS = 1e-8
NEAR_IDENTITY_BAND = 0.01
FILTER_THRESHOLD = 0.5
#: rows up to this n must come from the exact expansion
EXACT_ROWS = 4
EXACT_SOURCES = ("exact", "exact_trace")
#: power iteration can only under-estimate the top singular value; the
#: relative under-estimate allowed here covers the known op_norm defect
OP_NORM_REL_TOL = 1e-2
#: bundled catalog entries that must keep their orders (more may be added)
BUNDLED_ORDERS = {"binary_tetrahedral_su2": 24, "cyclic13_u1": 13, "pauli_u2": 8,
                  "quaternion_su2": 8}
#: element-order statistics that pin each scanned group's isomorphism type
ORDER_STATS = {
    "sym4": {1: 1, 2: 9, 3: 8, 4: 6},
    "quaternion8": {1: 1, 2: 1, 4: 6},
    "sym3": {1: 1, 2: 3, 3: 2},
}
MIXED_SAMPLE = 25

_MALFORMED = (KeyError, IndexError, TypeError, ValueError, OSError, AttributeError)


def check_pass(manifest: dict, workdir: Path, outcomes: dict) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    for item in manifest["items"]:
        item_id = item["id"]
        out = outcomes.get(item_id)
        found = problems[item_id] = []
        if out is None:
            found.append("item did not run")
            continue
        if out.get("error"):
            found.append(f"raised {out['error']}")
            continue
        if out.get("code") != 0:
            found.append(f"exit code {out.get('code')}")
            continue
        try:
            found.extend(CHECKERS[item["part"]](manifest, workdir, item, out))
        except _MALFORMED as exc:
            found.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


def tally(problems: dict[str, list[str]]) -> tuple[int, int]:
    """(items attempted, items failed) of one checked pass."""
    return len(problems), sum(1 for found in problems.values() if found)


def _load(workdir: Path, rel: str) -> dict:
    return json.loads((workdir / rel).read_text())


def _out_path(item: dict) -> str:
    argv = item["argv"]
    return argv[argv.index("--out") + 1]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# -- exact-decay ----------------------------------------------------------------


def recursion(alpha: float, n_max: int) -> list[float]:
    taus = [alpha]
    while len(taus) < n_max:
        t = taus[-1]
        taus.append(1.0 - (1.0 - t * t) * (1.0 - alpha * alpha))
    return taus


def check_exact_dynamics(alpha: float, n_max: int, doc: dict) -> list[str]:
    p = []
    rep = doc["report"]
    steps = rep["steps"]
    if [s["n"] for s in steps] != list(range(1, n_max + 1)):
        p.append(f"rows {[s['n'] for s in steps]}, expected 1..{n_max}")
    if not _close(doc["config"]["alpha"], alpha, 0.0):
        p.append(f"config alpha {doc['config']['alpha']} != input {alpha}")
    taus = recursion(alpha, n_max)
    ell_u = math.sqrt(2.0 - 2.0 * alpha)
    ell_bar_u = math.sqrt(2.0 * (1.0 - abs(alpha)))
    for s in steps:
        n = s["n"]
        if s["source"] not in EXACT_SOURCES + ("recursion",):
            p.append(f"n={n}: unknown source {s['source']!r}")
        if n <= EXACT_ROWS and s["source"] not in EXACT_SOURCES:
            p.append(f"n={n}: source {s['source']!r}, expected exact")
        if not 1 <= n <= n_max:
            continue
        if not _close(s["trace"], taus[n - 1], 1e-10):
            p.append(f"n={n}: trace {s['trace']} vs recursion {taus[n - 1]}")
        ell = math.sqrt(max(0.0, 2.0 - 2.0 * s["trace"]))
        if not _close(s["ell"], ell, 1e-9):
            p.append(f"n={n}: ell {s['ell']} vs sqrt(2 - 2 trace) {ell}")
        lower = (1.0 / math.sqrt(2.0)) ** (n - 1) * ell_bar_u**n
        upper = math.sqrt(2.0) ** (n - 1) * ell_u**n
        if not lower - EXACT_SLACK <= s["ell"] <= upper + EXACT_SLACK:
            p.append(f"n={n}: ell {s['ell']} outside [{lower}, {upper}]")
        if s["in_bounds"] is not True:
            p.append(f"n={n}: in_bounds is {s['in_bounds']}")
    if rep["all_in_bounds"] is not True:
        p.append("all_in_bounds is not true")
    return p


def check_verify_identity(doc: dict) -> list[str]:
    p = []
    results = doc["results"]
    grid = {(r["alpha"], r["beta"]) for r in results}
    alphas = {a for a, _ in grid}
    betas = {b for _, b in grid}
    if not results or len(results) != len(alphas) * len(betas) or len(grid) != len(results):
        p.append(f"{len(results)} results do not form an alpha x beta grid")
    for r in results:
        a, b = r["alpha"], r["beta"]
        rhs = 1.0 - (1.0 - a * a) * (1.0 - b * b)
        re, im = r["lhs"]
        if not (_close(re, rhs, 1e-12) and _close(im, 0.0, 1e-12)):
            p.append(f"({a}, {b}): lhs {re}+{im}i vs closed form {rhs}")
        if not _close(r["rhs"], rhs, 1e-12):
            p.append(f"({a}, {b}): rhs {r['rhs']} vs closed form {rhs}")
    if not doc["max_deviation"] <= 1e-12:
        p.append(f"max_deviation {doc['max_deviation']} > 1e-12")
    if doc["pass"] is not True:
        p.append("pass is not true")
    return p


def _exact_decay(manifest, workdir, item, out):
    doc = _load(workdir, _out_path(item))
    if item["id"] == "verify-identity":
        return check_verify_identity(doc)
    k = int(item["id"].rsplit("-", 1)[1])
    return check_exact_dynamics(manifest["alphas"][k], wl.EXACT_N_MAX, doc)


# -- haar-models ----------------------------------------------------------------


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


def check_freeness(n: int, trials: int, tol: float, doc: dict) -> list[str]:
    p = []
    results = doc["results"]
    if [r["trial"] for r in results] != list(range(trials)):
        p.append(f"trials {[r['trial'] for r in results]}, expected 0..{trials - 1}")
    worst = 0.0
    for r in results:
        tag = f"trial {r['trial']}"
        if r["dim"] != n:
            p.append(f"{tag}: dim {r['dim']} != {n}")
        tu, tv, tuv, tc = (_cx(r[k]) for k in ("tau_u", "tau_v", "tau_uv", "tau_commutator"))
        d1 = abs(tuv - tu * tv)
        d2 = abs(tc - (1.0 - (1.0 - abs(tu) ** 2) * (1.0 - abs(tv) ** 2)))
        if not _close(r["d1"], d1, 1e-9):
            p.append(f"{tag}: d1 {r['d1']} vs recomputed {d1}")
        if not _close(r["d2"], d2, 1e-9):
            p.append(f"{tag}: d2 {r['d2']} vs recomputed {d2}")
        if not (r["d1"] <= tol and r["d2"] <= tol):
            p.append(f"{tag}: deviation above tol {tol}")
        worst = max(worst, r["d1"], r["d2"])
    if not _close(doc["max_deviation"], worst, 1e-12):
        p.append(f"max_deviation {doc['max_deviation']} != max over trials {worst}")
    if doc["pass"] is not True:
        p.append("pass is not true")
    return p


def check_matrix_dynamics(alpha: float, n: int, n_max: int, doc: dict) -> list[str]:
    p = []
    rep = doc["report"]
    if rep["descriptor"]["dim"] != n:
        p.append(f"dim {rep['descriptor']['dim']} != {n}")
    # +1/-1 spectrum: round(n (1 + alpha) / 2) eigenvalues are +1
    m_plus = min(max(int(round(n * (1.0 + alpha) / 2.0)), 0), n)
    tau_u = (2 * m_plus - n) / n
    if not (_close(rep["descriptor"]["tau_u"][0], tau_u, 1e-9)
            and _close(rep["descriptor"]["tau_u"][1], 0.0, 1e-9)):
        p.append(f"tau_u {rep['descriptor']['tau_u']} vs realized {tau_u}")
    steps = rep["steps"]
    if [s["n"] for s in steps] != list(range(1, n_max + 1)):
        p.append(f"rows {[s['n'] for s in steps]}, expected 1..{n_max}")
    taus = recursion(tau_u, n_max)
    for s in steps:
        if s["source"] != "matrix":
            p.append(f"n={s['n']}: source {s['source']!r}")
        if 1 <= s["n"] <= n_max and not _close(s["trace"], taus[s["n"] - 1], MATRIX_SLACK):
            p.append(f"n={s['n']}: trace {s['trace']} vs recursion {taus[s['n'] - 1]}")
    return p


def svd_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def check_commutator(pair: np.ndarray, value: dict) -> list[str]:
    p = []
    u, v = pair
    eye = np.eye(u.shape[0])
    lu, lv = svd_norm(eye - u), svd_norm(eye - v)
    lc = svd_norm(eye - u @ v @ u.conj().T @ v.conj().T)
    if not lc <= 2.0 * lu * lv:
        p.append(f"SVD norms violate the contraction inequality: {lc} > 2 {lu} {lv}")
    for name, got, exact in (("lhs", value["lhs"], lc), ("rhs", value["rhs"], 2.0 * lu * lv)):
        if not exact * (1.0 - OP_NORM_REL_TOL) <= got <= exact + 1e-9:
            p.append(f"{name} {got} vs SVD {exact}")
    if not _close(value["margin"], value["rhs"] - value["lhs"], 1e-12):
        p.append(f"margin {value['margin']} != rhs - lhs")
    return p


def _haar_models(manifest, workdir, item, out):
    if item["id"] == "freeness":
        return check_freeness(wl.HAAR_N, wl.HAAR_TRIALS, wl.FREENESS_TOL,
                              _load(workdir, _out_path(item)))
    if item["id"] == "dynamics-matrix":
        return check_matrix_dynamics(wl.MATRIX_ALPHA, wl.HAAR_N, wl.MATRIX_N_MAX,
                                     _load(workdir, _out_path(item)))
    return check_commutator(np.load(workdir / "pair.npy"), out["value"])


# -- closure-filter ---------------------------------------------------------------


def dicyclic_ells(order: int) -> list[float]:
    """Sorted ||1 - g|| over Dic_m, order 4m: a^k has eigenvalues e^{+-i pi k/m},
    every j a^k has eigenvalues +-i."""
    m = order // 4
    ells = [2.0 * abs(math.sin(math.pi * k / (2 * m))) for k in range(2 * m)]
    return sorted(ells + [math.sqrt(2.0)] * (2 * m))


def check_filter(doc: dict) -> list[str]:
    """Consistency every closed entry must show at threshold 1/2."""
    p = []
    if doc["closed"] is not True:
        return [f"{doc['entry']}: did not close ({doc.get('non_closure')})"]
    f = doc["filter"]
    order, sub = f["group_order"], f["subgroup_indices"]
    if len(f["element_ells"]) != order:
        p.append(f"{doc['entry']}: {len(f['element_ells'])} lengths for order {order}")
    if f["subgroup_order"] != len(sub) or not sub or order % len(sub):
        p.append(f"{doc['entry']}: subgroup order {f['subgroup_order']} vs group order {order}")
    short = {i for i, ell in enumerate(f["element_ells"]) if ell < f["threshold"]}
    if not short <= set(sub):
        p.append(f"{doc['entry']}: short elements missing from the subgroup")
    if not (f["is_abelian"] is True and f["is_normal"] is True):
        p.append(f"{doc['entry']}: filter abelian={f['is_abelian']} normal={f['is_normal']}")
    if f["threshold"] != FILTER_THRESHOLD:
        p.append(f"{doc['entry']}: threshold {f['threshold']}")
    return p


def check_dicyclic(order: int, doc: dict) -> list[str]:
    p = check_filter(doc)
    if p:
        return p
    f = doc["filter"]
    if f["group_order"] != order:
        p.append(f"{doc['entry']}: order {f['group_order']} != {order}")
    if f["subgroup_order"] != order // 2:
        p.append(f"{doc['entry']}: filter subgroup order {f['subgroup_order']} != {order // 2}")
    expected = dicyclic_ells(order)
    got = sorted(f["element_ells"])
    if len(got) != len(expected) or any(not _close(a, b, 1e-9) for a, b in zip(got, expected)):
        p.append(f"{doc['entry']}: element lengths differ from the eigenvalue formula")
    return p


def _zassenhaus_reports(directory: Path, expected: dict[str, int]):
    """The per-entry reports of one zassenhaus run, and missing or misnamed ones."""
    docs = {path.stem: json.loads(path.read_text()) for path in sorted(directory.glob("*.json"))}
    p = [f"missing report for {name}" for name in expected if name not in docs]
    p += [f"{name}: entry field {doc['entry']!r}" for name, doc in docs.items()
          if doc["entry"] != name]
    return docs, p


def check_generated(directory: Path, orders: dict[str, int]) -> list[str]:
    docs, p = _zassenhaus_reports(directory, orders)
    for name, doc in docs.items():
        p += check_dicyclic(orders[name], doc) if name in orders else [f"unexpected report {name}"]
    return p


def check_bundled(directory: Path) -> list[str]:
    docs, p = _zassenhaus_reports(directory, BUNDLED_ORDERS)
    for name, doc in docs.items():
        found = check_filter(doc)
        if not found and name in BUNDLED_ORDERS:
            order = doc["filter"]["group_order"]
            if order != BUNDLED_ORDERS[name]:
                found.append(f"{name}: order {order} != {BUNDLED_ORDERS[name]}")
        p += found
    return p


def check_rotation_closure(value: dict) -> list[str]:
    if value.get("type") != "NonClosure" or value.get("reason") != "near_identity":
        return [f"expected a near_identity NonClosure, got {value}"]
    p = []
    w = np.array([[complex(re, im) for re, im in row] for row in value["element"]])
    if w.shape != (2, 2):
        return [f"witness shape {w.shape}"]
    if svd_norm(w.conj().T @ w - np.eye(2)) > 1e-8 or abs(np.linalg.det(w) - 1.0) > 1e-8:
        p.append("witness is not in SU(2)")
    ell = svd_norm(np.eye(2) - w)
    if not MERGE_EPS < ell <= NEAR_IDENTITY_BAND:
        p.append(f"witness ||1 - W|| = {ell} outside ({MERGE_EPS}, {NEAR_IDENTITY_BAND}]")
    if not _close(value["ell"], ell, 1e-9):
        p.append(f"reported ell {value['ell']} vs SVD {ell}")
    if not value["elements_found"] >= 1:
        p.append(f"elements_found {value['elements_found']}")
    return p


def _closure_filter(manifest, workdir, item, out):
    if item["id"] == "zassenhaus-generated":
        orders = {f"dicyclic{order}": order for order in manifest["orders"]}
        return check_generated(workdir / _out_path(item), orders)
    if item["id"] == "zassenhaus-bundled":
        return check_bundled(workdir / _out_path(item))
    return check_rotation_closure(out["value"])


# -- mixed-scan -------------------------------------------------------------------


class TableGroup:
    """The benchmark's own evaluator over a flattened multiplication table."""

    def __init__(self, doc: dict):
        n = self.order = doc["order"]
        flat = doc["table"]
        self.t = [flat[i * n:(i + 1) * n] for i in range(n)]
        self.labels = list(doc["labels"])
        self.index = {label: i for i, label in enumerate(self.labels)}
        if len(self.index) != n or len(flat) != n * n:
            raise ValueError("group document is inconsistent")
        full = list(range(n))
        if any(sorted(row) != full for row in self.t) or any(
            sorted(self.t[i][j] for i in range(n)) != full for j in range(n)
        ):
            raise ValueError("table is not a Latin square")
        self.e = next(e for e in range(n) if self.t[e] == full)
        self.inv = [self.t[a].index(self.e) for a in range(n)]
        t = self.t
        if any(t[t[a][b]][c] != t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)):
            raise ValueError("table is not associative")

    def power(self, g: int, e: int) -> int:
        if e < 0:
            g, e = self.inv[g], -e
        out = self.e
        for _ in range(e):
            out = self.t[out][g]
        return out

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.e:
            x, k = self.t[x][g], k + 1
        return k

    def evaluate(self, coeffs, exps, g: int) -> int:
        out = coeffs[0]
        for e, c in zip(exps, coeffs[1:]):
            out = self.t[self.t[out][self.power(g, e)]][c]
        return out

    def is_identity(self, coeffs, exps) -> bool:
        return all(self.evaluate(coeffs, exps, g) == self.e for g in range(self.order))

    def parse(self, literal: str) -> tuple[list[int], list[int]]:
        parts = literal.split(" . ")
        coeffs = [self.index[s] for s in parts[0::2]]
        exps = [int(s[2:]) for s in parts[1::2] if s.startswith("t^")]
        if len(exps) != len(parts) // 2 or len(coeffs) != len(exps) + 1:
            raise ValueError(f"malformed word {literal!r}")
        return coeffs, exps

    def literal(self, coeffs, exps) -> str:
        return wl.word_literal(self.labels, coeffs, exps)


def words_in_window(n: int, depth: int, exp_bound: int) -> int:
    """Normal-form words with 1..depth t-powers: (2e)^k |G|^2 (|G| - 1)^(k - 1)."""
    return sum((2 * exp_bound) ** k * n * n * (n - 1) ** (k - 1) for k in range(1, depth + 1))


def identity_words(g: TableGroup, depth: int, exp_bound: int) -> set[str]:
    """All mixed identities in the window, by structure instead of search.

    g0 X(t) gk with X(t) = t^e1 g1 ... g_{k-1} t^ek is an identity iff X is
    constant on G, and then gk = (g0 X)^-1 for each of the |G| choices of g0.
    """
    exp_values = [s * m for m in range(1, exp_bound + 1) for s in (1, -1)]
    nontrivial = [x for x in range(g.order) if x != g.e]
    found = set()
    for k in range(1, depth + 1):
        for exps in itertools.product(exp_values, repeat=k):
            for interior in itertools.product(nontrivial, repeat=k - 1):
                coeffs = (g.e, *interior, g.e)
                values = {g.evaluate(coeffs, exps, x) for x in range(g.order)}
                if len(values) != 1:
                    continue
                (x,) = values
                for g0 in range(g.order):
                    gk = g.inv[g.t[g0][x]]
                    found.add(g.literal((g0, *interior, gk), exps))
    return found


def check_mif(name: str, depth: int, exp_bound: int, words: list[str], g: TableGroup,
              doc: dict, seed: int) -> list[str]:
    p = []
    stats = Counter(g.element_order(x) for x in range(g.order))
    if dict(stats) != ORDER_STATS[name]:
        p.append(f"{name}: element orders {dict(stats)} do not match the group")
    exponent = math.lcm(*stats)
    if (doc["group"]["order"], doc["group"]["exponent"]) != (g.order, exponent):
        p.append(f"{name}: group block {doc['group']} vs order {g.order}, exponent {exponent}")
    if doc["exponent_word"]["is_identity"] is not True:
        p.append(f"{name}: exponent word is not an identity")
    scan = doc["scan"]
    expected = words_in_window(g.order, depth, exp_bound)
    if scan["checked"] != expected:
        p.append(f"{name}: checked {scan['checked']} words, expected {expected}")
    reported = scan["identities"]
    if len(set(reported)) != len(reported):
        p.append(f"{name}: duplicate identities reported")
    truth = identity_words(g, depth, exp_bound)
    if set(reported) != truth:
        p.append(f"{name}: {len(truth - set(reported))} identities missing, "
                 f"{len(set(reported) - truth)} reported wrongly")
    if scan["identity_found"] is not bool(reported):
        p.append(f"{name}: identity_found disagrees with the list")

    # direct re-verification of seeded window words, identities or not
    rng = random.Random(f"mixed-sample:{seed}:{name}")
    reported_set = set(reported)
    exp_values = [s * m for m in range(1, exp_bound + 1) for s in (1, -1)]
    nontrivial = [x for x in range(g.order) if x != g.e]
    for _ in range(MIXED_SAMPLE):
        k = rng.randint(1, depth)
        exps = [rng.choice(exp_values) for _ in range(k)]
        coeffs = [rng.randrange(g.order)] + [rng.choice(nontrivial) for _ in range(k - 1)]
        coeffs.append(rng.randrange(g.order))
        literal = g.literal(coeffs, exps)
        if g.is_identity(coeffs, exps) != (literal in reported_set):
            p.append(f"{name}: sampled word {literal!r} misclassified")

    checks = doc["word_checks"]
    if [c["word"] for c in checks] != words:
        p.append(f"{name}: word checks {[c['word'] for c in checks]} != inputs {words}")
    for c in checks:
        coeffs, exps = g.parse(c["word"])
        own = g.is_identity(coeffs, exps)
        if c["is_identity"] is not own:
            p.append(f"{name}: {c['word']!r} is_identity={c['is_identity']}, evaluator says {own}")
        elif not own:
            w = g.index[c["witness"]]
            value = g.evaluate(coeffs, exps, w)
            if value == g.e or g.labels[value] != c["value"]:
                p.append(f"{name}: witness {c['witness']} of {c['word']!r} does not hold")
    return p


def _mixed_scan(manifest, workdir, item, out):
    argv = item["argv"]
    name = argv[argv.index("--group-name") + 1]
    depth = int(argv[argv.index("--depth") + 1])
    exp_bound = int(argv[argv.index("--exp-bound") + 1])
    words = [a.split("=", 1)[1] for a in argv if a.startswith("--word=")]
    g = TableGroup(_load(workdir, f"groups/{name}.json"))
    return check_mif(name, depth, exp_bound, words, g, _load(workdir, _out_path(item)),
                     manifest["seed"])


#: part -> checker of one of its items
CHECKERS = {
    "exact-decay": _exact_decay,
    "haar-models": _haar_models,
    "closure-filter": _closure_filter,
    "mixed-scan": _mixed_scan,
}
