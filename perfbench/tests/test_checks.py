"""Checker self-tests: every checker accepts a real pass of its workload and
counts a deliberately corrupted copy of a real report as a failed item.

    python3 -m pytest perfbench/tests -q

Runs one real pass of each workload first (about 30 s on a 2-core box).
Corruptions are named by workload part; ``PART_OF`` finds the workload.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
PART_OF = {part: w for w, parts in workloads.WORKLOADS.items() for part in parts}


@pytest.fixture(scope="module")
def real():
    """workload -> (workdir, manifest, outcomes, problems) of one real pass."""
    run.OUT.mkdir(exist_ok=True)
    passes, out = [], {}
    for workload in workloads.WORKLOADS:
        p, manifest, problems = run.run_checked(workload, SEED, False, time.monotonic() + 170)
        passes.append(p)
        out[workload] = (p.workdir, manifest, p.result["items"], problems)
    yield out
    for p in passes:
        p.remove()


@pytest.fixture
def corrupt(real):
    """Copy a real pass, let the test edit the copy, and return its tally."""
    copies = []

    def apply(part, edit):
        workdir, manifest, outcomes, _ = real[PART_OF[part]]
        copy = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
        shutil.copytree(workdir, copy, dirs_exist_ok=True)
        copies.append(copy)
        outcomes = json.loads(json.dumps(outcomes))
        edit(copy, outcomes)
        problems = checks.check_pass(manifest, copy, outcomes)
        return problems, checks.tally(problems)

    yield apply
    for c in copies:
        shutil.rmtree(c, ignore_errors=True)


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_real_pass_has_no_failed_item(real, workload):
    _, manifest, _, problems = real[workload]
    attempted, failed = checks.tally(problems)
    assert attempted == len(manifest["items"])
    assert failed == 0, problems


CORRUPTIONS = {
    # exact-decay
    "trace-perturbed-1e-6": ("exact-decay", "dynamics-0", lambda d, o: edit_json(
        d / "out/dynamics-0.json",
        lambda doc: doc["report"]["steps"][1].update(trace=doc["report"]["steps"][1]["trace"] + 1e-6))),
    "row-n3-relabelled-recursion": ("exact-decay", "dynamics-1", lambda d, o: edit_json(
        d / "out/dynamics-1.json",
        lambda doc: doc["report"]["steps"][2].update(source="recursion"))),
    "bounds-flag-false": ("exact-decay", "dynamics-2", lambda d, o: edit_json(
        d / "out/dynamics-2.json", lambda doc: doc["report"].update(all_in_bounds=False))),
    "identity-lhs-off-closed-form": ("exact-decay", "verify-identity", lambda d, o: edit_json(
        d / "out/verify-identity.json",
        lambda doc: doc["results"][3]["lhs"].__setitem__(0, doc["results"][3]["lhs"][0] + 1e-11))),
    "nonzero-exit": ("exact-decay", "dynamics-3", lambda d, o: o["dynamics-3"].update(code=1)),
    # haar-models
    "freeness-d1-perturbed": ("haar-models", "freeness", lambda d, o: edit_json(
        d / "out/freeness.json",
        lambda doc: doc["results"][1].update(d1=doc["results"][1]["d1"] + 1e-6))),
    "freeness-dim-wrong": ("haar-models", "freeness", lambda d, o: edit_json(
        d / "out/freeness.json", lambda doc: doc["results"][0].update(dim=256))),
    "matrix-row-off-recursion": ("haar-models", "dynamics-matrix", lambda d, o: edit_json(
        d / "out/dynamics-matrix.json",
        lambda doc: doc["report"]["steps"][3].update(trace=doc["report"]["steps"][3]["trace"] - 0.06))),
    "commutator-lhs-above-svd": ("haar-models", "commutator", lambda d, o: o["commutator"]["value"].update(
        lhs=o["commutator"]["value"]["lhs"] + 1e-3,
        margin=o["commutator"]["value"]["margin"] - 1e-3)),
    "item-raised": ("haar-models", "commutator",
                    lambda d, o: o["commutator"].update(error="ValueError: boom")),
    # closure-filter
    "dicyclic-not-abelian": ("closure-filter", "zassenhaus-generated", lambda d, o: edit_json(
        d / "out/zassenhaus-generated/dicyclic240.json",
        lambda doc: doc["filter"].update(is_abelian=False))),
    "dicyclic-subgroup-order": ("closure-filter", "zassenhaus-generated", lambda d, o: edit_json(
        d / "out/zassenhaus-generated/dicyclic120.json",
        lambda doc: doc["filter"].update(subgroup_order=30,
                                         subgroup_indices=doc["filter"]["subgroup_indices"][:30]))),
    "dicyclic-length-perturbed": ("closure-filter", "zassenhaus-generated", lambda d, o: edit_json(
        d / "out/zassenhaus-generated/dicyclic320.json",
        lambda doc: doc["filter"]["element_ells"].__setitem__(5, doc["filter"]["element_ells"][5] + 1e-6))),
    "bundled-entry-missing": ("closure-filter", "zassenhaus-bundled",
                              lambda d, o: (d / "out/zassenhaus-bundled/pauli_u2.json").unlink()),
    "bundled-order-wrong": ("closure-filter", "zassenhaus-bundled", lambda d, o: edit_json(
        d / "out/zassenhaus-bundled/cyclic13_u1.json",
        lambda doc: doc["filter"].update(group_order=12, element_ells=doc["filter"]["element_ells"][:12]))),
    "witness-outside-band": ("closure-filter", "rotation-closure", lambda d, o: o["rotation-closure"]["value"].update(
        element=workloads.to_pairs(np.diag([np.exp(0.03j), np.exp(-0.03j)])), ell=float(abs(1 - np.exp(0.03j))))),
    "witness-merged-with-identity": ("closure-filter", "rotation-closure", lambda d, o: o["rotation-closure"]["value"].update(
        element=workloads.to_pairs(np.eye(2)), ell=0.0)),
    # mixed-scan
    "identity-dropped": ("mixed-scan", "mif-quaternion8", lambda d, o: edit_json(
        d / "out/mif-quaternion8.json", lambda doc: doc["scan"]["identities"].pop(7))),
    "non-identity-added": ("mixed-scan", "mif-quaternion8", lambda d, o: edit_json(
        d / "out/mif-quaternion8.json",
        lambda doc: doc["scan"]["identities"].append("i . t^1 . 1"))),
    "checked-count-wrong": ("mixed-scan", "mif-sym3", lambda d, o: edit_json(
        d / "out/mif-sym3.json", lambda doc: doc["scan"].update(checked=doc["scan"]["checked"] - 1))),
    "word-verdict-flipped": ("mixed-scan", "mif-sym3", lambda d, o: edit_json(
        d / "out/mif-sym3.json",
        lambda doc: doc["word_checks"][-1].update(is_identity=not doc["word_checks"][-1]["is_identity"]))),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_report_counts_as_failed(corrupt, name):
    part, item_id, edit = CORRUPTIONS[name]
    problems, (attempted, failed) = corrupt(part, edit)
    assert problems[item_id], f"{name} was not detected"
    assert failed >= 1 and attempted >= failed


def test_witness_band_uses_svd_norm():
    w = np.diag([np.exp(0.003j), np.exp(-0.003j)])
    value = {"type": "NonClosure", "reason": "near_identity", "ell": float(abs(1 - np.exp(0.003j))),
             "elements_found": 5, "element": workloads.to_pairs(w)}
    assert checks.check_rotation_closure(value) == []


def _brute_identities(g, exps):
    found = set()
    for e1 in exps:
        for c0 in range(g.order):
            for c1 in range(g.order):
                if g.is_identity([c0, c1], [e1]):
                    found.add(g.literal([c0, c1], [e1]))
            for e2 in exps:
                for m in range(g.order):
                    for c2 in range(g.order):
                        if m != g.e and g.is_identity([c0, m, c2], [e1, e2]):
                            found.add(g.literal([c0, m, c2], [e1, e2]))
    return found


@pytest.mark.parametrize("perms", [
    [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)],  # Sym(3)
    [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)],  # Z/4
])
def test_identity_words_match_brute_force(perms):
    n = len(perms)
    index = {p: i for i, p in enumerate(perms)}
    table = [index[tuple(p[q[x]] for x in range(len(p)))] for p in perms for q in perms]
    g = checks.TableGroup({"order": n, "labels": [f"x{i}" for i in range(n)], "table": table})
    assert checks.identity_words(g, 2, 2) == _brute_identities(g, [1, -1, 2, -2])
    assert checks.words_in_window(n, 2, 2) == 4 * n * n + 16 * n * n * (n - 1)


def test_tracer_wraps_every_binding_and_records_absent(monkeypatch):
    home = types.ModuleType("freecomm.fake_home")
    user = types.ModuleType("freecomm.fake_user")

    def inner(x):
        return x + 1

    def outer(x):
        return home.inner(x) * 2

    home.inner, home.outer = inner, outer
    user.inner = inner  # a name bound at import, as cli binds sample_haar
    monkeypatch.setitem(sys.modules, "freecomm.fake_home", home)
    monkeypatch.setitem(sys.modules, "freecomm.fake_user", user)
    calls = []
    monkeypatch.setattr(tracing, "TRACED", (
        ("fake.inner", "freecomm.fake_home", "inner", lambda c, a, k, r: calls.append(r)),
        ("fake.outer", "freecomm.fake_home", "outer", None),
        ("fake.removed", "freecomm.fake_home", "no_such_function", None),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.absent == ["fake.removed"]
    assert user.inner is home.inner and user.inner is not inner
    assert tracer.run_item("one", home.outer, 1) == 4
    assert user.inner(1) == 2 and calls == [2, 2]
    names = [s[0] for s in tracer.spans]
    assert names == [tracing.ITEM, "fake.outer", "fake.inner", tracing.HOOK, "fake.inner",
                     tracing.HOOK]
    assert tracer.spans[2][3] == 1 and tracer.spans[1][3] == 0 and tracer.spans[1][4] == "one"


def test_self_time_subtracts_child_coverage():
    spans = [
        ["a", 0.0, 10.0, None, "i"],
        ["b", 1.0, 4.0, 0, "i"],
        ["c", 2.0, 3.0, 1, "i"],
        ["d", 6.0, 7.0, 0, "i"],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_traced_and_untraced_reports_must_be_identical(real):
    workdir, _, outcomes, _ = real["matrix-groups"]
    plain = types.SimpleNamespace(workdir=workdir, result={"items": outcomes})
    copy = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        shutil.copytree(workdir, copy, dirs_exist_ok=True)
        traced = types.SimpleNamespace(workdir=copy, result={"items": json.loads(json.dumps(outcomes))})
        assert run.identical_reports(plain, traced) == []
        report = copy / "out/zassenhaus-bundled/pauli_u2.json"
        report.write_bytes(report.read_bytes() + b" ")
        assert run.identical_reports(plain, traced)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
