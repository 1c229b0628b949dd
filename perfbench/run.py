"""freecomm benchmark driver.

    python3 perfbench/run.py --workload exact-words --seed 1 --seconds 60 --trace 0

Each pass is a fresh child process (``child.py``) with one caller that
issues the workload's items back to back: a closed loop with one client.
The parent first starts a few set-up-only children (warm-up and set-up
samples), then repeats passes while another one fits in ``--seconds``, checks
every pass's outputs by independent routes (``checks.py``, untimed), and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (medians over passes); with ``--trace 1`` each unit is an
untraced pass followed by a traced one, their reports must be
byte-identical, and the metrics are the per-layer ones.

BLAS is pinned to one thread in the child's environment: on a 2-core box
one thread was both faster and steadier for the Haar sampler.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: setup-only children started before the first pass: warm-up and set-up samples
SETUP_WARMUP = 8
#: after the last pass, setup-only children top the set-up samples up to this count
SETUP_SAMPLES = 41
#: a run must end within 180 s; no child may outlive this many seconds of it
RUN_DEADLINE_S = 165.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Pass:
    """One child process and what it left in its working directory."""

    def __init__(self, workload: str, seed: int, trace: bool, setup_only: bool, deadline: float):
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
                "--seed", str(seed), "--trace", str(int(trace))]
        if setup_only:
            argv.append("--setup-only")
        log = self.workdir / "child.log"
        with log.open("wb") as fh:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=child_env(),
                                    stdout=fh, stderr=subprocess.STDOUT)
            try:
                self.returncode = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                self.returncode = None
        result_path = self.workdir / "result.json"
        self.result = json.loads(result_path.read_text()) if result_path.exists() else None
        self.setup_s = self.result["setup_done"] - spawned if self.result else None
        if self.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"child exited with {self.returncode}:\n{tail}", file=sys.stderr)

    def remove(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_checked(workload: str, seed: int, trace: bool, deadline: float):
    """Run one full pass and check it; returns (pass, manifest, problems per item)."""
    import checks

    p = Pass(workload, seed, trace, setup_only=False, deadline=deadline)
    manifest = json.loads((p.workdir / "inputs.json").read_text()) \
        if (p.workdir / "inputs.json").exists() else None
    if manifest is None:
        return p, None, {"<setup>": ["child produced no inputs"]}
    outcomes = p.result["items"] if p.result and "items" in p.result else {}
    return p, manifest, checks.check_pass(manifest, p.workdir, outcomes)


def report_files(workdir: Path) -> list[Path]:
    return sorted(q.relative_to(workdir) for q in (workdir / "out").rglob("*") if q.is_file())


def identical_reports(a: Pass, b: Pass) -> list[str]:
    """Differences between the report files and API values of two passes."""
    files_a, files_b = report_files(a.workdir), report_files(b.workdir)
    if files_a != files_b:
        return [f"report files differ: {files_a} vs {files_b}"]
    diff = [str(f) for f in files_a
            if not filecmp.cmp(a.workdir / f, b.workdir / f, shallow=False)]
    values_a = {k: v.get("value") for k, v in a.result["items"].items()}
    values_b = {k: v.get("value") for k, v in b.result["items"].items()}
    if values_a != values_b:
        diff.append("API return values")
    return [f"traced and untraced passes differ in {d}" for d in diff]


def machine_facts(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # numpy without mode="dicts"
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "child_env": BLAS_ENV,
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def traced_metrics(spec: dict, plain_passes: list, traced_passes: list, manifest: dict) -> dict:
    """Per-layer metrics (medians over traced passes); writes the trace record."""
    import tracing
    import workloads

    per_pass = []
    for plain, tp in zip(plain_passes, traced_passes):
        m = tracing.layer_metrics(tp.result["trace"])
        m["process.cpu_s"] = plain.result["cpu_s"]
        m["trace.overhead_s"] = tp.result["run_s"] - plain.result["run_s"]
        per_pass.append(m)
    metrics = {m["name"]: {"value": statistics.median(p.get(m["name"], 0) for p in per_pass),
                           "unit": m["unit"]} for m in spec["per_layer"]}
    last = traced_passes[-1].result["trace"]
    parts = {}
    for part in workloads.WORKLOADS[manifest["workload"]]:
        shares = tracing.layer_shares(last, {i["id"] for i in manifest["items"] if i["part"] == part})
        dominant = max(shares, key=shares.get)
        parts[part] = {
            "dominant_layer": dominant,
            "dominant_share_of_item_time": shares[dominant],
            "algebra_share_of_item_time": sum(v for k, v in shares.items()
                                              if k.startswith("algebra.")),
        }
    summary = {"parts": parts, "absent": last["absent"], "hook_errors": last["hook_errors"]}
    trace_path = OUT / f"trace-{manifest['workload']}-seed{manifest['seed']}.json"
    trace_path.write_text(json.dumps(summary | {"spans": last["spans"]}))
    print("trace: " + json.dumps(summary | {"file": str(trace_path.relative_to(ROOT))}))
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "freecomm" / "__init__.py").is_file():
        print(f"error: no freecomm package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads, so the checks run single-threaded too
    import checks

    OUT.mkdir(exist_ok=True)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    traced = bool(args.trace)
    attempted = failed = 0
    problems_seen: list[str] = []
    plain_passes: list[Pass] = []
    traced_passes: list[Pass] = []

    def account(problems: dict) -> None:
        nonlocal attempted, failed
        n_items, n_failed = checks.tally(problems)
        attempted += n_items
        failed += n_failed
        problems_seen.extend(f"{i}: {x}" for i, found in problems.items() for x in found)

    setups: list[float] = []

    def setup_sample() -> None:
        extra = Pass(args.workload, args.seed, False, setup_only=True, deadline=deadline)
        if extra.setup_s is not None:
            setups.append(extra.setup_s)
        extra.remove()

    # set-up takes ~0.2 s, so its median needs many more samples than the passes give
    for _ in range(SETUP_WARMUP):
        setup_sample()
    slowest_unit = 0.0
    while True:
        unit_start = time.monotonic()
        plain, _, problems = run_checked(args.workload, args.seed, False, deadline)
        account(problems)
        plain_passes.append(plain)
        if traced:
            tp, manifest, problems = run_checked(args.workload, args.seed, True, deadline)
            # tracing must change no behaviour: differing reports fail every item
            diffs = identical_reports(plain, tp) if manifest and tp.result and plain.result else []
            for found in problems.values():
                found.extend(diffs)
            account(problems)
            traced_passes.append(tp)
        slowest_unit = max(slowest_unit, time.monotonic() - unit_start)
        if time.monotonic() + slowest_unit > min(started + args.seconds, deadline):
            break

    setups += [p.setup_s for p in plain_passes + traced_passes if p.setup_s is not None]
    while len(setups) < SETUP_SAMPLES and time.monotonic() - started < args.seconds \
            and time.monotonic() + 10.0 < deadline:
        setup_sample()

    runs = [p for p in plain_passes if p.result and "run_s" in p.result]
    complete = len(runs) == len(plain_passes) and (
        not traced or all(p.result and "trace" in p.result for p in traced_passes))
    correct = failed == 0 and complete and bool(setups)
    if traced and complete:
        metrics = traced_metrics(spec, plain_passes, traced_passes, manifest)
    elif not traced and complete:
        samples = {
            "setup_s": setups,
            "run_s": [p.result["run_s"] for p in runs],
            "peak_rss_mb": [p.result["peak_rss_mb"] for p in runs],
        }
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        metrics = {}
    for p in plain_passes + traced_passes:
        p.remove()

    record = {
        "facts": machine_facts(args.workload, args.seed),
        "passes": len(plain_passes),
        "run_s": [p.result["run_s"] for p in runs],
        "setup_s": setups,
        "problems": problems_seen[:50],
        "wall_s": time.monotonic() - started,
    }
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for line in problems_seen[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
