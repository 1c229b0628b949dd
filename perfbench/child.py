"""One fresh benchmark process: set up, issue the items back to back, record.

Run by ``run.py`` with the working directory as cwd; writes ``result.json``
there.  Set-up ends once ``freecomm`` is imported and the workload's inputs
are generated; the timed region runs from the first item's call to the last
item's return.  Results of API items are serialised after the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def _serialise(value) -> dict:
    """JSON form of an API item's return value (both are library dataclasses)."""
    if hasattr(value, "margin"):
        return {"type": "CommutatorBound", "lhs": value.lhs, "rhs": value.rhs,
                "margin": value.margin}
    if hasattr(value, "reason"):
        return {"type": "NonClosure", "reason": value.reason, "ell": value.ell,
                "elements_found": value.elements_found,
                "element": workloads.to_pairs(value.element)}
    return {"type": type(value).__name__, "order": getattr(value, "order", None)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import freecomm
    import freecomm.cli

    if SRC not in Path(freecomm.__file__).resolve().parents:
        print(f"freecomm imported from {freecomm.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    workdir = Path.cwd()
    manifest, api_args = workloads.build(args.workload, args.seed, workdir)
    setup_done = time.monotonic()
    result = {"setup_done": setup_done}
    if args.setup_only:
        (workdir / "result.json").write_text(json.dumps(result))
        return 0

    from tracing import Tracer

    tracer = Tracer()
    if args.trace:
        tracer.install()
    outcomes, values = {}, {}
    cpu0 = os.times()
    t0 = time.perf_counter()
    for item in manifest["items"]:
        out = outcomes[item["id"]] = {"code": None, "error": None}
        try:
            if item["kind"] == "cli":
                out["code"] = tracer.run_item(item["id"], freecomm.cli.main, item["argv"])
            else:
                fn = getattr(freecomm, item["call"])
                values[item["id"]] = tracer.run_item(item["id"], fn, *api_args[item["id"]])
                out["code"] = 0
        except SystemExit as exc:  # argparse usage errors
            out["code"] = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an item that raises is a failed item, not a crash
            out["error"] = f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - t0
    cpu1 = os.times()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for item_id, value in values.items():
        outcomes[item_id]["value"] = _serialise(value)
    result.update({
        "run_s": run_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": peak_rss_mb,
        "items": outcomes,
    })
    if args.trace:
        result["trace"] = tracer.dump()
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
