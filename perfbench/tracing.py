"""Spans taken from outside the library.

``Tracer.install`` wraps public functions of the layers from this file: for
each traced name it replaces every binding of the original function object
in every loaded ``freecomm`` module, because ``cli`` and ``dynamics`` import
names such as ``sample_haar`` and ``multiply`` at import time and call them
through their own namespace.  A name a refactor removed is recorded as
absent instead of failing the run.

Spans stay in memory (name, start, end, parent, item) until ``dump``.  A
span's self time is its duration minus the part of it that child spans
cover.  Counters computed from a call's arguments or result run after the
span closes, inside a ``trace.hook`` span, so their cost is charged to the
tracing overhead and not to the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

HOOK = "trace.hook"
ITEM = "item"


def _multiply_hook(counters, args, kwargs, result):
    a, b = args[0], args[1]
    counters["algebra.multiply.pairs"] += a.support_size * b.support_size
    counters["algebra.multiply.out_support"] += result.support_size


def _decay_exact_hook(counters, args, kwargs, result):
    for step in result.steps:
        if step.source.startswith("exact"):
            counters["dynamics.exact_rows"] += 1
        elif step.source == "recursion":
            counters["dynamics.recursion_rows"] += 1


def _op_norm_hook(counters, args, kwargs, result):
    a = np.asarray(getattr(args[0], "array", args[0]), dtype=complex)
    exact = float(np.linalg.svd(a, compute_uv=False)[0])
    key = "matrices.op_norm.err_vs_svd_max"
    counters[key] = max(counters[key], abs(float(result) - exact))


def _closure_hook(counters, args, kwargs, result):
    if not hasattr(result, "table"):
        return  # a NonClosure witness
    n, g = result.order, len(result.generator_indices)
    counters["discrete.group_closure.elements"] += n
    # BFS finds (n elements x 2g steps), Cayley-table finds (n^2), and one
    # find per generator
    counters["discrete.group_closure.lookups_computed"] += n * (2 * g + n) + g


def _scan_hook(counters, args, kwargs, result):
    counters["mixed.words_checked"] += result["checked"]
    counters["mixed.identities_found"] += len(result["identities"])


def _emit_hook(counters, args, kwargs, result):
    counters["reporting.emit_json.bytes"] += len(result)


#: (span name, module, attribute, counter hook)
TRACED = (
    ("cli.main", "freecomm.cli", "main", None),
    ("algebra.multiply", "freecomm.algebra", "multiply", _multiply_hook),
    ("algebra.star", "freecomm.algebra", "star", None),
    ("algebra.is_unitary", "freecomm.algebra", "is_unitary", None),
    ("dynamics.decay_curve_exact", "freecomm.dynamics", "decay_curve_exact", _decay_exact_hook),
    ("dynamics.decay_curve_matrix", "freecomm.dynamics", "decay_curve_matrix", None),
    ("matrices.sample_haar", "freecomm.matrices", "sample_haar", None),
    ("matrices.unitary_with_trace", "freecomm.matrices", "unitary_with_trace", None),
    ("matrices.unitarity_defect", "freecomm.matrices", "unitarity_defect", None),
    ("matrices.freeness_report", "freecomm.matrices", "freeness_report", None),
    ("matrices.op_norm", "freecomm.matrices", "op_norm", _op_norm_hook),
    ("discrete.commutator_ineq_check", "freecomm.discrete", "commutator_ineq_check", None),
    ("discrete.group_closure", "freecomm.discrete", "group_closure", _closure_hook),
    ("discrete.gamma_filter", "freecomm.discrete", "gamma_filter", None),
    ("mixed.mixed_identity_scan", "freecomm.mixed", "mixed_identity_scan", _scan_hook),
    ("reporting.emit_json", "freecomm.reporting", "emit_json", _emit_hook),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self._stack: list[int] = []
        self.item: str | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.hook_errors: list[str] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def run_item(self, item_id: str, fn, *args):
        """Call ``fn`` as one item, inside a top-level ``item`` span."""
        self.item = item_id
        sid = self._open(ITEM)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self.item = None

    def wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hid = tracer._open(HOOK)
                try:
                    hook(tracer.counters, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    tracer.hook_errors.append(f"{name}: {exc!r}")
                finally:
                    tracer._close(hid)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "freecomm" or k.startswith("freecomm."))]
        for name, module_name, attr, hook in TRACED:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "absent": self.absent,
            "hook_errors": self.hook_errors,
        }


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _item in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, (_name, start, end, _parent, _item) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per traced name: ``<name>.calls`` and ``<name>.self_s``; plus counters."""
    spans = trace["spans"]
    metrics: dict[str, float] = defaultdict(float)
    for name, *_ in TRACED:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        if name in (ITEM, HOOK):
            continue
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += own
    metrics.update(trace["counters"])
    scan_s = metrics["mixed.mixed_identity_scan.self_s"]
    metrics["mixed.words_per_s"] = metrics["mixed.words_checked"] / scan_s if scan_s else 0.0
    return dict(metrics)


def layer_shares(trace: dict, items=None) -> dict[str, float]:
    """Per traced name, its self time as a share of the time of ``items``
    (every item when None)."""
    spans = trace["spans"]
    own: dict[str, float] = defaultdict(float)
    total = 0.0
    for span, t in zip(spans, self_times(spans)):
        if items is not None and span[4] not in items:
            continue
        if span[0] == ITEM:
            total += span[2] - span[1]
        elif span[0] != HOOK:
            own[span[0]] += t
    return {name: (own[name] / total if total else 0.0) for name, *_ in TRACED}
