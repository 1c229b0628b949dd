"""The benchmark tracer's targets exist in the library.

``perfbench/tracing.py`` records a traced name that it cannot find as
absent instead of failing, so a renamed function or attribute would drop a
per-layer span silently.  These tests only read ``perfbench/``.
"""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np

from freecomm.algebra import free_pair, multiply, star
from freecomm.catalog import quaternion_generators
from freecomm.discrete import group_closure

from oracles import toeplitz_multiply

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for span, module_name, attr, _hook in _tracing().TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_closure_hook_reads_a_closed_group():
    hook = next(h for name, _m, _a, h in _tracing().TRACED if name == "discrete.group_closure")
    counters = defaultdict(float)
    mg = group_closure(list(quaternion_generators()))
    assert (len(mg.table), mg.order, len(mg.generator_indices)) == (8, 8, 2)
    hook(counters, (), {}, mg)
    assert counters["discrete.group_closure.elements"] == 8
    assert counters["discrete.group_closure.lookups_computed"] > 0
    # a non-closure witness is skipped
    counters.clear()
    hook(counters, (), {}, group_closure([np.array([[np.exp(1j)]])], cap=50))
    assert not counters


def test_multiply_hook_reads_an_exact_product():
    hook = next(h for name, _m, _a, h in _tracing().TRACED if name == "algebra.multiply")
    counters = defaultdict(float)
    u, v = free_pair()
    one = multiply(u, star(u))  # 2 x 2 pairs collect into the empty word
    assert (u.support_size, one.support_size) == (2, 1) and one.is_one()
    hook(counters, (u, star(u)), {}, one)
    assert counters["algebra.multiply.pairs"] == 4
    assert counters["algebra.multiply.out_support"] == 1
    # many words by 2, the 2-word operand the one the convolution runs
    # over: the counters still read every pair and the collected support
    counters.clear()
    many = multiply(multiply(u, v), multiply(star(u), star(v)))
    prod = multiply(many, v)
    assert many.support_size > 2 and v.support_size == 2
    hook(counters, (many, v), {}, prod)
    assert counters["algebra.multiply.pairs"] == many.support_size * 2
    assert counters["algebra.multiply.out_support"] == toeplitz_multiply(many, v).support_size
