"""The benchmark's tracer must find every pegboard function it wraps.

`perfbench/bench_trace.py` looks each traced function up by module and
name, so renaming one in pegboard breaks traced benchmark runs.  Installing
and removing the tracer here turns such a rename into a test failure.

The tracer also counts offset halvings against its own copy of the
canonical offset, so that copy must agree with `pairing._canonical_delta`:
a drift would show only as a `_halvings` ValueError in a traced run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import pegboard.cli  # noqa: F401  (loads every traced module)
from pegboard.curves import build_zoo, lspace_staircase, thin, zoo_names
from pegboard.pairing import _canonical_delta
from test_oracle import staircase_polynomials


def load_bench_trace():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace_guard", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_functions(bench_trace):
    out = {}
    for span in bench_trace.SPAN_NAMES:
        mod, name = span.split(".")
        out[span] = getattr(sys.modules[f"pegboard.{mod}"], name)
    return out


def test_tracer_wraps_and_restores_every_traced_function():
    bench_trace = load_bench_trace()
    originals = traced_functions(bench_trace)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        wrapped = traced_functions(bench_trace)
    finally:
        tracer.uninstall()
    for span, fn in originals.items():
        assert wrapped[span] is not fn, span
    assert traced_functions(bench_trace) == originals


@pytest.fixture(scope="module")
def bench_trace():
    return load_bench_trace()


def test_tracer_offset_matches_the_kernel_on_zoo_and_thin_diagrams(bench_trace):
    diagrams = [build_zoo(name) for name in zoo_names()]
    diagrams += [thin(tau, f) for tau in range(-3, 4) for f in range(4)]
    for d in diagrams:
        assert bench_trace.canonical_delta(d) == _canonical_delta(d), d.source


@settings(max_examples=30, deadline=None)
@given(staircase_polynomials())
def test_tracer_offset_matches_the_kernel_on_staircases(bench_trace, alexander):
    d = lspace_staircase(alexander)
    assert bench_trace.canonical_delta(d) == _canonical_delta(d)
