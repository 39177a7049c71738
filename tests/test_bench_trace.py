"""The benchmark's tracer must find every pegboard function it wraps.

`perfbench/bench_trace.py` looks each traced function up by module and
name, so renaming one in pegboard breaks traced benchmark runs.  Installing
and removing the tracer here turns such a rename into a test failure.
"""

import importlib.util
import sys
from pathlib import Path

import pegboard.cli  # noqa: F401  (loads every traced module)


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
