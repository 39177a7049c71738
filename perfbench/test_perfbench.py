"""Tests of the benchmark's own pieces: generator, oracle, span arithmetic
and argv construction.  Run with the repository's test command; they import
pegboard from src/ like the rest of the suite."""

from __future__ import annotations

import math

import pytest

import bench_oracle
import bench_trace
import bench_workloads as wl
from pegboard.cli import build_parser
from pegboard.curves import build_zoo, lspace_staircase, staircase_exponents
from pegboard.pairing import SlopeSpec, surgery_dim


def test_generator_is_deterministic_for_a_fixed_seed():
    assert wl.draw_pool(7) == wl.draw_pool(7)
    for workload in wl.WORKLOADS:
        assert wl.workload_ops(workload, 7) == wl.workload_ops(workload, 7)
    assert wl.workload_ops("fill", 7) != wl.workload_ops("fill", 8)


def test_generated_staircases_are_staircase_polynomials():
    for seed in range(5):
        for spec in wl.draw_pool(seed):
            if spec.kind == "staircase":
                assert tuple(staircase_exponents(wl.alexander(spec.exponents))) == spec.exponents
                assert lspace_staircase(wl.alexander(spec.exponents)).components


@pytest.mark.parametrize("name", sorted(wl.ZOO_STAIRCASES))
def test_oracle_reproduces_zoo_surgery_dims(name):
    d = build_zoo(name)
    genus = wl.ZOO_STAIRCASES[name][0]
    for p in range(1, 7):
        for q in (1, 2):
            if math.gcd(p, q) == 1:
                want = bench_oracle.staircase_filling_dim(genus, p, q)
                assert surgery_dim(d, SlopeSpec(p, q)) == want, (name, p, q)


def test_self_time_of_a_synthetic_nested_call():
    # root [0, 10] calls a [1, 4] and b [5, 8]; a calls c [2, 3]; b has two
    # children that overlap each other, [5.5, 6.5] and [6, 7].
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 5.0, 8.0, 0, 0),
        ("c", 5.5, 6.5, 3, 0),
        ("c", 6.0, 7.0, 3, 0),
    ]
    got = bench_trace.self_times(spans)
    assert got == pytest.approx({"root": 4.0, "a": 2.0, "b": 1.5, "c": 3.0})


def test_tracer_records_nested_spans():
    tracer = bench_trace.Tracer()
    inner = tracer._wrap(1, lambda x: x + 1, None)
    outer = tracer._wrap(0, lambda x: inner(x) * 2, None)
    assert outer(3) == 8
    spans = tracer.spans()
    assert [(s[0], s[3]) for s in spans] == [
        (bench_trace.SPAN_NAMES[0], -1), (bench_trace.SPAN_NAMES[1], 0)]
    outer_span, inner_span = spans
    assert outer_span[1] <= inner_span[1] <= inner_span[2] <= outer_span[2]


def test_halvings_counts_whole_halvings_only():
    from fractions import Fraction

    assert bench_trace._halvings(Fraction(1, 8), Fraction(1, 64)) == 3
    with pytest.raises(ValueError):
        bench_trace._halvings(Fraction(1, 8), Fraction(1, 24))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_generated_argv_parses(workload):
    parser = build_parser()
    for seed in (0, 1):
        for op in wl.workload_ops(workload, seed):
            args = parser.parse_args(list(op.argv))
            assert args.command == op.command
            assert args.knot == op.spec.selector
            assert args.format == "json"
            if op.command == "pair":
                assert args.slopes == [f"{op.slope[0]}/{op.slope[1]}"]
            elif op.slope is not None:
                assert args.slope == f"{op.slope[0]}/{op.slope[1]}"
            if op.grid is not None:
                assert (args.pmax, args.qmax) == op.grid
