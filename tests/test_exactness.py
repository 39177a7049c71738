"""Exactness rests on the edge: nothing inexact comes in, and the kernel
makes nothing inexact.

`Point` and `Box` hold the values they are given and coerce nothing.  So
the entry points (`rat`, `pt`) must refuse a float, and every number the
kernel hands back must still be exact: each point of the raw
intersections, of the survivors of bigon cancellation and of the
cancelled and the marked bigons holds a crossing record of plain ints,
from which its Fraction coordinates are read.  The kernel builds its
records without their generated constructors, so each point must still be
an `IPoint` and its record a `Crossing`: a bare tuple compares equal to
either, but has no `last_segment` or `precedes`.
"""

import pytest

from pegboard.curves import Crossing, build_zoo, zoo_names
from pegboard.differentials import differential_matrix
from pegboard.geometry import pt, rat
from pegboard.pairing import ArcSweep, IPoint, SlopeSpec, cancel_bigons, line_family, raw_intersections


def test_the_edge_refuses_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        pt(0.5, 0)


def inexact(points) -> list:
    """The intersection points whose crossing record holds a value other
    than an int."""
    return [z for z in points if not all(type(v) is int for v in z.crossing)]


def misbuilt(points) -> list:
    """The intersection points that are not an `IPoint` holding a
    `Crossing`."""
    return [z for z in points if type(z) is not IPoint or type(z.crossing) is not Crossing]


SLOPES = [SlopeSpec(1, 0), SlopeSpec(1, 1), SlopeSpec(-2, 1), SlopeSpec(5, 2), SlopeSpec(2, 3)]


@pytest.mark.parametrize("name", zoo_names())
def test_kernel_coordinates_are_exact(name):
    d = build_zoo(name)
    seen = {"raw": 0, "live": 0, "cancelled": 0, "marked": 0}
    for slope in SLOPES:
        fam = line_family(d, slope)
        raw = raw_intersections(d, fam)
        live, audit = cancel_bigons(raw, d, fam.step)
        sweep = ArcSweep(d, slope)
        for h in sweep.dims():
            raw += sweep.raw(h)
            live += sweep.points(h)
            if slope.p > 0 and slope.q > 0:
                for kind in ("phi", "psi"):
                    for x, z, _ in differential_matrix(sweep, h, kind).bigons:
                        assert not inexact((x, z)), (slope, h, kind)
                        assert not misbuilt((x, z)), (slope, h, kind)
                        seen["marked"] += 1
        cancelled = [z for pair in audit for z in pair]
        for points in (raw, live, cancelled):
            assert not inexact(points), slope
            assert not misbuilt(points), slope
        seen["raw"] += len(raw)
        seen["live"] += len(live)
        seen["cancelled"] += len(audit)
    assert seen["raw"] and seen["live"]
    if name != "unknot":  # the unknot's horizontal line is already minimal
        assert seen["cancelled"] and seen["marked"], seen
