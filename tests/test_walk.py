"""The walk between two intersection points against its Fraction predecessor.

`walk_span` and `subarc` below are the walk that ran before it was read
from the points' crossing records, copied verbatim: it measured the walk
in Fraction positions and listed the vertices between them.  They are the
loop oracle of the tests: the kernel keeps no loop, so a test that needs
one builds it with `subarc`.  For every pair of raw arc points on one
component, in both directions, with x = z included (one full traversal),
on the zoo, thin diagrams and Hypothesis staircases with their mirrors,
`pairing._walk` must give the reference's m and pass as many vertices as
its polyline, and `walk_columns` must add the column crossings of that
polyline, as `geometry.column_crossings` finds them edge by edge, into the
signed tally by (column, t) that it is given, and return the columns of
its two ends, the ceilings of the abscissae of its first and last points.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pegboard.pairing as pairing
from pegboard.curves import Component, CurveDiagram, build_zoo, thin, zoo_names
from pegboard.geometry import Point, column_crossings, integer_frame
from pegboard.pairing import ArcSweep, IPoint, SlopeSpec, walk_columns
from conftest import position, staircase_diagrams
from test_arc_sweep import grading_range

# ---------------------------------------------------------------------------
# The walk in Fraction positions (reference)


def walk_span(c: Component, x: IPoint, z: IPoint, direction: int) -> tuple[Fraction, int]:
    """Length and wrap count of the walk along the component from x to z.

    direction +1 walks forward (increasing position), -1 backward.  The
    length lies in (0, n], n the cycle length, so equal positions are one
    full traversal apart.  m is the signed number of period ends passed, so
    the walk reaches z at its point moved by (m, 0) (m = 0 on a closed
    component).
    """
    n = c.cycle_length()
    ahead = position(z) - position(x) if direction > 0 else position(x) - position(z)
    m = direction if ahead <= 0 and c.winding == 1 else 0
    return ahead % n or n, m


def subarc(c: Component, x: IPoint, z: IPoint, direction: int) -> tuple[list[Point], int]:
    """Plane polyline of the `walk_span` walk from x to z, and its m.

    The polyline starts at x's point, passes the lifted vertices in
    between and ends at z's point moved by (m, 0), on the (m, 0)-translate
    of z's lift.
    """
    dist, m = walk_span(c, x, z, direction)
    if direction > 0:
        passed = range(math.floor(position(x)) + 1, math.ceil(position(x) + dist))
    else:
        passed = range(math.ceil(position(x)) - 1, math.floor(position(x) - dist), -1)
    pts = [x.crossing.point] + [c.lifted(j) for j in passed]
    pts.append(z.crossing.point.translate(m) if m else z.crossing.point)
    return pts, m


# ---------------------------------------------------------------------------


SLOPES = [SlopeSpec(p, q) for p, q in [(1, 1), (2, 1), (3, 2), (5, 3), (-3, 2), (7, 3), (1, 0)]]


def polyline_columns(path: list[Point]) -> list[tuple[int, int, int]]:
    """The column crossings of an open polyline, edge by edge."""
    scale, xs, ys = integer_frame(path)
    out = []
    for k in range(len(path) - 1):
        out += column_crossings(scale, xs[k], ys[k], xs[k + 1], ys[k + 1])
    return out


def tally(crossings: list[tuple[int, int, int]], start: dict) -> dict:
    """start with each crossing's sign added under its (column, t)."""
    out = dict(start)
    for k, t, sign in crossings:
        out[k, t] = out.get((k, t), 0) + sign
    return out


FAR = (10**6, 10**6)  # a (column, t) that no walk here crosses


def assert_walks_match(d: CurveDiagram) -> int:
    """Every same-component pair of one grading's raw arc points, in both
    directions, at every slope of SLOPES: `_walk`'s m and vertex count
    against the reference polyline, and `walk_columns` against that
    polyline's crossings, summed by (column, t) into a tally that it must
    add to, and its ends.  Returns the number of walks compared."""
    walks = 0
    for slope in SLOPES:
        sweep = ArcSweep(d, slope)
        for h in grading_range(d, slope):
            raw = sweep.raw(h)
            for x in raw:
                c = d.components[x.comp]
                for z in raw:
                    if z.comp != x.comp:
                        continue
                    for direction in (1, -1):
                        path, m = subarc(c, x, z, direction)
                        first, last, walked = pairing._walk(c, x.crossing, z.crossing, direction)
                        assert (walked, last - first + 2) == (m, len(path)), (
                            d.source, str(slope), position(x), position(z), direction)
                        # The walk adds into the tally it is given, here
                        # one that already holds a crossing far away.
                        got = {FAR: 1}
                        ends = walk_columns(c, x.crossing, z.crossing, direction, got)
                        assert got == tally(polyline_columns(path), {FAR: 1}), (
                            d.source, str(slope), position(x), position(z), direction)
                        assert ends == (math.ceil(path[0].x), math.ceil(path[-1].x)), (
                            d.source, str(slope), position(x), position(z), direction)
                        walks += 1
    return walks


THIN = [(tau, fig8) for tau in range(-2, 3) for fig8 in range(3)]


@pytest.mark.parametrize("name", zoo_names())
def test_walks_match_reference_on_zoo(name):
    d = build_zoo(name)
    assert assert_walks_match(d) and assert_walks_match(d.mirror())


@pytest.mark.parametrize("tau,fig8", THIN)
def test_walks_match_reference_on_thin_diagrams(tau, fig8):
    d = thin(tau, fig8)
    assert assert_walks_match(d) and assert_walks_match(d.mirror())


@settings(max_examples=15, deadline=None)
@given(staircase_diagrams(), st.booleans())
def test_walks_match_reference_on_staircases(d, mirrored):
    assert assert_walks_match(d.mirror() if mirrored else d)


def test_equal_positions_are_one_full_traversal():
    d = build_zoo("trefoil")
    c = d.gamma0()
    x = ArcSweep(d, SlopeSpec(1, 1)).raw(0)[0]
    n = c.cycle_length()
    for direction in (1, -1):
        first, last, m = pairing._walk(c, x.crossing, x.crossing, direction)
        # x is a vertex, so the walk covers the n segments of one period
        # and passes the n - 1 vertices between its ends, as the reference
        # polyline does.
        assert x.crossing.r == 0
        assert m == direction and last - first == n - 1
        path, _ = subarc(c, x, x, direction)
        assert len(path) == n + 1
        assert path[-1] == x.crossing.point.translate(direction)
