"""The graded and filling counts do not depend on how a diagram is drawn.

Four redrawings leave the curve in the punctured torus as it is: reverse
the order of the components, start each closed component at its next
vertex, run each closed component backwards, and put a midpoint on every
segment.  Each redrawn diagram must pass validation, whose half-turn
symmetry check decides whether `dims` and `differential_ranks` read the
gradings h < 0 from -h, and must give the same `hfk` dims, `pair` counts
and `diff` ranks as the diagram it was drawn from, at every reduced slope
with |p| <= 9 and q <= 4 (`diff` at p >= 1).  The diagrams are the zoo and
`thin(tau, f)` for -2 <= tau <= 2 and f <= 3.
"""

import math

import pytest

from pegboard.curves import Component, CurveDiagram, build_zoo, thin, validate, zoo_names
from pegboard.differentials import differential_ranks
from pegboard.geometry import Point
from pegboard.pairing import ArcSweep, SlopeSpec, dual_hfk_dims, surgery_report

SLOPES = [SlopeSpec(p, q) for q in range(1, 5) for p in range(-9, 10) if p and math.gcd(abs(p), q) == 1]


def redrawn_closed(d: CurveDiagram, redraw, label: str) -> CurveDiagram:
    """d with each closed component's vertex tuple replaced by redraw(it)."""
    return CurveDiagram(
        tuple(Component(redraw(c.vertices), 0) if c.winding == 0 else c for c in d.components),
        f"{d.source}:{label}",
    )


def with_midpoints(d: CurveDiagram) -> CurveDiagram:
    """d with the midpoint of every segment added as a vertex, the closing
    segment of a closed component included."""
    def split(c: Component) -> Component:
        vs = c.vertices
        pairs = zip(vs, vs[1:] + vs[:1]) if c.winding == 0 else zip(vs, vs[1:])
        out = []
        for a, b in pairs:
            out += [a, Point((a.x + b.x) / 2, (a.y + b.y) / 2)]
        return Component(tuple(out) if c.winding == 0 else tuple(out) + (vs[-1],), c.winding)

    return CurveDiagram(tuple(split(c) for c in d.components), f"{d.source}:midpoints")


def redrawings(d: CurveDiagram) -> list[CurveDiagram]:
    return [
        CurveDiagram(tuple(reversed(d.components)), f"{d.source}:reordered"),
        redrawn_closed(d, lambda vs: vs[1:] + vs[:1], "rotated"),
        redrawn_closed(d, lambda vs: tuple(reversed(vs)), "reversed"),
        with_midpoints(d),
    ]


def readings(d: CurveDiagram) -> list:
    """`hfk` dims, `pair` total and class counts, and `diff` ranks at
    every slope of `SLOPES`."""
    out = []
    for slope in SLOPES:
        report = surgery_report(d, slope)
        out.append((str(slope), dual_hfk_dims(d, slope), report.total, report.counts))
        if slope.p > 0:
            out.append((str(slope), differential_ranks(ArcSweep(d, slope))))
    return out


def assert_redrawing_invariant(d: CurveDiagram) -> None:
    want = readings(d)
    for drawn in redrawings(d):
        assert validate(drawn).ok, drawn.source
        got = readings(drawn)
        assert got == want, (drawn.source, next(g[0] for g, w in zip(got, want) if g != w))


@pytest.mark.parametrize("name", zoo_names())
def test_redrawing_changes_no_count_on_zoo(name):
    assert_redrawing_invariant(build_zoo(name))


@pytest.mark.parametrize("tau", range(-2, 3))
def test_redrawing_changes_no_count_on_thin_diagrams(tau):
    for fig8 in range(4):
        assert_redrawing_invariant(thin(tau, fig8))


def test_each_redrawing_changes_the_drawing():
    # Every redrawing of a diagram with closed components moves some vertex.
    d = thin(1, 2)
    assert d.acyclic()
    for drawn in redrawings(d):
        assert drawn.components != d.components, drawn.source
