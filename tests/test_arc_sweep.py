"""Raw intersections against the per-lift walk and a brute-force oracle.

The reference below is the per-lift walk that paired every object before
the level scan replaced it, kept verbatim: each object lift is walked
segment by segment with its own side test.  It shares no walk with
`Component.level_crossings`, through which `ArcSweep` and
`raw_intersections` now find every crossing.  Both must reproduce its
IPoint lists exactly (same points, same order): the sweep for every
grading of an arc slope that the walk pairs without raising, before and
after bigon cancellation, and `raw_intersections` for filling line
families, at the chosen offset and at offsets that put vertices on the
lines, raising `DegenerateIncidence` with the same message wherever the
walk raises.  The walk pairs the arc objects that pairing used before
`ArcLift.lift_indices` replaced them, copied verbatim with `_u_param`:
`ArcLift.lift_indices` must pick the lifts `_ArcObject.lift_indices` did.
It reads a filling family through `_LineObject`, the anchor-and-direction
copy in `test_offset`.  The walk finds each crossing in Fractions and
turns it into an IPoint with `ipoint`, whose record `test_level_scan.record`
builds from those Fractions and the crossing's level.

The walk raises for an arc whenever the arc's whole line runs along a
curve segment, inside the arc or not.  The sweep refuses the slope only
when some grading's own arc holds the segment, raising when it is built
with the message for the smallest such grading.  Where the walk raises,
the sweep is checked against `arc_oracle` instead: every `ArcLift.seg()`
translate tested against every curve segment, with no level scan and no
filing rule.  `grading_range`, the bounding-box range that `ArcSweep.dims`
read before it read the gradings the sweep files, is kept here as the
range the tests probe, and the sweep must file no grading outside it.
`ArcSweep.total`, the count-only reader, must be the sum of `dims`, and a
refused slope raises the same from both and from `genus_of`.  `dims` and
`total` cancel only the gradings h >= 0 and read each h < 0 from -h, by
the half-turn congruence; a counting wrapper around `cancel_bigons` pins
that.  Both must equal the counts with every filed grading cancelled on
its own.  `genus_of` reads the 1/0 gradings down from the top and stops at
the first with a point.  The arc side serves validated diagrams only:
`ArcSweep`, `dual_hfk_dims`, `genus_of` and `arc_points` refuse a diagram
that fails validation, half-turn asymmetric or through a peg, with
`InvariantViolation` carrying its kept report, while the filling side
still pairs the asymmetric one and refuses the walk through the peg.
"""

import math
from fractions import Fraction
from typing import Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegboard.curves import Component, CurveDiagram, InvariantViolation, build_zoo, thin, validate, zoo_names
from pegboard.differentials import differential_matrix
from pegboard.geometry import ONE, ZERO, Box, Point, PointOnLoop, pt
from pegboard.pairing import (
    ArcLift,
    ArcSweep,
    DegenerateIncidence,
    GradingOutOfRange,
    IPoint,
    SlopeSpec,
    _LineFamily,
    arc_points,
    cancel_bigons,
    dual_hfk_dims,
    genus_of,
    grading_key,
    line_family,
    raw_intersections,
    surgery_dim,
    surgery_report,
)
from pegboard.render import render_svg
from pegboard.textfmt import parse_curve_text
from conftest import position, staircase_diagrams
from test_level_scan import record
from test_offset import _LineObject

# ---------------------------------------------------------------------------
# The per-lift walk (reference)


class _ArcObject:
    """An arc and its horizontal translates; lift k is the base shifted by (k, 0)."""

    def __init__(self, arc: ArcLift):
        self.arc = arc
        self.base = arc.seg()
        self.slope = arc.slope

    def anchor_dir(self, k: int):
        a = self.base.a.translate(k)
        b = self.base.b.translate(k)
        return a, (b.x - a.x, b.y - a.y)

    def lift_indices(self, box: Box) -> range:
        lo = box.xmin - max(self.base.a.x, self.base.b.x)
        hi = box.xmax - min(self.base.a.x, self.base.b.x)
        return range(math.ceil(lo), math.floor(hi) + 1)

    def translated_lift(self, k: int, w: int) -> int:
        return k + w

    def grading_key(self, ip: IPoint):
        return self.arc.height


PairObject = Union[_LineObject, _ArcObject]


def _u_param(obj: PairObject, k: int, point: Point) -> Fraction:
    """Parameter of `point` along object lift k, measured from its anchor."""
    anchor, (dx, dy) = obj.anchor_dir(k)
    if dx != 0:
        return (point.x - anchor.x) / dx
    return (point.y - anchor.y) / dy


def _component_cycle(c):
    """Vertex path (one traversal) and the cycle length in segments."""
    if c.winding == 1:
        return list(c.vertices), len(c.vertices) - 1
    return list(c.vertices) + [c.vertices[0]], len(c.vertices)


def _neighbor_points(c, verts, i):
    """Cyclic neighbors of vertex i (i < cycle length), lifted to the plane."""
    n = len(verts) - 1
    nxt = verts[i + 1]
    if i > 0:
        prev = verts[i - 1]
    elif c.winding == 1:
        prev = verts[n - 1].translate(-1)
    else:
        prev = verts[n - 1]
    return prev, nxt


def _line_contains(obj, k, point):
    anchor, (dx, dy) = obj.anchor_dir(k)
    return (point.x - anchor.x) * dy == (point.y - anchor.y) * dx


def _arc_contains(obj, k, point):
    anchor, (dx, dy) = obj.anchor_dir(k)
    if (point.x - anchor.x) * dy != (point.y - anchor.y) * dx:
        return False
    return ZERO <= _u_param(obj, k, point) <= ONE


def contains(obj, k, point):
    if isinstance(obj, _LineObject):
        return _line_contains(obj, k, point)
    return _arc_contains(obj, k, point)


def ipoint(ci, pos, point, k, arc_slope=None) -> IPoint:
    """The IPoint of a crossing with lift k: of a filling family, whose
    level is the lift, or of an arc of `arc_slope`, whose level is that of
    the sweep's form p*x - q*y - (q mod 2)/2 at the point."""
    if arc_slope is None:
        return IPoint(ci, record(pos, point, k), k)
    p, q = arc_slope.p, arc_slope.q
    level = p * point.x - q * point.y - Fraction(q % 2, 2)
    assert level.denominator == 1, (arc_slope, point)
    return IPoint(ci, record(pos, point, level.numerator), k)


def _segment_lift_intersections(obj, k, c, ci):
    """All counted intersections of component ci with object lift k."""
    verts, n = _component_cycle(c)
    anchor, (dx, dy) = obj.anchor_dir(k)
    out = []
    arc_slope = obj.slope if isinstance(obj, _ArcObject) else None

    def side(p):
        return (p.x - anchor.x) * dy - (p.y - anchor.y) * dx

    for i in range(n):
        a, b = verts[i], verts[i + 1]
        sa, sb = side(a), side(b)
        if sa == 0 and sb == 0:
            raise DegenerateIncidence(
                f"curve segment {a}->{b} is collinear with object lift {k}"
            )
        if sa == 0:
            # Vertex exactly on the object's line: transversal iff the cyclic
            # neighbors straddle it; a same-side touch is removable, count 0.
            prev, _ = _neighbor_points(c, verts, i)
            sp = side(prev)
            if sp == 0:
                raise DegenerateIncidence(f"two consecutive vertices on object lift {k}")
            if (sp < 0) != (sb < 0):
                if contains(obj, k, a):
                    out.append(ipoint(ci, Fraction(i), a, k, arc_slope))
            continue
        if sb == 0:
            continue  # handled as the next segment's vertex case (or dropped at the period end)
        if (sa < 0) == (sb < 0):
            continue
        t = sa / (sa - sb)
        point = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        if contains(obj, k, point):
            out.append(ipoint(ci, Fraction(i) + t, point, k, arc_slope))
    return out


def _considered_lifts(obj, c):
    """The object lifts paired with component c: those near its bounding box."""
    return obj.lift_indices(c.bbox().pad(Fraction(1, 100)))


def reference_raw_intersections(d, obj):
    """All transversal intersections, one record per quotient point."""
    if isinstance(obj, _LineFamily):
        obj = _LineObject(obj)
    points = []
    for ci, c in enumerate(d.components):
        for k in _considered_lifts(obj, c):
            points.extend(_segment_lift_intersections(obj, k, c, ci))
    points.sort(key=lambda ip: (ip.comp, position(ip), ip.lift))
    return points


# ---------------------------------------------------------------------------
# The brute-force oracle for arcs


def arc_oracle(d, slope, h):
    """Grading h's raw points, or, when an arc of grading h holds a curve
    segment, the `DegenerateIncidence` message for the smallest
    (component, lift, vertex, collinear) of such an arc.

    Each lift-k arc is `ArcLift.seg()` translated by (k, 0) and is tested
    against every segment of one period of every component whose x range it
    meets.  A segment crossing the arc counts at its crossing, a vertex on
    the arc iff its cyclic neighbours lie strictly on opposite sides of the
    arc's line, and a segment on the line whose overlap with the arc has
    positive length is held, at its first vertex (collinear).  A vertex on
    the arc whose neighbour is on the line is such a segment's end, and
    held at that vertex (not collinear) when the next neighbour is off the
    line.
    """
    base = ArcLift(slope, h).seg()
    dx, dy = base.b.x - base.a.x, base.b.y - base.a.y
    points, held = [], []
    for ci, c in enumerate(d.components):
        verts, n = _component_cycle(c)
        for i in range(n):
            a, b = verts[i], verts[i + 1]
            for k in range(math.ceil(min(a.x, b.x)) - slope.q, math.floor(max(a.x, b.x)) + 1):
                start = base.a.translate(k)

                def side(v):
                    return (v.x - start.x) * dy - (v.y - start.y) * dx

                def u(v):  # where v's projection falls along the arc, 0 to 1
                    return (v.x - start.x) / dx if dx else (v.y - start.y) / dy

                sa, sb = side(a), side(b)
                if sa == 0 and sb == 0:
                    lo, hi = sorted((u(a), u(b)))
                    if min(hi, ONE) > max(lo, ZERO):
                        held.append((ci, k, i, True, f"curve segment {a}->{b} is collinear with object lift {k}"))
                elif sa == 0:
                    if not ZERO <= u(a) <= ONE:
                        continue
                    prev, _ = _neighbor_points(c, verts, i)
                    if side(prev) == 0:
                        held.append((ci, k, i, False, f"two consecutive vertices on object lift {k}"))
                    elif (side(prev) < 0) != (sb < 0):
                        points.append(ipoint(ci, Fraction(i), a, k, slope))
                elif sb != 0 and (sa < 0) != (sb < 0):
                    t = sa / (sa - sb)
                    point = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
                    if ZERO <= u(point) <= ONE:
                        points.append(ipoint(ci, i + t, point, k, slope))
    if held:
        return min(held)[-1]
    return sorted(points, key=lambda ip: (ip.comp, position(ip), ip.lift))


def grading_range(d, slope):
    """All gradings whose arc could meet the diagram, by bounding boxes."""
    box = d.bbox()
    off = Fraction(slope.p - 1, 2)
    halfspan = Fraction(abs(slope.p), 2)
    lo = math.floor(box.ymin - halfspan - off) - 1
    hi = math.ceil(box.ymax + halfspan - off) + 1
    return [Fraction(n) + off for n in range(lo, hi + 1)]


# ---------------------------------------------------------------------------


def outcome(f, *args):
    """f's result, or the message of the DegenerateIncidence it raises."""
    try:
        return f(*args)
    except DegenerateIncidence as exc:
        return str(exc)


def walk(d, slope, h):
    """The reference's raw list for one arc, or the message it raises."""
    return outcome(reference_raw_intersections, d, _ArcObject(ArcLift(slope, h)))


def heights(d, slope):
    """`grading_range` plus two gradings beyond each end."""
    hs = grading_range(d, slope)
    return [hs[0] - 2, hs[0] - 1] + hs + [hs[-1] + 1, hs[-1] + 2]


def assert_sweep_matches(d, slope, wants):
    """The sweep of the slope against `wants`, each height's raw points or
    held message in increasing height: refused with the first message iff
    there is one, and otherwise filing each height's points.  Returns the
    sweep, or None when it is refused."""
    got = outcome(ArcSweep, d, slope)
    held = [want for want in wants.values() if isinstance(want, str)]
    if held:
        assert got == held[0], (d.source, str(slope))
        return None
    for h, want in wants.items():
        assert got.raw(h) == want, (d.source, str(slope), h)
    return got


def assert_sweep_matches_walk(d, slope, cancel=True):
    """The walk is the reference at every grading it pairs; where it raises,
    the oracle is."""
    wants = {h: walk(d, slope, h) for h in heights(d, slope)}
    wants = {h: arc_oracle(d, slope, h) if isinstance(want, str) else want for h, want in wants.items()}
    sweep = assert_sweep_matches(d, slope, wants)
    if sweep and cancel:
        for h, want in wants.items():
            live, _ = cancel_bigons(want, d, 1)
            assert sweep.points(h) == tuple(live), (d.source, str(slope), h)


# Both odd and even q (levels in Z + 1/2 and in Z), 1/0, negative p and
# the corners of the |p| <= 12, q <= 5 box.  The slope at the CLI cap costs
# the walk more than all of these together, so it runs on two knots (one
# with a closed component) and is compared before cancellation only.
ZOO_SLOPES = [
    SlopeSpec(1, 0),
    SlopeSpec(1, 1),
    SlopeSpec(-1, 1),
    SlopeSpec(3, 2),
    SlopeSpec(-7, 3),
    SlopeSpec(5, 4),
    SlopeSpec(12, 1),
    SlopeSpec(-12, 5),
    SlopeSpec(11, 5),
]


@pytest.mark.parametrize("name", zoo_names())
def test_sweep_matches_walk_on_zoo(name):
    d = build_zoo(name)
    for slope in ZOO_SLOPES:
        assert_sweep_matches_walk(d, slope)
    if name in ("trefoil", "figure_eight"):
        assert_sweep_matches_walk(d, SlopeSpec(63, 31), cancel=False)


generated_diagrams = st.one_of(
    staircase_diagrams(),
    st.builds(thin, st.integers(-3, 3), st.integers(0, 4)),
)
# 1/0 comes in as (p, 0); the cap slope 63/31 is left to the zoo test, where
# the walk's cost for it stays inside the suite's budget.
arc_slopes = (
    st.tuples(st.integers(-12, 12), st.integers(0, 5))
    .filter(lambda pq: pq[0] != 0)
    .map(lambda pq: SlopeSpec(*pq))
)


@settings(max_examples=30, deadline=None)
@given(generated_diagrams, arc_slopes)
def test_sweep_matches_walk_on_generated_diagrams(d, slope):
    assert_sweep_matches_walk(d, slope, cancel=False)


# A valid null-wiggle whose segments 0, 1, 3 and 4 lie on 1/1 arc lines
# (the curve of the CLI's degenerate-incidence test), a taller variant
# whose segments next to those still cross other arcs, a wiggle with one
# segment on the 1/0 line x = 0, inside the grading-0 arc, and one with
# three such segments, inside the arcs of gradings -1, 0 and 1.
COLLINEAR = parse_curve_text(
    "component winding=1\nv -1/2 0\nv -3/8 1/8\nv -1/8 3/8\n"
    "v 1/8 -3/8\nv 3/8 -1/8\nv 1/2 0\n",
    source="collinear",
)
TALL = parse_curve_text(
    "component winding=1\nv -1/2 0\nv -3/8 1/8\nv -1/8 3/8\nv -1/16 3\n"
    "v 1/16 -3\nv 1/8 -3/8\nv 3/8 -1/8\nv 1/2 0\n",
    source="tall",
)
UPRIGHT = parse_curve_text(
    "component winding=1\nv -1/2 0\nv 0 -1/4\nv 0 1/4\nv 1/2 0\n",
    source="upright",
)
STACKED = parse_curve_text(
    "component winding=1\nv -1/2 0\nv 0 -5/4\nv 0 -3/4\nv -1/4 -1/2\nv 0 -1/4\n"
    "v 0 1/4\nv 1/4 1/2\nv 0 3/4\nv 0 5/4\nv 1/2 0\n",
    source="stacked",
)
# Two stacks of STACKED, at gradings -1 and 1 of 1/0, joined across grading
# 0, which holds no segment: two held gradings with a filed one between.
TWO_STACKS = parse_curve_text(
    "component winding=1\nv -1/2 0\nv 0 -5/4\nv 0 -3/4\nv -1/4 -1/2\nv 1/4 1/2\n"
    "v 0 3/4\nv 0 5/4\nv 1/2 0\n",
    source="two stacks",
)
UNIT = SlopeSpec(1, 1)
DEGENERATE_SLOPES = [UNIT, SlopeSpec(-1, 1), SlopeSpec(3, 2), SlopeSpec(1, 0)]


def held_gradings(d, slope):
    """The gradings where the oracle finds an arc holding a segment."""
    return [h for h in heights(d, slope) if isinstance(arc_oracle(d, slope, h), str)]


@pytest.mark.parametrize("d", [COLLINEAR, TALL, UPRIGHT, STACKED], ids=lambda d: d.source)
def test_degenerate_gradings_raise_iff_an_arc_holds_a_segment(d):
    # The sweep is refused, with the message for the smallest held
    # grading, iff the oracle holds a grading; otherwise each grading keeps
    # the oracle's points, the walk's where it pairs, and its differentials.
    assert validate(d).ok
    refused = 0
    for diagram in (d, d.mirror()):
        for slope in DEGENERATE_SLOPES:
            wants = {h: arc_oracle(diagram, slope, h) for h in heights(diagram, slope)}
            sweep = assert_sweep_matches(diagram, slope, wants)
            if sweep is None:
                refused += 1
                continue
            for h, want in wants.items():
                paired = walk(diagram, slope, h)
                assert isinstance(paired, str) or paired == want, (diagram.source, str(slope), h)
                live, _ = cancel_bigons(want, diagram, 1)
                assert sweep.points(h) == tuple(live), (diagram.source, str(slope), h)
                if slope.p >= 1 and slope.q >= 1:
                    differential_matrix(sweep, h, "phi")
                    differential_matrix(sweep, h, "psi")
    assert refused


@pytest.mark.parametrize("name", ["trefoil", "figure_eight"])
def test_oracle_matches_walk_on_zoo(name):
    d = build_zoo(name)
    for slope in ZOO_SLOPES:
        for h in heights(d, slope):
            assert arc_oracle(d, slope, h) == walk(d, slope, h), (name, str(slope), h)


def test_only_the_arcs_holding_a_segment_raise():
    # The walk raises wherever an arc's line runs along a segment: COLLINEAR
    # at 1/1 gradings -1, 0 and 1, UPRIGHT at 1/0 every grading from -3 to
    # 3.  Only grading 0 has an arc that holds one.
    # The sweep refuses the slope with grading 0's message.
    assert [h for h in heights(COLLINEAR, UNIT) if isinstance(walk(COLLINEAR, UNIT, h), str)] == [-1, 0, 1]
    assert held_gradings(COLLINEAR, UNIT) == [0]
    assert held_gradings(UPRIGHT, SlopeSpec(1, 0)) == [0]
    assert held_gradings(COLLINEAR.mirror(), SlopeSpec(-1, 1)) == [0]
    assert held_gradings(TALL, UNIT) == [0]
    for d in (COLLINEAR, TALL):
        assert outcome(dual_hfk_dims, d, UNIT) == \
            "curve segment (-1/2, 0)->(-3/8, 1/8) is collinear with object lift -1"
    assert outcome(dual_hfk_dims, UPRIGHT, SlopeSpec(1, 0)) == \
        "curve segment (0, -1/4)->(0, 1/4) is collinear with object lift 0"
    # Each arc names its own segment, and the smallest grading's names the
    # refusal.
    messages = [f"curve segment (0, {lo})->(0, {hi}) is collinear with object lift 0"
                for lo, hi in (("-5/4", "-3/4"), ("-1/4", "1/4"), ("3/4", "5/4"))]
    assert [arc_oracle(STACKED, SlopeSpec(1, 0), h) for h in (-1, 0, 1)] == messages
    assert outcome(ArcSweep, STACKED, SlopeSpec(1, 0)) == messages[0]


def test_degenerate_vertex_keeps_its_other_crossings():
    # Vertex 2 of TALL sits on the degenerate level of segment 1, which makes
    # the walk raise at gradings 0 and 1; grading 2's lifts avoid that
    # level, and segment 2 (from vertex 2) crosses the grading-2 arc.  The
    # sweep refuses 1/1, whose grading-0 arc holds segment 0, but the level
    # scan it files from still lists those crossings, and grading 1's arcs
    # hold no segment.
    assert isinstance(walk(TALL, UNIT, 1), str)
    assert isinstance(walk(TALL, UNIT, 2), list) and held_gradings(TALL, UNIT) == [0]
    want = walk(TALL, UNIT, 2)
    assert [math.floor(position(ip)) for ip in want] == [2, 3]
    crossings, degenerate = TALL.components[0].level_crossings(1, -1, -Fraction(1, 2))
    assert (-1, 2, False) in degenerate and {ip.crossing for ip in want} <= set(crossings)


def test_points_are_cancelled_once_per_grading(monkeypatch):
    import pegboard.pairing as pairing

    calls = []

    def counting_cancel(pts, d, step):
        calls.append(step)
        return cancel_bigons(pts, d, step)

    monkeypatch.setattr(pairing, "cancel_bigons", counting_cancel)
    sweep = ArcSweep(build_zoo("trefoil"), SlopeSpec(3, 2))
    filed = [h for h in heights(sweep.diagram, sweep.slope) if sweep.raw(h)]
    first = sweep.dims()
    assert sweep.dims() == first
    assert set(first) <= set(filed)
    assert sweep.points(Fraction(1)) is sweep.points(Fraction(1))
    assert Fraction(1) in filed
    # the gradings h < 0 are read from -h, by the half-turn congruence
    assert calls == [1] * len([h for h in filed if h >= 0])


def test_an_unfiled_grading_is_not_cancelled(monkeypatch):
    # the raising differential of the top filed grading targets a grading no
    # arc crosses: only the source grading's points go through cancellation
    import pegboard.pairing as pairing

    calls = []

    def counting_cancel(pts, d, step):
        calls.append(len(pts))
        return cancel_bigons(pts, d, step)

    monkeypatch.setattr(pairing, "cancel_bigons", counting_cancel)
    sweep = ArcSweep(build_zoo("trefoil"), SlopeSpec(3, 2))
    top = max(h for h in heights(sweep.diagram, sweep.slope) if sweep.raw(h))
    assert sweep.raw(top + 3) == []
    matrix = differential_matrix(sweep, top, "psi")
    assert matrix.target_points == () and matrix.rank == 0
    assert calls == [len(sweep.raw(top))]


@settings(max_examples=40, deadline=None)
@given(generated_diagrams, arc_slopes)
def test_unfiled_gradings_have_no_points(d, slope):
    # dims() reads only the gradings the sweep files: its gradings lie in
    # the bounding-box range, and no grading of the range that the sweep
    # did not file has a point.  Each key is a grading of the slope, at
    # either sign of p, in increasing order, and counts its grading's
    # points; a grading of the range with a point is a key.
    sweep = ArcSweep(d, slope)
    probe = grading_range(d, slope)
    dims = sweep.dims()
    assert set(dims) <= set(probe) and list(dims) == sorted(dims)
    for h in dims:
        assert type(h) is Fraction, (d.source, str(slope), h)
        assert grading_key(slope, h) == h - Fraction(slope.p - 1, 2), (d.source, str(slope), h)
    for h in probe:
        if not sweep.raw(h):
            assert not sweep.points(h), (d.source, str(slope), h)
        assert dims.get(h, 0) == len(sweep.points(h)), (d.source, str(slope), h)


def assert_total_is_the_sum_of_dims(d, slope):
    """`ArcSweep.total`, on its own sweep and after `dims` on another, is
    the sum of the graded dimensions."""
    sweep = ArcSweep(d, slope)
    want = sum(sweep.dims().values())
    assert ArcSweep(d, slope).total() == want == sweep.total(), (d.source, str(slope))


@pytest.mark.parametrize("name", zoo_names())
def test_total_is_the_sum_of_dims_on_zoo(name):
    d = build_zoo(name)
    for slope in ZOO_SLOPES + [SlopeSpec(63, 31)]:
        assert_total_is_the_sum_of_dims(d, slope)


@pytest.mark.parametrize("tau,fig8", [(1, 1), (-2, 2), (0, 3)])
def test_total_is_the_sum_of_dims_on_thin_diagrams(tau, fig8):
    d = thin(tau, fig8)
    for slope in ZOO_SLOPES:
        assert_total_is_the_sum_of_dims(d, slope)


@settings(max_examples=30, deadline=None)
@given(staircase_diagrams(), st.booleans(), arc_slopes)
def test_total_is_the_sum_of_dims_on_staircases(d, mirrored, slope):
    assert_total_is_the_sum_of_dims(d.mirror() if mirrored else d, slope)


def assert_refused_alike(d, message):
    """`dims`, `total` and `genus_of` raise the same `DegenerateIncidence`
    for d at 1/0, as building its sweep does."""
    vertical = SlopeSpec(1, 0)
    raised = []
    for read in (lambda: ArcSweep(d, vertical), lambda: ArcSweep(d, vertical).dims(),
                 lambda: ArcSweep(d, vertical).total(), lambda: genus_of(d)):
        with pytest.raises(DegenerateIncidence) as exc:
            read()
        raised.append((type(exc.value), str(exc.value)))
    assert raised == [(DegenerateIncidence, message)] * 4


def test_total_raises_as_dims_does_at_the_first_held_grading():
    # Gradings -1 and 1 of 1/0 are held; the slope is refused with -1's
    # message.
    assert validate(TWO_STACKS).ok
    assert held_gradings(TWO_STACKS, SlopeSpec(1, 0)) == [-1, 1]
    assert_refused_alike(TWO_STACKS, "curve segment (0, -5/4)->(0, -3/4) is collinear with object lift 0")


# ---------------------------------------------------------------------------
# The half-turn congruence that `ArcSweep.dims` and `ArcSweep.total` read

# The trefoil plus a lopsided closed component between heights 1/4 and
# 7/4, with no half-turn image: it fails only validation's symmetry check,
# so its gradings h and -h need not hold congruent arcs, and the arc side
# refuses it.
MUTANT = CurveDiagram(
    build_zoo("trefoil").components + (
        Component(
            (pt(0, Fraction(7, 4)), pt(Fraction(1, 8), Fraction(5, 4)), pt(Fraction(-1, 8), Fraction(3, 4)),
             pt(0, Fraction(1, 4)), pt(Fraction(1, 8), Fraction(3, 4)), pt(Fraction(-1, 8), Fraction(5, 4))),
            0,
        ),
    ),
    "mutant",
)
# Every reduced slope with |p| <= 9 and q <= 4, at both signs, and 1/0.
HALF_TURN_SLOPES = [
    SlopeSpec(p, q) for q in range(1, 5) for p in range(-9, 10) if p and math.gcd(abs(p), q) == 1
] + [SlopeSpec(1, 0)]


def filed(sweep) -> list:
    """The gradings the sweep files, in increasing order."""
    return [h for h in heights(sweep.diagram, sweep.slope) if sweep.raw(h)]


def cancelled_gradings(monkeypatch, sweep, read) -> list:
    """The gradings whose points `read(sweep)` sends through
    `cancel_bigons`, in increasing order."""
    import pegboard.pairing as pairing

    by_points = {tuple(sweep.raw(h)): h for h in filed(sweep)}
    calls = []

    def counting_cancel(pts, d, step):
        calls.append(by_points[tuple(pts)])
        return cancel_bigons(pts, d, step)

    monkeypatch.setattr(pairing, "cancel_bigons", counting_cancel)
    read(sweep)
    monkeypatch.undo()
    return sorted(calls)


def per_grading_dims(sweep) -> dict:
    """The graded dimensions with every filed grading cancelled on its own."""
    counts = {h: len(cancel_bigons(sweep.raw(h), sweep.diagram, 1)[0]) for h in filed(sweep)}
    return {h: n for h, n in counts.items() if n}


def assert_total_counts_every_grading(d):
    """On d and its mirror, at every slope of `HALF_TURN_SLOPES`, `dims`
    equals the per-grading counts and `total` their sum."""
    for mirrored in (d, d.mirror()):
        for slope in HALF_TURN_SLOPES:
            sweep = ArcSweep(mirrored, slope)
            want = per_grading_dims(sweep)
            assert sweep.total() == sum(want.values()), (mirrored.source, str(slope))
            assert ArcSweep(mirrored, slope).dims() == want, (mirrored.source, str(slope))


@pytest.mark.parametrize("name", zoo_names())
def test_total_counts_every_grading_on_zoo(name):
    assert_total_counts_every_grading(build_zoo(name))


@pytest.mark.parametrize("tau", range(-2, 3))
def test_total_counts_every_grading_on_thin_diagrams(tau):
    for fig8 in range(4):
        assert_total_counts_every_grading(thin(tau, fig8))


@settings(max_examples=20, deadline=None)
@given(staircase_diagrams())
def test_total_counts_every_grading_on_staircases(d):
    assert_total_counts_every_grading(d)


@pytest.mark.parametrize("d,slope", [
    (build_zoo("trefoil"), SlopeSpec(3, 2)),
    (build_zoo("torus_3_4"), SlopeSpec(-4, 3)),
    (build_zoo("figure_eight"), SlopeSpec(2, 1)),
    (build_zoo("torus_2_5"), SlopeSpec(1, 0)),
    (thin(1, 2).mirror(), SlopeSpec(-5, 2)),
], ids=lambda x: str(x) if isinstance(x, SlopeSpec) else x.source)
def test_total_cancels_only_the_nonnegative_gradings_of_a_valid_diagram(monkeypatch, d, slope):
    # Key n is grading n + (p - 1)/2, so 2n + p - 1 >= 0 is h >= 0.  dims
    # reads the same partners, so the symmetry tests compare the kernel's
    # per-grading counts, `points(h)` against `points(-h)`.
    assert validate(d).ok
    gradings = filed(ArcSweep(d, slope))
    assert min(gradings) < 0 < max(gradings)
    for read in (ArcSweep.dims, ArcSweep.total):
        assert cancelled_gradings(monkeypatch, ArcSweep(d, slope), read) == [h for h in gradings if h >= 0]


# A wrapping curve whose segment (-1/4, -11/4)->(1/4, -9/4) runs through
# the peg (0, -5/2), far below its top 1/0 grading 3.
LOW_PEG = CurveDiagram((Component(
    (pt(Fraction(-1, 2), 0), pt(0, 3), pt(Fraction(1, 16), Fraction(13, 4)),
     pt(Fraction(-1, 4), Fraction(-11, 4)), pt(Fraction(1, 4), Fraction(-9, 4)),
     pt(Fraction(-1, 16), -3), pt(Fraction(1, 2), 0)), 1),), "through a low peg")
# TWO_STACKS, whose 1/0 gradings -1 and 1 are held, with MUTANT's lopsided
# component: validation refuses it before the sweep reaches a held grading.
HELD_MUTANT = CurveDiagram(TWO_STACKS.components + MUTANT.components[1:], "two stacks, mutant")
REFUSAL_SLOPES = [SlopeSpec(1, 0), SlopeSpec(1, 1), SlopeSpec(2, 1), SlopeSpec(-3, 2)]


@pytest.mark.parametrize("d,codes", [(MUTANT, ["symmetry"]), (LOW_PEG, ["peg"]), (HELD_MUTANT, ["symmetry"])],
                         ids=["mutant", "low peg", "held mutant"])
def test_arc_readers_refuse_a_diagram_that_fails_validation(d, codes):
    report = d._validation
    assert [v.code for v in report.violations] == codes
    readers = (ArcSweep, dual_hfk_dims, lambda d, slope: genus_of(d),
               lambda d, slope: arc_points(d, ArcLift(slope, Fraction(slope.p - 1, 2))))
    for slope in REFUSAL_SLOPES:
        for read in readers:
            with pytest.raises(InvariantViolation) as refused:
                read(d, slope)
            assert refused.value.report is report and str(refused.value) == report.summary(), str(slope)


def test_the_filling_side_pairs_what_the_arc_side_refuses():
    # MUTANT pairs as the trefoil (1, 2 and 7) plus its lopsided component
    # (0, 2 and 4); the curve through a peg is refused where a walk reads
    # the segment through it, and paired where none does.
    for slope, want in [(SlopeSpec(1, 0), 1), (SlopeSpec(2, 1), 4), (SlopeSpec(-3, 2), 11)]:
        assert surgery_report(MUTANT, slope).total == surgery_dim(MUTANT, slope) == want, str(slope)
    assert surgery_report(LOW_PEG, SlopeSpec(1, 0)).total == surgery_dim(LOW_PEG, SlopeSpec(1, 0)) == 1
    for slope in REFUSAL_SLOPES[1:]:
        for read in (surgery_report, surgery_dim):
            with pytest.raises(PointOnLoop) as refused:
                read(LOW_PEG, slope)
            assert str(refused.value) == "(0, -5/2) lies on the loop", str(slope)


def dims_genus(d) -> int:
    """The genus as `genus_of` read it from every grading of 1/0."""
    return max((int(h) for h in dual_hfk_dims(d, SlopeSpec(1, 0)) if h > 0), default=0)


# An unknot with a finger across the peg column at grading 2 and its half
# turn at -2: 1/0 files gradings -2, 0 and 2, and only 0 keeps a point.
FINGER = parse_curve_text(
    "component winding=1\nv -1/2 0\nv -1/8 15/8\nv 1/8 2\nv -1/8 17/8\nv -1/4 1/4\n"
    "v 1/4 -1/4\nv 1/8 -17/8\nv -1/8 -2\nv 1/8 -15/8\nv 1/2 0\n",
    source="finger",
)


@pytest.mark.parametrize("d,genus,cancelled", [
    (build_zoo("torus_3_4"), 3, [3]),
    (FINGER, 0, [2]),
], ids=lambda x: x.source if isinstance(x, CurveDiagram) else str(x))
def test_genus_is_read_down_from_the_top_grading(monkeypatch, d, genus, cancelled):
    # Cancellation stops at the first grading with a point, or at grading 0.
    vertical = SlopeSpec(1, 0)
    assert filed(ArcSweep(d, vertical))[-1] == cancelled[0]
    calls = cancelled_gradings(monkeypatch, ArcSweep(d, vertical), lambda sweep: genus_of(sweep.diagram))
    assert calls == cancelled and genus_of(d) == genus == dims_genus(d)


def test_genus_is_the_top_positive_grading_of_dims():
    diagrams = [build_zoo(name) for name in zoo_names()] + [thin(tau, 2) for tau in range(-2, 3)] + [FINGER]
    for d in diagrams + [d.mirror() for d in diagrams]:
        assert genus_of(d) == dims_genus(d), d.source


def test_grading_keys_are_the_arc_heights_less_the_offset():
    # a grading's key is read in integers; it is the arc's height less
    # (p - 1)/2, at either sign of p, for every way of giving h
    for slope in (SlopeSpec(1, 0), SlopeSpec(1, 1), SlopeSpec(2, 1), SlopeSpec(-3, 2), SlopeSpec(-4, 3)):
        off = Fraction(slope.p - 1, 2)
        for n in range(-7, 8):
            h = n + off
            want = int(ArcLift(slope, h).height - off)
            for given_h in {h, str(h)} | ({h.numerator} if h.denominator == 1 else set()):
                assert grading_key(slope, given_h) == want == n, (str(slope), given_h)


OFF_GRADINGS = [
    (SlopeSpec(2, 1), 1, "height 1 is not in Z + (2-1)/2 for slope 2/1"),
    (SlopeSpec(2, 1), Fraction(1, 3), "height 1/3 is not in Z + (2-1)/2 for slope 2/1"),
    (SlopeSpec(1, 1), "1/2", "height 1/2 is not in Z + (1-1)/2 for slope 1/1"),
    (SlopeSpec(-3, 2), Fraction(-1, 2), "height -1/2 is not in Z + (-3-1)/2 for slope -3/2"),
    (SlopeSpec(1, 0), Fraction(-5, 4), "height -5/4 is not in Z + (1-1)/2 for slope 1/0"),
]


def grading_readers(sweep: ArcSweep) -> list:
    """Every entry point that reads a grading of the sweep's slope: the arc,
    the sweep's two readers and, where the slope has p >= 1 and q >= 1,
    both differentials."""
    readers = [lambda h: ArcLift(sweep.slope, h), sweep.points, sweep.raw]
    if sweep.slope.p >= 1 and sweep.slope.q >= 1:
        readers += [lambda h, kind=kind: differential_matrix(sweep, h, kind) for kind in ("phi", "psi")]
    return readers


@pytest.mark.parametrize("slope,h,message", OFF_GRADINGS)
def test_an_off_grading_height_is_refused_as_arc_lift_refuses_it(slope, h, message):
    for read in grading_readers(ArcSweep(build_zoo("trefoil"), slope)):
        with pytest.raises(GradingOutOfRange) as refused:
            read(h)
        assert type(refused.value) is GradingOutOfRange and str(refused.value) == message


def test_a_height_that_is_not_exact_is_refused_as_arc_lift_refuses_it():
    for read in grading_readers(ArcSweep(build_zoo("trefoil"), SlopeSpec(1, 1))):
        with pytest.raises(TypeError, match=r"^cannot interpret 0\.5 as an exact rational$"):
            read(0.5)


# Every slope kind an arc has: 1/0, and p/q with q odd and even, p negative,
# and at the CLI cap.
ARC_SLOPES = [SlopeSpec(1, 0), SlopeSpec(1, 1), SlopeSpec(-1, 1), SlopeSpec(3, 2),
              SlopeSpec(-7, 3), SlopeSpec(12, 1), SlopeSpec(-12, 5), SlopeSpec(63, 31)]


def test_arc_lift_indices_match_the_arc_object(monkeypatch):
    # The boxes lifts are picked from: each zoo and thin component's padded
    # bounding box, as `ArcSweep` pads it, and each window `render_svg`
    # draws arcs over.
    diagrams = [build_zoo(name) for name in zoo_names()]
    diagrams += [thin(tau, fig8) for tau in (-2, 0, 1) for fig8 in (1, 3)]
    boxes = [c.bbox().pad(Fraction(1, 100)) for d in diagrams for c in d.components]
    drawn = []
    original = ArcLift.lift_indices

    def recording(arc, box):
        drawn.append(box)
        return original(arc, box)

    monkeypatch.setattr(ArcLift, "lift_indices", recording)
    for name in zoo_names():
        render_svg(build_zoo(name), overlay_arc=ArcLift(SlopeSpec(1, 1), 0))
    monkeypatch.undo()
    assert len(drawn) == len(zoo_names())
    for slope in ARC_SLOPES:
        arc = ArcLift(slope, Fraction(slope.p - 1, 2))
        for box in boxes + drawn:
            assert arc.lift_indices(box) == _ArcObject(arc).lift_indices(box), (str(slope), box)


# ---------------------------------------------------------------------------
# Filling line families

# Every reduced slope with |p| <= 12 and q <= 5 (0/1 included), 1/0 and the
# cap slope 63/31, at the offset `line_family` chooses.
LINE_SLOPES = [
    SlopeSpec(p, q) for q in range(1, 6) for p in range(-12, 13) if math.gcd(abs(p), q) == 1
] + [SlopeSpec(1, 0), SlopeSpec(63, 31)]
# Offsets the chosen one avoids: they put vertices on lines, and on some
# slopes a whole segment, which raises.
DIRTY_OFFSETS = (Fraction(0), Fraction(1, 2))


def assert_lines_match_walk(d, slope, offsets=()):
    for fam in [line_family(d, slope)] + [_LineFamily(slope, delta) for delta in offsets]:
        want = outcome(reference_raw_intersections, d, fam)
        assert outcome(raw_intersections, d, fam) == want, (d.source, str(slope), fam.delta)


@pytest.mark.parametrize("name", zoo_names())
def test_line_family_matches_walk_on_zoo(name):
    d = build_zoo(name)
    for slope in LINE_SLOPES:
        assert_lines_match_walk(d, slope)
    for slope in ZOO_SLOPES + [SlopeSpec(0, 1)]:
        assert_lines_match_walk(d, slope, DIRTY_OFFSETS)


line_slopes = (
    st.tuples(st.integers(-12, 12), st.integers(0, 5))
    .filter(lambda pq: pq != (0, 0))
    .map(lambda pq: SlopeSpec(*pq))
)


@settings(max_examples=30, deadline=None)
@given(generated_diagrams, line_slopes)
def test_line_family_matches_walk_on_generated_diagrams(d, slope):
    assert_lines_match_walk(d, slope, DIRTY_OFFSETS)


@pytest.mark.parametrize("d", [COLLINEAR, TALL], ids=lambda d: d.source)
def test_degenerate_line_families_raise_as_the_walk_does(d):
    # At offset 0 the 1/1 line of lift 1 runs along the first two segments
    # and that of lift 0 along two later ones; the smaller lift is reported,
    # at the first of its own segments.
    want = "curve segment (1/8, -3/8)->(3/8, -1/8) is collinear with object lift 0"
    assert outcome(reference_raw_intersections, d, _LineFamily(UNIT, Fraction(0))) == want
    for slope in ZOO_SLOPES:
        assert_lines_match_walk(d, slope, DIRTY_OFFSETS)
