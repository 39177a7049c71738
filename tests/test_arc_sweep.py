"""Raw intersections against the per-lift walk and a brute-force oracle.

The reference below is the per-lift walk that paired every object before
the level scan replaced it, kept verbatim but for its rule at a vertex on
a line: each object lift is walked segment by segment with its own side
test.  It shares no walk with `Component.level_crossings`, through which
`ArcSweep` and `raw_intersections` now find every crossing.  Both must
reproduce its IPoint lists exactly (same points, same order): the sweep
for every grading of an arc slope, before and after bigon cancellation,
and `raw_intersections` for filling line families, at the chosen offset
and at offsets that put vertices, or whole segments, on the lines.  A run
of vertices along a lift's line is read pushed off it to the side where
the curve leaves it: it crosses the line once, at its first vertex, iff
the curve comes to it from the other side, and nothing raises.  The walk pairs the arc objects that
pairing used before `ArcLift.lift_indices` replaced them, copied verbatim
with `_u_param`: `ArcLift.lift_indices` must pick the lifts
`_ArcObject.lift_indices` did.  It reads a filling family through
`_LineObject`, the anchor-and-direction copy in `test_offset`.  The walk
finds each crossing in Fractions and turns it into an IPoint with
`ipoint`, whose record `test_level_scan.record` builds from those
Fractions and the crossing's level.

`arc_oracle` checks the walk in turn: every `ArcLift.seg()` translate
tested against every curve segment, with no level scan and no filing
rule.  The six drawings with segments along arc lines (`DRAWINGS`, read
from the curve files that `tools/cli_digest.py` also runs) must count as
their sheared copies, which hold no segment along a line or arc: the same
graded dimensions, differential ranks, dual totals and filling
dimensions.  `grading_range`, the bounding-box range that `ArcSweep.dims`
read before it read the gradings the sweep files, is kept here as the
range the tests probe, and the sweep must file no grading outside it.
`ArcSweep.total`, the count-only reader, must be the sum of `dims`.
`dims` and `total` cancel only the gradings h >= 0 and read each h < 0
from -h, by the half-turn congruence, which a run along an arc line keeps:
it is crossed iff the curve passes through it, whichever side it comes
from; a counting wrapper around `cancel_bigons` pins that.  Both
must equal the counts with every filed grading cancelled on its own.
`genus_of`, read off the components' reduced column words without a
sweep, is the top positive grading of 1/0.  The arc side and the word
readers serve validated diagrams only: `ArcSweep`, `dual_hfk_dims`,
`genus_of` and `arc_points` refuse a diagram that fails validation, half-turn asymmetric or through a peg, with
`InvariantViolation` carrying its kept report, while the filling side
still pairs the asymmetric one and refuses the walk through the peg.
"""

import math
from fractions import Fraction
from pathlib import Path
from typing import Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegboard.curves import Component, CurveDiagram, InvariantViolation, build_zoo, thin, validate, zoo_names
from pegboard.differentials import differential_matrix, differential_ranks, dually_simple_scan
from pegboard.geometry import ONE, ZERO, Box, Point, PointOnLoop, pt
from pegboard.pairing import (
    ArcLift,
    ArcSweep,
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
        if sa == 0:
            # Vertex exactly on the object's line: it starts a run of
            # vertices on the line unless its predecessor lies on it too.
            # The run, read pushed off the line to the side where the curve
            # leaves it, crosses iff the curve comes to it from the other
            # side; a touch from either side counts 0.
            prev, _ = _neighbor_points(c, verts, i)
            j = i + 1
            while side(c.lifted(j)) == 0 and j < i + n:
                j += 1
            if side(prev) != 0 and (side(prev) < 0) != (side(c.lifted(j)) < 0) and contains(obj, k, a):
                out.append(ipoint(ci, Fraction(i), a, k, arc_slope))
            continue
        if sb == 0 or (sa < 0) == (sb < 0):
            continue  # b is handled as the next segment's vertex (or dropped at the period end)
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
    """Grading h's raw points.

    Each lift-k arc is `ArcLift.seg()` translated by (k, 0) and is tested
    against every segment of one period of every component whose x range it
    meets.  A segment crossing the arc counts at its crossing, and a vertex
    on the arc iff its predecessor lies off the arc's line and on the other
    side of it than the first vertex after it that lies off the line: a
    run of vertices along the line is read pushed off it to the side where
    the curve leaves it, and crosses at its first vertex.
    """
    base = ArcLift(slope, h).seg()
    dx, dy = base.b.x - base.a.x, base.b.y - base.a.y
    points = []
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
                if sa == 0:
                    prev, _ = _neighbor_points(c, verts, i)
                    after = next((side(c.lifted(j)) for j in range(i + 1, i + n + 1) if side(c.lifted(j))), 0)
                    if ZERO <= u(a) <= ONE and side(prev) != 0 and (side(prev) < 0) != (after < 0):
                        points.append(ipoint(ci, Fraction(i), a, k, slope))
                elif sb != 0 and (sa < 0) != (sb < 0):
                    t = sa / (sa - sb)
                    point = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
                    if ZERO <= u(point) <= ONE:
                        points.append(ipoint(ci, i + t, point, k, slope))
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


def walk(d, slope, h):
    """The reference's raw list for one arc."""
    return reference_raw_intersections(d, _ArcObject(ArcLift(slope, h)))


def heights(d, slope):
    """`grading_range` plus two gradings beyond each end."""
    hs = grading_range(d, slope)
    return [hs[0] - 2, hs[0] - 1] + hs + [hs[-1] + 1, hs[-1] + 2]


def assert_sweep_matches_walk(d, slope, cancel=True):
    """The sweep files the walk's raw points at every grading of the
    probed range, and cancels them as `cancel_bigons` does on its own."""
    sweep = ArcSweep(d, slope)
    for h in heights(d, slope):
        want = walk(d, slope, h)
        assert sweep.raw(h) == want, (d.source, str(slope), h)
        if cancel:
            live, _ = cancel_bigons(want, d, 1)
            assert sweep.points(h) == tuple(live), (d.source, str(slope), h)
    return sweep


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


# The six drawings with segments along arc lines, one curve file each,
# which `tools/cli_digest.py` runs too:
# - collinear: a null-wiggle whose segments 0, 1, 3 and 4 lie on 1/1 arc
#   lines;
# - tall: a taller variant whose segments next to those still cross other
#   arcs;
# - upright: a wiggle with one segment on the 1/0 line x = 0, inside the
#   grading-0 arc;
# - stacked: three such segments, inside the arcs of gradings -1, 0 and 1;
# - two_stacks: stacked's outer two, joined across grading 0, which holds
#   none;
# - triangle: the unknot's line with the triangle (1/10, 3/5), (3/10, 4/5),
#   (3/10, 3/5) and its half turn, whose sides of slope 1 lie along 1/1
#   arcs.
CURVES = Path(__file__).resolve().parents[1] / "tools" / "curves"


def drawn(name: str) -> CurveDiagram:
    """The validated diagram of `tools/curves/<name>.curve`."""
    return parse_curve_text((CURVES / f"{name}.curve").read_text(encoding="utf-8"), source=name)


# The drawings of `tools/curves` that validate: every one but `seam_run`,
# which crosses the seam five times and is refused.
VALID_DRAWN = sorted(path.stem for path in CURVES.glob("*.curve") if path.stem != "seam_run")
DRAWINGS = [drawn(name) for name in ("collinear", "tall", "upright", "stacked", "two_stacks", "triangle")]
COLLINEAR, TALL, UPRIGHT, STACKED, TWO_STACKS, TRIANGLE = DRAWINGS
UNIT = SlopeSpec(1, 1)
DEGENERATE_SLOPES = [UNIT, SlopeSpec(-1, 1), SlopeSpec(3, 2), SlopeSpec(1, 0)]


def runs_on_arc_lines(d, slope) -> list:
    """(component, segment) of each segment of one period that lies along
    an arc line of the slope, read in Fractions: both ends on one level of
    p*x - q*y in Z + q/2."""
    p, q = slope.p, slope.q
    runs = []
    for ci, c in enumerate(d.components):
        verts, n = _component_cycle(c)
        for i in range(n):
            a, b = (p * v.x - q * v.y - Fraction(q, 2) for v in verts[i:i + 2])
            if a == b and a.denominator == 1:
                runs.append((ci, i))
    return runs


@pytest.mark.parametrize("d", DRAWINGS, ids=lambda d: d.source)
def test_segments_along_arc_lines_pair_as_the_walk_and_the_oracle(d):
    # Each drawing and its mirror has a segment along an arc line at some
    # slope here; the sweep files the walk's points at every grading, the
    # oracle finds the same, and the differentials read them.
    assert validate(d).ok
    runs = 0
    for diagram in (d, d.mirror()):
        for slope in DEGENERATE_SLOPES:
            runs += len(runs_on_arc_lines(diagram, slope))
            sweep = assert_sweep_matches_walk(diagram, slope)
            for h in heights(diagram, slope):
                assert arc_oracle(diagram, slope, h) == walk(diagram, slope, h), (diagram.source, str(slope), h)
                if slope.p >= 1 and slope.q >= 1:
                    differential_matrix(sweep, h, "phi")
                    differential_matrix(sweep, h, "psi")
    assert runs


@pytest.mark.parametrize("name", ["trefoil", "figure_eight"])
def test_oracle_matches_walk_on_zoo(name):
    d = build_zoo(name)
    for slope in ZOO_SLOPES:
        for h in heights(d, slope):
            assert arc_oracle(d, slope, h) == walk(d, slope, h), (name, str(slope), h)


def test_a_run_along_a_level_crosses_it_iff_the_curve_passes_through():
    # UPRIGHT's segment 1 lies on x = 0, inside the 1/0 arc of grading 0:
    # the curve comes to it from the left and leaves to the right, so it
    # crosses once, at vertex 1.  STACKED's runs at gradings -1, 0 and 1
    # are entered and left from the left, from the left and to the right,
    # and from the right and to the right: only the middle one crosses.
    vertical = SlopeSpec(1, 0)
    assert runs_on_arc_lines(UPRIGHT, vertical) == [(0, 1)]
    assert ArcSweep(UPRIGHT, vertical).raw(0) == [ipoint(0, Fraction(1), pt(0, Fraction(-1, 4)), 0, vertical)]
    assert runs_on_arc_lines(STACKED, vertical) == [(0, 1), (0, 4), (0, 7)]
    sweep = ArcSweep(STACKED, vertical)
    assert [[position(ip) for ip in sweep.raw(h)] for h in (-1, 0, 1)] == [[], [4], []]
    # The crossings of a run are a vertex's, and the segment's other
    # crossings stay: TALL's vertex 2 ends a run of the 1/1 level -1, and
    # its segment 2 crosses the grading-2 arcs.
    crossings = TALL.components[0].level_crossings(1, -1, -Fraction(1, 2))
    assert (0, 1) in runs_on_arc_lines(TALL, UNIT)
    want = walk(TALL, UNIT, 2)
    assert [math.floor(position(ip)) for ip in want] == [2, 3]
    assert {ip.crossing for ip in want} <= set(crossings)


@pytest.mark.parametrize("d", DRAWINGS, ids=lambda d: d.source)
def test_a_run_is_crossed_at_h_as_its_half_turn_is_at_minus_h(d):
    # The half turn maps each drawing onto itself, the grading-h arcs onto
    # the grading -h arcs and each run onto a run that the curve passes
    # through, or only touches, as it does the first: h and -h file equal
    # numbers of raw points, and `dims` reads each h < 0 from -h.
    for slope in DEGENERATE_SLOPES:
        sweep = ArcSweep(d, slope)
        for h in heights(d, slope):
            assert len(sweep.raw(h)) == len(sweep.raw(-h)), (d.source, str(slope), h)
        assert sweep.dims() == per_grading_dims(sweep), (d.source, str(slope))


def sheared(d) -> CurveDiagram:
    """d under (x, y) -> (x + y/997, y + 2y/991).  The map is linear, so it
    keeps the period (1, 0) and commutes with the half turn; on these
    drawings it moves no point by more than 1/100, less than any
    segment's distance to a peg, so the copy is isotopic to d in the
    punctured plane, and its segments lie along no line or arc here."""
    def move(v):
        return Point(v.x + v.y / 997, v.y + 2 * v.y / 991)
    return CurveDiagram(tuple(Component(tuple(move(v) for v in c.vertices), c.winding)
                              for c in d.components), f"{d.source}, sheared")


SHEAR_SLOPES = [SlopeSpec(1, 1), SlopeSpec(-1, 1), SlopeSpec(3, 2), SlopeSpec(2, 1), SlopeSpec(-3, 2),
                SlopeSpec(5, 3), SlopeSpec(1, 0)]


def counts(d, slope) -> tuple:
    """What `hfk`, `diff` and `scan-simple` read at the slope: the graded
    dimensions, the differential ranks (p >= 1 and q >= 1 only), the dual
    total and the filling dimension (not at 1/0)."""
    sweep = ArcSweep(d, slope)
    ranks = differential_ranks(sweep) if slope.p >= 1 and slope.q >= 1 else None
    return sweep.dims(), ranks, sweep.total(), surgery_dim(d, slope) if slope.q else None


@pytest.mark.parametrize("d", DRAWINGS, ids=lambda d: d.source)
def test_a_drawing_counts_as_its_sheared_copy(d):
    copy = sheared(d)
    assert validate(copy).ok
    assert any(runs_on_arc_lines(d, slope) for slope in SHEAR_SLOPES)
    for slope in SHEAR_SLOPES:
        assert not runs_on_arc_lines(copy, slope), str(slope)
        assert counts(d, slope) == counts(copy, slope), (d.source, str(slope))


def test_the_triangle_counts_as_the_unknot():
    # The triangle and its half turn bound no peg, so every slope of the
    # 3x2 scan reads the unknot's numbers.
    unknot = build_zoo("unknot")
    scan = dually_simple_scan(TRIANGLE, 3, 2)
    assert scan == dually_simple_scan(unknot, 3, 2)
    assert any(runs_on_arc_lines(TRIANGLE, entry.slope) for entry in scan)
    for entry in scan:
        assert counts(TRIANGLE, entry.slope) == counts(unknot, entry.slope), str(entry.slope)


# A zoo knot with a small triangle in 0 < x < 1/2 and its half turn, one
# side of the triangle along an arc line of the slope.  The triangle bounds
# no peg, so the diagram counts as the knot.  Pushed off to one fixed side
# of each level, a run that the curve only touches would file two raw
# points around it, and a strand of the knot crossing the run between them
# blocks their bigon (ROADMAP item 1, defect (a)): these are cases where
# that gave dimensions other than the knot's.  Only the arc readers are
# compared: the filling family runs along no segment, and defect (a) still
# leaves the filling dimension of the second and fourth case above the
# knot's, as on any drawing.
TRIANGLE_RUNS = [
    ("unknot", SlopeSpec(4, 3), [(Fraction(3, 10), Fraction(-1, 10)), (Fraction(33, 80), Fraction(1, 20)), (Fraction(13, 40), Fraction(1, 20))]),
    ("unknot", SlopeSpec(5, 1), [(Fraction(11, 40), Fraction(-1, 8)), (Fraction(5, 16), Fraction(1, 16)), (Fraction(3, 10), Fraction(1, 40))]),
    ("trefoil", SlopeSpec(-4, 3), [(Fraction(1, 5), Fraction(-13, 30)), (Fraction(5, 16), Fraction(-7, 12)), (Fraction(7, 40), Fraction(-37, 120))]),
    ("trefoil", SlopeSpec(-1, 3), [(Fraction(2, 5), Fraction(-3, 10)), (Fraction(37, 80), Fraction(-43, 160)), (Fraction(13, 40), Fraction(-11, 40))]),
    ("torus_2_5", SlopeSpec(-3, 2), [(Fraction(7, 20), Fraction(-21, 40)), (Fraction(2, 5), Fraction(-3, 5)), (Fraction(3, 8), Fraction(-11, 20))]),
]


@pytest.mark.parametrize("name,slope,triangle", TRIANGLE_RUNS,
                         ids=[f"{name} {slope}" for name, slope, _ in TRIANGLE_RUNS])
def test_a_touched_run_adds_no_points_for_cancellation_to_miss(name, slope, triangle):
    knot = build_zoo(name)
    tri = Component(tuple(pt(x, y) for x, y in triangle), 0)
    d = CurveDiagram(knot.components + (tri, Component(tuple(pt(-x, -y) for x, y in triangle), 0)), name)
    assert validate(d).ok and runs_on_arc_lines(d, slope)
    assert counts(d, slope)[:3] == counts(knot, slope)[:3]


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
# TWO_STACKS, whose segments lie along 1/0 arc lines, with MUTANT's
# lopsided component: validation refuses it before any arc is read.
RUNS_MUTANT = CurveDiagram(TWO_STACKS.components + MUTANT.components[1:], "two stacks, mutant")
REFUSAL_SLOPES = [SlopeSpec(1, 0), SlopeSpec(1, 1), SlopeSpec(2, 1), SlopeSpec(-3, 2)]


@pytest.mark.parametrize("d,codes", [(MUTANT, ["symmetry"]), (LOW_PEG, ["peg"]), (RUNS_MUTANT, ["symmetry"])],
                         ids=["mutant", "low peg", "runs mutant"])
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


@pytest.mark.parametrize("d,genus,top", [
    (build_zoo("torus_3_4"), 3, 3),
    (FINGER, 0, 2),
], ids=lambda x: x.source if isinstance(x, CurveDiagram) else str(x))
def test_genus_is_read_without_a_sweep(monkeypatch, d, genus, top):
    # The top filed grading of 1/0 is the genus, or loses its points to
    # cancellation (FINGER); `genus_of` reads the words and builds no sweep.
    import pegboard.pairing as pairing

    assert filed(ArcSweep(d, SlopeSpec(1, 0)))[-1] == top
    with monkeypatch.context() as patched:
        patched.setattr(pairing, "ArcSweep", None)
        patched.setattr(pairing, "cancel_bigons", None)
        assert genus_of(d) == genus
    assert genus == dims_genus(d)


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
# slopes a whole segment, which is read pushed off the line.
DIRTY_OFFSETS = (Fraction(0), Fraction(1, 2))


def assert_lines_match_walk(d, slope, offsets=()):
    for fam in [line_family(d, slope)] + [_LineFamily(slope, delta) for delta in offsets]:
        want = reference_raw_intersections(d, fam)
        assert raw_intersections(d, fam) == want, (d.source, str(slope), fam.delta)


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
def test_line_families_along_segments_match_the_walk(d):
    # At offset 0 the 1/1 lines of lifts 1 and 0 run along segments 0, 1
    # and 3, 4, and on across the period end.  A run is crossed once, at
    # its first vertex, iff the curve comes to it and leaves it on
    # opposite sides: COLLINEAR steps down from run to run, and one period
    # holds one run start, vertex 3 on lift 0; TALL's run from vertex 5 on
    # lift 0 is entered from its low excursion and left to its high one.
    fam = _LineFamily(UNIT, Fraction(0))
    at_vertices = [(position(ip), ip.lift) for ip in raw_intersections(d, fam) if not ip.crossing.r]
    assert at_vertices == {"collinear": [(3, 0)], "tall": [(5, 0)]}[d.source]
    for slope in ZOO_SLOPES:
        assert_lines_match_walk(d, slope, DIRTY_OFFSETS)
