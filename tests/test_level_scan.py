"""The integer level scan against the Fraction scan it replaced, against
the scan of the pushed curve, and against what its records claim.

`reference_level_crossings` is the body of `Component.level_crossings`
from before the scan moved to integers (with `self` named `c`), moved to
the run rule that reads each run of vertices on a level pushed off it to
the side where the curve leaves it: it evaluates a callable Fraction form
at every vertex and scans the levels form = m + off, and a vertex on a
level counts iff it starts a run (its predecessor lies off the level) that
the curve comes to and leaves on opposite sides.  `Component.level_crossings(a, b,
c)` scans the levels of a*x + b*y + c, which are those of the form
a*x + b*y at off = -c, and must return the same crossings: its records,
read as (pos, point, m), give the same positions, points and levels in the
same order.

`pushed_scan` shares no code with either: it moves every vertex on a level
a small epsilon to the side where the curve next leaves that level, so
that no vertex lies on one, and reads each crossing at its limit position
as epsilon goes to 0.  The scan must give its levels at its positions, in
curve order: it loses no crossing inside a segment, and no two of its
records share a position.

The record oracle shares no code with the scan: it reads each record's
integers back as Fractions and checks that the point lies on its level and
on its segment at the ratio the record gives, and that positions strictly
increase.  `record` builds the record of a Fraction crossing, for the
references of other test modules.  One component's lifted vertex table
serves scans whose rescale factors differ, interleaved, and is never
rescaled in place.  The last test counts the Fractions the
count paths build: none per crossing.
"""

import math
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegboard.curves import (
    Component,
    Crossing,
    CurveDiagram,
    build_zoo,
    lspace_staircase,
    seam_crossings,
    thin,
    zoo_names,
)
from pegboard.geometry import HALF, ZERO, Point
from pegboard.pairing import ArcSweep, SlopeSpec, dual_hfk_dims, line_family, raw_intersections, surgery_dim
from conftest import position

# ---------------------------------------------------------------------------
# The Fraction scan (reference)


def reference_level_crossings(
    c: Component, form: Callable[[Point], Fraction], off: Fraction
) -> list[tuple[Fraction, Point, int]]:
    """Crossings of one period with the levels form = m + off.

    `form` is an affine function of the point and m runs over the
    integers.  Returns (pos, point, m) in curve order, pos being the
    segment index plus the fraction along the segment.  A vertex on a
    level starts a run unless its predecessor lies on the same level, and
    the run crosses the level, at that vertex, iff the curve comes to it
    and leaves it on opposite sides; the period's end vertex repeats its
    start and is left to it.
    """
    n = c.cycle_length()
    if n == 0:
        return []

    def value(j: int) -> Fraction:
        return form(c.lifted(j))

    crossings: list[tuple[Fraction, Point, int]] = []
    for i in range(n):
        a, b = c.lifted(i), c.lifted(i + 1)
        f_prev, fa, fb = value(i - 1), value(i), value(i + 1)
        if (fa - off).denominator == 1 and f_prev != fa:
            j = i + 1
            while value(j) == fa:
                j += 1
            if (f_prev < fa) != (value(j) < fa):
                crossings.append((Fraction(i), a, int(fa - off)))
        if fa == fb:
            continue
        if fa < fb:
            levels = range(math.floor(fa - off) + 1, math.ceil(fb - off))
        else:
            levels = range(math.ceil(fa - off) - 1, math.floor(fb - off), -1)
        dx, dy, df = b.x - a.x, b.y - a.y, fb - fa
        for m in levels:
            t = (m + off - fa) / df
            crossings.append((i + t, Point(a.x + t * dx, a.y + t * dy), m))
    return crossings


def pushed_scan(c: Component, a: int, b: int, off_c: Fraction) -> list[tuple[Fraction, int]]:
    """The crossings of one period with the levels F = a*x + b*y + off_c = m,
    each vertex on a level moved a small epsilon to the side where the
    curve next leaves that level, as (pos, m) at the limit position as
    epsilon goes to 0, in curve order.

    Moved, no vertex lies on a level: a vertex's value is the pair (F, s),
    s the sign of its move (0 off the levels, and on a component that
    never leaves its level), and pairs compare in order.  Segment i crosses
    level m iff exactly one of its ends has (F, s) < (m, 0), at the ratio
    (m - F_a)/(F_b - F_a) along it in the limit, 1 where its end lies on
    m.  The crossing at the end of the period is its start's, one period
    on.
    """
    n = c.cycle_length()

    def value(j: int) -> Fraction:
        v = c.lifted(j)
        return a * v.x + b * v.y + off_c

    def moved(j: int) -> tuple[Fraction, int]:
        f = value(j)
        if f.denominator != 1:
            return f, 0
        out = next((value(k) for k in range(j + 1, j + n + 1) if value(k) != f), f)
        return f, (out > f) - (out < f)

    shift = value(n) - value(0)  # F moves by a over a period of the wrapping component
    kept = []
    for i in range(n):
        (fa, sa), (fb, sb) = moved(i), moved(i + 1)
        for m in range(math.floor(min(fa, fb)), math.ceil(max(fa, fb)) + 1):
            if ((fa, sa) < (m, 0)) != ((fb, sb) < (m, 0)):
                pos = i + (m - fa) / (fb - fa)
                kept.append((Fraction(0), m - shift) if pos == n else (pos, m))
    return sorted(kept)


# ---------------------------------------------------------------------------
# Helpers


def reference_scan(c: Component, a: int, b: int, off_c: Fraction):
    return reference_level_crossings(c, lambda v: a * v.x + b * v.y, -off_c)


def record(pos: Fraction, point: Point, m: int) -> Crossing:
    """The `Crossing` at position pos and point on level m, in lowest
    terms, built from the Fractions."""
    i = math.floor(pos)
    t = Fraction(pos - i)
    x, y = Fraction(point.x), Fraction(point.y)
    den = math.lcm(x.denominator, y.denominator)
    return Crossing(i, t.numerator, t.denominator, x.numerator * (den // x.denominator),
                    y.numerator * (den // y.denominator), den, m)


def assert_scans_agree(c: Component, a: int, b: int, off_c: Fraction):
    got = c.level_crossings(a, b, off_c)
    want = reference_scan(c, a, b, off_c)
    assert [(position(e), e.point, e.m) for e in got] == want
    # The records are those of the Fraction crossings, whose values read
    # back with the same types: exact Fractions and int levels.
    assert got == [record(*crossing) for crossing in want]
    for e, (rpos, rpoint, rm) in zip(got, want):
        assert type(position(e)) is type(rpos) is Fraction
        assert type(e.point.x) is type(e.point.y) is Fraction
        assert type(e.m) is type(rm) is int


# ---------------------------------------------------------------------------
# Random components


GRIDS = (3, 4, 5)  # quarter, third and fifth grids


@st.composite
def scanned_components(draw):
    """(component, a, b, c): a random closed or wrapping component on a
    1/3, 1/4 or 1/5 grid, and a form whose levels some of its vertices, or
    whole segments, lie on."""
    a = draw(st.integers(-4, 4))
    b = draw(st.integers(-4, 4))
    c = Fraction(draw(st.integers(-12, 12)), draw(st.sampled_from((1, 2, 3, 4, 5, 6))))
    den = draw(st.sampled_from(GRIDS))
    coord = st.integers(-3 * den, 3 * den).map(lambda k: Fraction(k, den))
    winding = draw(st.integers(0, 1))
    n = draw(st.integers(1 if winding == 0 else 2, 7))
    verts = [Point(draw(coord), draw(coord)) for _ in range(n - winding)]
    # Snap some vertices onto a level of a*x + b*y + c, by moving y (x when
    # b is 0).  Snapping neighbours onto one level lays a segment along it.
    level = draw(st.integers(-6, 6))
    for i in draw(st.lists(st.integers(0, len(verts) - 1), max_size=4)):
        v = verts[i]
        m = level if draw(st.booleans()) else draw(st.integers(-6, 6))
        if b:
            verts[i] = Point(v.x, (m - c - a * v.x) / b)
        elif a:
            verts[i] = Point((m - c) / a, v.y)
    if winding:
        verts.append(Point(verts[0].x + 1, verts[0].y))
    return Component(tuple(verts), winding), a, b, c


@settings(max_examples=400, deadline=None)
@given(scanned_components())
def test_integer_scan_matches_fraction_scan(case):
    assert_scans_agree(*case)


@settings(max_examples=300, deadline=None)
@given(scanned_components())
def test_scan_reads_the_pushed_curve(case):
    """The scan gives the pushed curve's levels at its limit positions, in
    curve order, and no two records share a position."""
    comp, a, b, c = case
    got = [(position(e), e.m) for e in comp.level_crossings(a, b, c)]
    assert got == pushed_scan(comp, a, b, c)
    assert all(x < y for (x, _), (y, _) in zip(got, got[1:]))


@settings(max_examples=200, deadline=None)
@given(scanned_components(), st.integers(-12, 12))
def test_scans_rescale_the_cached_frame(case, num):
    """The scan reads the component's cached frame, of scale S, rescaled by
    f = lcm(S, den c) // S: offsets whose denominator divides S (f = 1) and
    offsets whose denominator does not (f > 1, a factor 7 that no grid
    scale holds) scan as the Fraction scan does.  Scanning one component
    at several offsets leaves its frame as it was and gives what a fresh
    component gives."""
    comp, a, b, c = case
    scale, xs, ys = comp._frame
    frame = (scale, list(xs), list(ys))
    offsets = [Fraction(num, scale), c, c + Fraction(1, 7 * scale)]
    rescale = [math.lcm(scale, off.denominator) // scale for off in offsets]
    assert rescale[0] == 1 and rescale[2] % 7 == 0
    for off in offsets:
        assert_scans_agree(comp, a, b, off)
    assert comp._frame == frame
    for off in offsets:
        assert comp.level_crossings(a, b, off) == Component(comp.vertices, comp.winding).level_crossings(a, b, off)


# A wrapping and a closed component on the thirds grid: an offset over 2
# rescales their frames (scale 3), where it leaves the zoo's (scale 32) as
# they are.
THIRDS = CurveDiagram((
    Component(tuple(Point(Fraction(x, 3), Fraction(y, 3)) for x, y in [(0, 1), (1, 5), (2, -2), (3, 1)]), 1),
    Component(tuple(Point(Fraction(x, 3), Fraction(y, 3)) for x, y in [(-2, -1), (1, -2), (2, 2), (-1, 1)]), 0),
))


@pytest.mark.parametrize("d", [thin(1, 1), THIRDS], ids=["thin(1,1)", "thirds"])
def test_one_vertex_table_serves_every_rescale(d):
    """Each component is scanned, in interleaved order, by forms whose
    rescale factors differ: the arc forms at offsets -1/2 and 0, the
    filling form that `line_family` picks and the seam form x - 1/2.  Each
    scan is that of a fresh component, and the frame and the lifted
    vertex table are as they were afterwards."""
    for comp in d.components:
        frame, table = repr(comp._frame), repr(comp._lifted_frame)
        factors = set()
        for p, q in ((2, 1), (3, 2), (-5, 3), (1, 4)):
            fam = line_family(d, SlopeSpec(p, q))
            for a, b, c in ((p, -q, -Fraction(q % 2, 2)), (fam.a, fam.b, fam.c), (1, 0, -HALF)):
                factors.add(comp._rescale_for(c)[1])
                assert comp.level_crossings(a, b, c) == Component(comp.vertices, comp.winding).level_crossings(a, b, c)
        assert len(factors) > 1 and (repr(comp._frame), repr(comp._lifted_frame)) == (frame, table)
    assert {c.winding for c in d.components} == {0, 1}


def test_snapped_components_reach_every_branch():
    """The strategy's own examples put vertices and segments on levels and
    cross levels both rising and falling, so the tests above compare every
    branch of the scan: a crossing at a lone vertex, at the first vertex
    of a run along a level that the curve passes through, and inside a
    segment; a run of two or more vertices that the curve only touches,
    from below and from above, and a lone vertex that it only touches."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(scanned_components())
    def probe(case):
        comp, a, b, c = case

        def value(j):
            v = comp.lifted(j)
            return a * v.x + b * v.y + c

        crossings = reference_scan(comp, a, b, c)
        for pos, _, _ in crossings:
            i = math.floor(pos)
            if pos.denominator == 1:
                seen.add("run" if value(i) == value(i + 1) else "vertex")
            else:
                seen.add("segment")
                seen.add("rising" if value(i) < value(i + 1) else "falling")
        at_vertices = {pos for pos, _, _ in crossings if pos.denominator == 1}
        for i in range(comp.cycle_length()):
            if value(i).denominator == 1 and value(i - 1) != value(i) and i not in at_vertices:
                j = i + 1
                while value(j) == value(i) and j < i + comp.cycle_length():
                    j += 1
                if value(j) != value(i):
                    side = "below" if value(j) < value(i) else "above"
                    seen.add(f"touched run {side}" if j > i + 1 else "touch")

    probe()
    assert seen >= {"vertex", "run", "segment", "rising", "falling", "touched run below", "touched run above",
                    "touch"}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1), st.lists(st.tuples(st.integers(-2, 2), st.integers(-4, 4)), min_size=2, max_size=7),
       st.sampled_from((ZERO, HALF)))
def test_seam_crossings_read_the_run_rule(winding, points, shift):
    """`seam_crossings`, which validation's seam count reads, is the level
    scan's run rule on the seam lines x in 1/2 + Z: a crossing inside a
    segment, at a vertex whose neighbours lie strictly on either side of
    its line, or at the first vertex of a run along the line that the
    curve passes through; a run or a vertex that the curve only touches
    adds none.  Abscissae on the half grid, moved by 0 or 1/2, put runs of
    vertices on the seam lines, entered and left from either side."""
    verts = [Point(Fraction(x, 2) + shift, Fraction(y, 4)) for x, y in points]
    if winding:
        verts.append(Point(verts[0].x + 1, verts[0].y))
    comp = Component(tuple(verts), winding)
    want = [record(pos, point, m) for pos, point, m in reference_level_crossings(comp, lambda v: v.x, HALF)]
    assert seam_crossings(comp) == want


# ---------------------------------------------------------------------------
# The forms production scans


def _diagrams():
    ds = [build_zoo(name) for name in zoo_names()]
    ds += [lspace_staircase({4: 1, 2: -1, 0: 1, -2: -1, -4: 1}), thin(2, 3), thin(-1, 2)]
    return ds + [d.mirror() for d in ds] + [d.rotate180() for d in ds]


@pytest.mark.parametrize("form", [(1, 0, -HALF), (1, 0, ZERO)], ids=["seam", "peg-column"])
def test_column_scans_match(form):
    for d in _diagrams():
        for comp in d.components:
            assert_scans_agree(comp, *form)


def test_zoo_scans_at_both_rescales():
    """On every component of the production diagrams, an offset over the
    component's own scale (f = 1) and one over twice it (f = 2) scan as
    the Fraction scan does, and the cached frame is unchanged."""
    for d in _diagrams():
        for comp in d.components:
            scale = comp._frame[0]
            before = repr(comp._frame)
            for off in (Fraction(1, scale), Fraction(1, 2 * scale)):
                assert_scans_agree(comp, 1, 0, off)
                assert_scans_agree(comp, 2, -3, off)
            assert repr(comp._frame) == before


def test_arc_and_family_scans_match():
    """The arc form (p, -q, -(q mod 2)/2) and slanted family forms
    (-p, q, p*(1/2 + delta)) at every coprime |p| <= 9, q <= 4."""
    slopes = [(p, q) for q in range(0, 5) for p in range(-9, 10)
              if p and math.gcd(abs(p), q) == 1 and (q or p == 1)]
    for d in _diagrams():
        for comp in d.components:
            for p, q in slopes:
                assert_scans_agree(comp, p, -q, -Fraction(q % 2, 2))
                if q:
                    assert_scans_agree(comp, -p, q, p * (HALF + Fraction(1, 7 * 64)))


# ---------------------------------------------------------------------------
# The record oracle


def assert_records_hold(c: Component, a: int, b: int, off_c: Fraction):
    """Each record of the scan, read back as Fractions, lies on its level
    and on its segment at its ratio, in lowest terms, and the positions
    strictly increase."""
    crossings = c.level_crossings(a, b, off_c)
    n = len(c.vertices) if c.winding == 0 else len(c.vertices) - 1
    last = None
    for e in crossings:
        assert type(e) is Crossing, e  # not a bare tuple: it has last_segment and precedes
        assert all(type(v) is int for v in e), e
        assert 0 <= e.i < n and 0 <= e.r < e.dg and e.den > 0, e
        assert math.gcd(e.r, e.dg) == 1 and math.gcd(e.x, e.y, e.den) == 1, e
        x, y, t = Fraction(e.x, e.den), Fraction(e.y, e.den), Fraction(e.r, e.dg)
        assert a * x + b * y + off_c == e.m, e
        start, end = c.vertices[e.i], c.vertices[(e.i + 1) % len(c.vertices)]
        assert (x, y) == (start.x + t * (end.x - start.x), start.y + t * (end.y - start.y)), e
        pos = e.i + t
        assert last is None or last < pos, e
        last = pos
    return len(crossings)


def forms(d) -> list[tuple[int, int, Fraction]]:
    """The seam and peg-column forms, and the filling and arc forms of a few
    slopes (1/0 among them)."""
    out = [(1, 0, -HALF), (1, 0, ZERO)]
    for p, q in ((1, 0), (1, 1), (-2, 1), (5, 2), (2, 3), (-7, 4), (63, 31)):
        slope = SlopeSpec(p, q)
        fam = line_family(d, slope)
        out += [(fam.a, fam.b, fam.c), (slope.p, -slope.q, -Fraction(slope.q % 2, 2))]
    return out


def test_records_hold_on_zoo_and_thin_diagrams():
    seen = 0
    for d in _diagrams():
        for a, b, c in forms(d):
            for comp in d.components:
                seen += assert_records_hold(comp, a, b, c)
    assert seen > 1000


@st.composite
def staircases(draw):
    upper = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True)), reverse=True)
    exps = upper + [0] + [-e for e in reversed(upper)]
    d = lspace_staircase({e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)})
    return d.mirror() if draw(st.booleans()) else d


@settings(max_examples=30, deadline=None)
@given(staircases())
def test_records_hold_on_staircases(d):
    for a, b, c in forms(d):
        assert_records_hold(d.gamma0(), a, b, c)


@settings(max_examples=200, deadline=None)
@given(scanned_components())
def test_records_hold_on_snapped_components(case):
    assert_records_hold(*case)


# ---------------------------------------------------------------------------
# The count paths build no Fraction per crossing


def test_count_paths_build_no_fraction_per_crossing(monkeypatch):
    """`surgery_dim` and `dual_hfk_dims` of torus_3_4 at the cap slope 63/31
    build fewer Fractions than they have raw points: the scan hands over
    integer records, and cancellation reads them in integers."""
    d, slope = build_zoo("torus_3_4"), SlopeSpec(63, 31)
    sweep = ArcSweep(d, slope)
    raw = len(raw_intersections(d, line_family(d, slope)))
    raw += sum(len(sweep.raw(h)) for h in sweep.dims())
    original = Fraction.__new__
    built = 0

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original(cls, *args, **kwargs)

    d = build_zoo("torus_3_4")  # no frame or column table kept from above
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    surgery_dim(d, slope)
    dual_hfk_dims(d, slope)
    monkeypatch.undo()
    assert 0 < built < raw, (built, raw)
