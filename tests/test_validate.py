"""Validation, the segment peg, the seam anchor and the canonical keys against their predecessors.

The references below are the code that ran before validation became one
column pass, copied verbatim:
- `reference_segment_hits_peg` tried every peg of the segment's bounding
  box with `on_segment`'s Fraction cross product;
- `reference_canonical_cycle` rebuilt every rotation of a closed component
  by modular indexing;
- `reference_validate` scanned the wrapping component for seam crossings
  once for the seam check and again, through `reference_anchor_at_seam`,
  for the component and for its half-turn in the `_component_key`-based
  symmetry check.  One line differs, marked below: the seam check skips a
  wrapping component that already failed the vertex check, a deliberate
  fix (such a component used to be reported twice, or to raise
  `IndexError` with no vertex at all).  Its seam scan is the Fraction
  level scan, `test_level_scan.reference_level_crossings`, not the
  integer one that production validation runs.  Both read a run of
  vertices along a seam line by the scan's run rule, a second deliberate
  fix: a run that the curve passes through is one seam crossing, where
  the strict rule that ran before counted none.
The peg that the column table names for a segment through one
(`Component.segment_columns` raising `PointOnLoop`, its `peg`) must be
`reference_segment_hits_peg`'s, and no peg where that finds none;
`validate` must give the same violations, `anchor_at_seam` the same
period, with a seam crossing at a vertex or inside a segment, on valid
and mutated curves, and `emit_curve_text` the same bytes as the emission
built on the references.
"""

import math
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pegboard.curves import (
    Component,
    CurveDiagram,
    InvariantViolation,
    ValidationReport,
    Violation,
    _cycle_key,
    anchor_at_seam,
    _strip_offset,
    build_zoo,
    seam_crossings,
    thin,
    validate,
    zoo_names,
)
from pegboard.geometry import (
    HALF,
    Box,
    Point,
    PointOnLoop,
    Segment,
    on_segment,
    pegs_in_box,
)
from pegboard.textfmt import emit_curve_text
from conftest import staircase_diagrams
from test_geometry import is_peg
from test_level_scan import reference_level_crossings

# ---------------------------------------------------------------------------
# The peg test and the keys that validation used before (reference)


def segment_bbox(s: Segment) -> Box:
    return Box(
        min(s.a.x, s.b.x),
        max(s.a.x, s.b.x),
        min(s.a.y, s.b.y),
        max(s.a.y, s.b.y),
    )


def reference_segment_hits_peg(s: Segment) -> Optional[Point]:
    """Return a peg lying on the closed segment s, if any."""
    for peg in pegs_in_box(segment_bbox(s)):
        if on_segment(peg, s):
            return peg
    return None


def reference_canonical_cycle(c: Component) -> tuple:
    """Translation/rotation/reversal-invariant key for a closed component."""
    k = _strip_offset(c)
    verts = [p.translate(-k) for p in c.vertices] if k is not None else list(c.vertices)
    n = len(verts)
    best = None
    for seq in (verts, list(reversed(verts))):
        for start in range(n):
            cand = tuple((seq[(start + i) % n].x, seq[(start + i) % n].y) for i in range(n))
            if best is None or cand < best:
                best = cand
    return best


def reference_seam_crossings(c: Component) -> list[tuple[Fraction, Fraction]]:
    return [(pos, point.y) for pos, point, _ in reference_level_crossings(c, lambda v: v.x, HALF)]


def reference_anchor_at_seam(c: Component) -> Component:
    if c.winding != 1:
        raise ValueError("only wrapping components have a seam anchor")
    crossings = reference_seam_crossings(c)
    if len(crossings) != 1:
        raise ValueError("component must cross the seam exactly once")
    pos, _ = crossings[0]
    n = c.cycle_length()
    i = math.floor(pos)
    t = pos - i
    seg_a, seg_b = c.lifted(i), c.lifted(i + 1)
    xline = seg_a.x + t * (seg_b.x - seg_a.x)
    # Shift so the crossing's seam line becomes x = -1/2.  The stored period
    # always runs left to right in net terms (its closure is +(1, 0)), so no
    # orientation flip is ever needed.
    shift = -HALF - xline

    def lift(j: int) -> Point:
        return c.lifted(i + j).translate(shift)

    if t == 0:
        path = [lift(j) for j in range(n + 1)]
    else:
        start = Point(-HALF, seg_a.y + t * (seg_b.y - seg_a.y))
        path = [start] + [lift(j) for j in range(1, n + 1)] + [start.translate(1)]
    return Component(tuple(path), 1)


def reference_component_key(c: Component) -> tuple:
    if c.winding == 0:
        return (0, reference_canonical_cycle(c))
    return (1, reference_canonical_period(c))


def reference_canonical_period(c: Component) -> tuple:
    """Key for a wrapping component: re-based at its seam crossing, left to right."""
    anchored = reference_anchor_at_seam(c)
    return tuple((p.x, p.y) for p in anchored.vertices)


def reference_validate(d: CurveDiagram) -> ValidationReport:
    """Check every structural invariant; report all violations found."""
    bad: list[Violation] = []

    def add(code, msg, comp=None):
        bad.append(Violation(code, msg, comp))

    wrapping = [i for i, c in enumerate(d.components) if c.winding == 1]
    for i, c in enumerate(d.components):
        if c.winding not in (0, 1):
            add("winding", f"winding must be 0 or 1, got {c.winding}", i)
            continue
        if len(c.vertices) < 2:
            add("vertices", "component needs at least two vertices", i)
            continue
        for a, b in zip(c.vertices, c.vertices[1:]):
            if a == b:
                add("repeat", f"consecutive vertices coincide at {a}", i)
        if c.winding == 1:
            want = c.vertices[0].translate(1)
            if c.vertices[-1] != want:
                add("closure", f"period must end at {want}, ends at {c.vertices[-1]}", i)
        else:
            if c.vertices[0] == c.vertices[-1]:
                add("closure", "closed component must not repeat its first vertex", i)
        for p in c.vertices:
            if is_peg(p):
                add("peg", f"vertex {p} lies on a peg", i)
        ends = c.vertices[1:] + (c.vertices[:1] if c.winding == 0 else ())
        for a, b in zip(c.vertices, ends):
            if a == b:
                continue  # reported above, as a repeat or as the closure
            peg = reference_segment_hits_peg(Segment(a, b))
            if peg is not None:
                add("peg", f"segment {a}->{b} passes through peg {peg}", i)

    if len(wrapping) != 1:
        add("distinguished", f"need exactly one wrapping component, found {len(wrapping)}")
    elif len(d.components[wrapping[0]].vertices) >= 2:  # the deliberate fix; was `else:`
        crossings = reference_seam_crossings(d.components[wrapping[0]])
        if len(crossings) != 1:
            add(
                "seam",
                f"distinguished component crosses the seam {len(crossings)} times, expected once",
                wrapping[0],
            )
        elif crossings[0][1] != 0:
            add("seam", f"seam crossing at height {crossings[0][1]}, expected 0", wrapping[0])

    for i, c in enumerate(d.components):
        if c.winding == 0 and _strip_offset(c) is None:
            add("confined", "closed component must stay strictly inside one vertical strip", i)

    # Half-turn symmetry as a multiset congruence of components.
    if not bad:
        original = sorted(reference_component_key(c) for c in d.components)
        rotated = sorted(reference_component_key(c.rotate180()) for c in d.components)
        if original != rotated:
            add("symmetry", "component multiset is not invariant under the half turn about (0, 0)")
    return ValidationReport(tuple(bad))


def reference_emit_curve_text(d: CurveDiagram) -> str:
    """`emit_curve_text` with the canonical order read by the references."""
    gamma0 = reference_anchor_at_seam(d.gamma0())
    closed = []
    for c in d.acyclic():
        k = _strip_offset(c)
        closed.append(c.translate(-k) if k else c)
    closed.sort(key=reference_canonical_cycle)
    lines = []
    for c in (gamma0, *closed):
        lines.append(f"component winding={c.winding}")
        for p in c.vertices:
            lines.append(f"v {p.x} {p.y}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The segment peg test: the peg that the column table names


def table_peg(s: Segment) -> Optional[Point]:
    """The peg that `Component.segment_columns` names for segment s, the
    first segment of a two-vertex component; None when it raises nothing."""
    try:
        Component((s.a, s.b), 0).segment_columns(0)
    except PointOnLoop as exc:
        return exc.peg
    return None

# Quarter grids put endpoints on pegs and segments through them often;
# thirds and fifths make crossings off the grid.
grid_coordinates = st.one_of(
    st.integers(-12, 12).map(lambda n: Fraction(n, 4)),
    st.integers(-9, 9).map(lambda n: Fraction(n, 3)),
    st.integers(-15, 15).map(lambda n: Fraction(n, 5)),
)


@st.composite
def segments(draw):
    a = Point(draw(grid_coordinates), draw(grid_coordinates))
    shape = draw(st.sampled_from(("slanted", "vertical", "horizontal")))
    bx = a.x if shape == "vertical" else draw(grid_coordinates)
    by = a.y if shape == "horizontal" else draw(grid_coordinates)
    b = Point(bx, by)
    if a == b:
        b = Point(a.x, a.y + 1) if shape == "vertical" else Point(a.x + 1, a.y)
    return Segment(a, b)


@settings(max_examples=600, deadline=None)
@given(segments())
@example(Segment(Point(0, -1), Point(0, 2)))  # vertical over three pegs: the lowest
@example(Segment(Point(0, Fraction(3, 4)), Point(0, Fraction(5, 4))))  # vertical between pegs
@example(Segment(Point(-1, 0), Point(1, 1)))  # a diagonal through (0, 1/2) only
@example(Segment(Point(2, Fraction(5, 2)), Point(-2, Fraction(-3, 2))))  # right to left: the lowest column
@example(Segment(Point(-2, HALF), Point(2, HALF)))  # a peg row: the lowest column
# through (0, 1/2), as in test_curves' test_segment_through_peg_rejected
@example(Segment(Point(Fraction(-1, 4), Fraction(1, 4)), Point(Fraction(1, 4), Fraction(3, 4))))
def test_segment_peg_matches_reference(s):
    want = reference_segment_hits_peg(s)
    got = table_peg(s)
    assert got == want and repr(got) == repr(want), (s, got, want)


def test_segment_peg_is_lowest_column_then_lowest_row():
    assert table_peg(Segment(Point(0, 2), Point(0, -1))) == Point(0, Fraction(-1, 2))
    diagonal = Segment(Point(2, Fraction(5, 2)), Point(-2, Fraction(-3, 2)))  # a peg in every column
    assert table_peg(diagonal) == Point(-2, Fraction(-3, 2))
    assert table_peg(Segment(Point(HALF, 0), Point(HALF, 3))) is None


# ---------------------------------------------------------------------------
# Canonical cycles, validation and emission

closed_polygons = st.lists(st.builds(Point, grid_coordinates, grid_coordinates), max_size=8)


@st.composite
def polygons_through_a_point_again(draw):
    """A closed polygon that passes again through its least vertex and
    through its greatest, each at a position not next to its first: the
    least rotation at either sign of the scale then has tied starts."""
    vertices = draw(st.lists(st.builds(Point, grid_coordinates, grid_coordinates), min_size=3, max_size=7,
                             unique=True))
    for v in (min(vertices), max(vertices)):
        apart = [i for i in range(len(vertices)) if v not in (vertices[i - 1], vertices[i])]
        vertices.insert(draw(st.sampled_from(apart)), v)
    return vertices


@settings(max_examples=400, deadline=None)
@given(st.one_of(closed_polygons, polygons_through_a_point_again()))
@example([])
@example([Point(Fraction(1, 4), 0), Point(Fraction(1, 4), 0), Point(0, HALF)])  # a repeated vertex
# a figure-eight through its least vertex twice: the rotation from the second start is least
@example([Point(0, 0), Point(Fraction(1, 4), Fraction(1, 4)), Point(Fraction(1, 4), Fraction(-1, 4)), Point(0, 0),
          Point(Fraction(1, 8), Fraction(-1, 4)), Point(Fraction(1, 8), Fraction(1, 4))])
def test_canonical_cycle_matches_reference(vertices):
    # `_cycle_key` at scale S is the reference key times S, and at -S the
    # reference key of the half-turned component times S; a vertex that
    # the cycle passes twice gives the key two starts to compare.
    c = Component(tuple(vertices), 0)
    k = _strip_offset(c) or 0
    scale = 2 * c._frame[0]
    for s, turned in ((scale, c), (-scale, c.rotate180())):
        want = reference_canonical_cycle(turned)
        if want is not None:
            want = tuple((x * scale, y * scale) for x, y in want)
        assert _cycle_key(c, k, s) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(closed_polygons.filter(bool), min_size=2, max_size=4))
def test_cycle_keys_sort_as_the_reference_keys_sort(polygons):
    # At one common positive scale, the integer keys order the components
    # as the Fraction keys of the reference do, ties included.
    comps = [Component(tuple(vertices), 0) for vertices in polygons]
    scale = math.lcm(*(c._frame[0] for c in comps))
    keys = [_cycle_key(c, _strip_offset(c) or 0, scale) for c in comps]
    by_key = sorted(range(len(comps)), key=keys.__getitem__)
    assert by_key == sorted(range(len(comps)), key=lambda i: reference_canonical_cycle(comps[i]))


base_diagrams = st.one_of(
    st.sampled_from(zoo_names()).map(build_zoo),
    staircase_diagrams(),
    st.builds(thin, st.integers(-3, 3), st.integers(0, 3)),
)
placed_diagrams = st.tuples(base_diagrams, st.sampled_from(("same", "mirror", "rotate180"))).map(
    lambda dt: dt[0] if dt[1] == "same" else getattr(dt[0], dt[1])()
)


def _snap(v: Fraction, den: int) -> Fraction:
    return Fraction(round(v * den), den)


def _restarted_period(vertices: list[Point], start: int, skip: Optional[int] = None) -> list[Point]:
    """The wrapping period re-stored from continuous vertex `start`,
    leaving out stored vertex `skip`."""
    c = Component(tuple(vertices), 1)
    n = c.cycle_length()
    cycle = [c.lifted(j) for j in range(start, start + n) if j % n != skip]
    return cycle + [cycle[0].translate(1)]


def _collinear_between(a: Point, v: Point, b: Point) -> bool:
    return (b.x - a.x) * (v.y - a.y) == (b.y - a.y) * (v.x - a.x) and min(a.x, b.x) < v.x < max(a.x, b.x)


def _inserted_at_seam(vertices: list[Point], winding: int) -> list[Point]:
    """The vertices with one added at the first seam crossing that falls
    inside a segment; unchanged when there is none."""
    if winding != 1 or len(vertices) < 2:
        return vertices
    crossings = reference_level_crossings(Component(tuple(vertices), 1), lambda v: v.x, HALF)
    for pos, point, _ in crossings:
        if pos.denominator != 1:
            i = math.floor(pos)
            return vertices[:i + 1] + [point] + vertices[i + 1:]
    return vertices


@st.composite
def closed_pairs(draw):
    """Two closed components with one integer cycle N: N/den_a and -N/den_b,
    dens 3 or 5.  Equal dens give a half-turn-symmetric pair; unequal ones
    a pair whose integer frames agree up to sign but whose shapes do not,
    so that only a comparison at one common scale tells them apart."""
    n = draw(st.integers(3, 5))
    cycle = [(draw(st.integers(-1, 1)), draw(st.integers(-6, 6))) for _ in range(n)]
    den_a, den_b = draw(st.sampled_from((3, 5))), draw(st.sampled_from((3, 5)))
    a = Component(tuple(Point(Fraction(x, den_a), Fraction(y, den_a)) for x, y in cycle), 0)
    b = Component(tuple(Point(Fraction(-x, den_b), Fraction(-y, den_b)) for x, y in cycle), 0)
    return [list(a.vertices), list(b.vertices)]


@st.composite
def mutated_diagrams(draw):
    """A placed diagram with up to three structural mutations and up to
    four vertex mutations.

    Structural: the wrapping period re-stored from another vertex, its
    seam vertex dropped when it lies on the segment of its neighbours (the
    seam crossing then falls inside a segment); a `closed_pairs` pair
    added; a closed component shifted by a whole number of columns.
    Vertex mutations: a vertex moved, snapped to the quarter or third grid,
    repeated, deleted or raised by 1/2, or a vertex inserted at a seam
    crossing inside a segment."""
    d = draw(placed_diagrams)
    comps = [list(c.vertices) for c in d.components]
    windings = [c.winding for c in d.components]
    w = windings.index(1)
    n = len(comps[w]) - 1
    if n >= 2 and draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        c = Component(tuple(comps[w]), 1)
        seam = next((j for j in range(n)
                     if _collinear_between(c.lifted(j - 1), c.lifted(j), c.lifted(j + 1))
                     and (c.lifted(j).x - HALF).denominator == 1), None)
        skip = seam if draw(st.booleans()) else None
        comps[w] = _restarted_period(comps[w], start, skip)
    if draw(st.booleans()):
        pair = draw(closed_pairs())
        comps += pair
        windings += [0, 0]
    closed = [i for i, winding in enumerate(windings) if winding == 0]
    if closed and draw(st.booleans()):
        i = draw(st.sampled_from(closed))
        dx = draw(st.sampled_from((-2, -1, 1, 3)))
        comps[i] = [v.translate(dx) for v in comps[i]]
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(comps) - 1))
        vs = comps[k]
        if not vs:
            continue
        kind = draw(st.sampled_from(("move", "snap", "repeat", "delete", "raise", "seam")))
        if kind == "seam":
            comps[k] = _inserted_at_seam(vs, windings[k])
            continue
        j = draw(st.integers(0, len(vs) - 1))
        v = vs[j]
        if kind == "move":
            step = st.integers(-4, 4).map(lambda n: Fraction(n, 8))
            vs[j] = Point(v.x + draw(step), v.y + draw(step))
        elif kind == "snap":
            den = draw(st.sampled_from((4, 3)))
            vs[j] = Point(_snap(v.x, den), _snap(v.y, den))
        elif kind == "repeat":
            vs.insert(j, v)
        elif kind == "delete":
            del vs[j]
        else:
            vs[j] = Point(v.x, v.y + HALF)
    return CurveDiagram(tuple(Component(tuple(vs), w) for vs, w in zip(comps, windings)), d.source)


@settings(max_examples=300, deadline=None)
@given(mutated_diagrams())
def test_validate_matches_reference_on_mutated_diagrams(d):
    assert validate(d).violations == reference_validate(d).violations


def test_mutations_reach_every_validation_branch():
    """The generator's own examples include valid diagrams whose seam
    crossing falls inside a segment and at a vertex other than the first,
    valid diagrams with a closed component off the strip around x = 0 and
    with closed components of different scales, and diagrams whose only
    violation is the symmetry of a `closed_pairs` pair, so the test above
    compares the anchoring, the strip offset and the common-scale cycles."""
    seen = set()

    # A fixed draw, with no example database, so the probe reads the same
    # 300 diagrams on every checkout.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mutated_diagrams())
    def probe(d):
        codes = [v.code for v in reference_validate(d).violations]
        if codes == ["symmetry"]:
            seen.add("asymmetric only")
        if codes:
            return
        (pos, _), = reference_seam_crossings(d.gamma0())
        seen.add("inside a segment" if pos.denominator != 1 else "at vertex 0" if pos == 0 else "at a later vertex")
        closed = d.acyclic()
        if any(math.floor(c.vertices[0].x + HALF) for c in closed):
            seen.add("shifted")
        if len({math.lcm(*(k.denominator for v in c.vertices for k in (v.x, v.y))) for c in closed}) > 1:
            seen.add("mixed scales")

    probe()
    assert seen >= {"asymmetric only", "inside a segment", "at vertex 0", "at a later vertex",
                    "shifted", "mixed scales"}


def anchored(anchor, c: Component):
    """The anchored vertices with their text, or the type and text of what
    anchoring raises."""
    try:
        return [(v, repr(v)) for v in anchor(c).vertices]
    except ValueError as exc:
        return type(exc).__name__, str(exc)


F = Fraction
TREFOIL = build_zoo("trefoil").gamma0()


@pytest.mark.parametrize("c,inside", [
    (TREFOIL, False),  # at vertex 0
    (Component(tuple(_restarted_period(list(TREFOIL.vertices), 2)), 1), False),  # at a later vertex
    (Component((Point(F(-3, 4), F(-1, 4)), Point(F(-1, 4), F(1, 4)), Point(F(1, 4), F(-1, 4))), 1), True),
    # inside a segment at height 1/6, off the scale of the vertices: an unvalidated curve
    (Component((Point(F(-3, 4), 0), Point(F(-1, 4), F(1, 3)), Point(F(1, 4), 0)), 1), True),
    # three seam crossings: refused
    (Component((Point(0, 0), Point(F(3, 4), F(1, 4)), Point(F(1, 4), F(-1, 4)), Point(1, 0)), 1), False),
    (build_zoo("figure_eight").acyclic()[0], False),  # a closed component: refused
], ids=["at vertex 0", "at a later vertex", "inside a segment", "inside a segment at 1/6",
        "three crossings", "closed"])
def test_anchor_matches_reference(c, inside):
    want = anchored(reference_anchor_at_seam, c)
    assert anchored(anchor_at_seam, c) == want
    assert inside == (len(want) == len(c.vertices) + 1)


@settings(max_examples=300, deadline=None)
@given(mutated_diagrams())
def test_anchor_matches_reference_on_mutated_diagrams(d):
    for c in d.components:
        if c.winding == 1 and len(c.vertices) >= 2:
            assert anchored(anchor_at_seam, c) == anchored(reference_anchor_at_seam, c)


@pytest.mark.parametrize("name", zoo_names())
def test_emit_matches_reference_on_zoo(name):
    for d in (build_zoo(name), build_zoo(name).rotate180()):
        assert emit_curve_text(d) == reference_emit_curve_text(d)


@settings(max_examples=60, deadline=None)
@given(placed_diagrams)
def test_emit_matches_reference_on_generated_diagrams(d):
    assert emit_curve_text(d) == reference_emit_curve_text(d)


# A wrapping curve that crosses the seam once, at (-1/2, 0), and runs along
# the seam line x = 1/2 from (1/2, -1/4) to (1/2, -3/4), entered and left
# from x = 1/4; its half turn runs along x = -1/2, entered and left from
# x = -1/4.  Neither run crosses the seam.
SEAM_RUNS = CurveDiagram((Component(tuple(Point(Fraction(x, 4), Fraction(y, 4)) for x, y in [
    (-2, 0), (-1, 3), (-2, 3), (-2, 1), (-1, 1), (1, -1), (2, -1), (2, -3), (1, -3), (2, 0),
]), 1),), "seam runs")


def test_a_run_along_a_seam_line_is_no_seam_crossing():
    """Validation counts the seam crossings of the drawing as it is: a run
    along a seam line that the curve only touches adds none, from either
    side, as the level scan's run rule reads it.  The curve validates
    and pairs as its sheared copy, which has no run."""
    from test_arc_sweep import SHEAR_SLOPES, counts, sheared

    g = SEAM_RUNS.gamma0()
    assert [(e.i, e.point) for e in seam_crossings(g)] == [(0, Point(-HALF, Fraction(0)))]
    assert reference_seam_crossings(g) == [(0, 0)]
    assert validate(SEAM_RUNS) == reference_validate(SEAM_RUNS) and validate(SEAM_RUNS).ok
    copy = sheared(SEAM_RUNS)
    assert validate(copy).ok
    for slope in SHEAR_SLOPES:
        assert counts(SEAM_RUNS, slope) == counts(copy, slope), str(slope)


# A half-turn-symmetric wrapping curve through (-1/2, 0) that passes
# through two runs along the seam line x = -1/2, and its half turn through
# two along x = 1/2: five seam crossings.  Read with only the crossings at
# lone vertices and inside segments, it crossed once and validated, and
# tau depended on the stored start (`tools/curves/seam_run.curve`).
SEAM_RUN = [Point(Fraction(x, 8), Fraction(y, 8)) for x, y in [
    (-4, 0), (-2, 14), (-4, 14), (-4, 13), (-10, 13), (-10, 8), (-6, 8), (-4, 8), (-4, 7), (-2, 7), (-1, 2), (0, 0),
]]
SEAM_RUN += [v.rotate180() for v in reversed(SEAM_RUN[:-1])]  # ends at (1/2, 0)


@pytest.mark.parametrize("start", range(len(SEAM_RUN) - 1))
def test_a_run_through_a_seam_line_is_a_seam_crossing(start):
    d = CurveDiagram((Component(tuple(_restarted_period(SEAM_RUN, start)), 1),), "seam run")
    assert len(seam_crossings(d.gamma0())) == len(reference_seam_crossings(d.gamma0())) == 5
    assert validate(d) == reference_validate(d)
    assert validate(d).violations == (
        Violation("seam", "distinguished component crosses the seam 5 times, expected once", 0),)


def test_the_seam_run_drawing_is_refused():
    # `tools/curves/seam_run.curve`, which `tools/cli_digest.py` runs, is
    # SEAM_RUN, and parsing it refuses it with the seam count.
    from test_arc_sweep import CURVES, drawn

    text = (CURVES / "seam_run.curve").read_text(encoding="utf-8")
    assert [line.split()[1:] for line in text.splitlines() if line.startswith("v ")] == [
        [str(v.x), str(v.y)] for v in SEAM_RUN]
    with pytest.raises(InvariantViolation) as refused:
        drawn("seam_run")
    assert refused.value.report.summary() == "[seam] distinguished component crosses the seam 5 times, expected once"
