"""Bigon cancellation and its peg check against their predecessors.

`reference_cancel_bigons` below is the cancellation that ran before each
pair's geometry was kept for the length of a call, copied verbatim with its
helpers: every round rebuilds every adjacent pair, walks its subarc, scans
all live points for one on the object piece and winds each peg of the
loop's box with `winding_number`.  It reads the lifts through the pairing
objects that `cancel_bigons` took before the lift step replaced them, also
copied verbatim: `_ArcObject` and `_LineFamily.translated_lift`.
`cancel_bigons`, which always removes the first candidate, must return
the same survivors and the same audit, pair by pair, as the reference in
that order, and raise the same exception wherever it raises, out to the
slope cap; in the reference's seeded orders the count of survivors, or
the exception, must be the same.  The reference walks each
pair's loop with the Fraction walk `subarc` of `test_walk`, so the loop
oracle shares no code with the kernel.  Cancellation is a worklist that
tests each pair when it becomes adjacent, so no call may peg-test a pair
twice.  `_LineFamily.step` must move lift indices as `translated_lift`
did.

`reference_first_blocker` is the piece test from before it moved to
integers, copied verbatim; `_piece_blocker`, which reads only the lift's
class of the same points' `_piece_table`, must find the same blocker.
Call counts pin the order of the tests: only a pair whose loop winds no
peg is piece-tested.  At the slope cap, thin diagrams have pairs that the
piece test blocks, and there the removals must still match the reference
pair by pair.  `first_wound_peg`,
the one-pass peg check kept in `test_geometry` as the verdict oracle,
must agree with
`winding_number` called peg by peg, on every loop cancellation peg-tests
and every marked bigon's loop, reading a marked bigon's corner just above
it with the copy of `winding_near` in `test_differentials`: the same first
wrongly wound peg, and `PointOnLoop` at the same peg.

Cancellation reads each component's ring as its run of the raw points,
which `raw_intersections` and `ArcSweep.raw` give strictly increasing in
(component, position); that order is pinned on the zoo, thin diagrams and
Hypothesis staircases with their mirrors.  A removed pair's audit is the
pair (x, y) and nothing else, so each pair that `surgery_report` and
`ArcSweep.dims` remove is checked to be a certificate on its own: both
points lie on one component, y.lift + step*m == x.lift with m read from
ring order, and the closing loop, walked with `subarc`, winds every peg of
its box 0 times under `winding_number`.

Cancellation's peg test reads each component's column table and builds no
loop.  Its verdict must be `first_wound_peg`'s on the pair's closing loop,
walked with `subarc`, on the zoo, thin diagrams and Hypothesis staircases
with their mirrors; on the zoo both kinds of pair must meet both
verdicts: those whose lift's piece lies strictly inside one gap between
columns, which the peg test does not cross, and those whose piece reaches
a column.  The table must match its
definition, computed in Fractions segment by segment, refusing a segment
through a peg with `PointOnLoop` naming it.  So cancellation refuses a
curve through a peg wherever a walk reads that segment, and a hand-built
family whose lines hold a peg wherever a lift's piece runs through it,
raising `PointOnLoop` at that peg, at the same pair when other pairs are
tested before it.

`winds_only` decides from a signed tally by (column, t): peg (k, j + 1/2)
winds the sum of the tally over t >= j, which the tally rule must match
peg by peg on random tallies, a peg between two keys included.  A call
whose every ring pair fails the same-lift or peg test returns its points
unchanged with an empty audit and builds no table.
"""

import math
import random
from fractions import Fraction
from typing import Optional, Sequence, Union

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pegboard.differentials as differentials
import pegboard.pairing as pairing
from pegboard.curves import Component, CurveDiagram, InvariantViolation, build_zoo, thin, validate, zoo_names
from pegboard.differentials import differential_matrix
from pegboard.geometry import (
    HALF,
    Box,
    Point,
    PointOnLoop,
    Segment,
    _closed_edges,
    on_segment,
    pegs_in_box,
    winding_number,
)
from pegboard.pairing import (
    ArcLift,
    ArcSweep,
    IPoint,
    SlopeSpec,
    _LineFamily,
    cancel_bigons,
    line_family,
    raw_intersections,
)
from conftest import position, staircase_diagrams
from test_arc_sweep import grading_range
from test_differentials import winding_near
from test_geometry import first_wound_peg
from test_level_scan import record
from test_walk import subarc, walk_span

# ---------------------------------------------------------------------------
# The pairing objects cancellation took before the lift step (reference)


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


PairObject = Union[_LineFamily, _ArcObject]


def line_translated_lift(self: _LineFamily, k: int, w: int) -> int:
    """Index of the lift containing lift k shifted by (w, 0)."""
    if self.slope.is_vertical:
        return k + w
    if self.slope.p == 0:
        return k  # horizontal lines are translation invariant
    return k - self.slope.p * w


# ---------------------------------------------------------------------------
# The cancellation that re-tested every pair in every round (reference)


def _lifted_on_lift(obj: PairObject, target_lift: int, z: IPoint) -> Optional[Point]:
    """The plane point of quotient intersection z on the given object lift."""
    if isinstance(obj, _ArcObject):
        m = target_lift - z.lift
        return z.crossing.point.translate(m)
    fam: _LineFamily = obj
    if fam.slope.is_vertical:
        return z.crossing.point.translate(target_lift - z.lift)
    if fam.slope.p == 0:
        return None if z.lift != target_lift else z.crossing.point  # plus all translates; handled separately
    diff = z.lift - target_lift
    if diff % fam.slope.p != 0:
        return None
    return z.crossing.point.translate(diff // fam.slope.p)


def _piece_blocked(obj: PairObject, lift: int, a: Point, b: Point, pts: Sequence[IPoint],
                   skip: tuple[IPoint, IPoint]) -> bool:
    """Does any other intersection lie strictly between a and b on the lift?"""
    if a == b:
        return False
    horiz = isinstance(obj, _LineFamily) and obj.slope.p == 0 and not obj.slope.is_vertical

    def between(p: Point) -> bool:
        if min(a.x, b.x) < p.x < max(a.x, b.x):
            return True
        if a.x == b.x and min(a.y, b.y) < p.y < max(a.y, b.y):
            return True
        return False

    for z in pts:
        if z in skip:
            continue
        if horiz:
            if z.lift != lift:
                continue
            # Every horizontal translate of z lies on this same line.
            lo = math.ceil(min(a.x, b.x) - z.crossing.point.x)
            hi = math.floor(max(a.x, b.x) - z.crossing.point.x)
            for m in range(lo, hi + 1):
                if between(z.crossing.point.translate(m)):
                    return True
            continue
        zp = _lifted_on_lift(obj, lift, z)
        if zp is not None and between(zp):
            return True
    return False


def _bigon_loop(c: Component, obj: PairObject, x: IPoint, y: IPoint,
                pts: Sequence[IPoint]) -> Optional[tuple[tuple[Point, ...], tuple[Point, ...]]]:
    """Empty-bigon test for the ordered adjacent pair (x, y).

    Returns (loop, pegs_checked) when the forward subarc from x to y closes
    up with a piece of x's object lift into a loop of winding zero around
    every peg; None otherwise.
    """
    path, w = subarc(c, x, y, 1)
    if isinstance(obj, _ArcObject):
        target = obj.translated_lift(y.lift, w)
    else:
        target = line_translated_lift(obj, y.lift, w)
    if isinstance(obj, _LineFamily) and obj.slope.p == 0 and not obj.slope.is_vertical:
        same = y.lift == x.lift
    else:
        same = target == x.lift
    if not same:
        return None
    end = path[-1]
    if _piece_blocked(obj, x.lift, end, x.crossing.point, pts, (x, y)):
        return None
    loop = path
    if loop[-1] == loop[0]:
        loop = loop[:-1]
    if len(loop) < 2:
        return None
    box = Box.around(loop)
    pegs = pegs_in_box(box)
    for peg in pegs:
        if winding_number(loop, peg) != 0:
            return None
    return tuple(loop), tuple(pegs)


def _candidates(d: CurveDiagram, obj: PairObject, pts: list[IPoint]) -> list[tuple[IPoint, IPoint, tuple, tuple]]:
    out = []
    by_comp: dict[int, list[IPoint]] = {}
    for p in pts:
        by_comp.setdefault(p.comp, []).append(p)
    for ci, plist in by_comp.items():
        if len(plist) < 2:
            continue
        plist = sorted(plist, key=position)
        c = d.components[ci]
        k = len(plist)
        for i in range(k):
            x, y = plist[i], plist[(i + 1) % k]
            if x is y:
                continue
            found = _bigon_loop(c, obj, x, y, pts)
            if found is not None:
                out.append((x, y, found[0], found[1]))
    return out


def reference_cancel_bigons(pts: list[IPoint], d: CurveDiagram, obj: PairObject,
                            order_seed: Optional[int] = None) -> tuple[list[IPoint], list[tuple[IPoint, IPoint]]]:
    """Remove empty bigons until none remain; order is seed-controlled.

    The final count is independent of the removal order; the audit records
    each removed pair (x, y), whose loop's pegs were certified to have
    winding zero.
    """
    rng = random.Random(order_seed) if order_seed is not None else None
    live = list(pts)
    audit: list[tuple[IPoint, IPoint]] = []
    while True:
        cands = _candidates(d, obj, live)
        if not cands:
            return live, audit
        x, y, loop, pegs = cands[0] if rng is None else cands[rng.randrange(len(cands))]
        live = [p for p in live if p is not x and p is not y]
        audit.append((x, y))


# ---------------------------------------------------------------------------
# Cancellation


ORDER_SEEDS = (None, 1, 7)
ZOO_SLOPES = [
    SlopeSpec(p, q) for q in range(1, 6) for p in range(-9, 10) if math.gcd(abs(p), q) == 1
] + [SlopeSpec(1, 0), SlopeSpec(0, 1)]


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except (PointOnLoop, RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def pairing_cases(d: CurveDiagram, slope: SlopeSpec):
    """(raw points, object) pairs: the filling family and every arc."""
    fam = outcome(line_family, d, slope)
    if isinstance(fam, _LineFamily):
        raw = outcome(raw_intersections, d, fam)
        if isinstance(raw, list):
            yield raw, fam
    if slope.p == 0 and not slope.is_vertical:
        return
    sweep = outcome(ArcSweep, d, slope)  # a slope whose arc holds a segment is refused
    if isinstance(sweep, ArcSweep):
        for h in grading_range(d, slope):
            yield sweep.raw(h), _ArcObject(ArcLift(slope, h))


def survivors(result):
    """The number of points an `outcome` of a cancellation keeps, or what
    it raised."""
    return len(result[0]) if isinstance(result[1], list) else result


def assert_cancellation_matches(d: CurveDiagram, slope: SlopeSpec, seeds=ORDER_SEEDS) -> int:
    """Compare both cancellations on every case of one slope, the reference
    in each order of `seeds`, and check that no call peg-tests a pair
    twice; returns the number of bigons the reference cancelled."""
    cancelled = 0
    with pytest.MonkeyPatch.context() as mp:
        tested = recording_peg_tests(mp)
        for raw, obj in pairing_cases(d, slope):
            step = 1 if isinstance(obj, _ArcObject) else obj.step
            tested.clear()
            got = outcome(cancel_bigons, raw, d, step)
            case = (d.source, str(slope), getattr(obj, "arc", None))
            pairs = [(x, y) for _, x, y, _ in tested]
            assert len(set(pairs)) == len(pairs), case
            for seed in seeds:
                want = outcome(reference_cancel_bigons, raw, d, obj, seed)
                if seed is None:
                    assert got == want, case
                else:
                    assert survivors(got) == survivors(want), case + (seed,)
                if isinstance(want[1], list):
                    cancelled += len(want[1])
    return cancelled


@pytest.mark.parametrize("slope", [SlopeSpec(1, 0), SlopeSpec(0, 1), SlopeSpec(1, 1), SlopeSpec(-1, 1),
                                   SlopeSpec(3, 2), SlopeSpec(-7, 3), SlopeSpec(63, 31)], ids=str)
def test_family_step_moves_lifts_as_translated_lift_did(slope):
    fam = _LineFamily(slope, Fraction(1, 10))
    for k in range(-6, 7):
        for w in range(-4, 5):
            assert k + fam.step * w == line_translated_lift(fam, k, w), (k, w)


@pytest.mark.parametrize("name", zoo_names())
def test_cancellation_matches_reference_on_zoo(name):
    # Line families and every arc grading, |p| <= 9 and q <= 5 with 1/0
    # and 0/1, in three removal orders.
    d = build_zoo(name)
    cancelled = sum(assert_cancellation_matches(d, slope) for slope in ZOO_SLOPES)
    assert cancelled or name == "unknot"


# The worklist matters most at large q, where rings are long and most
# removals leave other pairs of the ring untouched.  (diagram, slope,
# blocked piece tests, piece tests): on the zoo no piece test blocks; on the
# thin diagrams, whose components block each other's pairs, many do.
CAP_CASES = [
    ("torus_3_4", SlopeSpec(63, 31), 0, 85),
    ("torus_3_4", SlopeSpec(-61, 29), 0, 93),
    ("trefoil", SlopeSpec(63, 31), 0, 39),
    ("thin(1,1)", SlopeSpec(63, 31), 10, 61),
    ("thin(-2,3)", SlopeSpec(-61, 29), 54, 130),
]
THIN_AT_CAP = {"thin(1,1)": thin(1, 1), "thin(-2,3)": thin(-2, 3)}


@pytest.mark.parametrize("name,slope,blocked,tested",
                         [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in CAP_CASES])
def test_cancellation_matches_reference_at_the_slope_cap(monkeypatch, name, slope, blocked, tested):
    pieces, _ = counting_piece_and_peg_tests(monkeypatch)
    d = THIN_AT_CAP[name] if name in THIN_AT_CAP else build_zoo(name)
    assert assert_cancellation_matches(d, slope)
    assert (sum(blocker is not None for *_, blocker in pieces), len(pieces)) == (blocked, tested)


# Thin diagrams hold several components, so the points of one can block the
# bigons of another until they are cancelled themselves.
@pytest.mark.parametrize("tau,fig8", [(1, 1), (-1, 1), (-1, 2), (0, 2)])
def test_cancellation_matches_reference_on_thin_diagrams(tau, fig8):
    d = thin(tau, fig8)
    assert sum(assert_cancellation_matches(d, slope) for slope in ZOO_SLOPES)


generated_diagrams = st.one_of(
    staircase_diagrams(),
    st.builds(thin, st.integers(-3, 3), st.integers(0, 4)),
)
# 1/0 comes in as (p, 0) and 0/1 as (0, q).
slopes = (
    st.tuples(st.integers(-9, 9), st.integers(0, 5))
    .filter(lambda pq: pq != (0, 0))
    .map(lambda pq: SlopeSpec(*pq))
)


@settings(max_examples=40, deadline=None)
@given(generated_diagrams, slopes, st.integers(0, 1000))
def test_cancellation_matches_reference_on_generated_diagrams(d, slope, seed):
    assert_cancellation_matches(d, slope, (None, seed, seed + 1))


# ---------------------------------------------------------------------------
# The order cancellation reads its rings from


def assert_ordered_by_component_and_position(d: CurveDiagram, slopes) -> int:
    """Every raw list `pairing_cases` gives for d at the slopes (the filling
    family's and each filed grading's) is strictly increasing in
    (comp, pos); returns how many points they hold."""
    seen = 0
    for slope in slopes:
        for raw, _ in pairing_cases(d, slope):
            keys = [(z.comp, position(z)) for z in raw]
            assert all(a < b for a, b in zip(keys, keys[1:])), (d.source, str(slope), keys)
            seen += len(keys)
    return seen


@pytest.mark.parametrize("name", zoo_names())
def test_raw_points_come_in_ring_order_on_zoo(name):
    assert assert_ordered_by_component_and_position(build_zoo(name), ZOO_LOOP_SLOPES)


@pytest.mark.parametrize("tau,fig8", [(1, 1), (-2, 2), (0, 3)])
def test_raw_points_come_in_ring_order_on_thin_diagrams(tau, fig8):
    assert assert_ordered_by_component_and_position(thin(tau, fig8), ZOO_LOOP_SLOPES)


@settings(max_examples=25, deadline=None)
@given(staircase_diagrams(), st.booleans(), slopes)
def test_raw_points_come_in_ring_order_on_staircases(d, mirrored, slope):
    assert_ordered_by_component_and_position(d.mirror() if mirrored else d, [slope])


# ---------------------------------------------------------------------------
# The integer piece test against the Fraction one it replaced


def reference_first_blocker(step: int, lift: int, a: Point, b: Point, pts: Sequence[IPoint],
                            live: Sequence[int], pair: tuple[int, int]) -> Optional[int]:
    """A live point, other than the pair, strictly between a and b on the lift.

    Returns its index in pts (the first in `live` order), None if the piece
    from a to b holds none.  `live` and `pair` are indices into pts.  A point
    z stands for all its translates z.crossing.point + (m, 0); the one on the lift has
    z.lift + step*m == lift, and with step 0 every translate is on z's lift.
    """
    if a == b:
        return None
    horiz = step == 0
    upright = a.x == b.x  # compare heights on a vertical lift, else abscissae
    lo, hi = (min(a.y, b.y), max(a.y, b.y)) if upright else (min(a.x, b.x), max(a.x, b.x))
    for k in live:
        if k in pair:
            continue
        z = pts[k]
        if horiz:
            # Some translate z.crossing.point + (m, 0) lies strictly between lo and hi.
            if z.lift == lift and math.floor(lo - z.crossing.point.x) + 1 < hi - z.crossing.point.x:
                return k
            continue
        m, r = divmod(lift - z.lift, step)
        if not r and lo < (z.crossing.point.y if upright else z.crossing.point.x + m) < hi:
            return k
    return None


grid_coordinates = st.one_of(
    *(st.integers(-4 * n, 4 * n).map(lambda k, n=n: Fraction(k, n)) for n in (3, 4, 5))
)


def ipoint(pos: Fraction, point: Point, lift: int) -> IPoint:
    """The IPoint on component 0 at pos and point, on lift (and level) lift."""
    return IPoint(0, record(pos, point, lift), lift)


@st.composite
def piece_tests(draw):
    """(step, lift, m, pts, live, pair) as `cancel_bigons` forms them: the
    pair is (ix, iy), and the piece runs from pts[iy] moved by (m, 0), the
    end of the subarc, to pts[ix]."""
    n = draw(st.integers(1, 9))
    seen: list[Fraction] = []

    def coordinate() -> Fraction:
        # a fresh grid value, or one drawn before moved by an integer, so
        # that points meet the ends of the piece and share its column
        if seen and draw(st.booleans()):
            return draw(st.sampled_from(seen)) + draw(st.integers(-1, 1))
        seen.append(draw(grid_coordinates))
        return seen[-1]

    pts = [ipoint(Fraction(k), Point(coordinate(), coordinate()), draw(st.integers(-3, 3)))
           for k in range(n)]
    ix, iy = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    m = draw(st.integers(-2, 2))
    a = pts[iy].crossing.point.translate(m)
    shape = draw(st.sampled_from(("slanted", "upright", "equal")))
    if shape != "slanted":  # put x's point above or below a, or on it
        y = pts[ix].crossing.point.y if shape == "upright" else a.y
        pts[ix] = ipoint(position(pts[ix]), Point(a.x, y), pts[ix].lift)
    live = [k for k in range(n) if draw(st.booleans())]
    lift = draw(st.sampled_from([z.lift for z in pts]) | st.integers(-4, 4))
    step = draw(st.integers(-5, 5) | st.just(0))  # horizontal lines as often as the rest
    return step, lift, m, pts, live, (ix, iy)


@settings(max_examples=600, deadline=None)
@given(piece_tests())
@example((0, 1, 0,
          [ipoint(Fraction(0), Point(Fraction(1, 3), 0), 1),
           ipoint(Fraction(1), Point(Fraction(9, 4), 0), 1),
           ipoint(Fraction(2), Point(Fraction(-4, 5), 2), 1)], [0, 1, 2], (1, 0)))  # a translate inside
@example((0, 1, 0,
          [ipoint(Fraction(0), Point(Fraction(1, 5), 0), 1),
           ipoint(Fraction(1), Point(Fraction(6, 5), 0), 1),
           ipoint(Fraction(2), Point(Fraction(-4, 5), 2), 1)], [0, 1, 2], (1, 0)))  # translates on both ends
@example((-2, 3, 0,
          [ipoint(Fraction(0), Point(1, Fraction(-1, 3)), 3),
           ipoint(Fraction(1), Point(1, Fraction(5, 4)), 3),
           ipoint(Fraction(2), Point(Fraction(2, 5), Fraction(5, 4)), 1)], [0, 1, 2], (1, 0)))  # upright: its top
@example((-2, 3, 0,
          [ipoint(Fraction(0), Point(1, Fraction(-1, 3)), 3),
           ipoint(Fraction(1), Point(1, Fraction(5, 4)), 3),
           ipoint(Fraction(2), Point(Fraction(2, 5), Fraction(-1, 3)), 1)], [0, 1, 2], (1, 0)))  # ... its bottom
@example((1, 0, 0,
          [ipoint(Fraction(0), Point(Fraction(-1, 4), 0), 0),
           ipoint(Fraction(1), Point(Fraction(4, 3), 1), 0),
           ipoint(Fraction(2), Point(Fraction(3, 4), 2), 1)], [0, 1, 2], (1, 0)))  # slanted: z + (-1, 0) at an end
@example((-2, 3, 0,
          [ipoint(Fraction(0), Point(0, 0), 3),
           ipoint(Fraction(1), Point(2, 1), 3),
           ipoint(Fraction(2), Point(Fraction(2, 3), 7), 5)], [0, 1, 2], (1, 0)))  # slanted: z + (-1, 0) inside
def test_integer_piece_test_matches_fraction_one(case):
    step, lift, m, pts, live, pair = case
    ix, iy = pair
    want = reference_first_blocker(step, lift, pts[iy].crossing.point.translate(m), pts[ix].crossing.point,
                                   pts, live, pair)
    alive = [k in live for k in range(len(pts))]
    got = pairing._piece_blocker(pairing._piece_table(pts, step), step, alive, lift, ix, iy, m)
    assert got == want


# ---------------------------------------------------------------------------
# The order of the tests: lift, then pegs, then the piece


def recording_peg_tests(monkeypatch):
    """A list of (component, x, y, verdict) for every pair whose pegs
    cancellation tests from the column table, filled as `pairing` runs; the
    verdict is True when no peg is wound, False when one is, and the
    `PointOnLoop` raised when a segment the test reads meets a peg."""
    seen = []
    winds_no_peg = pairing._winds_no_peg

    def recording(c, x, y, m):
        try:
            verdict = winds_no_peg(c, x, y, m)
        except PointOnLoop as exc:
            seen.append((c, x, y, exc))
            raise
        seen.append((c, x, y, verdict))
        return verdict

    monkeypatch.setattr(pairing, "_winds_no_peg", recording)
    return seen


def counting_piece_and_peg_tests(monkeypatch):
    """A list of (x, y, blocker) for every pair `_piece_blocker` tests, and
    the `recording_peg_tests` list, both filled as `pairing` runs."""
    pieces = []
    piece_blocker = pairing._piece_blocker

    def piece_test(table, step, alive, lift, ix, iy, m):
        blocker = piece_blocker(table, step, alive, lift, ix, iy, m)
        pieces.append((ix, iy, blocker))
        return blocker

    monkeypatch.setattr(pairing, "_piece_blocker", piece_test)
    return pieces, recording_peg_tests(monkeypatch)


@pytest.mark.parametrize("run", [
    lambda d: pairing.surgery_report(d, SlopeSpec(5, 2)),
    lambda d: ArcSweep(d, SlopeSpec(5, 2)).dims(),
], ids=["surgery_report", "ArcSweep.dims"])
def test_only_pairs_past_the_peg_check_are_piece_tested(monkeypatch, run):
    # Most same-lift pairs wind a peg; those are never piece-tested.
    pieces, tested = counting_piece_and_peg_tests(monkeypatch)
    tables = []  # the size of each points' table built
    piece_table = pairing._piece_table

    def counting_table(pts, step):
        tables.append(len(pts))
        return piece_table(pts, step)

    reached = []  # per cancel_bigons call: whether some pair was piece-tested
    cancel = pairing.cancel_bigons

    def counting_cancel(*args, **kwargs):
        before = len(pieces)
        try:
            return cancel(*args, **kwargs)
        finally:
            reached.append(len(pieces) > before)

    monkeypatch.setattr(pairing, "_piece_table", counting_table)
    monkeypatch.setattr(pairing, "cancel_bigons", counting_cancel)
    run(build_zoo("torus_3_4"))
    passed = [verdict for *_, verdict in tested]
    assert set(passed) == {True, False}  # a validated curve meets no peg
    assert sum(passed) < len(passed)
    assert 0 < len(pieces) <= sum(passed)
    # The points' table is built once in each call whose pairs reach the
    # piece test, and in no other call.
    assert 0 < len(tables) == sum(reached)


@pytest.mark.parametrize("d", [build_zoo("torus_3_4"), thin(1, 2)], ids=["torus_3_4", "thin(1,2)"])
def test_calls_where_no_pair_passes_return_their_points(monkeypatch, d):
    # A call whose ring pairs all fail the same-lift or peg test removes
    # nothing: it returns its points in a new list, with an empty audit,
    # and builds no table.  Some such calls peg-test a pair that winds a
    # peg; thin(1, 2) has rings of several components.
    tested = recording_peg_tests(monkeypatch)
    tables = []
    piece_table = pairing._piece_table
    monkeypatch.setattr(pairing, "_piece_table", lambda pts, step: tables.append(pts) or piece_table(pts, step))
    wound = 0
    for slope in (SlopeSpec(1, 0), SlopeSpec(2, 1), SlopeSpec(-3, 2), SlopeSpec(5, 3)):
        for raw, obj in pairing_cases(d, slope):
            tested.clear()
            tables.clear()
            live, audit = cancel_bigons(raw, d, 1 if isinstance(obj, _ArcObject) else obj.step)
            if not any(verdict for *_, verdict in tested):
                assert (live, audit, tables) == (raw, [], []) and live is not raw
                wound += bool(tested)
    assert wound


# ---------------------------------------------------------------------------
# The removed pairs as certificates


def certified_loops(d: CurveDiagram, pts: Sequence[IPoint], step: int, audit) -> list[tuple[Point, ...]]:
    """The closing loop of each pair (x, y) that one `cancel_bigons` call
    removed from pts, checking that the pair certifies its bigon.

    Both points lie on one component, and y lies on x's lift:
    y.lift + step*m == x.lift, with m read from ring order (1 on a wrapping
    component when y comes before x in pts, else 0), which the reference
    walk `walk_span` must also give.  The loop (`closing_loop`, at least
    two points) closes back to x along that lift and winds every peg of
    its box 0 times under `winding_number`.
    """
    at = {z: k for k, z in enumerate(pts)}
    loops = []
    for x, y in audit:
        assert x.comp == y.comp, (x, y)
        c = d.components[x.comp]
        m = c.winding if at[y] < at[x] else 0
        assert y.lift + step * m == x.lift, (x, y)
        assert walk_span(c, x, y, 1)[1] == m, (x, y)
        loop = closing_loop(c, x, y)
        assert loop is not None, (x, y)
        for peg in pegs_in_box(Box.around(loop)):
            assert winding_number(loop, peg) == 0, (x, y, peg)
        loops.append(loop)
    return loops


def assert_removed_pairs_certified(d: CurveDiagram, slopes) -> int:
    """Every pair that `surgery_report` and `ArcSweep.dims` remove at each
    slope, through `certified_loops`; returns how many were checked."""
    removed = 0
    cancel = pairing.cancel_bigons

    def certifying(pts, d, step, *args):
        live, audit = cancel(pts, d, step, *args)
        nonlocal removed
        removed += len(certified_loops(d, pts, step, audit))
        return live, audit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairing, "cancel_bigons", certifying)
        for slope in slopes:
            pairing.surgery_report(d, slope)
            if slope.p:
                ArcSweep(d, slope).dims()
    return removed


@pytest.mark.parametrize("name", zoo_names())
def test_removed_pairs_are_certificates_on_zoo(name):
    # |p| <= 7 and q <= 3 with 1/0 and 0/1, as the peg checks below.
    removed = assert_removed_pairs_certified(build_zoo(name), ZOO_LOOP_SLOPES + [SlopeSpec(0, 1)])
    assert removed or name == "unknot"


@pytest.mark.parametrize("tau,fig8", [(tau, fig8) for tau in range(-2, 3) for fig8 in range(4)])
def test_removed_pairs_are_certificates_on_thin_diagrams(tau, fig8):
    slopes = [SlopeSpec(p, q) for q in (1, 2) for p in range(-5, 6) if p and math.gcd(abs(p), q) == 1]
    removed = assert_removed_pairs_certified(thin(tau, fig8), slopes + [SlopeSpec(1, 0), SlopeSpec(0, 1)])
    assert removed or (tau, fig8) == (0, 0)  # thin(0, 0) is the unknot's horizontal line


@settings(max_examples=25, deadline=None)
@given(staircase_diagrams(), st.booleans(), slopes)
def test_removed_pairs_are_certificates_on_staircases(d, mirrored, slope):
    assert_removed_pairs_certified(d.mirror() if mirrored else d, [slope])


# ---------------------------------------------------------------------------
# The one-pass peg check


def reference_wound_peg(loop: Sequence[Point], corner: Optional[Point] = None,
                        corner_winding: int = 0) -> Optional[Point]:
    """The per-peg `winding_number` loop that `first_wound_peg` replaced,
    with the corner read just above it by `winding_near`."""
    for peg in pegs_in_box(Box.around(loop)):
        if peg == corner:
            if winding_near(loop, corner, (0, 1)) != corner_winding:
                return peg
        elif winding_number(loop, peg) != 0:
            return peg
    return None


def assert_peg_checks_agree(loop, corner=None, corner_winding=0):
    want = outcome(reference_wound_peg, loop, corner, corner_winding)
    assert outcome(first_wound_peg, loop, corner, corner_winding) == want, (loop, corner, corner_winding)
    return want


def closing_loop(c: Component, x: IPoint, y: IPoint) -> Optional[tuple[Point, ...]]:
    """The closing loop of a pair: the forward walk from x to y, walked
    with `subarc`, without a repeated closing point; None when it has fewer
    than two points."""
    path, _ = subarc(c, x, y, 1)
    loop = tuple(path[:-1] if path[-1] == path[0] else path)
    return loop if len(loop) >= 2 else None


ZOO_LOOP_SLOPES = [
    SlopeSpec(p, q) for q in range(1, 4) for p in range(-7, 8) if p and math.gcd(abs(p), q) == 1
] + [SlopeSpec(1, 0)]


@pytest.fixture(scope="module")
def zoo_grid():
    """(peg-tested pairs, marked bigons) on the zoo at |p| <= 7, q <= 3 and
    1/0: each pair cancellation tests from the column table as
    (component, x, y, verdict), and each loop whose markers differentials
    tests, with its corner peg and the winding wanted there."""
    marked = []
    winds_marked = differentials._winds_marked

    def recording(c, x, z, direction, corner, w, p, q):
        peg = Point(Fraction(corner[0]), Fraction(2 * corner[1] + 1, 2))
        marked.append((tuple(subarc(c, x, z, direction)[0] + [peg]), peg, w))
        return winds_marked(c, x, z, direction, corner, w, p, q)

    with pytest.MonkeyPatch.context() as mp:
        pairs = recording_peg_tests(mp)
        mp.setattr(differentials, "_winds_marked", recording)
        for name in zoo_names():
            d = build_zoo(name)
            for slope in ZOO_LOOP_SLOPES:
                pairing.surgery_report(d, slope)
                sweep = ArcSweep(d, slope)
                for h in sweep.dims():
                    if slope.p > 0 and not slope.is_vertical:
                        differential_matrix(sweep, h, "phi")
                        differential_matrix(sweep, h, "psi")
    return pairs, marked


def zoo_loops(zoo_grid):
    """Every loop whose pegs pairing and differentials check on the zoo at
    |p| <= 7 and q <= 3, with its corner peg and winding: the closing loop
    of each pair cancellation peg-tests, and each marked bigon's loop."""
    pairs, marked = zoo_grid
    return [(closing_loop(c, x, y), None, 0) for c, x, y, _ in pairs] + marked


def test_peg_check_matches_winding_number_on_zoo_loops(zoo_grid):
    loops = zoo_loops(zoo_grid)
    results = [assert_peg_checks_agree(*case) for case in loops]
    # both answers occur, and the marked bigons pass through their corner
    # peg with either winding
    assert None in results and any(isinstance(r, Point) for r in results)
    assert {w for _, corner, w in loops if corner is not None} == {0, 1}


def crosses_column_at(loop: Sequence[Point], peg: Point) -> bool:
    """The loop meets peg once, crossing its column there: inside one
    non-vertical edge, or at one vertex whose neighbours lie strictly on
    either side of the column."""
    edges = [(a, b) for a, b in _closed_edges(loop) if on_segment(peg, Segment(a, b))]
    if len(edges) == 1:
        (a, b), = edges
        return a.x != b.x and peg not in (a, b)
    if len(edges) == 2:
        (a, b), (c, e) = edges
        ends = (a, e) if b == peg == c else (c, b) if e == peg == a else None
        return ends is not None and (ends[0].x - peg.x) * (ends[1].x - peg.x) < 0
    return False


# Coordinates on the quarter grid put vertices on pegs and edges through
# them often; thirds make crossings off the grid.
coordinates = st.one_of(
    st.integers(-8, 8).map(lambda n: Fraction(n, 4)),
    st.integers(-6, 6).map(lambda n: Fraction(n, 3)),
)
polygons = st.lists(st.builds(Point, coordinates, coordinates), min_size=2, max_size=8)
pegs = st.builds(lambda i, j: Point(i, Fraction(2 * j + 1, 2)), st.integers(-2, 2), st.integers(-2, 1))


@settings(max_examples=400, deadline=None)
@given(polygons, st.none() | pegs, st.integers(-1, 20), st.sampled_from((-1, 0, 1)))
@example([Point(0, 0), Point(1, 1)], None, -1, 0)  # a diagonal through no peg
@example([Point(-HALF, 0), Point(HALF, 0), Point(HALF, 1), Point(-HALF, 1)], None, -1, 0)  # winds once around (0, 1/2)
@example([Point(-1, 0), Point(1, 0), Point(0, HALF)], None, -1, 0)  # a vertex on a peg
@example([Point(-1, 0), Point(1, 1), Point(1, -1)], None, -1, 0)  # edges through (0, -1/2) and (0, 1/2)
@example([Point(0, 0), Point(0, 1), Point(-1, 1)], None, -1, 0)  # a vertical edge through a peg
@example([Point(-1, 0), Point(1, 1), Point(1, 2), Point(-1, 2)], None, 0, 1)  # an edge across the corner (0, 1/2)
@example([Point(HALF, Fraction(3, 4)), Point(0, 1), Point(-HALF, Fraction(1, 4))],
         Point(0, HALF), -1, 1)  # closed through the corner, winding 1 just above it
@example([Point(HALF, Fraction(3, 4)), Point(0, 1), Point(-HALF, Fraction(1, 4))],
         Point(0, HALF), -1, 0)  # ... which a winding of 0 does not match
@example([Point(Fraction(5, 2), 0), Point(Fraction(-3, 2), 1), Point(Fraction(-3, 2), 0),
          Point(Fraction(5, 2), 1)], None, -1, 0)  # a bowtie: its lobes wind +1 and -1
@example([Point(0, HALF), Point(0, HALF)], None, 0, -1)  # no edge: the corner's column has no crossing
def test_peg_check_matches_winding_number_on_polygons(loop, through, corner_index, corner_winding):
    # `through`, if drawn, closes the loop through that peg, as a marked
    # bigon's loop closes through its corner, and is the corner when the
    # loop crosses its column there.  Otherwise corner_index picks the
    # corner among the box's pegs off the loop or crossed there, if any.
    if through is not None:
        loop = loop + [through]
    candidates = [peg for peg in pegs_in_box(Box.around(loop))
                  if crosses_column_at(loop, peg)
                  or not any(on_segment(peg, Segment(a, b)) for a, b in _closed_edges(loop))]
    if through in candidates:
        corner = through
    else:
        corner = candidates[corner_index] if 0 <= corner_index < len(candidates) else None
    assert_peg_checks_agree(loop, corner, corner_winding)


# ---------------------------------------------------------------------------
# The tally rule of `winds_only`


def reference_winds_only(tally: dict, corner: Optional[tuple[int, int]], corner_winding: int) -> bool:
    """Peg by peg: each peg (k, j + 1/2) with -3 <= k <= 3 and
    -5 <= j <= 4, below and above every key drawn, winds the sum of
    tally[k, t] over t >= j, which must be corner_winding at the corner
    and 0 at every other peg."""
    for k in range(-3, 4):
        for j in range(-5, 5):
            winding = sum(s for (column, t), s in tally.items() if column == k and t >= j)
            if winding != (corner_winding if (k, j) == corner else 0):
                return False
    return True


@st.composite
def tallies(draw):
    """(tally, corner, w): signed sums over columns -3..3 and t -3..3, no
    corner or a corner there with w in {0, 1}; half of them have every sum
    zeroed and then the corner wound as asked, so that both verdicts
    occur."""
    key = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    tally = draw(st.dictionaries(key, st.integers(-2, 2), max_size=6))
    corner = draw(st.none() | key)
    w = 0 if corner is None else draw(st.sampled_from((0, 1)))
    if draw(st.booleans()):
        tally = dict.fromkeys(tally, 0)
        if w:
            tally.update({corner: w, (corner[0], corner[1] - 1): -w})
    return tally, corner, w


def test_a_peg_between_keys_is_read():
    # The pegs (0, -1/2) and (0, -3/2) lie between the keys (0, 0) and
    # (0, -3) and are wound once each; a running sum taken only at the keys
    # misses them.
    tally = {(0, 0): 1, (0, -3): -1}
    assert not reference_winds_only(tally, (0, 0), 1)
    assert not pairing.winds_only(tally, (0, 0), 1)


@settings(max_examples=400, deadline=None)
@given(tallies())
@example(({}, None, 0))
@example(({(0, 0): 1, (0, -1): -1}, (0, 0), 1))  # winds the corner once
@example(({(0, 0): 1, (0, -1): -1}, (0, 0), 0))  # ... which a winding of 0 does not match
@example(({(1, 2): 0, (-1, 0): 0}, (1, 2), 0))  # zero sums wind nothing
@example(({(2, 1): 1}, None, 0))  # a column that does not close up
def test_tally_rule_matches_peg_windings(case):
    tally, corner, w = case
    args = () if corner is None else (corner, w)
    assert pairing.winds_only(dict(tally), *args) is reference_winds_only(tally, corner, w), case


# ---------------------------------------------------------------------------
# The peg test read from each component's column table


def assert_verdicts_agree(pairs) -> set:
    """Each recorded verdict against `first_wound_peg` on the pair's
    closing loop; returns the verdicts met."""
    for c, x, y, verdict in pairs:
        loop = closing_loop(c, x, y)
        assert verdict is (first_wound_peg(loop) is None), (c, x, y)
    return {verdict for *_, verdict in pairs}


def piece_reaches_a_column(c: Component, x: IPoint, y: IPoint) -> bool:
    """Whether the lift's piece of the pair, from y's point moved by
    (m, 0) back to x's, reaches an integer column, read in Fractions: it
    does not iff both ends lie strictly inside one gap between columns."""
    m = pairing._walk(c, x.crossing, y.crossing, 1)[2]
    ax, bx = x.crossing.point.x, y.crossing.point.x + m
    inside = math.floor(ax) == math.floor(bx) and ax.denominator > 1 and bx.denominator > 1
    return not inside


def test_peg_test_matches_first_wound_peg_on_zoo(zoo_grid):
    pairs, _ = zoo_grid
    assert assert_verdicts_agree(pairs) == {True, False}
    # Both branches of the peg test met both verdicts: pairs whose piece
    # lies inside one column gap, which start an empty tally, and pairs
    # whose piece reaches a column, which cross it first.
    kinds = {(piece_reaches_a_column(c, x, y), verdict) for c, x, y, verdict in pairs}
    assert kinds == {(False, True), (False, False), (True, True), (True, False)}


def peg_tested_pairs(d: CurveDiagram, slopes) -> list:
    """The recorded peg tests of the filling family and every grading of
    the dual arcs at each slope."""
    with pytest.MonkeyPatch.context() as mp:
        pairs = recording_peg_tests(mp)
        for slope in slopes:
            pairing.surgery_report(d, slope)
            ArcSweep(d, slope).dims()
    return pairs


@pytest.mark.parametrize("tau,fig8", [(1, 1), (-2, 2), (0, 3)])
def test_peg_test_matches_first_wound_peg_on_thin_diagrams(tau, fig8):
    slopes = [SlopeSpec(p, q) for q in (1, 2) for p in range(-5, 6) if p and math.gcd(abs(p), q) == 1]
    pairs = peg_tested_pairs(thin(tau, fig8), slopes + [SlopeSpec(1, 0)])
    assert assert_verdicts_agree(pairs) == {True, False}


@settings(max_examples=25, deadline=None)
@given(staircase_diagrams(), st.booleans(), slopes.filter(lambda s: s.p != 0))
def test_peg_test_matches_first_wound_peg_on_staircases(d, mirrored, slope):
    assert_verdicts_agree(peg_tested_pairs(d.mirror() if mirrored else d, [slope]))


def reference_segment_columns(a: Point, b: Point) -> tuple[tuple[int, int, int], ...]:
    """The column crossings of the segment from a to b by their
    definition, in Fractions: column i for each integer i with
    min x <= i < max x, its sign +1 leftwards and -1 rightwards, and t the
    largest integer j with j + 1/2 below the crossing.  If the closed
    segment holds a peg, PointOnLoop names the first in `pegs_in_box`
    order: the lowest column, then the lowest row."""
    for peg in pegs_in_box(Box.around((a, b))):
        if on_segment(peg, Segment(a, b)):
            raise PointOnLoop(f"{peg} lies on the loop")
    out = []
    for i in range(math.ceil(min(a.x, b.x)), math.ceil(max(a.x, b.x))):  # none when vertical
        y = a.y + (i - a.x) * (b.y - a.y) / (b.x - a.x)
        out.append((i, math.ceil(y - HALF) - 1, 1 if b.x < a.x else -1))
    return tuple(out)


@pytest.mark.parametrize("d", [build_zoo(name) for name in zoo_names()] + [thin(-2, 3)],
                         ids=zoo_names() + ["thin(-2,3)"])
def test_column_table_matches_its_definition(d):
    for c in d.components:
        ends = c.vertices[1:] + (c.vertices[:1] if c.winding == 0 else ())
        for i, (a, b) in enumerate(zip(c.vertices, ends)):
            assert c.segment_columns(i) == reference_segment_columns(a, b), (c, i)


@settings(max_examples=100, deadline=None)
@given(polygons)
def test_column_table_matches_its_definition_on_polygons(loop):
    c = Component(tuple(loop), 0)
    for i, a in enumerate(loop):
        b = loop[(i + 1) % len(loop)]
        if a != b:
            assert outcome(c.segment_columns, i) == outcome(reference_segment_columns, a, b), (loop, i)


# Hand-built closed components whose loops pass through the peg (0, 1/2),
# paired with vertical lines: (vertices, delta), the lines being
# x = 1/2 + delta + k.  In the first the curve avoids the pegs and only the
# lines hold them; in the others the curve runs through (0, 1/2).
THROUGH_A_PEG = {
    "closing edge": ([(Fraction(-1, 4), 0), (Fraction(1, 4), 0), (Fraction(1, 4), 1), (Fraction(-1, 4), 1)],
                     Fraction(-1, 2)),
    "whole segment": ([(Fraction(-5, 8), 0), (Fraction(-1, 2), 0), (HALF, 1), (Fraction(5, 8), 1),
                       (Fraction(5, 8), 2), (Fraction(-5, 8), 2)], Fraction(-1, 4)),
    "first edge": ([(Fraction(-5, 8), 0), (Fraction(5, 8), 1), (Fraction(5, 8), 2), (Fraction(-5, 8), 2)],
                   Fraction(-3, 4)),
    "last edge": ([(Fraction(-5, 8), 0), (Fraction(5, 8), 1), (Fraction(5, 8), 2), (Fraction(-5, 8), 2)],
                  Fraction(-1, 4)),
    "vertex": ([(Fraction(-5, 8), 0), (0, HALF), (Fraction(5, 8), 0), (Fraction(5, 8), 2), (Fraction(-5, 8), 2)],
               Fraction(-1, 4)),
}


# A closed box on the strip -23/8 <= x <= -9/8 between the peg rows, which
# each family above crosses on one lift or two, its pairs winding no peg.
BOX = tuple(Point(Fraction(x, 8), Fraction(y, 8)) for x, y in [(-23, 1), (-9, 1), (-9, 3), (-23, 3)])


@pytest.mark.parametrize("case", THROUGH_A_PEG, ids=list(THROUGH_A_PEG))
def test_loops_through_a_peg_are_refused(monkeypatch, case):
    vertices, delta = THROUGH_A_PEG[case]
    d = CurveDiagram((Component(tuple(Point(Fraction(x), Fraction(y)) for x, y in vertices), 0),))
    fam = _LineFamily(SlopeSpec(1, 0), delta)
    pts = raw_intersections(d, fam)
    tested = recording_peg_tests(monkeypatch)
    refused = ("PointOnLoop", "(0, 1/2) lies on the loop")
    assert outcome(cancel_bigons, pts, d, fam.step) == refused
    c, x, y, verdict = tested[-1]  # the pair refused
    assert isinstance(verdict, PointOnLoop)
    # Ahead of a closed box that the lines cross, in ring order, the same
    # pair raises, naming the same peg, after the box's pairs pass.
    boxed = CurveDiagram((Component(BOX, 0), d.components[0]))
    tested.clear()
    assert outcome(cancel_bigons, raw_intersections(boxed, fam), boxed, fam.step) == refused
    *passed, (_, bx, by, raised) = tested
    assert passed and all(v is True for *_, v in passed)
    assert [(z.crossing, z.lift) for z in (bx, by)] == [(z.crossing, z.lift) for z in (x, y)]
    assert isinstance(raised, PointOnLoop) and raised.peg == verdict.peg
    through = case != "closing edge"
    if through:  # the walk read a segment through the peg, which validation names
        assert "passes through peg (0, 1/2)" in validate(d).summary()
    else:  # the lift's piece runs through the peg, and so does the loop
        assert outcome(first_wound_peg, closing_loop(c, x, y)) == refused
        # The piece raised, not the walk: its ends lie on the column, and
        # the walk alone reads no segment through a peg.
        assert piece_reaches_a_column(c, x, y)
        assert all(z.crossing.x % z.crossing.den == 0 for z in (x, y))
        pairing.walk_columns(c, x.crossing, y.crossing, 1, {})
    # The filling family that `line_family` picks holds no peg, so only a
    # curve through the peg is refused there.  The arcs refuse every one of
    # these diagrams, which have no wrapping component, with validation's
    # report, which names the peg iff the curve runs through it.
    slope = SlopeSpec(2, 1)
    assert (outcome(pairing.surgery_report, d, slope) == refused) is through
    with pytest.raises(InvariantViolation) as invalid:
        ArcSweep(d, slope)
    assert invalid.value.report is d._validation
    assert ("peg" in [v.code for v in d._validation.violations]) is through
