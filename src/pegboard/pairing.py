"""Minimal-intersection pairing of a diagram with lines and peg-to-peg arcs.

The diagram is paired with two kinds of plane curve:

* the filling line family of slope p/q (lines with vertical spacing 1/q
  pushed off the seam by a canonical generic offset), whose minimal
  intersection count with the diagram is the Floer dimension of the p/q
  filling, and
* the peg-to-peg arcs of slope p/q at height h and their horizontal
  translates, whose minimal count gives the graded dimension of the dual
  knot's knot homology at grading h.

Either is a set of plane lifts numbered by an integer, and each intersection
point records the number of the lift it lies on.  Counts are taken in the
quotient (torus for lines, cylinder for arcs) by pairing one period of the
wrapping component plus one copy of each closed component against every
relevant lift.  Every removable disk between the curve and the lifts is then
cancelled: a pair of intersection points adjacent along both the curve and
one lift gets removed whenever the loop they bound has winding number zero
around every peg.  The removal order does not change the final count
(tested property).  Besides the points, cancellation needs one integer, the
lift step: how a lift index changes when a point moves by (1, 0).  It is 1
for arcs and a filling family's x coefficient otherwise: 1 for the vertical
family, -p for a slanted one and 0 for horizontal lines, each of which holds
every translate of its points.
Cancellation is a worklist: within one `cancel_bigons` call each adjacent
pair is tested once, when it becomes adjacent, cheapest test first: the
lift test, then the peg check, then the piece test.  One pass over the ring
neighbours runs the first two on every pair, and only a call where a pair
passes builds the worklist.  Removing a pair makes one new adjacent pair on
its ring and frees the pairs it blocked; nothing else is tested again.  The
same-lift test is read from ring order: the pairs are neighbours on a
component's ring of distinct positions, so the forward walk from x to y
passes a period end (m = 1) only from the ring's last point to its first on
the wrapping component, and y lies on x's lift iff
y.lift + step*m == x.lift.  The peg test of a pair that passes sums its
closing loop's column crossings into one signed tally: the lift's piece,
crossed in integers, and the walk, read from the component's column table
(`Component.segment_columns`, kept for the life of the component); no
Fraction loop is built.  The curve lives in the punctured torus, so no peg
lies on it: the column table refuses a segment through a peg with
`PointOnLoop`, as validation does.  Only the loops that wind no peg are
ever piece-tested: a loop never changes, so a wound peg rules its pair out
for good.  The piece test, for another live point on the lift's piece, is
the only one that depends on what has been removed.  It scans only its
lift's class in an integer table built with the worklist; the peg
test crosses the lift's piece in the pair's own frame, only when its
abscissae reach a column, and its walk's m is read from ring order, so
each peg test walks the curve once.  A blocked pair is filed under the
point that blocked it and is tested again only after that point is gone.
The points come sorted by (component, position), so each component's ring
is its run of them and no ring is sorted.  A removed pair's audit is the
pair (x, y) itself: its bigon was certified by the tests above, and no
loop is kept.

Either kind lies on the level sets of one linear form, so every raw count
is one `Component.level_crossings` scan per component, done in integers
in the component's cached frame (`Component._frame`).  Each intersection
point (`IPoint`) holds the scan's integer record of its crossing
(`curves.Crossing`: segment, ratio along it, point over a common
denominator, level); the sweep, cancellation and the differentials read
those integers, and a point's Fraction coordinates (`Crossing.point`)
are built only when read.  A filling family is its form
f = a*x + b*y + c, and lift k is the line f = k: the form
numbers the raw points (`raw_intersections`), decides the offset
(`_family_is_clean`, which tests each component in its own frame,
rescaled for c) and picks the lifts that meet a box (`lift_indices`).
Every arc of a slope lies on a level of F = p*x - q*y, so `ArcSweep`, one
object per (diagram, slope), scans every grading at once and files each
crossing under the one arc that holds it; the keys it files are the
gradings.  The scan reads each run of vertices along a level pushed off
it to the side where the curve leaves it, so a segment along an arc line
is read as the isotopic curve pushed off the line, crossed once at a
vertex iff the curve passes through the run, and every validated diagram
pairs at every slope: no incidence is refused.
The sweep cancels bigons once per grading and keeps the result, so the
graded dimensions and both differentials of one slope share the work.
The arc side serves validated diagrams only: every arc reader builds an
`ArcSweep`, which raises `InvariantViolation` with the diagram's kept
report when it is not ok (`CurveDiagram.validated`, the check that the
word readers, `genus_of` among them, share).  So no crossing
lies on an arc end, a peg, and no walk from a sweep reaches one (the
filling side takes any diagram and refuses such a walk); and the half
turn maps the diagram onto itself and the grading-h arcs onto the
grading -h arcs, so the dimensions, the total and the differentials'
ranks are counted at h >= 0 and read at -h.
Every walk along the curve between two intersection points is read from
their two crossing records by one helper, `_walk`: the continuous segments
the walk covers and m, the period ends it passes (equal positions are one
full traversal apart).  `walk_columns` adds the walk's crossings from the
column table into a signed tally by (column, t) and returns the columns of
its two ends, and `winds_only` reads every peg's winding off the tally, for
cancellation's peg test and the marker test, each of which adds only its
own closing piece and walks the curve once: the peg test is handed the m
that `cancel_bigons` read from ring order, and the marker test reads its
closing piece's columns from the ends `walk_columns` returns.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import defaultdict, namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .geometry import (
    HALF,
    ZERO,
    Box,
    Point,
    Segment,
    column_crossings,
    rat,
)
from .curves import Component, Crossing, CurveDiagram


class ZeroSurgery(ValueError):
    """Graded operations refuse the 0-filling: its dual knot has no
    rationally defined grading, so only the flat count is reported."""


class GradingOutOfRange(ValueError):
    """Grading not in Z + (p-1)/2 for the requested slope."""


class SlopeSpec(namedtuple("SlopeSpec", "p q")):
    """A reduced slope p/q; q = 0 encodes the vertical slope 1/0."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p == 0 and q == 0:
            raise ValueError("slope 0/0 is not a slope")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(abs(p), q)
        if g > 1:
            p, q = p // g, q // g
        if q == 0:
            p = 1
        return super().__new__(cls, p, q)

    @staticmethod
    def parse(text: str) -> "SlopeSpec":
        s = text.strip()
        if "/" in s:
            a, b = s.split("/", 1)
            return SlopeSpec(int(a), int(b))
        return SlopeSpec(int(s), 1)

    @property
    def is_vertical(self) -> bool:
        return self.q == 0

    def __str__(self):
        return f"{self.p}/{self.q}"


def grading_key(slope: SlopeSpec, h) -> int:
    """The sweep's key of grading h of the slope, the integer h - (p - 1)/2;
    raises `GradingOutOfRange` when h is not a grading.  h is read through
    `rat`, and the key in integers, as (2n - (p - 1)*d) / 2d for h = n/d."""
    h = rat(h)
    key, r = divmod(2 * h.numerator - (slope.p - 1) * h.denominator, 2 * h.denominator)
    if r:
        raise GradingOutOfRange(f"height {h} is not in Z + ({slope.p}-1)/2 for slope {slope}")
    return key


class ArcLift(namedtuple("ArcLift", "slope height")):
    """Peg-to-peg arc of slope p/q at grading height h (its midpoint height)."""

    __slots__ = ()

    def __new__(cls, slope: SlopeSpec, height):
        height = rat(height)
        if slope.p == 0:
            raise ZeroSurgery("arcs of slope 0 are not defined")
        grading_key(slope, height)  # refuses a height off the gradings
        return super().__new__(cls, slope, height)

    def seg(self) -> Segment:
        """Lift 0; lift k is this segment translated by (k, 0)."""
        p, q = self.slope.p, self.slope.q
        a = Point(ZERO, self.height - Fraction(p, 2))
        b = Point(Fraction(q), self.height + Fraction(p, 2))
        return Segment(a, b)

    def lift_indices(self, box: Box) -> range:
        """The lifts that meet the strip box.xmin <= x <= box.xmax.

        Lift k spans k <= x <= k + q (x = k for 1/0, where q = 0).
        """
        return range(math.ceil(box.xmin) - self.slope.q, math.floor(box.xmax) + 1)


class IPoint(NamedTuple):
    """One intersection of the curve with one plane lift of a line or arc.

    comp is the index of the component, crossing its `Crossing` record from
    the level scan (in integers), and lift the integer index of the lift
    through the point.
    """

    comp: int
    crossing: Crossing
    lift: int


class PairingReport(NamedTuple):
    slope: SlopeSpec
    counts: dict
    total: int
    cancelled: tuple[tuple[IPoint, IPoint], ...]  # each removed pair (x, y)
    flags: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Filling line families


class _LineFamily:
    """The plane preimage of the slope-p/q filling curve, pushed off the seam.

    The family is one affine form f(x, y) = a*x + b*y + c, and lift k is
    the line f = k:

    * slanted (p != 0, q >= 1): (-p, q, p*(1/2 + delta)), the lines of
      slope p/q through (1/2 + delta, k/q);
    * vertical 1/0: (1, 0, -(1/2 + delta)), the lines x = 1/2 + delta + k;
    * horizontal 0/1: (0, 1, -(1/2 + delta)), the half-integer rows
      y = k + 1/2 + delta of the 0-filling.
    c is one Fraction: 1/2 + delta is (den + 2*num)/(2*den), delta = num/den.
    """

    def __init__(self, slope: SlopeSpec, delta: Fraction):
        self.slope = slope
        self.delta = delta
        p, q = slope.p, slope.q
        num, den = delta.as_integer_ratio()
        if p and q:
            self.a, self.b, self.c = -p, q, Fraction(p * (den + 2 * num), 2 * den)
        else:  # 1/0 is (p, q) = (1, 0) and 0/1 is (0, 1)
            self.a, self.b, self.c = p, q, Fraction(-(den + 2 * num), 2 * den)

    def form(self, v: Point) -> Fraction:
        return self.a * v.x + self.b * v.y + self.c

    def lift_indices(self, box: Box) -> range:
        """The lifts that meet the box: the range of f over its corners."""
        corners = [self.form(Point(x, y))
                   for x in (box.xmin, box.xmax) for y in (box.ymin, box.ymax)]
        return range(math.ceil(min(corners)), math.floor(max(corners)) + 1)

    @property
    def step(self) -> int:
        """How a lift index changes when a point moves by (1, 0)."""
        return self.a


# ---------------------------------------------------------------------------
# Raw intersections


def raw_intersections(d: CurveDiagram, fam: _LineFamily) -> list[IPoint]:
    """All intersections with a filling family, one record per quotient
    point.

    Sorted by component, then position along it: one level scan of the
    family's form per component, level m being lift m.  At the offset
    `line_family` picks no vertex lies on a line; at any other offset a
    run of vertices on a line is read pushed off it, as every level scan
    reads one.
    """
    new = tuple.__new__  # as `Component.level_crossings` builds its records
    return [new(IPoint, (ci, e, e.m)) for ci, c in enumerate(d.components)
            for e in c.level_crossings(fam.a, fam.b, fam.c)]


# ---------------------------------------------------------------------------
# Generic offset selection

def _canonical_delta(d: CurveDiagram) -> Fraction:
    lcm = math.lcm(*(c._frame[0] for c in d.components))
    n_vertices = sum(len(c.vertices) for c in d.components)
    return Fraction(1, 2 * lcm * max(n_vertices, 1))


def _family_is_clean(d: CurveDiagram, fam: _LineFamily) -> bool:
    """No peg and no curve vertex on any line of the family.

    The lines are the integer levels of the family's form f, so the family
    is clean iff f is non-integral at every vertex and at the peg (0, 1/2).
    Translating a point by (1, 0) or (0, 1) shifts f by the integer a or b,
    so one vertex stands for all its horizontal translates and one peg for
    the whole peg lattice (i, j + 1/2), tested in integers as
    f(0, 1/2) = (b*den + 2*num)/(2*den) for c = num/den.

    The vertex test is done in integers, in each component's frame
    (`Component._frame`, scale S) rescaled by f = lcm(S, den c) // S, so
    that c becomes an integer C (`Component._rescale_for`): the form is
    integral at a vertex iff f*S divides (a*X + b*Y)*f + C.
    """
    a, b, c = fam.a, fam.b, fam.c
    num, den = c.as_integer_ratio()
    if (b * den + 2 * num) % (2 * den) == 0:
        return False
    for comp in d.components:
        _, xs, ys = comp._frame
        scale, f, cs = comp._rescale_for(c)
        if not all(((a * x + b * y) * f + cs) % scale for x, y in zip(xs, ys)):
            return False
    return True


def line_family(d: CurveDiagram, slope: SlopeSpec) -> _LineFamily:
    """The filling family at the canonical offset, halved until incidence-free.

    The start is delta_0 = 1/(2*L*N) (L the lcm of the components' frame
    scales, N the vertex count, at least 1); each candidate offset is
    tested with the closed-form criterion of `_family_is_clean`.

    The loop ends.  At step k (delta = delta_0/2**k) the form of a
    slanted or vertical family at a vertex (X/L, Y/L), X and Y integers,
    or at the peg (0, 1/2) is a number whose denominator divides 2*L plus
    p*delta = p/(2*L*N*2**k), so it is an integer only if N*2**k divides p
    (p = 1 for 1/0).  For 0/1 the form is y - 1/2 - delta, an integer at
    a vertex only if N*2**k = 1.  So step k can fail only while
    N*2**k <= max(|p|, 1): for p != 0 there are at most
    floor(log2(|p|/N)) + 1 halvings, none when |p| < N, and for 0/1 at
    most one.
    """
    delta = _canonical_delta(d)
    fam = _LineFamily(slope, delta)
    while not _family_is_clean(d, fam):
        delta = delta / 2
        fam = _LineFamily(slope, delta)
    return fam


# ---------------------------------------------------------------------------
# Bigon cancellation


def _walk(c: Component, a: Crossing, b: Crossing, direction: int) -> tuple[int, int, int]:
    """(first, last, m) of the walk along component c from crossing a to
    crossing b, forward (direction +1, increasing position) or backward
    (-1).

    The walk passes a period end iff b does not strictly follow a in its
    direction, so equal positions are one full traversal apart.  m is the
    signed number of period ends passed (0 on a closed component), so the
    walk reaches b at b.point + (m, 0).  first..last are the continuous
    segments (segment j from `Component.lifted(j)` to `lifted(j + 1)`) of
    the forward traversal that covers the walk: from a to b + (m, 0)
    forward, from b + (m, 0) to a backward.  That traversal leaves its
    start along the start's segment i and reaches its end along the end's
    `Crossing.last_segment`.
    """
    wrapped = not (a.precedes(b) if direction > 0 else b.precedes(a))
    n = c.cycle_length() if wrapped else 0
    m = direction if wrapped and c.winding == 1 else 0
    if direction > 0:
        return a.i, b.last_segment + n, m
    return b.i - n, a.last_segment, m


def _piece_table(pts: Sequence[IPoint], step: int) -> tuple:
    """(pts, S, K, C): S the lcm of the denominators, K[k] the key of
    pts[k] on its lift, step*X - lift*S for X its abscissa times S (X when
    step is 0), which its translates share, and C the indices of each lift
    class (lift mod step, or the lift when step is 0) in index order."""
    scale = math.lcm(*{z.crossing.den for z in pts})
    if step:
        keys = [step * e.x * (scale // e.den) - lift * scale for _, e, lift in pts]
    else:
        keys = [e.x * (scale // e.den) for _, e, _ in pts]
    classes: dict[int, list[int]] = {}
    for k, z in enumerate(pts):
        classes.setdefault(z.lift % step if step else z.lift, []).append(k)
    return pts, scale, keys, classes


def _piece_blocker(table: tuple, step: int, alive: Sequence[bool], lift: int,
                   ix: int, iy: int, m: int) -> Optional[int]:
    """The least index of a live point, other than the pair, strictly
    between the pair's ends on the lift, or None.

    The ends of the pair (ix, iy) of `_piece_table` points are pts[iy]
    moved by (m, 0) and pts[ix].  Only the lift's class is scanned, by key
    (by height on an upright lift)."""
    pts, scale, keys, classes = table
    a, b = pts[iy].crossing, pts[ix].crossing
    ax, bx = a.x * (scale // a.den) + m * scale, b.x * (scale // b.den)
    upright = ax == bx  # compare heights on a vertical lift, else abscissae
    if upright:
        lo, hi = a.y * (scale // a.den), b.y * (scale // b.den)
        if lo == hi:
            return None  # the ends coincide
    elif step:
        lo, hi = step * ax - lift * scale, step * bx - lift * scale
    else:
        lo, hi = ax, bx
    if lo > hi:
        lo, hi = hi, lo
    members = classes.get(lift % step if step else lift, ())
    if step == 0:
        for k in members:
            # Some translate of z by (m, 0) lies strictly between lo and hi.
            if alive[k] and k != ix and k != iy and ((lo - keys[k]) // scale + 1) * scale < hi - keys[k]:
                return k
        return None
    if upright:
        for k in members:
            e = pts[k].crossing
            if alive[k] and lo < e.y * (scale // e.den) < hi and k != ix and k != iy:
                return k
        return None
    for k in members:
        if alive[k] and lo < keys[k] < hi and k != ix and k != iy:
            return k
    return None


def walk_columns(c: Component, a: Crossing, b: Crossing, direction: int,
                 tally: dict[tuple[int, int], int]) -> tuple[int, int]:
    """Add the column crossings of the `_walk` along c from a to b into
    `tally`, and return (start, end).

    A crossing (column, t, sign), in the convention of
    `geometry.column_crossings` and signed as walked, adds its sign to
    tally[column, t]; raises `PointOnLoop` when one of the walk's segments
    meets a peg.  start and end are the columns of the walk's ends, the
    ceilings of the abscissae of a and of b + (m, 0), in that order
    whichever the direction.

    The crossings are those of the forward traversal first..last that
    covers the walk, with their signs flipped on a backward walk.  Each
    segment's crossings are read from the component's table
    (`Component.segment_columns`), shifted by the segment's period on a
    wrapping component.  On segment first only the columns from the
    traversal's start on count, and on segment last only those before its
    end: a piece of a segment crosses the same columns at the same
    heights, under the same half-open rule, so a rightward crossing (sign
    -1) of column k lies past the start iff k >= the ceiling of the
    start's abscissa and before the end iff k < the end's, and a leftward
    one the other way round.
    """
    first, last, m = _walk(c, a, b, direction)
    ends = (-(-a.x // a.den), -(-b.x // b.den) + m)  # the ceilings of the abscissae
    start, end = ends if direction > 0 else ends[::-1]
    n = c.cycle_length()
    periodic = c.winding == 1
    table = c._columns  # read first: most walked segments are filed and cross no column
    for j in range(first, last + 1):
        wrap, i = divmod(j, n)
        shift = wrap if periodic else 0
        columns = table.get(i)
        for k, t, sign in c.segment_columns(i) if columns is None else columns:
            k += shift
            if j == first and (k >= start) != (sign < 0):
                continue
            if j == last and (k < end) != (sign < 0):
                continue
            tally[k, t] = tally.get((k, t), 0) + sign * direction
    return ends


def winds_only(tally: dict[tuple[int, int], int], corner: Optional[tuple[int, int]] = None,
               corner_winding: int = 0) -> bool:
    """Whether the loop whose column crossings sum to `tally` winds every
    peg 0 times, except the peg (i, j + 1/2) given as corner = (i, j),
    which it winds `corner_winding` times.

    tally[k, t] is the signed count S(k, t) of the loop's crossings of
    column k at t, and the winding of peg (k, j + 1/2) is the sum of
    S(k, t) over t >= j.  So every peg winds 0 times iff every S is 0,
    and only the corner winds w != 0 times iff the nonzero S are exactly
    S(i, j) = w and S(i, j - 1) = -w.
    """
    if not corner_winding:
        return not any(tally.values())
    i, j = corner
    return {key: s for key, s in tally.items() if s} == {corner: corner_winding, (i, j - 1): -corner_winding}


def _winds_no_peg(c: Component, x: IPoint, y: IPoint, m: int) -> bool:
    """Whether the closing loop of the pair (x, y), distinct neighbours on
    component c's ring, winds no peg; raises `PointOnLoop` when a segment
    the walk passes, or the lift's piece, meets a peg.

    The loop is the forward `_walk` from x to y, which ends at y's point
    moved by (m, 0), closed back to x along the lift.  m is the
    one `cancel_bigons` read from ring order for the same-lift test: only
    the walk from the ring's last point to its first passes a period end.
    The lift's piece is crossed only when its abscissae reach a column:
    with both ends strictly inside one gap between integer columns (equal
    floors, neither on a column) it has no crossing and no peg, and the
    tally starts empty.  Otherwise its crossings (one per column), in
    integers in the pair's own frame (the lcm of the two denominators),
    start the tally, so a piece through a peg raises before the walk,
    which adds its crossings from the column table (`walk_columns`); then
    `winds_only` decides.
    x and y have distinct positions, so the walk has positive length and
    its ends differ even where both lie on one segment.

    A piece of a lift holds no peg on a filling family that `line_family`
    chose, as `_family_is_clean` rejects a form integral at the peg
    (0, 1/2), nor inside an arc of a reduced slope; its ends are points of
    the curve, which validation keeps off the pegs.  So the piece raises
    only for a hand-built `_LineFamily` whose lines run through pegs, or
    on a curve through a peg.
    """
    a, b = x.crossing, y.crossing
    tally = {}  # stays empty when both ends lie strictly inside one column gap
    if not (a.x % a.den and b.x % b.den and a.x // a.den == b.x // b.den + m):
        scale = math.lcm(a.den, b.den)
        fa, fb = scale // a.den, scale // b.den
        piece = column_crossings(scale, b.x * fb + m * scale, b.y * fb, a.x * fa, a.y * fa)
        tally = {(k, t): sign for k, t, sign in piece}  # one crossing per column
    walk_columns(c, a, b, 1, tally)
    return winds_only(tally)


def cancel_bigons(pts: list[IPoint], d: CurveDiagram, step: int) -> tuple[list[IPoint], list[tuple[IPoint, IPoint]]]:
    """Remove empty bigons until none remain, the first candidate first.

    `pts` are the intersections of d with one line family or one arc's
    translates, strictly increasing in (component, position), as
    `raw_intersections` and `ArcSweep.raw` give them, and `step` is how
    their lift index changes when a point moves by (1, 0):
    `_LineFamily.step`, or 1 for arcs.  Each component's run of `pts` is
    its ring.  The candidates are the ordered pairs (x, y) adjacent along a
    ring (pairs by position, cyclically) whose forward walk closes up
    with the piece of x's lift back to x into an empty bigon, a loop of
    winding zero around every peg with no other live point on the piece.
    They are kept by the index of x in `pts`, which is ring order, and
    each step removes the first candidate.  The final count is
    independent of the removal order.  The audit lists each removed pair
    as (x, y), in removal order: the pair is the certificate, as its bigon
    passed the tests below when it was removed, and no loop is built for
    it.

    The candidates are kept as a worklist: each pair is tested once, when
    it becomes adjacent, cheapest test first: the same-lift test, then the
    peg test, then the piece test.  The first two run in one pass over the
    ring neighbours, in ring order; when no pair passes them the call
    returns its points and an empty audit, and only otherwise is the
    worklist set up.  Removing (x, y) drops the pairs that start at
    prev(x), x and y, makes one new pair, (prev(x), next(y)), when the ring
    keeps two points or more, and re-runs the piece test of the pairs that
    x or y blocked and that are still adjacent; no other pair changes.  The
    same-lift test reads m from ring order.  The peg test (`_winds_no_peg`)
    adds the lift's piece and the closing walk's column crossings, from the
    component's column table, into one signed tally, and raises
    `PointOnLoop` where a segment it reads meets a peg.  A loop that winds
    a peg rules its pair out for good, as the loop never changes.  No loop passes through a peg, so the
    order of the peg and piece tests changes no outcome: a validated curve
    avoids pegs, a clean family's lines hold none, and inside an arc of a
    reduced slope lies none.  Both run in integers on the points' crossing
    records; no Fraction is built.  The peg test crosses the lift's piece
    only when its abscissae reach a column, in the pair's own frame; the
    piece test reads the live points of the lift's class, of every
    component, in `_piece_table`.  A blocked pair is filed under the point
    found on its piece and tested again only after that point has been
    removed.  Fewer than two points are returned as they are.
    """
    n = len(pts)
    if n < 2:
        return list(pts), []
    # Each point's neighbours on its ring, its component's run of pts.
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n - 1))
    first = 0
    for k in range(1, n + 1):
        if k == n or pts[k].comp != pts[first].comp:
            nxt[k - 1], prv[first] = first, k - 1
            first = k
    comps = d.components
    fresh = range(n)  # x of each pair (x, next(x)) to test: the ring pass, then each removal's new pair
    pieces: list[tuple[int, int, int]] = []  # the pairs (x, y, m) to piece-test
    alive = None  # the worklist, built once a pair reaches the piece test
    while True:
        for ix in fresh:
            iy = nxt[ix]
            if iy == ix:  # a ring of one point
                continue
            x, y = pts[ix], pts[iy]
            c = comps[x.comp]
            # Only the walk from the ring's last point to its first passes
            # a period end, and only on a wrapping component.
            m = c.winding if iy < ix else 0
            if y.lift + step * m != x.lift:
                continue
            # A wound peg stays wound: the loop never changes.
            if _winds_no_peg(c, x, y, m):
                pieces.append((ix, iy, m))
        if alive is None:
            if not pieces:  # no pair is a candidate: nothing is removed
                return list(pts), []
            alive = [True] * n
            cands: list[int] = []  # x of each pair (x, next(x)) bounding an empty bigon, ascending
            blocked: dict[int, list[tuple[int, int, int]]] = {}  # blocker -> the pairs (x, y, m) it blocks
            audit: list[tuple[IPoint, IPoint]] = []
            table = _piece_table(pts, step)
        for pair in pieces:
            ix, iy, m = pair
            blocker = _piece_blocker(table, step, alive, pts[ix].lift, ix, iy, m)
            if blocker is None:
                insort(cands, ix)
            else:
                blocked.setdefault(blocker, []).append(pair)
        if not cands:
            return [z for z, kept in zip(pts, alive) if kept], audit
        ix = cands[0]
        iy = nxt[ix]
        audit.append((pts[ix], pts[iy]))
        before, after = prv[ix], nxt[iy]
        for k in (before, ix, iy):  # the pairs that start there are gone
            i = bisect_left(cands, k)
            if i < len(cands) and cands[i] == k:
                del cands[i]
        alive[ix] = alive[iy] = False
        fresh = ()
        if before != iy:  # the ring held more than two points
            nxt[before], prv[after] = after, before
            fresh = (before,)
        # The pairs that x or y blocked, if still adjacent.
        pieces = [pair for k in (ix, iy) for pair in blocked.pop(k, ())
                  if alive[pair[0]] and nxt[pair[0]] == pair[1]]


# ---------------------------------------------------------------------------
# Public pairing operations


def _cancelled(d: CurveDiagram, slope: SlopeSpec) -> tuple[list[IPoint], list[tuple[IPoint, IPoint]]]:
    """`cancel_bigons` of d against the slope-p/q filling family."""
    fam = line_family(d, slope)
    return cancel_bigons(raw_intersections(d, fam), d, fam.step)


def surgery_report(d: CurveDiagram, slope: SlopeSpec) -> PairingReport:
    """Minimal intersection count with the slope-p/q filling family."""
    live, audit = _cancelled(d, slope)
    p = abs(slope.p)
    counts: dict = {}
    for ip in live:
        key = ip.lift % p if p else ip.lift
        counts[key] = counts.get(key, 0) + 1
    flags = ()
    if slope.p == 0:
        flags = ("0-filling: dual knot not rationally null-homologous; grading ops refuse this slope",)
    return PairingReport(slope, counts, len(live), tuple(audit), flags)


def surgery_dim(d: CurveDiagram, slope: SlopeSpec) -> int:
    return len(_cancelled(d, slope)[0])


class ArcSweep:
    """The arcs of one slope against one diagram, every grading from one scan.

    With F = p*x - q*y (x itself for 1/0, where (p, q) = (1, 0)), lift k of
    the grading-h arc lies on the level set F = p*k - q*h + q*p/2, so every
    arc line is a level F in Z + q/2: on the level j + q/2, the lift-k arc
    at grading key n = h - (p - 1)/2 has j = p*k - q*n.  One
    `Component.level_crossings` scan per component lists every crossing
    with such a level, each run of vertices along a level read pushed off
    it (a segment along an arc line is crossed once, at the first vertex
    of its run, iff the curve passes through the run), and one rule
    files each under the arc that holds the point: the lift k
    with u = (x - k)/q in [0, 1) whose key n solves that relation (for
    1/0, the integer h within 1/2 of y).  Only a point on an arc end, a
    peg, lies on two arcs, and the sweep refuses a diagram that fails
    validation (`InvariantViolation`), so a point lies inside one arc and
    every validated diagram pairs at every slope.

    The filed keys are the gradings: no other grading's arc crosses the
    diagram.  `points(h)` cancels bigons once per filed grading (an
    unfiled one has no points) and keeps the result for the life of the
    object; nothing is shared between objects.  The 0-filling has no
    gradings and is refused.  `dims` and `total` read each grading h < 0
    from -h (`_half_turn`).
    """

    def __init__(self, d: CurveDiagram, slope: SlopeSpec):
        if slope.p == 0:
            raise ZeroSurgery("0-filling has no dual-knot gradings")
        self.diagram = d.validated()
        self.slope = slope
        self._live: dict[int, tuple[IPoint, ...]] = {}  # by key
        self._raw = self._sweep()

    def raw(self, h) -> list[IPoint]:
        """Grading-h crossings before cancellation, sorted by component and
        position."""
        return list(self._raw.get(grading_key(self.slope, h), ()))

    def points(self, h) -> tuple[IPoint, ...]:
        """Minimal-position intersection points with the grading-h arc."""
        return self._points(grading_key(self.slope, h))

    def dims(self) -> dict:
        """Graded dual-knot dimensions, nonzero entries only, by increasing
        grading; each h < 0 is read from -h (`_half_turn`)."""
        p = self.slope.p
        own, partner = self._half_turn()
        # Key n is grading n + (p - 1)/2 = (2n + p - 1)/2, at either sign of p.
        return {Fraction(2 * n + p - 1, 2): count for n in sorted(self._raw)
                if (count := len(self._points(n if n >= own else partner - n)))}

    def total(self) -> int:
        """The sum of `dims()`'s values, read without its grading keys."""
        own, partner = self._half_turn()
        total = 0
        for n in self._raw:
            total += len(self._points(n if n >= own else partner - n))
        return total

    def _half_turn(self) -> tuple[int, int]:
        """(own, partner): each key n >= own counts its own points, and each
        key n < own those of key partner - n.  The half turn (x, y) -> (-x, -y)
        maps the diagram, which passed validation, onto itself and the
        grading-h arc of lift k onto the grading -h arc of lift -k - q, so
        keys n and 1 - p - n hold equal counts; own is the least key with
        2n + p - 1 >= 0 (h >= 0).  A run along an arc line maps to a run
        that the curve passes through, or only touches, as it does the
        first, so the level scan files equal numbers of raw points at h
        and -h; only the vertex that holds a run's crossing, its first in
        curve order, can differ."""
        p = self.slope.p
        return (2 - p) // 2, 1 - p

    def _points(self, n: int) -> tuple[IPoint, ...]:
        live = self._live.get(n)
        if live is None:
            filed = self._raw.get(n)
            live = tuple(cancel_bigons(filed, self.diagram, 1)[0]) if filed else ()
            self._live[n] = live
        return live

    def _sweep(self) -> dict[int, list[IPoint]]:
        """The crossings by key: each record (x/den, y/den) on level m of
        the scan's form p*x - q*y - (q mod 2)/2, filed under the one arc
        that holds it, off its ends."""
        p, q = self.slope.p, self.slope.q
        inv_p = pow(p, -1, q) if q else 0
        half = q // 2
        new = tuple.__new__  # as `Component.level_crossings` builds its records
        raw: dict[int, list[IPoint]] = defaultdict(list)
        for ci, c in enumerate(self.diagram.components):
            records = c.level_crossings(p, -q, -HALF if q % 2 else ZERO)
            if not q:  # 1/0: lift m, the grading n with n - 1/2 < y < n + 1/2
                for e in records:
                    _, _, _, _, y, den, m = e
                    raw[(2 * y + den) // (2 * den)].append(new(IPoint, (ci, e, m)))
                continue
            for e in records:
                _, _, _, x, _, den, m = e
                j = m - half  # the level is j + q/2, so j = p*k - q*n
                kx = x // den
                k = kx - (kx - inv_p * j) % q  # the largest k <= x with p*k = j mod q
                raw[(p * k - j) // q].append(new(IPoint, (ci, e, k)))
        return raw


def arc_points(d: CurveDiagram, arc: ArcLift) -> list[IPoint]:
    """Minimal-position intersection points with one arc (post cancellation)."""
    return list(ArcSweep(d, arc.slope).points(arc.height))


def dual_hfk_dims(d: CurveDiagram, slope: SlopeSpec) -> dict:
    """Graded dual-knot dimensions: minimal arc counts, nonzero entries only.

    The total over all gradings dominates the filling dimension (the first
    page of a spectral sequence cannot be smaller than its target).  Each
    grading h < 0 is read from -h.
    """
    return ArcSweep(d, slope).dims()


def genus_of(d: CurveDiagram) -> int:
    """The top band of any letter of the components' reduced words
    (`Component._word`), or 0 when there is none.

    At 1/0 the grading-h arcs are the peg column's edges in band h, so
    this is the top grading of the 1/0 dimensions, read without a sweep.
    Refuses a diagram that fails validation (`CurveDiagram.validated`)."""
    return max((h for c in d.validated().components for _, h in c._word), default=0)
