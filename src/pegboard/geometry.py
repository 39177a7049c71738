"""Exact rational planar geometry on the cover of the marked cylinder.

Everything in this module is exact and there is no floating point
anywhere, so incidence questions (does a segment hit a peg, does a loop
wind around a point) have exact answers.  A `Point` or `Box` holds the
exact values it is given, ints or `fractions.Fraction`s, and coerces
nothing: values from outside come in through `rat` and `pt`, and
everything the kernel computes from them is already exact.
`integer_frame` scales a set of points by the lcm of their denominators;
the peg tests here, validation, the level scan and the offset test through
each component's frame (`curves.Component._frame`, one `integer_frame`
per component), and the piece test of `pairing` (from the integers of the
level scan's records) compare in such a frame, in integers, which is
still exact and cheaper than `Fraction` arithmetic.

The marked cylinder is the strip [-1/2, 1/2] x R with punctures ("pegs") on
the middle column; its planar cover is R^2 with pegs at (i, j + 1/2) for all
integers i, j.  The deck translation of the cylinder cover is (x, y) ->
(x + 1, y); quotienting further by (x, y) -> (x, y + 1) gives the marked
torus used when pairing with filling lines.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence


class PointOnLoop(ValueError):
    """A peg lies on the curve or loop: a winding number queried at a point
    of the loop itself, or a peg on an edge whose column crossings are
    asked for.  `peg` is the peg on the edge, as `column_crossings` names
    it; None for a winding number's point."""

    def __init__(self, message: str, peg: Optional[Point] = None):
        super().__init__(message)
        self.peg = peg


HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)


def rat(value) -> Fraction:
    """Coerce ints, Fractions, or strings like '-3/4' to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    def translate(self, dx, dy=ZERO) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def rotate180(self) -> "Point":
        """Image under the half turn about the origin."""
        return Point(-self.x, -self.y)

    def mirror(self) -> "Point":
        """Image under the vertical reflection (x, y) -> (x, -y)."""
        return Point(self.x, -self.y)

    def __repr__(self):
        return f"({self.x}, {self.y})"


def pt(x, y) -> Point:
    return Point(rat(x), rat(y))


class Segment(namedtuple("Segment", "a b")):
    __slots__ = ()

    def __new__(cls, a: Point, b: Point):
        if a == b:
            raise ValueError("degenerate segment: endpoints coincide")
        return super().__new__(cls, a, b)


class Box(NamedTuple):
    xmin: Fraction
    xmax: Fraction
    ymin: Fraction
    ymax: Fraction

    def pad(self, amount) -> "Box":
        return Box(self.xmin - amount, self.xmax + amount, self.ymin - amount, self.ymax + amount)

    @staticmethod
    def around(points: Iterable[Point]) -> "Box":
        pts = list(points)
        if not pts:
            raise ValueError("empty point set has no bounding box")
        return Box(
            min(p.x for p in pts),
            max(p.x for p in pts),
            min(p.y for p in pts),
            max(p.y for p in pts),
        )


def integer_frame(points: Sequence[Point]) -> tuple[int, list[int], list[int]]:
    """(S, X, Y): S the lcm of the denominators of the points'
    coordinates, and X[k] and Y[k] the coordinates of points[k] times S,
    all integers.

    Each value is read once, as its integer ratio n/d, and scales to
    n * (S // d)."""
    xs = [p.x.as_integer_ratio() for p in points]
    ys = [p.y.as_integer_ratio() for p in points]
    scale = math.lcm(*{d for ratios in (xs, ys) for _, d in ratios})
    return scale, [n * (scale // d) for n, d in xs], [n * (scale // d) for n, d in ys]


def pegs_in_box(box: Box) -> list[Point]:
    """All pegs (i, j + 1/2) inside the closed box."""
    out = []
    i0 = math.ceil(box.xmin)
    i1 = math.floor(box.xmax)
    j0 = math.ceil(box.ymin - HALF)
    j1 = math.floor(box.ymax - HALF)
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            out.append(Point(Fraction(i), Fraction(j) + HALF))
    return out


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed area of the parallelogram spanned by (a - o) and (b - o)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def on_segment(p: Point, s: Segment) -> bool:
    """Exact test for p lying on the closed segment s."""
    if cross(s.a, s.b, p) != 0:
        return False
    return (
        min(s.a.x, s.b.x) <= p.x <= max(s.a.x, s.b.x)
        and min(s.a.y, s.b.y) <= p.y <= max(s.a.y, s.b.y)
    )


def column_crossings(scale: int, ax: int, ay: int, bx: int,
                     by: int) -> list[tuple[int, int, int]]:
    """The signed crossings of the edge from (ax, ay) to (bx, by), its
    coordinates times `scale`, with the integer columns; raises
    PointOnLoop, naming the peg, when the closed edge meets one.

    A crossing is (i, t, sign): the edge crosses column i above the peg
    (i, j + 1/2) iff j <= t, leftwards (sign +1) or rightwards (-1).  An
    edge crosses the columns i with min x <= i < max x, so that a closed
    loop's crossings count each column crossing once, half-open at
    vertices, and a vertical edge crosses none.  The peg named on a
    vertical edge is its lowest, on any other edge the one in its lowest
    column.
    """
    if ax == bx:
        if ax % scale == 0:
            twice = -(-2 * min(ay, by) // scale) | 1  # the least odd integer >= 2*y_min
            if twice * scale <= 2 * max(ay, by):
                peg = Point(Fraction(ax // scale), Fraction(twice, 2))
                raise PointOnLoop(f"{peg} lies on the loop", peg)
        return []
    den, sign = (bx - ax, -1) if ax < bx else (ax - bx, 1)
    hi = max(ax, bx)
    out = []
    for i in range(-(-min(ax, bx) // scale), hi // scale + 1):
        # the crossing height is num / (den*scale), and t the floor of that less 1/2
        num = ay * den + (i * scale - ax) * (by - ay) * -sign
        t, r = divmod(2 * num - den * scale, 2 * den * scale)
        if not r:
            # the crossing is the peg (i, t + 1/2)
            peg = Point(Fraction(i), Fraction(2 * t + 1, 2))
            raise PointOnLoop(f"{peg} lies on the loop", peg)
        if i * scale < hi:
            out.append((i, t, sign))
    return out


def _closed_edges(loop: Sequence[Point]):
    n = len(loop)
    for i in range(n):
        a, b = loop[i], loop[(i + 1) % n]
        if a != b:
            yield a, b


def winding_number(loop: Sequence[Point], p: Point) -> int:
    """Signed winding number of a closed PL loop around p.

    Counts signed crossings of the horizontal ray going right from p, with a
    half-open rule at vertices so every transversal crossing is counted once.
    Raises PointOnLoop when p lies on the loop itself.
    """
    wind = 0
    for a, b in _closed_edges(loop):
        if on_segment(p, Segment(a, b)):
            raise PointOnLoop(f"{p} lies on the loop")
        if a.y <= p.y < b.y:
            if cross(a, b, p) > 0:  # edge passes strictly right of p, going up
                wind += 1
        elif b.y <= p.y < a.y:
            if cross(a, b, p) < 0:
                wind -= 1
    return wind
