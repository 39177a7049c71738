import math
from fractions import Fraction as F
from typing import Optional, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pegboard.geometry import (
    HALF,
    Box,
    Point,
    PointOnLoop,
    Segment,
    integer_frame,
    pegs_in_box,
    pt,
    winding_number,
)


def is_peg(p: Point) -> bool:
    """A point is a peg iff x is an integer and y is a half-integer."""
    return p.x.denominator == 1 and (p.y - HALF).denominator == 1


def first_wound_peg(loop: Sequence[Point], corner: Optional[Point] = None,
                    corner_winding: int = 0) -> Optional[Point]:
    """The first peg, in `pegs_in_box(Box.around(loop))` order, whose
    winding is not 0, or, for the peg `corner`, not `corner_winding`.

    The verdict oracle of the kernel's integer peg tests, which read the
    column crossings of a loop from the curve's column table instead of
    building the loop: cancellation's peg test (`test_cancel`) and the
    marker test of the differentials (`test_differentials`) must agree
    with it, and it must agree with `winding_number` peg by peg.

    One pass over the edges records the loop's signed crossings with the
    integer columns, half-open at vertices so each crossing counts once: an
    edge crossing column i leftwards counts +1, rightwards -1.  The winding
    of the peg (i, j + 1/2) is the sum over the column-i crossings strictly
    above it, which is `winding_number` with the ray pointing up.  At a peg
    on the loop, visited before any wrongly wound one, PointOnLoop is raised
    with `winding_number`'s message, except at `corner`: the loop may pass
    through it across its column, and its count is then the winding just
    above it, which decides a marked bigon's markers.

    The work is in integers, in the `integer_frame` of the loop doubled so
    that it holds 1/2 too, so columns and peg heights are integers too.
    """
    scale, xs, ys = integer_frame(loop)
    scale, half, xs, ys = 2 * scale, scale, [2 * x for x in xs], [2 * y for y in ys]
    # the peg (i, j + 1/2) is at (i*scale, j*scale + half)
    i0, i1 = -(-min(xs) // scale), max(xs) // scale
    j0, j1 = -((half - min(ys)) // scale), (max(ys) - half) // scale
    if j0 > j1 or i0 > i1:
        return None  # no peg in the box
    spans: dict[int, list[tuple[int, int]]] = {}  # column -> closed height spans on the loop
    crossings: dict[int, list[tuple[int, int, int]]] = {}  # column -> (num, den, sign)
    n = len(xs)
    for k in range(n):
        ax, ay, bx, by = xs[k], ys[k], xs[k - n + 1], ys[k - n + 1]
        if ax == bx:
            if ay != by and ax % scale == 0:
                spans.setdefault(ax // scale, []).append((min(ay, by), max(ay, by)))
            continue
        # Every vertex starts a non-vertical edge or lies on a vertical one.
        if ax % scale == 0:
            spans.setdefault(ax // scale, []).append((ay, ay))
        den, sign = (bx - ax, -1) if ax < bx else (ax - bx, 1)
        for i in range(-(-min(ax, bx) // scale), -(-max(ax, bx) // scale)):
            # the crossing height is num / den
            num = ay * den + (i * scale - ax) * (by - ay) * -sign
            crossings.setdefault(i, []).append((num, den, sign))
    columns = spans.keys() | crossings.keys()
    corner_at = None if corner is None else (corner.x.numerator, math.floor(corner.y))
    if corner_at is not None and i0 <= corner_at[0] <= i1:
        columns.add(corner_at[0])  # the corner is wound even where no edge meets its column
    for i in sorted(columns):
        column = crossings.get(i, ())
        touched = spans.get(i, ())
        for j in range(j0, j1 + 1):
            y = j * scale + half
            at_corner = (i, j) == corner_at
            if not at_corner and (any(lo <= y <= hi for lo, hi in touched)
                                  or any(num == y * den for num, den, _ in column)):
                raise PointOnLoop(f"{Point(F(i), F(j) + HALF)} lies on the loop")
            if sum(s for num, den, s in column if num > y * den) != (corner_winding if at_corner else 0):
                return Point(F(i), F(j) + HALF)
    return None


def winding_by_angles(loop, p):
    """Independent oracle: accumulated turning angle around p, in floats."""
    total = 0.0
    for i in range(len(loop)):
        a, b = loop[i], loop[(i + 1) % len(loop)]
        a1 = math.atan2(float(a.y - p.y), float(a.x - p.x))
        a2 = math.atan2(float(b.y - p.y), float(b.x - p.x))
        d = a2 - a1
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
    return round(total / (2 * math.pi))


SQUARE = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
BOWTIE = [pt(0, 1), pt(2, 1), pt(0, -1), pt(2, -1)]


class TestWinding:
    def test_ccw_square_center(self):
        assert winding_number(SQUARE, pt(F(1, 2), F(1, 2))) == 1

    def test_ccw_square_far(self):
        assert winding_number(SQUARE, pt(5, 5)) == 0

    def test_figure_eight_lobes_match_angle_oracle(self):
        top = pt(F(3, 4), F(1, 2))
        bottom = pt(F(5, 4), F(-1, 2))
        got = (winding_number(BOWTIE, top), winding_number(BOWTIE, bottom))
        want = (winding_by_angles(BOWTIE, top), winding_by_angles(BOWTIE, bottom))
        assert got == want
        assert sorted(got) == [-1, 1]

    def test_reverse_negates(self):
        p = pt(F(1, 2), F(1, 2))
        assert winding_number(list(reversed(SQUARE)), p) == -winding_number(SQUARE, p)

    def test_point_on_loop_raises(self):
        with pytest.raises(PointOnLoop):
            winding_number(SQUARE, pt(F(1, 2), 0))

    def test_concatenation_additive(self):
        # Two CCW squares sharing the vertex (0, 0).
        other = [pt(0, 0), pt(0, -1), pt(-1, -1), pt(-1, 0)]
        combined = SQUARE + [pt(0, 0)] + other
        p1 = pt(F(1, 2), F(1, 2))
        p2 = pt(F(-1, 2), F(-1, 2))
        for p in (p1, p2):
            assert winding_number(combined, p) == winding_number(SQUARE, p) + winding_number(other, p)

    @given(st.integers(3, 8), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_random_star_polygon_matches_angle_oracle(self, n, seed):
        import random

        rng = random.Random(seed)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
        if len(set(angles)) < n:
            return
        loop = [
            pt(F(round(100 * 3 * math.cos(a)), 100), F(round(100 * 3 * math.sin(a)), 100))
            for a in angles
        ]
        if len(set(loop)) < n:
            return
        probe = pt(F(1, 7), F(1, 9))
        try:
            got = winding_number(loop, probe)
        except PointOnLoop:
            return
        assert got == winding_by_angles(loop, probe)


class TestPegs:
    def test_is_peg(self):
        assert is_peg(pt(0, F(1, 2)))
        assert is_peg(pt(-3, F(5, 2)))
        assert not is_peg(pt(F(1, 2), F(1, 2)))
        assert not is_peg(pt(0, 0))

    def test_pegs_in_box(self):
        pegs = pegs_in_box(Box(F(-1, 2), F(1, 2), -1, 1))
        assert pegs == [pt(0, F(-1, 2)), pt(0, F(1, 2))]


# ints and Fractions, negative ones too
exact = st.one_of(st.integers(-40, 40), st.fractions(max_denominator=36))


@settings(max_examples=200)
@given(st.lists(st.builds(Point, exact, exact), max_size=6))
@example([])
def test_integer_frame_scales_by_the_lcm_of_every_denominator(points):
    scale, xs, ys = integer_frame(points)
    lcm = 1  # folded pairwise through the gcd
    for v in [v for p in points for v in (p.x, p.y)]:
        lcm = lcm * F(v).denominator // math.gcd(lcm, F(v).denominator)
    assert scale == lcm
    assert all(type(v) is int for v in xs + ys)
    assert xs == [p.x * scale for p in points]
    assert ys == [p.y * scale for p in points]
