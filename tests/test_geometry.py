import math
from fractions import Fraction as F

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
@given(st.lists(st.builds(Point, exact, exact), max_size=6), st.lists(exact, max_size=3))
@example([], [F(-5, 6), 3, F(1, 4)])  # no points, only extras
@example([], [])
def test_integer_frame_scales_by_the_lcm_of_every_denominator(points, extra):
    scale, xs, ys, es = integer_frame(points, *extra)
    lcm = 1  # folded pairwise through the gcd
    for v in [v for p in points for v in (p.x, p.y)] + extra:
        lcm = lcm * F(v).denominator // math.gcd(lcm, F(v).denominator)
    assert scale == lcm
    assert all(type(v) is int for v in xs + ys + es)
    assert xs == [p.x * scale for p in points]
    assert ys == [p.y * scale for p in points]
    assert es == [v * scale for v in extra]
