"""Filling-family offset selection against the brute-force incidence check.

`reference_family_is_clean` is the lift-by-lift search that the closed-form
`pairing._family_is_clean` replaced; it is kept here, unchanged, as the oracle.
It reads each lift through `_LineObject`, the anchor-and-direction model of a
line family that `_LineFamily`'s affine form replaced, copied verbatim:
`_LineFamily.lift_indices` must pick the lifts it picked, and each of its
lines must be the level of the form with its own number.

`line_family` halves the canonical offset until the family is clean, with
no bound on the loop: its docstring proves at most floor(log2(|p|/N)) + 1
halvings (none when |p| < N, N the vertex count), which the last tests
check at the rows next to the slope cap.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegboard.curves import CurveDiagram, build_zoo, thin, zoo_names
from pegboard.geometry import HALF, ONE, ZERO, Box, Point
from pegboard.pairing import (
    SlopeSpec,
    _canonical_delta,
    _family_is_clean,
    _LineFamily,
    line_family,
)
from pegboard.render import render_svg
from conftest import staircase_diagrams


class _LineObject:
    """A filling family as an anchor and a direction per lift (reference).

    Slanted lines (p != 0, q >= 1) pass through (1/2 + delta, k/q); the
    vertical family is x = 1/2 + delta + k; the 0-filling uses horizontal
    lines on the half-integer rows, y = k + 1/2 + delta.
    """

    def __init__(self, fam: _LineFamily):
        self.slope = fam.slope
        self.delta = fam.delta

    def anchor_dir(self, k: int) -> tuple[Point, tuple[Fraction, Fraction]]:
        p, q = self.slope.p, self.slope.q
        if self.slope.is_vertical:
            return Point(HALF + self.delta + k, ZERO), (ZERO, ONE)
        if p == 0:
            return Point(ZERO, Fraction(k) + HALF + self.delta), (ONE, ZERO)
        return Point(HALF + self.delta, Fraction(k, q)), (Fraction(q), Fraction(p))

    def lift_indices(self, box: Box) -> range:
        p, q = self.slope.p, self.slope.q
        if self.slope.is_vertical:
            lo = box.xmin - HALF - self.delta
            hi = box.xmax - HALF - self.delta
        elif p == 0:
            lo = box.ymin - HALF - self.delta
            hi = box.ymax - HALF - self.delta
        else:
            corners = [
                q * y - p * (x - HALF - self.delta)
                for x in (box.xmin, box.xmax)
                for y in (box.ymin, box.ymax)
            ]
            lo, hi = min(corners), max(corners)
        return range(math.ceil(lo), math.floor(hi) + 1)


def reference_family_is_clean(d: CurveDiagram, fam: _LineFamily) -> bool:
    """No peg and no (translated) curve vertex on any relevant line."""
    fam = _LineObject(fam)
    box = d.bbox().pad(1)
    box = Box(box.xmin - 1, box.xmax + 1, box.ymin - abs(fam.slope.p) - 1, box.ymax + abs(fam.slope.p) + 1)
    for k in fam.lift_indices(box):
        anchor, (dx, dy) = fam.anchor_dir(k)

        def on_line(p: Point) -> bool:
            return (p.x - anchor.x) * dy == (p.y - anchor.y) * dx

        for c in d.components:
            for v in c.vertices:
                if on_line(v) or on_line(v.translate(1)) or on_line(v.translate(-1)):
                    return False
        if dx == 0:  # vertical line: pegs have integer x
            if (anchor.x).denominator == 1:
                return False
            continue
        i0 = math.floor(box.xmin)
        i1 = math.ceil(box.xmax)
        for i in range(i0, i1 + 1):
            y = anchor.y + (Fraction(i) - anchor.x) * dy / dx
            if (y - HALF).denominator == 1:
                return False
    return True


def _delta_through(slope: SlopeSpec, point: Point) -> Fraction:
    """A small offset that puts `point` on a line of the family.

    Slanted lines pass through (1/2 + delta, k/q) with slope p/q, vertical
    lines are x = 1/2 + delta + k, horizontal ones y = k + 1/2 + delta.
    """
    if slope.is_vertical:
        return point.x - HALF - round(point.x - HALF)
    if slope.p == 0:
        return point.y - HALF - round(point.y - HALF)
    c = slope.p * (point.x - HALF) - slope.q * point.y
    return (c - round(c)) / slope.p


def _plain_deltas(d: CurveDiagram) -> list[Fraction]:
    canonical = _canonical_delta(d)
    return [canonical, canonical / 2, Fraction(0), HALF, Fraction(1, 3)]


def _adversarial_deltas(d: CurveDiagram, slope: SlopeSpec) -> list[Fraction]:
    """Offsets that put a vertex or the peg (1, 1/2) exactly on a line."""
    verts = [v for c in d.components for v in c.vertices]
    return [
        _delta_through(slope, verts[0]),
        _delta_through(slope, verts[len(verts) // 2]),
        _delta_through(slope, Point(Fraction(1), HALF)),
    ]


def _agree(d: CurveDiagram, slope: SlopeSpec, delta: Fraction) -> bool:
    fam = _LineFamily(slope, delta)
    want = reference_family_is_clean(d, fam)
    assert _family_is_clean(d, fam) == want, (d.source, str(slope), delta)
    return want


# Both special families, the corners of the |p| <= 12, q <= 5 box and a few
# slopes inside it; the reference check's cost grows with |p| and q, so the
# exhaustive box is left to the generated cases below.
ZOO_SLOPES = [
    SlopeSpec(1, 0),
    SlopeSpec(0, 1),
    SlopeSpec(1, 1),
    SlopeSpec(-1, 1),
    SlopeSpec(3, 2),
    SlopeSpec(-7, 3),
    SlopeSpec(12, 1),
    SlopeSpec(-12, 5),
    SlopeSpec(11, 5),
    SlopeSpec(1, 5),
]


@pytest.mark.parametrize("name", zoo_names())
def test_closed_form_matches_reference_on_zoo(name):
    d = build_zoo(name)
    outcomes = {_agree(d, s, delta) for s in ZOO_SLOPES for delta in _plain_deltas(d)}
    assert outcomes == {True, False}
    assert not any(_agree(d, s, delta) for s in ZOO_SLOPES for delta in _adversarial_deltas(d, s))


generated_diagrams = st.one_of(
    staircase_diagrams(),
    st.builds(thin, st.integers(-3, 3), st.integers(0, 4)),
)
slopes = (
    st.tuples(st.integers(-12, 12), st.integers(0, 5))
    .filter(lambda pq: pq != (0, 0))
    .map(lambda pq: SlopeSpec(*pq))
)


@settings(max_examples=150, deadline=None)
@given(generated_diagrams, slopes, st.integers(0, 7))
def test_closed_form_matches_reference_on_generated_diagrams(d, slope, which):
    deltas = _plain_deltas(d) + _adversarial_deltas(d, slope)
    _agree(d, slope, deltas[which])


@pytest.mark.parametrize(
    "name, slope, delta",
    [
        ("unknot", SlopeSpec(24, 7), Fraction(1, 32)),
        ("unknot", SlopeSpec(64, 31), Fraction(1, 256)),
    ],
)
def test_halving_path(name, slope, delta):
    d = build_zoo(name)
    assert _canonical_delta(d) == Fraction(1, 8)
    assert line_family(d, slope).delta == delta


# Every reduced slope with |p| <= 64 at q = 1, 2, 31 and 32, the rows next
# to the cap of the slope grid, and the two flat slopes.
CAP_ROWS = [SlopeSpec(p, q) for q in (1, 2, 31, 32) for p in range(-64, 65)
            if p and math.gcd(abs(p), q) == 1] + [SlopeSpec(0, 1), SlopeSpec(1, 0)]


def halving_bound(p: int, n: int) -> int:
    """`line_family`'s bound on its halvings at a slope with numerator p
    (1 for 1/0) on a diagram of n vertices: floor(log2(|p|/n)) + 1 for
    |p| >= n and none below, and for 0/1 one iff n = 1."""
    if p == 0:
        return int(n == 1)
    return (abs(p) // n).bit_length()


def assert_halvings_within_the_bound(d: CurveDiagram) -> int:
    """Each offset `line_family` picks at `CAP_ROWS` is the canonical one
    halved k times, k within `halving_bound`; returns the most halvings
    seen."""
    canonical = _canonical_delta(d)
    n = max(sum(len(c.vertices) for c in d.components), 1)
    most = 0
    for slope in CAP_ROWS:
        ratio = canonical / line_family(d, slope).delta
        k = ratio.numerator.bit_length() - 1
        assert ratio == 2 ** k and k <= halving_bound(slope.p, n), (d.source, str(slope), k, n)
        most = max(most, k)
    return most


def test_halvings_are_within_the_bound_on_zoo_and_thin_diagrams():
    diagrams = [build_zoo(name) for name in zoo_names()] + [thin(tau, f) for tau in range(-2, 3) for f in range(4)]
    assert max(assert_halvings_within_the_bound(d) for d in diagrams) == 5


@settings(max_examples=20, deadline=None)
@given(staircase_diagrams(), st.booleans())
def test_halvings_are_within_the_bound_on_staircases(d, mirrored):
    assert_halvings_within_the_bound(d.mirror() if mirrored else d)


# Both special families, both unit slopes, q = 2 and 3 and the cap slope.
FORM_SLOPES = [SlopeSpec(1, 0), SlopeSpec(0, 1), SlopeSpec(1, 1), SlopeSpec(-1, 1),
               SlopeSpec(3, 2), SlopeSpec(-7, 3), SlopeSpec(63, 31)]


def test_lift_k_is_the_level_k_of_the_form(monkeypatch):
    # The windows lifts are picked from: each zoo diagram's padded bounding
    # box, the box `reference_family_is_clean` searches, and the window
    # `render_svg` draws a family's lines over.
    drawn = []
    original = _LineFamily.lift_indices

    def recording(fam, box):
        drawn.append(box)
        return original(fam, box)

    monkeypatch.setattr(_LineFamily, "lift_indices", recording)
    for name in zoo_names():
        render_svg(build_zoo(name), overlay=SlopeSpec(1, 1))
    monkeypatch.undo()
    assert len(drawn) == len(zoo_names())
    for name in zoo_names():
        d = build_zoo(name)
        box = d.bbox().pad(1)
        for slope in FORM_SLOPES:
            searched = Box(box.xmin - 1, box.xmax + 1,
                           box.ymin - abs(slope.p) - 1, box.ymax + abs(slope.p) + 1)
            windows = drawn + [d.bbox().pad(Fraction(1, 100)), searched]
            for delta in (Fraction(1, 10), _canonical_delta(d)):
                fam = _LineFamily(slope, delta)
                ref = _LineObject(fam)
                for window in windows:
                    lifts = fam.lift_indices(window)
                    assert lifts == ref.lift_indices(window), (name, str(slope), delta, window)
                    for k in lifts:
                        anchor, (dx, dy) = ref.anchor_dir(k)
                        assert fam.form(anchor) == k, (name, str(slope), delta, k)
                        assert fam.form(Point(anchor.x + dx, anchor.y + dy)) == k
