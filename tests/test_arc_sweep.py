"""The one-pass arc sweep against the per-lift walk.

`raw_intersections(d, _ArcObject(ArcLift(s, h)))` pairs one arc with the
diagram lift by lift and segment by segment, as every arc count did before
`ArcSweep`; it still runs for filling lines, and here it is the oracle.  The
sweep must reproduce its IPoint lists exactly (same points, same order),
before and after bigon cancellation, and raise `DegenerateIncidence` with
the same message for exactly the gradings where the walk raises.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegboard.curves import build_zoo, lspace_staircase, thin, validate, zoo_names
from pegboard.differentials import differential_matrix
from pegboard.pairing import (
    ArcLift,
    ArcSweep,
    DegenerateIncidence,
    SlopeSpec,
    _ArcObject,
    cancel_bigons,
    dual_hfk_dims,
    grading_range,
    raw_intersections,
)
from pegboard.textfmt import parse_curve_text


def walk(d, slope, h):
    """The oracle's raw list, or the message it raises."""
    try:
        return raw_intersections(d, _ArcObject(ArcLift(slope, h)))
    except DegenerateIncidence as exc:
        return str(exc)


def swept(sweep, h):
    try:
        return sweep.raw(h)
    except DegenerateIncidence as exc:
        return str(exc)


def heights(d, slope):
    """`grading_range` plus two gradings beyond each end."""
    hs = grading_range(d, slope)
    return [hs[0] - 2, hs[0] - 1] + hs + [hs[-1] + 1, hs[-1] + 2]


def assert_sweep_matches_walk(d, slope, cancel=True):
    sweep = ArcSweep(d, slope)
    for h in heights(d, slope):
        want = walk(d, slope, h)
        assert swept(sweep, h) == want, (d.source, str(slope), h)
        if cancel and not isinstance(want, str):
            live, _ = cancel_bigons(want, d, _ArcObject(ArcLift(slope, h)))
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


@st.composite
def staircase_diagrams(draw):
    upper = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True)), reverse=True)
    exps = upper + [0] + [-e for e in reversed(upper)]
    return lspace_staircase({e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)})


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


# A valid null-wiggle whose segments 0, 1 and 5 lie on 1/1 arc lines (the
# curve of the CLI's degenerate-incidence test), and a taller variant whose
# segments next to those still cross other arcs.
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
UNIT = SlopeSpec(1, 1)


@pytest.mark.parametrize("d", [COLLINEAR, TALL], ids=lambda d: d.source)
def test_degenerate_gradings_raise_as_the_walk_does(d):
    assert validate(d).ok
    outcomes = [walk(d, UNIT, h) for h in heights(d, UNIT)]
    first = next(o for o in outcomes if isinstance(o, str))
    assert "collinear" in first
    assert_sweep_matches_walk(d, UNIT)
    with pytest.raises(DegenerateIncidence) as exc:
        dual_hfk_dims(d, UNIT)
    assert str(exc.value) == first
    sweep = ArcSweep(d, UNIT)
    for h in heights(d, UNIT):
        for kind, target in (("phi", h - 1), ("psi", h + 1)):
            # the walk ran for the source grading first, then the target
            want = next((o for o in (walk(d, UNIT, h), walk(d, UNIT, target))
                         if isinstance(o, str)), None)
            if want is None:
                differential_matrix(sweep, h, kind)
                continue
            with pytest.raises(DegenerateIncidence) as exc:
                differential_matrix(sweep, h, kind)
            assert str(exc.value) == want, (d.source, h, kind)


def test_degenerate_vertex_keeps_its_other_crossings():
    # Vertex 2 of TALL sits on the degenerate level of segment 1, which makes
    # gradings 0 and 1 raise; grading 2's lifts avoid that level, and segment
    # 2 (from vertex 2) crosses the grading-2 arc.
    assert isinstance(walk(TALL, UNIT, 1), str)
    want = walk(TALL, UNIT, 2)
    assert [math.floor(ip.pos) for ip in want] == [2, 3]
    assert ArcSweep(TALL, UNIT).raw(2) == want


def test_points_are_cancelled_once_per_grading(monkeypatch):
    import pegboard.pairing as pairing

    calls = []

    def counting_cancel(pts, d, obj, order_seed=None):
        calls.append(obj.arc.height)
        return cancel_bigons(pts, d, obj, order_seed)

    monkeypatch.setattr(pairing, "cancel_bigons", counting_cancel)
    sweep = ArcSweep(build_zoo("trefoil"), SlopeSpec(3, 2))
    first = sweep.dims()
    assert sweep.dims() == first
    assert sweep.points(Fraction(1)) is sweep.points(Fraction(1))
    assert sorted(calls) == sorted(set(calls)) == sorted(grading_range(sweep.diagram, sweep.slope))
