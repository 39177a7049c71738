"""Every record that checks, normalises or coerces its fields on
construction does so with the same exception type and message.

A record that checks its fields refuses a bad one in its constructor, so no
such record exists; one that normalises or coerces stores the normal form.
"""

from fractions import Fraction

import pytest

from pegboard.curves import Component, CurveDiagram, build_zoo
from pegboard.geometry import Segment, pt
from pegboard.ledger import (
    BUNDLE_MU,
    BUNDLE_TRIVIAL,
    COEFF_C,
    COEFF_F2,
    LedgerSequence,
    ShapeClass,
    TorsionCertificate,
)
from pegboard.pairing import ArcLift, GradingOutOfRange, SlopeSpec, ZeroSurgery


def raised(exc_type, build) -> str:
    """The message of the `exc_type` that `build()` raises."""
    with pytest.raises(exc_type) as err:
        build()
    return str(err.value)


def test_slope_spec_refuses_zero_over_zero_and_reduces():
    assert raised(ValueError, lambda: SlopeSpec(0, 0)) == "slope 0/0 is not a slope"
    assert SlopeSpec(6, -4) == SlopeSpec(-3, 2)
    assert (SlopeSpec(6, -4).p, SlopeSpec(6, -4).q) == (-3, 2)
    assert SlopeSpec(-5, 0) == SlopeSpec(1, 0)
    assert (SlopeSpec(-5, 0).p, SlopeSpec(-5, 0).q) == (1, 0)
    assert (SlopeSpec(0, -7).p, SlopeSpec(0, -7).q) == (0, 1)
    assert str(SlopeSpec(6, -4)) == "-3/2" and repr(SlopeSpec(3, 2)) == "SlopeSpec(p=3, q=2)"


def test_arc_lift_refuses_slope_zero_and_heights_off_the_gradings():
    message = raised(ZeroSurgery, lambda: ArcLift(SlopeSpec(0, 1), 0))
    assert message == "arcs of slope 0 are not defined"
    message = raised(GradingOutOfRange, lambda: ArcLift(SlopeSpec(3, 2), Fraction(1, 2)))
    assert message == "height 1/2 is not in Z + (3-1)/2 for slope 3/2"
    message = raised(GradingOutOfRange, lambda: ArcLift(SlopeSpec(2, 1), 0))
    assert message == "height 0 is not in Z + (2-1)/2 for slope 2/1"


def test_arc_lift_reads_its_height_as_a_fraction():
    for height in (1, "1", Fraction(1)):
        arc = ArcLift(SlopeSpec(3, 2), height)
        assert arc.height == 1 and type(arc.height) is Fraction
    assert ArcLift(SlopeSpec(2, 1), "-1/2").height == Fraction(-1, 2)


def test_segment_refuses_coinciding_endpoints():
    a = pt("1/2", 3)
    assert raised(ValueError, lambda: Segment(a, pt("1/2", 3))) == "degenerate segment: endpoints coincide"
    assert Segment(a, pt(0, 0)).a == a


def test_components_and_diagrams_store_tuples():
    vertices = [pt(0, 0), pt(1, 0), pt(0, 1)]
    c = Component(vertices, 0)
    assert type(c.vertices) is tuple and c.vertices == tuple(vertices)
    d = CurveDiagram([c], "listed")
    assert type(d.components) is tuple and d.components == (c,)
    assert type(CurveDiagram(list(build_zoo("trefoil").components)).components) is tuple


def test_ledger_sequence_coerces_and_refuses():
    seq = LedgerSequence({"-1": "3", 2.0: True})
    assert seq.values == {-1: 3, 2: 1}
    assert all(type(k) is int and type(v) is int for k, v in seq.values.items())
    assert (seq.bundle, seq.coefficient) == (BUNDLE_TRIVIAL, COEFF_C)
    assert raised(ValueError, lambda: LedgerSequence({0: 1}, "spin")) == "unknown bundle 'spin'"
    message = raised(ValueError, lambda: LedgerSequence({0: 1}, BUNDLE_MU, "Z"))
    assert message == "unknown coefficient 'Z'"
    message = raised(ValueError, lambda: LedgerSequence({0: 1, 3: -2}, BUNDLE_MU, COEFF_F2))
    assert message == "dimension at 3 is negative"


def test_torsion_certificate_refuses_unknown_rules_and_negative_bounds():
    message = raised(ValueError, lambda: TorsionCertificate("t", 1, "XX.0", {}))
    assert message == "no certificate rule 'XX.0'"
    message = raised(ValueError, lambda: TorsionCertificate("t", -1, "T1.11", {"dim_khi": 3}))
    assert message == "torsion bounds are non-negative"


def test_shape_class_refuses_edge_invariants_one_apart():
    for nu_plus, nu_minus in ((1, 0), (3, 2), (0, 1)):
        message = raised(ValueError, lambda: ShapeClass(nu_plus, nu_minus))
        assert message == "generalized W needs edge invariants more than two apart"
    kinds = [ShapeClass(nu_plus, 0).kind for nu_plus in (0, 2, 3)]
    assert kinds == ["V", "W", "GeneralizedW"]
