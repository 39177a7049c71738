import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pegboard.curves
from pegboard.cli import EXIT_OK, main
from pegboard.curves import (
    AmbiguousHeight,
    BadAlexander,
    BadSpec,
    Component,
    CurveDiagram,
    NoVerticalCrossing,
    _cycle_key,
    _strip_offset,
    build_zoo,
    anchor_at_seam,
    component_extrema,
    extrema_census,
    height_band,
    lspace_staircase,
    staircase_exponents,
    tau_epsilon,
    thin,
    validate,
    vertical_crossings,
    zoo_names,
)
from pegboard.geometry import ZERO, pt
from pegboard.textfmt import emit_curve_text, parse_curve_text
from conftest import position, staircase_diagrams
from test_arc_sweep import MUTANT, generated_diagrams


def component_key(c: Component, scale: int) -> tuple:
    """Key of a component in canonical position: a closed one by its
    `_cycle_key` at `scale`, a multiple of its frame scale, a wrapping one,
    anchored at its seam crossing, by its vertices."""
    if c.winding == 0:
        return (0, _cycle_key(c, _strip_offset(c) or 0, scale))
    return (1, tuple((p.x, p.y) for p in c.vertices))


def diagrams_equal(d1: CurveDiagram, d2: CurveDiagram) -> bool:
    """Equality up to re-parameterization and horizontal translation."""
    scale = math.lcm(*(c._frame[0] for d in (d1, d2) for c in d.components))

    def keys(d: CurveDiagram) -> list[tuple]:
        return sorted(component_key(anchor_at_seam(c) if c.winding else c, scale) for c in d.components)

    return keys(d1) == keys(d2)


class TestValidation:
    def test_every_zoo_entry_is_valid(self, zoo):
        for name, d in zoo.items():
            assert validate(d).ok, f"{name}: {validate(d).summary()}"

    def test_each_component_is_framed_once(self, monkeypatch, tmp_path, capsys):
        """Loading, validating and pairing a curve file convert each
        component's vertices to integers once: validation, the seam scan,
        the offset test, every level scan, tau and epsilon, and the marked
        bigons' column table read the component's cached frame."""
        text = emit_curve_text(thin(1, 3))
        path = tmp_path / "thin.curve"
        path.write_text(text, encoding="utf-8")
        vertices = Counter(c.vertices for c in parse_curve_text(text).components)
        assert sum(vertices.values()) == 4
        framed = []
        real = pegboard.curves.integer_frame

        def counting_frame(points):
            framed.append(tuple(points))
            return real(points)

        monkeypatch.setattr(pegboard.curves, "integer_frame", counting_frame)
        for argv in (["pair", str(path), "3/1"], ["hfk", str(path), "3/1"],
                     ["invariants", str(path)], ["diff", str(path), "--", "3/2"]):
            framed.clear()
            assert main(argv) == EXIT_OK
            assert Counter(framed) == vertices, argv
        capsys.readouterr()

    def test_unknot_is_valid(self):
        d = CurveDiagram((Component((pt(F(-1, 2), 0), pt(F(1, 2), 0)), 1),), "u")
        assert validate(d).ok

    def test_horizontal_line_at_quarter_height_invalid(self):
        d = CurveDiagram((Component((pt(F(-1, 2), F(1, 4)), pt(F(1, 2), F(1, 4))), 1),), "bad")
        report = validate(d)
        assert not report.ok
        assert any(v.code == "seam" for v in report.violations)

    def test_broken_period_is_reported_once(self):
        # The seam check reads the period from its first vertices, so a bad
        # end vertex or a repeated vertex is not counted again as a seam fault.
        ends_wrong = Component((pt(F(-1, 2), 0), pt(F(3, 2), 0)), 1)
        repeated = Component((pt(F(-1, 2), 0), pt(0, 0), pt(0, 0), pt(F(1, 2), 0)), 1)
        for c, codes in ((ends_wrong, ["closure"]), (repeated, ["repeat"])):
            report = validate(CurveDiagram((c,), "broken"))
            assert [v.code for v in report.violations] == codes

    def test_repeated_vertex_hides_no_other_fault(self):
        # The segment from (-1/4, 1) to (1/4, 0) passes through the peg
        # (0, 1/2) of a period that repeats (1/4, 0); a closed component that
        # repeats its first vertex has one fault, its closure.
        through_peg = Component(
            (pt(F(-1, 2), 0), pt(F(-1, 4), 1), pt(F(1, 4), 0), pt(F(1, 4), 0), pt(F(1, 2), 0)), 1
        )
        line = Component((pt(F(-1, 2), 0), pt(F(1, 2), 0)), 1)
        closed = Component(
            (pt(0, F(3, 4)), pt(F(1, 8), F(1, 4)), pt(F(-1, 8), F(1, 4)), pt(0, F(3, 4))), 0
        )
        for comps, codes in (((through_peg,), ["repeat", "peg"]), ((line, closed), ["closure"])):
            report = validate(CurveDiagram(comps, "broken"))
            assert [v.code for v in report.violations] == codes

    def test_unpaired_asymmetric_component_breaks_symmetry(self):
        # the trefoil plus a lopsided closed component
        report = validate(MUTANT)
        assert not report.ok
        assert any(v.code == "symmetry" for v in report.violations)

    def test_vertex_on_peg_rejected(self):
        d = CurveDiagram(
            (Component((pt(F(-1, 2), 0), pt(0, F(1, 2)), pt(F(1, 2), 0)), 1),), "peg"
        )
        report = validate(d)
        assert any(v.code == "peg" for v in report.violations)

    def test_segment_through_peg_rejected(self):
        d = CurveDiagram(
            (Component((pt(F(-1, 2), 0), pt(F(-1, 4), F(1, 4)), pt(F(1, 4), F(3, 4)), pt(F(1, 2), 0)), 1),),
            "through",
        )
        report = validate(d)
        assert [v.message for v in report.violations if v.code == "peg"] == [
            "segment (-1/4, 1/4)->(1/4, 3/4) passes through peg (0, 1/2)"
        ]

    def test_short_wrapping_component_reports_vertices_only(self):
        # The seam check needs a period, so it skips a wrapping component
        # that already failed the vertex check.
        for vertices in ((pt(0, 0),), ()):
            report = validate(CurveDiagram((Component(vertices, 1),), "short"))
            assert [v.code for v in report.violations] == ["vertices"]

    def test_two_wrapping_components_rejected(self):
        g = Component((pt(F(-1, 2), 0), pt(F(1, 2), 0)), 1)
        d = CurveDiagram((g, g), "double")
        report = validate(d)
        assert any(v.code == "distinguished" for v in report.violations)


class TestCensus:
    def test_unknot_has_no_extrema(self, zoo):
        census = extrema_census(zoo["unknot"])
        assert census.n_plus == {} and census.n_minus == {}

    def test_trefoil_census(self, zoo):
        census = extrema_census(zoo["trefoil"])
        assert census.n_plus == {1: 1}
        assert census.n_minus == {-1: 1}

    def test_torus_staircases_have_single_global_pair(self, zoo):
        for name, g in (("torus_2_5", 2), ("torus_3_4", 3)):
            census = extrema_census(zoo[name])
            assert census.n_plus == {g: 1}
            assert census.n_minus == {-g: 1}

    def test_figure_eight_component_extrema(self, zoo):
        # The closed component winds around the pegs at heights 1/2 and -1/2,
        # so its turning points land in the bands at heights 1 and -1.
        closed = zoo["figure_eight"].acyclic()[0]
        assert sorted(component_extrema(closed)) == [("max", 1), ("min", -1)]

    def test_max_count_equals_min_count_per_component(self, zoo):
        for d in zoo.values():
            for c in d.components:
                ext = component_extrema(c)
                n_max = sum(1 for kind, _ in ext if kind == "max")
                n_min = sum(1 for kind, _ in ext if kind == "min")
                assert n_max == n_min

    def test_collinear_vertex_insertion_is_invisible(self, zoo):
        d = zoo["trefoil"]
        c = d.gamma0()
        a, b = c.vertices[0], c.vertices[1]
        mid = pt((a.x + b.x) / 2, (a.y + b.y) / 2)
        fat = Component((c.vertices[0], mid) + c.vertices[1:], 1)
        d2 = CurveDiagram((fat,) + tuple(d.acyclic()), "fat")
        assert extrema_census(d2).n_plus == extrema_census(d).n_plus
        assert extrema_census(d2).n_minus == extrema_census(d).n_minus

    def test_extremum_on_peg_row_is_ambiguous(self):
        c = Component(
            (pt(F(-1, 2), 0), pt(0, F(3, 2)), pt(F(1, 2), 0)), 1
        )
        with pytest.raises(AmbiguousHeight):
            component_extrema(c)


class TestTauEpsilon:
    def test_unknot(self, zoo):
        assert tau_epsilon(zoo["unknot"]) == (0, 0)

    def test_trefoil(self, zoo):
        assert tau_epsilon(zoo["trefoil"]) == (1, 1)

    def test_mirror_trefoil(self, zoo):
        assert tau_epsilon(zoo["trefoil_mirror"]) == (-1, -1)

    def test_torus_knots(self, zoo):
        assert tau_epsilon(zoo["torus_2_5"]) == (2, 1)
        assert tau_epsilon(zoo["torus_3_4"]) == (3, 1)

    def test_mirror_negates_tau_epsilon(self, zoo):
        for d in zoo.values():
            tau, eps = tau_epsilon(d)
            assert tau_epsilon(d.mirror()) == (-tau, -eps)

    def test_figure_eight(self, zoo):
        assert tau_epsilon(zoo["figure_eight"]) == (0, 0)


# tau and epsilon read from the anchored period (reference): a copy of
# `tau_epsilon` before it read the stored period from its seam crossing,
# verbatim but for the column crossings, now `vertical_crossings`: the
# level scan's transversal crossings.


def reference_tau_epsilon(d: CurveDiagram) -> tuple[int, int]:
    g0 = anchor_at_seam(d.gamma0())
    crossings = vertical_crossings(g0, ZERO)
    if not crossings:
        raise NoVerticalCrossing("distinguished component misses the peg column")
    pos0, point0 = position(crossings[0]), crossings[0].point
    tau = height_band(point0.y)
    # Scan vertices after the first crossing, on into the next period, for
    # the first strict turn.
    for i in range(math.floor(pos0) + 1, 2 * g0.cycle_length()):
        kind = g0.turn(i)
        if kind:
            return tau, 1 if kind == "max" else -1
    return tau, 0


def rolled_periods(d: CurveDiagram):
    """d with its wrapping period stored from each of its vertices in turn,
    moved by -2, 0 and 1 periods."""
    g = d.gamma0()
    n = g.cycle_length()
    for start in range(n):
        for shift in (-2, 0, 1):
            period = tuple(g.lifted(start + j).translate(shift) for j in range(n + 1))
            yield CurveDiagram((Component(period, 1), *d.acyclic()), f"{d.source}@{start}{shift:+}")


def tau_outcome(f, d):
    try:
        return f(d)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_tau_epsilon_matches_the_anchored_reading_on_zoo(zoo):
    for d in zoo.values():
        for rolled in rolled_periods(d):
            assert tau_outcome(tau_epsilon, rolled) == tau_outcome(reference_tau_epsilon, rolled), rolled.source


@settings(max_examples=40, deadline=None)
@given(generated_diagrams, st.booleans())
def test_tau_epsilon_matches_the_anchored_reading_on_generated_diagrams(d, mirrored):
    for rolled in rolled_periods(d.mirror() if mirrored else d):
        assert tau_outcome(tau_epsilon, rolled) == tau_outcome(reference_tau_epsilon, rolled), rolled.source


@pytest.mark.parametrize("vertices", [
    ((F(-1, 2), 0), (0, F(-1, 8)), (0, F(1, 8)), (F(1, 2), 0)),  # along the peg column
    # extrema on peg rows
    ((F(-1, 2), 0), (0, 1), (F(1, 32), F(3, 2)), (0, 0), (F(-1, 32), F(-3, 2)), (0, -1), (F(1, 2), 0)),
    ((F(-1, 2), 0), (F(3, 4), F(1, 4)), (F(1, 4), F(-1, 4)), (F(1, 2), 0)),  # three seam crossings
])
def test_tau_epsilon_matches_the_anchored_reading_where_it_fails(vertices):
    d = CurveDiagram((Component(tuple(pt(x, y) for x, y in vertices), 1),), "odd")
    for rolled in rolled_periods(d):
        assert tau_outcome(tau_epsilon, rolled) == tau_outcome(reference_tau_epsilon, rolled), rolled.source


# Turns and extremum heights read as Fractions (reference): neighbour
# comparisons of lifted vertices, and the band of a height taken as the
# floor of y + 1/2, refused on a peg row with the message of the package.


def reference_band(y: F) -> int:
    shifted = y + F(1, 2)
    if shifted.denominator == 1:
        raise AmbiguousHeight(f"y = {y} lies exactly on a peg row")
    return math.floor(shifted)


def reference_turn(c: Component, j: int):
    prev_y, y, next_y = (c.lifted(i).y for i in (j - 1, j, j + 1))
    if prev_y < y and next_y < y:
        return "max"
    if prev_y > y and next_y > y:
        return "min"
    return None


def reference_extrema(c: Component) -> list[tuple[str, int]]:
    n = c.cycle_length()
    if n < 2:
        return []
    return [(kind, reference_band(c.vertices[i].y)) for i in range(n) if (kind := reference_turn(c, i))]


def assert_integer_turns_and_heights_agree(d: CurveDiagram) -> int:
    """`Component.turn` at every continuous vertex of three periods,
    `height_band` of every vertex height and `component_extrema` of every
    component of d against the Fraction reading; returns the number of
    extrema compared."""
    extrema = 0
    for c in d.components:
        n = c.cycle_length()
        for j in range(-n, 2 * n):
            assert c.turn(j) == reference_turn(c, j), (d.source, j)
        for v in c.vertices:
            assert tau_outcome(height_band, v.y) == tau_outcome(reference_band, v.y), (d.source, v)
        want = tau_outcome(reference_extrema, c)
        assert tau_outcome(component_extrema, c) == want, d.source
        extrema += len(want)
    return extrema


def test_integer_turns_and_heights_match_fractions_on_zoo(zoo):
    assert sum(assert_integer_turns_and_heights_agree(e) for d in zoo.values() for e in (d, d.mirror()))


@pytest.mark.parametrize("tau", range(-3, 4))
def test_integer_turns_and_heights_match_fractions_on_thin_diagrams(tau):
    diagrams = [thin(tau, fig8) for fig8 in range(4)]
    assert sum(assert_integer_turns_and_heights_agree(e) for d in diagrams for e in (d, d.mirror()))


@settings(max_examples=40, deadline=None)
@given(staircase_diagrams(), st.booleans())
def test_integer_turns_and_heights_match_fractions_on_staircases(d, mirrored):
    assert assert_integer_turns_and_heights_agree(d.mirror() if mirrored else d)


@pytest.mark.parametrize("vertices,message", [
    # a wrapping component's maximum at y = 3/2 and minimum at y = -3/2
    (((F(-1, 2), 0), (F(-1, 4), F(3, 2)), (F(1, 4), F(-3, 2)), (F(1, 2), 0)), "y = 3/2 lies exactly on a peg row"),
    # a closed component's minimum at y = -1/2
    (((F(-1, 4), 0), (F(1, 8), F(-1, 2)), (F(1, 4), F(1, 8))), "y = -1/2 lies exactly on a peg row"),
], ids=["wrapping", "closed"])
def test_extremum_on_a_peg_row_raises_the_fraction_readings_error(vertices, message):
    c = Component(tuple(pt(x, y) for x, y in vertices), 0 if len(vertices) == 3 else 1)
    assert tau_outcome(reference_extrema, c) == ("AmbiguousHeight", message)
    assert tau_outcome(component_extrema, c) == ("AmbiguousHeight", message)
    assert tau_outcome(extrema_census, CurveDiagram((c,))) == ("AmbiguousHeight", message)


class TestZoo:
    def test_zoo_names_build(self):
        for name in zoo_names():
            d = build_zoo(name)
            assert validate(d).ok

    def test_unknown_name(self):
        with pytest.raises(BadSpec):
            build_zoo("granny")

    def test_staircase_polynomial_validation(self):
        assert staircase_exponents({1: 1, 0: -1, -1: 1}) == [1, 0, -1]
        with pytest.raises(BadAlexander):
            staircase_exponents({1: 1, 0: 1, -1: 1})  # not alternating
        with pytest.raises(BadAlexander):
            staircase_exponents({2: 1, 0: -1, -1: 1})  # not symmetric
        with pytest.raises(BadAlexander):
            staircase_exponents({1: 1, -1: 1})  # even number of terms

    def test_staircase_from_polynomial_matches_trefoil(self, zoo):
        d = lspace_staircase({1: 1, 0: -1, -1: 1})
        assert diagrams_equal(d, zoo["trefoil"])

    def test_thin_with_many_closed_components_is_valid(self):
        for f in (1, 2, 3):
            d = thin(0, f)
            assert validate(d).ok, validate(d).summary()
            assert len(d.acyclic()) == f
        d = thin(1, 2)
        assert validate(d).ok
        d = thin(-1, 1)
        assert validate(d).ok

    def test_rotation_fixes_every_zoo_diagram(self, zoo):
        for d in zoo.values():
            assert diagrams_equal(d, d.rotate180())

    def test_reparameterized_period_reads_same_invariants(self, zoo):
        # starting the stored period at a different vertex must not matter
        g = zoo["trefoil"].gamma0()
        cyl = g.vertices[:-1]
        k = 3
        rolled = cyl[k:] + tuple(p.translate(1) for p in cyl[:k]) + (cyl[k].translate(1),)
        d = CurveDiagram((Component(rolled, 1),), "rolled")
        assert validate(d).ok, validate(d).summary()
        assert tau_epsilon(d) == tau_epsilon(zoo["trefoil"])
        assert diagrams_equal(d, zoo["trefoil"])


@given(st.sampled_from(zoo_names()))
@settings(max_examples=12, deadline=None)
def test_mirror_twice_is_identity(name):
    d = build_zoo(name)
    assert diagrams_equal(d, d.mirror().mirror())
