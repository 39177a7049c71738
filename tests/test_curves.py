import math
from collections import Counter
from fractions import Fraction as F
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pegboard.curves
from pegboard.cli import EXIT_OK, main
from pegboard.curves import (
    BadAlexander,
    BadSpec,
    Component,
    CurveDiagram,
    InvariantViolation,
    _cycle_key,
    _strip_offset,
    build_zoo,
    anchor_at_seam,
    extrema_census,
    lspace_staircase,
    staircase_exponents,
    tau_epsilon,
    thin,
    validate,
    zoo_names,
)
from pegboard.geometry import PointOnLoop, pt
from pegboard.pairing import genus_of
from pegboard.textfmt import emit_curve_text, parse_curve_text
from conftest import staircase_diagrams
from test_arc_sweep import FINGER, LOW_PEG, MUTANT, VALID_DRAWN, drawn, generated_diagrams, sheared


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

    def test_figure_eight_census_is_the_closed_components(self, zoo):
        # The closed component winds around the pegs at heights 1/2 and -1/2,
        # so it crosses the peg column in the bands at heights 1, 0, -1 and
        # 0: a maximum at 1 and a minimum at -1; the line has none.
        census = extrema_census(zoo["figure_eight"])
        assert census.n_plus == {1: 1} and census.n_minus == {-1: 1}

    def test_max_count_equals_min_count(self, zoo):
        for d in zoo.values():
            census = extrema_census(d)
            assert sum(census.n_plus.values()) == sum(census.n_minus.values()), d.source

    def test_collinear_vertex_insertion_is_invisible(self, zoo):
        # a midpoint on every segment, which keeps the half turn
        d = zoo["trefoil"]
        vs = d.gamma0().vertices
        mids = [pt((a.x + b.x) / 2, (a.y + b.y) / 2) for a, b in zip(vs, vs[1:])]
        fat = Component(tuple(v for pair in zip(vs, mids) for v in pair) + vs[-1:], 1)
        d2 = CurveDiagram((fat,) + tuple(d.acyclic()), "fat")
        assert validate(d2).ok
        assert extrema_census(d2).n_plus == extrema_census(d).n_plus
        assert extrema_census(d2).n_minus == extrema_census(d).n_minus

    def test_extrema_on_peg_rows_read_as_the_pulled_tight_curves(self, zoo):
        # The trefoil's caps drawn up to the peg rows y = 3/2 and -3/2
        # pull tight to the trefoil's maximum at 1 and minimum at -1.
        census = extrema_census(drawn("peg_rows"))
        assert (census.n_plus, census.n_minus) == ({1: 1}, {-1: 1})
        assert tau_epsilon(drawn("peg_rows")) == tau_epsilon(zoo["trefoil"])


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


@pytest.mark.parametrize("d", [MUTANT, LOW_PEG], ids=lambda d: d.source)
def test_word_readers_refuse_a_diagram_that_fails_validation(d):
    report = d._validation
    assert not report.ok
    for read in (tau_epsilon, extrema_census, genus_of):
        with pytest.raises(InvariantViolation) as refused:
            read(d)
        assert refused.value.report is report, read.__name__


# ---------------------------------------------------------------------------
# The word oracle (reference): shares no code with the package.  It walks
# each component in Fractions across the columns x = k and the rows
# y = m + 1/2, every line nudged by -epsilon, so that a point on a line
# lies past it; that is the curve moved by (epsilon, epsilon), which
# crosses no peg.  Each letter names the edge crossed and its direction:
# ("a", k, r, +-1) for column k crossed rightward or leftward in the cell
# row r (band r + 1), ("b", m, k, +-1) for row m + 1/2 crossed upward or
# downward in the cell column k.  The word is reduced freely and
# cyclically, a wrapping component's period moving each letter one column
# on.  A maximum at band h is an a-run in band h entered upward and left
# downward (b a^+- B), a minimum the reverse; the genus is the top band of
# any a-letter; tau is the band of the distinguished component's rightward
# a-letter whose previous a-letter crossed the column before rightward, the
# end of its through-pass of a strip; epsilon is the kind of the first
# extremum from tau's run on: +1 for a maximum, -1 for a minimum, 0 with
# none.


def oracle_letters(c: Component) -> list[tuple]:
    path = list(c.vertices) + ([c.vertices[0]] if c.winding == 0 else [])
    half = F(1, 2)
    col, row = math.floor(path[0].x), math.floor(path[0].y - half)
    letters = []
    for p, q in zip(path, path[1:]):
        dx, dy = q.x - p.x, q.y - p.y
        events = []  # (parameter, its epsilon term, kind, line, direction)
        for kind, lo, hi, start, d in (("a", math.floor(p.x), math.floor(q.x), p.x, dx),
                                       ("b", math.floor(p.y - half), math.floor(q.y - half), p.y - half, dy)):
            step = 1 if hi > lo else -1
            for line in range(lo + 1, hi + 1) if step == 1 else range(lo, hi, -1):
                events.append(((line - start) / d, -1 / d, kind, line, step))
        for _, _, kind, line, step in sorted(events):
            if kind == "a":
                letters.append(("a", line, row, step))
                col = line if step == 1 else line - 1
            else:
                letters.append(("b", line, col, step))
                row = line if step == 1 else line - 1
    return letters


def oracle_word(c: Component) -> list[tuple]:
    def inverse(x, y):
        return x[:3] == y[:3] and x[3] == -y[3]

    def moved(x):
        kind, i, j, step = x
        return (kind, i + c.winding, j, step) if kind == "a" else (kind, i, j + c.winding, step)

    stack: list[tuple] = []
    for x in oracle_letters(c):
        if stack and inverse(stack[-1], x):
            stack.pop()
        else:
            stack.append(x)
    while len(stack) > 1 and inverse(stack[-1], moved(stack[0])):
        stack = stack[1:-1]
    return stack


def oracle_runs(word: list[tuple]) -> list[tuple[list[int], int, Optional[str]]]:
    """(indices, band, kind) of each a-run of a word with a row letter, in
    cyclic order from the first row letter; kind is "max", "min" or None."""
    first = next(i for i, x in enumerate(word) if x[0] == "b")
    n = len(word)
    runs, current = [], []
    for j in range(first + 1, first + n + 1):
        x = word[j % n]
        if x[0] == "a":
            current.append(j % n)
            continue
        if current:
            enter, leave = word[(current[0] - 1) % n][3], x[3]
            kind = "max" if (enter, leave) == (1, -1) else "min" if (enter, leave) == (-1, 1) else None
            runs.append((current, word[current[0]][2] + 1, kind))
            current = []
    return runs


def oracle_invariants(d: CurveDiagram) -> tuple:
    """(genus, tau, epsilon, maxima, minima) read off the oracle words."""
    maxima: Counter = Counter()
    minima: Counter = Counter()
    bands = [0]
    for c in d.components:
        word = oracle_word(c)
        bands += [x[2] + 1 for x in word if x[0] == "a"]
        if any(x[0] == "b" for x in word):
            for _, band, kind in oracle_runs(word):
                if kind:
                    (maxima if kind == "max" else minima)[band] += 1
    word = oracle_word(d.gamma0())
    across = [i for i, x in enumerate(word) if x[0] == "a"]

    def ends_a_pass(n: int) -> bool:
        x, before = word[across[n]], word[across[n - 1]]
        back = 1 if n == 0 else 0  # the last a-letter, one period back
        return x[3] == before[3] == 1 and x[1] == before[1] - back + 1

    end = across[next(n for n in range(len(across)) if ends_a_pass(n))]
    tau, epsilon = word[end][2] + 1, 0
    if any(x[0] == "b" for x in word):
        runs = oracle_runs(word)
        at = next(r for r, (indices, _, _) in enumerate(runs) if end in indices)
        epsilon = next(({"max": 1, "min": -1}[kind] for _, _, kind in runs[at:] + runs[:at] if kind), 0)
    return max(bands), tau, epsilon, dict(maxima), dict(minima)


def cyclic_key(word: list[tuple[int, int]], winding: int) -> tuple:
    """The least rotation of a cyclic word of (column, band) letters; a
    wrapping component's rotation moves the letters it carries round one
    column on, and is then moved so that its first letter is in column 0."""
    keys = []
    for r in range(len(word)):
        rotated = word[r:] + [(k + winding, h) for k, h in word[:r]]
        k0 = rotated[0][0] * winding
        keys.append(tuple((k - k0, h) for k, h in rotated))
    return min(keys, default=())


def assert_words_match_the_oracle(c: Component) -> None:
    """The kernel's reduced word is the oracle's a-letters, read as (column,
    band), up to rotation."""
    want = [(x[1], x[2] + 1) for x in oracle_word(c) if x[0] == "a"]
    assert cyclic_key(list(c._word), c.winding) == cyclic_key(want, c.winding), c


def kernel_invariants(d: CurveDiagram) -> tuple:
    census = extrema_census(d)
    return (genus_of(d), *tau_epsilon(d), census.n_plus, census.n_minus)


def rolled_periods(d: CurveDiagram):
    """d with its wrapping period stored from each of its vertices in turn,
    moved by -2, 0 and 1 periods."""
    g = d.gamma0()
    n = g.cycle_length()
    for start in range(n):
        for shift in (-2, 0, 1):
            period = tuple(g.lifted(start + j).translate(shift) for j in range(n + 1))
            yield CurveDiagram((Component(period, 1), *d.acyclic()), f"{d.source}@{start}{shift:+}")


def assert_invariants_match_the_oracle(d: CurveDiagram) -> tuple:
    for c in d.components:
        assert_words_match_the_oracle(c)
    want = oracle_invariants(d)
    assert kernel_invariants(d) == want, d.source
    return want


def test_invariants_match_the_oracle_on_zoo_and_mirrors(zoo):
    for d in zoo.values():
        for e in (d, d.mirror()):
            assert_invariants_match_the_oracle(e)


@pytest.mark.parametrize("tau", range(-3, 4))
def test_invariants_match_the_oracle_on_thin_diagrams(tau):
    for f in range(5):
        for e in (thin(tau, f), thin(tau, f).mirror()):
            assert_invariants_match_the_oracle(e)


@settings(max_examples=40, deadline=None)
@given(staircase_diagrams(), st.booleans())
def test_invariants_match_the_oracle_on_staircases(d, mirrored):
    assert_invariants_match_the_oracle(d.mirror() if mirrored else d)


@settings(max_examples=25, deadline=None)
@given(generated_diagrams, st.booleans())
def test_invariants_keep_every_rotation_of_the_period(d, mirrored):
    d = d.mirror() if mirrored else d
    want = kernel_invariants(d)
    for rolled in rolled_periods(d):
        assert assert_invariants_match_the_oracle(rolled) == want, rolled.source


# A curve whose pass through the strip (-1, 0) climbs on past tau: it
# crosses the peg column at heights 1 (tau), 2, 0, -2 and -1, each cap
# turning round one peg, so its maximum is at 2, after tau, and epsilon is
# read back from tau's letter to the band -1 below it.
CLIMB = CurveDiagram((Component(tuple(pt(x, y) for x, y in (
    (F(-1, 2), 0), (0, 1), (F(1, 8), F(3, 2)), (0, 2), (F(-1, 8), 1), (0, 0),
    (F(1, 8), -1), (0, -2), (F(-1, 8), F(-3, 2)), (0, -1), (F(1, 2), 0))), 1),), "climb")


def test_a_pass_that_climbs_on_past_tau():
    assert validate(CLIMB).ok
    assert assert_invariants_match_the_oracle(CLIMB) == (2, 1, 1, {2: 1}, {-2: 1})
    assert kernel_invariants(CLIMB.mirror()) == (2, -1, -1, {2: 1}, {-2: 1})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(-6, 5)), min_size=3, max_size=8))
def test_words_match_the_oracle_on_wide_closed_polygons(points):
    # Segments across several columns, either way; heights in odd
    # quarters lie on no peg row, and a polygon through a peg is skipped.
    c = Component(tuple(pt(F(x, 3), F(2 * y + 1, 4)) for x, y in points), 0)
    try:
        for i in range(c.cycle_length()):
            c.segment_columns(i)
    except PointOnLoop:
        assume(False)
    assert_words_match_the_oracle(c)


def test_invariants_keep_every_rotation_of_the_zoo_periods(zoo):
    # FINGER's rotations start inside its fingers, which only the trim
    # of the word's two ends removes.
    for d in (*zoo.values(), FINGER, CLIMB):
        want = kernel_invariants(d)
        for rolled in rolled_periods(d):
            assert assert_invariants_match_the_oracle(rolled) == want, rolled.source


@pytest.mark.parametrize("name", VALID_DRAWN)
def test_a_drawing_reads_as_its_sheared_copy_and_the_oracle(name):
    # Each valid drawing of `tools/curves` and its sheared copy, which holds no
    # segment along a line, give the oracle's values; the drawings of the
    # unknot give the unknot's.
    d = drawn(name)
    copy = sheared(d)
    assert validate(copy).ok
    want = assert_invariants_match_the_oracle(d)
    assert assert_invariants_match_the_oracle(copy) == want
    if len(d.components) == 1 and name != "peg_rows":
        assert want == (0, 0, 0, {}, {})


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
