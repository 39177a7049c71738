import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pegboard.textfmt
from pegboard.curves import (
    Component,
    CurveDiagram,
    InvariantViolation,
    build_zoo,
    lspace_staircase,
    thin,
    zoo_names,
)
from pegboard.textfmt import (
    CurveFormatError,
    _parse_fraction,
    canonicalize,
    emit_curve_text,
    parse_curve_text,
)
from test_curves import diagrams_equal

UNKNOT_TEXT = "component winding=1\nv -1/2 0\nv 1/2 0\n"


class TestParse:
    def test_unknot(self):
        d = parse_curve_text(UNKNOT_TEXT)
        assert len(d.components) == 1
        assert d.gamma0().winding == 1

    def test_comments_and_blanks(self):
        text = "# a diagram\n\ncomponent winding=1  # header\nv -1/2 0\nv 1/2 0\n"
        d = parse_curve_text(text)
        assert len(d.components) == 1

    def test_vertex_on_peg_rejected(self):
        text = "component winding=1\nv -1/2 0\nv 0 1/2\nv 1/2 0\n"
        with pytest.raises(InvariantViolation) as err:
            parse_curve_text(text)
        assert "peg" in str(err.value)

    def test_syntax_error_carries_line(self):
        with pytest.raises(CurveFormatError) as err:
            parse_curve_text("component winding=1\nv -1/2 zero\nv 1/2 0\n")
        assert err.value.line == 2

    def test_vertex_before_header(self):
        with pytest.raises(CurveFormatError) as err:
            parse_curve_text("v 0 0\n")
        assert err.value.line == 1

    def test_bad_winding(self):
        with pytest.raises(CurveFormatError):
            parse_curve_text("component winding=2\nv 0 0\nv 1 0\n")

    def test_empty_input(self):
        with pytest.raises(CurveFormatError):
            parse_curve_text("# nothing here\n")


class TestRoundTrip:
    @pytest.mark.parametrize("name", zoo_names())
    def test_zoo_round_trips(self, name):
        d = build_zoo(name)
        text = emit_curve_text(d)
        d2 = parse_curve_text(text)
        assert diagrams_equal(d, d2)
        assert emit_curve_text(d2) == text

    def test_emit_parse_emit_is_stable(self):
        d = parse_curve_text(UNKNOT_TEXT)
        once = emit_curve_text(d)
        twice = emit_curve_text(parse_curve_text(once))
        assert once == twice

    def test_canonical_order_distinguished_first(self):
        d = build_zoo("figure_eight")
        canon = canonicalize(d)
        assert canon.components[0].winding == 1
        assert all(c.winding == 0 for c in canon.components[1:])


def rebased(c: Component, j: int) -> Component:
    """The wrapping period c started at its continuous vertex j."""
    return Component(tuple(c.lifted(j + t) for t in range(c.cycle_length() + 1)), 1)


def moved(d: CurveDiagram, j: int, shifts, order) -> CurveDiagram:
    """d with its period re-based at vertex j and its closed components
    translated by the integer shifts, then listed in the given order."""
    closed = [c.translate(s) for c, s in zip(d.acyclic(), shifts)]
    return CurveDiagram((rebased(d.gamma0(), j), *(closed[i] for i in order)), d.source)


class TestCanonicalForm:
    """The emitted text does not depend on where the period starts, on which
    strip each closed component sits in, or on the order of the components."""

    @pytest.mark.parametrize("d", [build_zoo(n) for n in zoo_names()] + [thin(1, 3)],
                             ids=lambda d: d.source)
    def test_emission_ignores_base_point_translates_and_order(self, d):
        want = emit_curve_text(d)
        m = len(d.acyclic())
        for j in range(d.gamma0().cycle_length()):
            for shift in (0, 2, -1):
                shifts = [shift * (-1) ** i for i in range(m)]
                for order in itertools.permutations(range(m)):
                    assert emit_curve_text(moved(d, j, shifts, order)) == want, (j, shift, order)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True), st.integers(0, 40))
    def test_staircase_emission_ignores_base_point(self, upper, j):
        upper = sorted(upper, reverse=True)
        exps = upper + [0] + [-e for e in reversed(upper)]
        d = lspace_staircase({e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)})
        want = emit_curve_text(d)
        assert emit_curve_text(moved(d, j % d.gamma0().cycle_length(), [], [])) == want
        assert emit_curve_text(moved(d, j - 20, [], [])) == want


# ---------------------------------------------------------------------------
# Coordinate tokens: the integer reader against `Fraction`


# Plain tokens (`n`, `-n`, `n/d`, the written spelling) and every other
# spelling `Fraction` takes or refuses: signs, decimals, exponents,
# underscores, spaces, zero denominators, non-ASCII digits.
token_parts = st.sampled_from(
    ["0", "1", "3", "07", "42", "-", "+", "/", ".", "e", "E", "_", " ", "\u0663", "\u00b2", "x"]
)
tokens = st.one_of(
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-10**6, 10**6), st.integers(-3, 10**6)),
    st.integers(-10**30, 10**30).map(str),
    st.lists(token_parts, min_size=1, max_size=8).map("".join),
)


def fraction_or_message(token: str):
    """`Fraction(token)`, or the message `parse_curve_text` reports when
    `Fraction` refuses the token."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return str(CurveFormatError(f"bad rational {token!r}", 4, 7))


@settings(max_examples=600, deadline=None)
@given(tokens)
@example("1.5")
@example("1e2")
@example("+3")
@example("-3/4")
@example("1_000")
@example("3/0")
@example("0/0")
@example("3/-4")
@example("-")
@example("\u0663")  # an Arabic-Indic three, which `int` and `Fraction` both read
@example("\u00b2")  # a superscript two: a digit to `str.isdigit`, refused by both
@example("1/2/3")
@example("0005/0010")
@example("-0")
def test_coordinate_tokens_read_as_fraction_reads_them(token):
    want = fraction_or_message(token)
    try:
        got = _parse_fraction(token, 4, 7)
    except CurveFormatError as err:
        got = str(err)
        assert (err.line, err.column) == (4, 7)
    assert type(got) is type(want) and got == want, token


# ---------------------------------------------------------------------------
# Error columns: the token's own first character in the raw line


@pytest.mark.parametrize("text, line, column, message", [
    ("component winding=1\nv v 0\n", 2, 3, "bad rational 'v'"),
    ("component winding=1\n    v 1/0 0\n", 2, 7, "bad rational '1/0'"),
    ("  component winding=3\n", 1, 21, "winding must be 0 or 1, got '3'"),
    ("component winding=1\n  v 0 z\n", 2, 7, "bad rational 'z'"),
    ("component winding=1\nv 1/0 1/0 # 1/0\n", 2, 3, "bad rational '1/0'"),
    ("component winding=1\nv 1/2 0\n\tv\t1/2  0x # 0x\n", 3, 9, "bad rational '0x'"),
    ("component winding=1\nv 1/2 0\nv 1/2 1/2#\nv 0 -\n", 4, 5, "bad rational '-'"),
], ids=["repeated-directive", "indented", "winding", "second-token", "same-token-twice",
        "tabs-and-comment", "after-comment"])
def test_error_columns_are_raw_line_positions(text, line, column, message):
    with pytest.raises(CurveFormatError) as err:
        parse_curve_text(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


# ---------------------------------------------------------------------------
# Coordinates read through the per-call token memo


def spellings(value: Fraction) -> list[str]:
    """Tokens that `Fraction` reads as value: the written one, n/d, scaled,
    signed, and (for a terminating decimal) decimal and exponent forms."""
    n, d = value.numerator, value.denominator
    out = [str(value), f"{n}/{d}", f"{2 * n}/{2 * d}", f"{3 * n}/{3 * d}"]
    out.append(f"+{value}" if n >= 0 else f"-0{-value}")
    k = next((k for k in range(8) if 10**k % d == 0), None)
    if k is not None:
        digits = n * 10**k // d
        whole, frac = divmod(abs(digits), 10**k)
        sign = "-" if digits < 0 else ""
        out.append(f"{sign}{whole}.{frac:0{k}d}" if k else f"{sign}{whole}.0")
        out.append(f"{digits}e-{k}")
    return out


def vertex_tokens(text: str) -> list[str]:
    return [token for line in text.splitlines() if line.startswith("v ") for token in line.split()[1:]]


def staircase(upper) -> CurveDiagram:
    upper = sorted(upper, reverse=True)
    exps = upper + [0] + [-e for e in reversed(upper)]
    return lspace_staircase({e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)})


diagrams = st.one_of(
    st.sampled_from(zoo_names()).map(build_zoo),
    st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True).map(staircase),
)


@settings(max_examples=60, deadline=None)
@given(diagrams, st.data())
def test_respelled_coordinates_read_as_fraction_reads_them(d, data):
    canonical = emit_curve_text(d)
    # each coordinate re-spelled by a drawn choice among its spellings: the
    # zoo and staircases repeat values, so one spelling recurs across lines
    # and one value comes with several spellings
    lines = []
    for line in canonical.splitlines():
        if line.startswith("v "):
            options = [spellings(Fraction(t)) for t in line.split()[1:]]
            line = "v " + " ".join(o[data.draw(st.integers(0, len(o) - 1))] for o in options)
        lines.append(line)
    text = "\n".join(lines) + "\n"
    got = parse_curve_text(text)
    coordinates = [z for c in got.components for p in c.vertices for z in (p.x, p.y)]
    want = [Fraction(token) for token in vertex_tokens(text)]
    assert all(type(z) is Fraction for z in coordinates)
    assert coordinates == want
    assert diagrams_equal(got, parse_curve_text(canonical))


@pytest.mark.parametrize("name", zoo_names())
def test_each_distinct_token_is_parsed_once(monkeypatch, name):
    text = emit_curve_text(build_zoo(name))
    parsed = []
    real = pegboard.textfmt._parse_fraction

    def counting(token, line, column):
        parsed.append(token)
        return real(token, line, column)

    monkeypatch.setattr(pegboard.textfmt, "_parse_fraction", counting)
    parse_curve_text(text)
    assert sorted(parsed) == sorted(set(vertex_tokens(text)))
