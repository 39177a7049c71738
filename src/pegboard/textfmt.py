"""Line-oriented text format for curve diagrams.

Format (UTF-8):

    # comments start with a hash
    component winding=1
    v -1/2 0
    v 1/2 0
    component winding=0
    v ...

Coordinates are integers or fractions a/b (any spelling `Fraction` reads).
Parsing is one pass over the text, split into lines once: a line's
comment is split off only when the line holds a hash, the `v` lines are
tested for first, each distinct coordinate token becomes a Fraction once
per call, through a dict local to the call, and a `CurveFormatError` names
the 1-based column of the failing token's first character in the raw line,
counted only when a token fails.
Parsing then runs the full validator.  Emission writes
`curves.canonicalize`: the wrapping component first (re-based at its seam
crossing), then the closed components sorted by their canonical keys.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import Component, CurveDiagram, canonicalize
from .geometry import Point


class CurveFormatError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _parse_fraction(token: str, line: int, column: int) -> Fraction:
    """The rational that `Fraction(token)` reads, or CurveFormatError.

    A plain integer or fraction of ASCII digits (`n`, `-n`, `n/d`, `-n/d`,
    d not 0), the spelling `emit_curve_text` writes, is read with `int`;
    every other spelling goes to `Fraction`, which takes or refuses it."""
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isascii() and digits.isdigit():
        if not slash:
            return Fraction(int(num))
        if den.isascii() and den.isdigit() and int(den):
            return Fraction(int(num), int(den))
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise CurveFormatError(f"bad rational {token!r}", line, column)


def _column(raw: str, parts: list[str], k: int) -> int:
    """The 1-based column in the raw line of parts[k], parts being the
    whitespace-separated tokens of the line before its comment."""
    end = 0
    for token in parts[:k + 1]:
        end = raw.index(token, end) + len(token)
    return end - len(parts[k]) + 1


def _coordinate(read: dict, raw: str, parts: list[str], k: int, line_no: int) -> Fraction:
    """parts[k], a token not yet in read, parsed and kept there."""
    token = parts[k]
    try:
        value = read[token] = _parse_fraction(token, line_no, 0)
    except CurveFormatError:
        # the column is counted only for a token that fails: the token fails
        # again, now naming its column
        _parse_fraction(token, line_no, _column(raw, parts, k))
        raise
    return value


def parse_curve_text(text: str, source: str = "text") -> CurveDiagram:
    components: list[Component] = []
    winding = None
    vertices: list[Point] = []
    read: dict[str, Fraction] = {}  # each distinct coordinate token, parsed once

    def flush(line_no):
        nonlocal winding, vertices
        if winding is None:
            return
        if len(vertices) < 2:
            raise CurveFormatError("component needs at least two vertices", line_no)
        components.append(Component(tuple(vertices), winding))
        winding, vertices = None, []

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if parts[0] == "v":  # the common line first
            if winding is None:
                raise CurveFormatError("vertex before any component header", line_no)
            if len(parts) != 3:
                raise CurveFormatError("expected 'v <x> <y>'", line_no)
            x = read.get(parts[1])
            if x is None:
                x = _coordinate(read, raw, parts, 1, line_no)
            y = read.get(parts[2])
            if y is None:
                y = _coordinate(read, raw, parts, 2, line_no)
            vertices.append(Point(x, y))
        elif parts[0] == "component":
            flush(line_no)
            if len(parts) != 2 or not parts[1].startswith("winding="):
                raise CurveFormatError("expected 'component winding=<0|1>'", line_no)
            value = parts[1].split("=", 1)[1]
            if value not in ("0", "1"):
                raise CurveFormatError(f"winding must be 0 or 1, got {value!r}", line_no,
                                       column=_column(raw, parts, 1) + len("winding="))
            winding = int(value)
        else:
            raise CurveFormatError(f"unrecognized directive {parts[0]!r}", line_no)
    flush(len(lines))
    if not components:
        raise CurveFormatError("no components found", 1)
    return CurveDiagram(tuple(components), source).validated()


def emit_curve_text(d: CurveDiagram) -> str:
    canon = canonicalize(d)
    lines = []
    for c in canon.components:
        lines.append(f"component winding={c.winding}")
        for p in c.vertices:
            lines.append(f"v {p.x} {p.y}")
    return "\n".join(lines) + "\n"
