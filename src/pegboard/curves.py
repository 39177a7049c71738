"""Peg-board multicurves for knot complements: data model, checks, zoo.

A diagram consists of PL components drawn in the planar cover of the marked
cylinder.  Exactly one component (the distinguished one) wraps the cylinder
horizontally; it is stored as one period, a vertex path whose final vertex is
the first translated by (1, 0).  All other components are closed polygons
confined to one fundamental strip.

The height of a point is the unique integer band (h - 1/2, h + 1/2) that
contains its y coordinate; bands are separated by the peg rows.

Each component's vertices become integers once, in its `_frame` (the
`geometry.integer_frame` of its vertices, built on first use and kept for
the life of the component).  Validation, the column table, the level scan
and the filling offset test of `pairing` all read that frame, rescaling it
by a whole factor where they need a finer scale.  The level scan hands
back integers too: each crossing is a `Crossing` record (segment, ratio
along it, point over a common denominator, level), which becomes
Fractions only where its `point` is read.

The seam crossings are the transversal crossings of the level scan of
x - 1/2 (`seam_crossings`, through `vertical_crossings`).  The one record
of a wrapping component anchors it: `_anchored_period` starts the period
there, in integers, for validation's symmetry check, and `anchor_at_seam`
is that period read as Fractions; `tau_epsilon` walks on from the record.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .geometry import (
    HALF,
    ZERO,
    Box,
    Point,
    PointOnLoop,
    column_crossings,
    integer_frame,
    pt,
)


class AmbiguousHeight(ValueError):
    """A strict local extremum sits exactly on a peg row."""


class BadAlexander(ValueError):
    """Polynomial is not of the alternating +-1 staircase form."""


class BadSpec(ValueError):
    """Unrecognized zoo request."""


class Crossing(NamedTuple):
    """One crossing of a component with a level, as `Component.level_crossings`
    finds it, in integers.

    The crossing lies on stored segment i (from vertex i towards vertex
    i + 1) at the ratio r/dg along it, 0 <= r < dg, so at position
    i + r/dg; its point is (x/den, y/den), and it lies on level m.  Both
    ratios are in lowest terms (a vertex has r = 0 and dg = 1, and x, y
    and den share no factor), so equal crossings are equal records.
    `point` reads the record's point as Fractions, built when read.
    """

    i: int
    r: int
    dg: int
    x: int
    y: int
    den: int
    m: int

    @property
    def point(self) -> Point:
        return Point(Fraction(self.x, self.den), Fraction(self.y, self.den))

    @property
    def last_segment(self) -> int:
        """The segment along which a forward walk reaches this crossing:
        segment i, or segment i - 1 when the crossing is vertex i (r = 0)."""
        return self.i if self.r else self.i - 1

    def precedes(self, other: "Crossing") -> bool:
        """Whether this crossing's position is below other's, compared in
        integers."""
        return self.i < other.i or (self.i == other.i and self.r * other.dg < other.r * self.dg)


class Component(namedtuple("Component", "vertices winding")):
    """One immersed component, as a PL vertex path in the planar cover.

    winding 0: closed polygon, the last vertex joins back to the first.
    winding 1: one period of a cylinder-wrapping curve; the stored path must
    end at the first vertex translated by (1, 0).

    No `__slots__`: the cached tables below live in the instance's
    `__dict__`.
    """

    def __new__(cls, vertices: Sequence[Point], winding: int):
        return super().__new__(cls, tuple(vertices), winding)

    def cycle_length(self) -> int:
        """Number of segments in one cylinder traversal."""
        return len(self.vertices) if self.winding == 0 else len(self.vertices) - 1

    def lifted(self, j: int) -> Point:
        """Plane point of continuous vertex index j.

        That is stored vertex j mod n (n the cycle length), shifted by j // n
        periods on the wrapping component; a closed component repeats in
        place.
        """
        wrap, i = divmod(j, self.cycle_length())
        v = self.vertices[i]
        return Point(v.x + wrap, v.y) if wrap and self.winding == 1 else v

    @cached_property
    def _frame(self) -> tuple[int, list[int], list[int]]:
        """(S, X, Y): the `integer_frame` of the stored vertices, built once.

        This is the one place the component's vertices become integers:
        validation, the column table, the level scan and the filling
        offset test all read it, rescaling by an integer factor where they
        need a finer scale.  Nothing may modify it.
        """
        return integer_frame(self.vertices)

    def _rescale_for(self, c: Fraction) -> tuple[int, int, int]:
        """(S', f, C): the frame's scale S rescaled to hold c, S' = lcm(S,
        den c); the whole factor f = S' // S that takes the frame's
        integers there; and c times S'."""
        num, den = c.as_integer_ratio()
        scale = math.lcm(self._frame[0], den)
        return scale, scale // self._frame[0], num * (scale // den)

    @cached_property
    def _lifted_frame(self) -> tuple[list[int], list[int]]:
        """(X, Y) of continuous vertices -1..n in the frame (index j + 1
        holds vertex j, shifted by its period on the wrapping component),
        built once; nothing may modify it."""
        n, (scale, vx, vy) = self.cycle_length(), self._frame
        period = scale if self.winding == 1 else 0  # the x step per period
        return [vx[n - 1] - period, *vx[:n], vx[0] + period], [vy[n - 1], *vy[:n], vy[0]]

    @cached_property
    def _columns(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        """`segment_columns` by segment, filled on first use."""
        return {}

    def segment_columns(self, i: int) -> tuple[tuple[int, int, int], ...]:
        """`geometry.column_crossings` of stored segment i; raises
        `PointOnLoop`, naming the peg, when the segment meets one.

        Segment i runs from stored vertex i to the next one (to vertex 0
        after the last on a closed component).  The crossings are found in
        the `integer_frame` of the component's vertices, built once; they
        depend on nothing else, so each segment's are computed on first use
        and kept for the life of the component.  The translate of segment i
        by (w, 0) crosses column k + w wherever segment i crosses column k.
        """
        table = self._columns
        if i not in table:
            scale, xs, ys = self._frame
            j = (i + 1) % len(xs)
            table[i] = tuple(column_crossings(scale, xs[i], ys[i], xs[j], ys[j]))
        return table[i]

    def turn(self, j: int) -> Optional[str]:
        """The strict turn at continuous vertex j: "max" when both
        neighbours lie strictly lower, "min" when both lie strictly higher,
        else None.

        Lifting a vertex moves it sideways only, so the heights are those
        of the stored vertices j - 1, j and j + 1 mod the cycle length,
        compared as the frame's integers."""
        n, ys = self.cycle_length(), self._frame[2]
        prev_y, y, next_y = ys[(j - 1) % n], ys[j % n], ys[(j + 1) % n]
        if prev_y < y and next_y < y:
            return "max"
        if prev_y > y and next_y > y:
            return "min"
        return None

    def level_crossings(self, a: int, b: int, c: Fraction) -> list[Crossing]:
        """Crossings of one period with the levels a*x + b*y + c = m.

        a and b are integers, c is a rational and m runs over the integers.
        Returns one `Crossing` record per crossing, in curve order, so
        strictly increasing in position.  A run is a maximal sequence of
        consecutive vertices on one level, a lone vertex being a run of
        one, so a segment along a level joins two vertices of one run.
        Each run is read pushed off its level to the side where the curve
        leaves it: it crosses the level once, at its first vertex, iff the
        curve comes to it from the other side, and a run that the curve
        only touches gives nothing.  For a lone vertex this is the strict
        rule, neighbours strictly on opposite sides.  Each push is a small
        isotopy that crosses no peg of a curve that misses the pegs, and
        of the run's two sides it gives the fewer crossings, so every
        drawing is read and no run adds a bigon.  The period's end vertex
        repeats its start and is left to it; a run across the period's end
        starts inside the period.

        The scan works in integers, on the component's lifted vertex table
        (`_lifted_frame`, at the frame's scale S) times f = lcm(S, den c) //
        S, so that c is an integer too (`_rescale_for`); the table is built
        once and never rescaled in place.  At scale f*S the form is an integer G
        at every vertex, a vertex lies on a level iff f*S divides G, the
        levels a segment crosses are a floor/ceil division range, and the
        crossing of level m lies at the integer ratio
        (m*f*S - G_a)/(G_b - G_a) along it.  The records hold those
        integers, reduced by `math.gcd`, and are built without the
        generated constructor, still `Crossing`s; no Fraction is built.
        """
        n = self.cycle_length()
        if n == 0:
            return []
        scale, f, cs = self._rescale_for(c)
        xs, ys = self._lifted_frame  # index j + 1 holds vertex j
        if f != 1:
            xs, ys = [x * f for x in xs], [y * f for y in ys]
        gs = [a * x + b * y + cs for x, y in zip(xs, ys)]
        gcd = math.gcd
        new = tuple.__new__  # skips the Python-level __new__ NamedTuple generates: still a Crossing
        crossings: list[Crossing] = []
        step = gs[n + 1] - gs[1]  # G over one period: 0 on a closed component
        for i in range(n):
            g_prev, ga, gb = gs[i], gs[i + 1], gs[i + 2]
            xa, ya = xs[i + 1], ys[i + 1]
            if ga % scale == 0 and g_prev != ga:  # a run starts at vertex i
                v, g_out = i + 1, gb
                while g_out == ga:  # read where the curve leaves the run
                    v += 1
                    w, j = divmod(v, n)
                    g_out = gs[j + 1] + w * step
                if (g_prev < ga) != (g_out < ga):
                    k = gcd(xa, ya, scale)
                    crossings.append(new(Crossing, (i, 0, 1, xa // k, ya // k, scale // k, ga // scale)))
            if ga == gb:
                continue
            # The crossing of level m is r/dg along the segment, r = s*(m*S - G_a)
            # and dg = s*(G_b - G_a) > 0 with s the sign of G_b - G_a.
            if ga < gb:
                s, levels = 1, range(ga // scale + 1, -(-gb // scale))
            else:
                s, levels = -1, range(-(-ga // scale) - 1, gb // scale, -1)
            dx, dy, dg = xs[i + 2] - xa, ys[i + 2] - ya, s * (gb - ga)
            xd, yd, den = xa * dg, ya * dg, dg * scale
            for m in levels:
                r = s * (m * scale - ga)
                x, y = xd + r * dx, yd + r * dy
                k, g = gcd(x, y, den), gcd(r, dg)
                crossings.append(new(Crossing, (i, r // g, dg // g, x // k, y // k, den // k, m)))
        return crossings

    def bbox(self) -> Box:
        return Box.around(self.vertices)

    def translate(self, dx, dy=ZERO) -> "Component":
        return Component(tuple(p.translate(dx, dy) for p in self.vertices), self.winding)

    def rotate180(self) -> "Component":
        rotated = tuple(p.rotate180() for p in reversed(self.vertices))
        return Component(rotated, self.winding)

    def mirror(self) -> "Component":
        """Vertical reflection (x, y) -> (x, -y); realizes the mirror knot."""
        return Component(tuple(p.mirror() for p in self.vertices), self.winding)


class CurveDiagram(namedtuple("CurveDiagram", "components source")):
    # No `__slots__`: `_validation` is cached in the instance's `__dict__`.

    def __new__(cls, components: Sequence[Component], source: str = "anonymous"):
        return super().__new__(cls, tuple(components), source)

    @cached_property
    def _validation(self) -> "ValidationReport":
        """`validate(self)`, computed on first use and kept for the life of
        the diagram, as each component keeps its `_frame`.  The loaders and
        `pairing.ArcSweep`, which every arc reader builds, refuse a diagram
        whose report is not ok, the sweep with `InvariantViolation`."""
        return validate(self)

    def gamma0(self) -> Component:
        for c in self.components:
            if c.winding == 1:
                return c
        raise ValueError("diagram has no distinguished component")

    def acyclic(self) -> list[Component]:
        return [c for c in self.components if c.winding == 0]

    def rotate180(self) -> "CurveDiagram":
        return CurveDiagram(tuple(c.rotate180() for c in self.components), self.source + ":rot180")

    def mirror(self) -> "CurveDiagram":
        return CurveDiagram(tuple(c.mirror() for c in self.components), self.source + ":mirror")

    def bbox(self) -> Box:
        boxes = [c.bbox() for c in self.components]
        return Box(
            min(b.xmin for b in boxes),
            max(b.xmax for b in boxes),
            min(b.ymin for b in boxes),
            max(b.ymax for b in boxes),
        )


# ---------------------------------------------------------------------------
# Canonical forms


def _strip_offset(c: Component) -> Optional[int]:
    """Integer k with all x coordinates inside (k - 1/2, k + 1/2), or None.

    Read from the component's frame: x = X/S lies in that strip iff
    k = (2X + S) // (2S), and on the seam line x = k + 1/2 iff 2S divides
    2X + S.
    """
    scale, xs, _ = c._frame
    ks = set()
    for x in xs:
        k, r = divmod(2 * x + scale, 2 * scale)
        if not r:
            return None  # touches a seam line x = k + 1/2
        ks.add(k)
    return ks.pop() if len(ks) == 1 else None


def _cycle_key(c: Component, k: int, scale: int) -> Optional[tuple]:
    """Translation/rotation/reversal-invariant integer key for a closed
    component c, confined to the strip around x = k (k = 0 for one that
    is not confined).

    c is moved by -k, and its vertices, times `scale` (a multiple of c's
    frame scale), become one tuple of integer pairs; the key is that cycle's least rotation, read in both
    directions.  A positive scale keeps the order of keys, and -scale
    gives the key of c turned by a half turn about (0, 0).  A component
    with no vertices has the key None.
    """
    s, xs, ys = c._frame
    f = scale // s
    cycle = tuple(((x - k * s) * f, y * f) for x, y in zip(xs, ys))
    return min((seq[i:] + seq[:i] for seq in (cycle, cycle[::-1]) for i in range(len(seq))), default=None)


def vertical_crossings(c: Component, shift: Fraction) -> list[Crossing]:
    """Transversal crossings of the vertical lines x + shift in Z along one
    period: the records of `Component.level_crossings` for the form
    x + shift, less each vertex whose neighbour lies on its line.

    A vertex on a line thus counts once, iff neither neighbour lies on
    the line and they straddle it; touching, or running along the line,
    does not count, though the level scan crosses a run that the curve
    passes through.  Validation's seam count and tau read these, the
    drawing's own crossings: a run along a seam line adds no seam
    crossing, and tau is never read from a run.
    """
    xs = c._lifted_frame[0]  # index j + 1 holds vertex j
    return [e for e in c.level_crossings(1, 0, shift) if e.r or xs[e.i] != xs[e.i + 1] != xs[e.i + 2]]


def seam_crossings(c: Component) -> list[Crossing]:
    """Transversal crossings of the seam lines x in 1/2 + Z along one period.

    Returns the `vertical_crossings` of the form x - 1/2, so the crossing
    of the seam line x = m + 1/2 has level m: a crossing at a vertex
    counts once, iff its cyclic neighbours straddle the seam line;
    touching without crossing, or running along the line, does not count.
    """
    return vertical_crossings(c, -HALF)


def height_band(y, scale: int = 1) -> int:
    """The integer h with y/scale in (h - 1/2, h + 1/2), for a rational y
    and an integer scale > 0; y/scale must not be on a peg row.

    Read in integers where y is one: h = (2y + scale) // (2*scale), and
    y/scale lies on a peg row iff 2*scale divides 2y + scale.  The
    Fraction y/scale is built only for the error's message.
    """
    h, r = divmod(2 * y + scale, 2 * scale)
    if not r:
        raise AmbiguousHeight(f"y = {Fraction(y, scale)} lies exactly on a peg row")
    return h


# ---------------------------------------------------------------------------
# Validation


class Violation(NamedTuple):
    code: str
    message: str
    component: Optional[int] = None


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"[{v.code}] {v.message}" for v in self.violations)


class InvariantViolation(ValueError):
    """The diagram fails validation; its `ValidationReport` is attached."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.summary())
        self.report = report


def validate(d: CurveDiagram) -> ValidationReport:
    """Check every structural invariant; report all violations found.

    Every check reads the components' integer frames (`Component._frame`,
    scale S, built once per component): repeats and closure compare
    integers, a vertex is a peg iff S divides X and 2S divides 2Y - S, the
    segment pegs come from the column table, the seam scan is the level
    scan, and confinement reads `_strip_offset`.  The symmetry check works
    in the diagram's frame, D = lcm(2, every S).  A violation's message is
    built only when it is reported.
    """
    bad: list[Violation] = []

    def add(code, msg, comp=None):
        bad.append(Violation(code, msg, comp))

    wrapping = [i for i, c in enumerate(d.components) if c.winding == 1]
    for i, c in enumerate(d.components):
        if c.winding not in (0, 1):
            add("winding", f"winding must be 0 or 1, got {c.winding}", i)
            continue
        if len(c.vertices) < 2:
            add("vertices", "component needs at least two vertices", i)
            continue
        scale, xs, ys = c._frame
        n = len(xs)
        for k in range(n - 1):
            if xs[k] == xs[k + 1] and ys[k] == ys[k + 1]:
                add("repeat", f"consecutive vertices coincide at {c.vertices[k]}", i)
        if c.winding == 1:
            if xs[-1] != xs[0] + scale or ys[-1] != ys[0]:
                want = c.vertices[0].translate(1)
                add("closure", f"period must end at {want}, ends at {c.vertices[-1]}", i)
        elif xs[0] == xs[-1] and ys[0] == ys[-1]:
            add("closure", "closed component must not repeat its first vertex", i)
        for k in range(n):
            if xs[k] % scale == 0 and (2 * ys[k] - scale) % (2 * scale) == 0:
                add("peg", f"vertex {c.vertices[k]} lies on a peg", i)
        # The column table names the peg of a segment through one.
        for k in range(n if c.winding == 0 else n - 1):
            j = (k + 1) % n
            if xs[k] == xs[j] and ys[k] == ys[j]:
                continue  # reported above, as a repeat or as the closure
            try:
                c.segment_columns(k)
            except PointOnLoop as exc:
                add("peg", f"segment {c.vertices[k]}->{c.vertices[j]} passes through peg {exc.peg}", i)

    crossings = []
    if len(wrapping) != 1:
        add("distinguished", f"need exactly one wrapping component, found {len(wrapping)}")
    elif len(d.components[wrapping[0]].vertices) >= 2:  # else reported above
        crossings = seam_crossings(d.components[wrapping[0]])
        if len(crossings) != 1:
            add(
                "seam",
                f"distinguished component crosses the seam {len(crossings)} times, expected once",
                wrapping[0],
            )
        elif crossings[0].y != 0:
            add("seam", f"seam crossing at height {crossings[0].point.y}, expected 0", wrapping[0])

    confined = []  # (closed component, its strip offset)
    for i, c in enumerate(d.components):
        if c.winding != 0:
            continue
        k = _strip_offset(c)
        if k is None:
            add("confined", "closed component must stay strictly inside one vertical strip", i)
        else:
            confined.append((c, k))

    # Half-turn symmetry as a multiset congruence of components, in the
    # diagram's frame.  The half turn keeps the strip around x = 0 and maps
    # the seam crossing to the seam crossing, so a turned cycle is its
    # pairs negated, and the turned period, anchored, is the anchored
    # period turned.
    if not bad:
        scale = math.lcm(2, *(c._frame[0] for c in d.components))
        period = _anchored_period(d.components[wrapping[0]], crossings[0], scale)
        original = [(1, period)]
        rotated = [(1, tuple((-x, -y) for x, y in reversed(period)))]
        for c, k in confined:
            original.append((0, _cycle_key(c, k, scale)))
            rotated.append((0, _cycle_key(c, k, -scale)))
        if sorted(original) != sorted(rotated):
            add("symmetry", "component multiset is not invariant under the half turn about (0, 0)")
    return ValidationReport(tuple(bad))


def _anchored_period(c: Component, crossing: Crossing, scale: int) -> tuple:
    """The vertices of `anchor_at_seam(c)` times `scale`, as int pairs.

    `crossing` is c's one seam crossing, and `scale` an even multiple of
    c's frame scale and of the crossing's denominator.  The crossing lies
    on the seam line x = m + 1/2 of its level m, so the anchoring shift is
    the whole number -(m + 1) of periods.  A crossing inside a segment
    becomes the first vertex, at x = -1/2 and the crossing's height, and
    the last, one period on.
    """
    s, xs, ys = c._frame
    f = scale // s
    n = c.cycle_length()
    shift = -(crossing.m + 1)

    def lift(j: int) -> tuple[int, int]:
        wrap, v = divmod(crossing.i + j, n)
        return xs[v] * f + (wrap + shift) * scale, ys[v] * f

    if not crossing.r:
        return tuple(lift(j) for j in range(n + 1))
    x, y = -scale // 2, crossing.y * (scale // crossing.den)
    return ((x, y), *(lift(j) for j in range(1, n + 1)), (x + scale, y))


def canonicalize(d: CurveDiagram) -> CurveDiagram:
    """Canonical component order and parameterization for emission.

    The wrapping component comes first, anchored at its seam crossing; the
    closed components follow, each moved into the strip around x = 0 and
    sorted by its `_cycle_key` at the lcm of their frame scales.
    """
    gamma0 = anchor_at_seam(d.gamma0())
    closed = [(c, _strip_offset(c) or 0) for c in d.acyclic()]
    scale = math.lcm(*(c._frame[0] for c, _ in closed))
    closed.sort(key=lambda ck: _cycle_key(*ck, scale))
    return CurveDiagram((gamma0, *(c.translate(-k) if k else c for c, k in closed)), d.source)


def anchor_at_seam(c: Component) -> Component:
    """Re-parameterize a wrapping component to start at its seam crossing.

    Scans the period for its seam crossings, which must be exactly one.
    The returned path starts at (-1/2, y0) and ends at (1/2, y0), y0 the
    crossing's height, inserting an explicit vertex at the crossing if it
    falls inside a segment.  Curves are unoriented; the stored direction is
    kept: the stored period runs left to right in net terms (its closure is
    +(1, 0)), so no flip is ever needed.  The path is `_anchored_period`'s,
    read as Fractions.
    """
    if c.winding != 1:
        raise ValueError("only wrapping components have a seam anchor")
    crossings = seam_crossings(c)
    if len(crossings) != 1:
        raise ValueError("component must cross the seam exactly once")
    e = crossings[0]
    scale = math.lcm(2, c._frame[0], e.den)
    period = _anchored_period(c, e, scale)
    return Component(tuple(Point(Fraction(x, scale), Fraction(y, scale)) for x, y in period), 1)


# ---------------------------------------------------------------------------
# Extrema census


class ExtremaCensus(NamedTuple):
    n_plus: dict
    n_minus: dict


def component_extrema(c: Component) -> list[tuple[str, int]]:
    """Strict local y-extrema of one component, with their integer heights.

    A vertex is a local maximum when both cyclic neighbors are strictly
    lower (a cap apex or a wedge apex; both have a horizontal tangent in the
    smooth picture).  Heights are read from the band containing the vertex;
    an extremum exactly on a peg row is ambiguous and raises.  Both are
    read from the component's frame (scale S): `Component.turn` compares
    its integer heights Y, and the band is (2Y + S) // (2S).
    """
    out = []
    n = c.cycle_length()
    if n < 2:
        return out
    scale, _, ys = c._frame
    for i in range(n):
        kind = c.turn(i)
        if kind:
            out.append((kind, height_band(ys[i], scale)))
    return out


def extrema_census(d: CurveDiagram) -> ExtremaCensus:
    n_plus: dict = {}
    n_minus: dict = {}
    for c in d.components:
        for kind, h in component_extrema(c):
            table = n_plus if kind == "max" else n_minus
            table[h] = table.get(h, 0) + 1
    return ExtremaCensus(n_plus, n_minus)


# ---------------------------------------------------------------------------
# tau / epsilon


class NoVerticalCrossing(ValueError):
    """The distinguished component never crosses the peg column transversally:
    it passes the column only along runs of vertices on it."""


def tau_epsilon(d: CurveDiagram) -> tuple[int, int]:
    """Read (tau, epsilon) from the distinguished component.

    Walk left to right from the seam entry at height 0.  tau is the band of
    the first transversal crossing of an integer column
    (`vertical_crossings`: a run along the column is not one).  epsilon is
    +1 when the walk next turns toward decreasing y (a strict local maximum
    comes first), -1 when it turns upward, and 0 for the horizontal line,
    which never turns.

    The walk is read from the stored period itself, from its one seam
    crossing on: its integer-column crossings past the seam in this period,
    then those short of it, one period on.  Turns repeat with the period,
    so one period of vertices after the crossing finds the first.
    """
    g0 = d.gamma0()
    seam = seam_crossings(g0)
    if len(seam) != 1:
        raise ValueError("component must cross the seam exactly once")
    crossings = vertical_crossings(g0, ZERO)
    if not crossings:
        raise NoVerticalCrossing("distinguished component misses the peg column")
    crossing = next((e for e in crossings if seam[0].precedes(e)), crossings[0])
    tau = height_band(crossing.y, crossing.den)
    first = crossing.i + 1
    for i in range(first, first + g0.cycle_length()):
        kind = g0.turn(i)
        if kind:
            return tau, 1 if kind == "max" else -1
    return tau, 0


# ---------------------------------------------------------------------------
# Zoo constructors

# Horizontal excursion of staircase caps.  Kept small so every cap chord is
# steeper than the filling slopes exercised in tests: a wider cap lets a
# steep line clip the corner and leaves a removable bigon.
CAP_X = Fraction(1, 32)


def _staircase_gamma0(exponents: Sequence[int]) -> Component:
    """Distinguished staircase through the given column heights.

    The walk enters at (-1/2, 0), crosses the peg column at each exponent in
    order (alternating directions), and leaves at (1/2, 0).  The first cap
    carries the unique local maximum, the last cap the unique minimum; the
    caps in between descend monotonically, which keeps the curve taut.
    """
    a = [Fraction(e) for e in exponents]
    verts: list[Point] = [pt(Fraction(-1, 2), 0)]
    for k, height in enumerate(a):
        verts.append(Point(ZERO, height))
        if k == len(a) - 1:
            break
        if k == 0:
            apex = Point(CAP_X, a[0] + Fraction(1, 4))
        elif k == len(a) - 2:
            apex = Point(-CAP_X, a[-1] - Fraction(1, 4))
        else:
            side = CAP_X if k % 2 == 0 else -CAP_X
            apex = Point(side, (a[k] + a[k + 1]) / 2)
        verts.append(apex)
    verts.append(pt(HALF, 0))
    return Component(tuple(verts), 1)


def _horizontal_gamma0() -> Component:
    return Component((pt(Fraction(-1, 2), 0), pt(HALF, 0)), 1)


def _bowtie(height: int, width: Fraction, shift: Fraction = ZERO) -> Component:
    """A figure-eight component around the pegs just above and below `height`.

    Drawn as two wedges joined by crossing diagonals; it winds once around
    the upper peg and once, oppositely, around the lower one.  `shift` moves
    the whole component vertically by a small amount so several copies can
    coexist without triple points; shift 0 gives the half-turn-symmetric
    shape whose self-intersection sits on the peg column.
    """
    h = Fraction(height)
    e = width
    base = [
        Point(ZERO, h + Fraction(3, 4)),
        Point(e, h + Fraction(1, 4)),
        Point(-e, h - Fraction(1, 4)),
        Point(ZERO, h - Fraction(3, 4)),
        Point(e, h - Fraction(1, 4)),
        Point(-e, h + Fraction(1, 4)),
    ]
    return Component(tuple(p.translate(0, shift) for p in base), 0)


def staircase_exponents(alexander: dict[int, int]) -> list[int]:
    """Validate a staircase-form polynomial and return its exponents, descending.

    The required shape: symmetric exponents, coefficients alternating +1/-1
    with +1 at both ends (equivalently, an odd number of terms and value 1 at
    t = 1).  Everything else is rejected.
    """
    if not alexander:
        raise BadAlexander("empty polynomial")
    exps = sorted(alexander, reverse=True)
    coeffs = [alexander[e] for e in exps]
    if len(exps) % 2 == 0:
        raise BadAlexander("staircase polynomials have an odd number of terms")
    for i, c in enumerate(coeffs):
        if c != (1 if i % 2 == 0 else -1):
            raise BadAlexander(f"coefficient of t^{exps[i]} must be {1 if i % 2 == 0 else -1}, got {c}")
    for e, e_op in zip(exps, reversed(exps)):
        if e != -e_op:
            raise BadAlexander("exponents must be symmetric about 0")
    return exps


def lspace_staircase(alexander: dict[int, int], name: str = "staircase") -> CurveDiagram:
    exps = staircase_exponents(alexander)
    if len(exps) == 1:
        return CurveDiagram((_horizontal_gamma0(),), name)
    return CurveDiagram((_staircase_gamma0(exps),), name)


def thin(tau: int, fig8_count: int, name: Optional[str] = None) -> CurveDiagram:
    """Thin-knot model: a zigzag distinguished component plus figure-eights.

    The zigzag crosses the column at tau, tau - 1, ..., -tau; the
    figure-eight components sit at height 0, staggered in symmetric pairs
    (and one centered copy when the count is odd).  This constructor is only
    trusted through its behavioral tests: graded dimensions, determinant,
    and symmetry.
    """
    if fig8_count < 0:
        raise BadSpec("figure-eight count must be non-negative")
    if tau == 0:
        g0 = _horizontal_gamma0()
    else:
        step = 1 if tau > 0 else -1
        exps = list(range(tau, -tau - step, -step))
        g0 = _staircase_gamma0(exps)
    comps: list[Component] = [g0]
    placements: list[tuple[Fraction, Fraction]] = []
    if fig8_count % 2 == 1:
        placements.append((ZERO, Fraction(1, 8)))
    for j in range(fig8_count // 2):
        shift = Fraction(1, 16) + Fraction(j, 32)
        width = Fraction(1, 8) + Fraction(j + 1, 64)
        placements.extend([(shift, width), (-shift, width)])
    for shift, width in placements:
        comps.append(_bowtie(0, width, shift))
    return CurveDiagram(tuple(comps), name or f"thin(tau={tau},f={fig8_count})")


_TORUS_POLYS = {
    "trefoil": {1: 1, 0: -1, -1: 1},
    "torus_2_5": {2: 1, 1: -1, 0: 1, -1: -1, -2: 1},
    "torus_3_4": {3: 1, 2: -1, 0: 1, -2: -1, -3: 1},
}


def build_zoo(spec: str) -> CurveDiagram:
    """Construct a named diagram from the built-in zoo."""
    key = spec.strip().lower().replace("-", "_").replace("(", "_").replace(")", "").replace(",", "_")
    if key in ("unknot",):
        return CurveDiagram((_horizontal_gamma0(),), "unknot")
    if key in _TORUS_POLYS:
        return lspace_staircase(_TORUS_POLYS[key], key)
    if key in ("trefoil_mirror", "mirror_trefoil"):
        return lspace_staircase(_TORUS_POLYS["trefoil"], "trefoil").mirror()
    if key in ("figure_eight", "figure_eight_knot", "4_1"):
        d = thin(0, 1)
        return CurveDiagram(d.components, "figure_eight")
    raise BadSpec(f"unknown zoo entry {spec!r}; see zoo_names()")


def zoo_names() -> list[str]:
    return ["unknot", "trefoil", "trefoil_mirror", "torus_2_5", "torus_3_4", "figure_eight"]
