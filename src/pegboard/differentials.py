"""First-page differentials, extrema rank bounds, and filling-slope scans.

The graded dual-knot homology carries two first differentials: one raising
the grading by p and one lowering it by p.  On a taut diagram both are
computed by counting bigons against a pair of adjacent arc lifts that share
a peg, with two markers placed on either side of the shared peg; the
lowering map counts bigons covering the left marker once, the raising map
the right one.  Counts are mod 2.

A matrix is one pass over its candidate pairs.  Its grading is read once,
as an integer: the sweep files grading h under the key h - (p - 1)/2,
which `pairing.grading_key` gives, and the target grading h +- p under
that key +- p, so both point sets are read from the sweep by key.  The
target points are grouped once by (component, lift), each group in
position order, so the targets that the walk from a source point meets on
the target lift are read off in walk order: past the source on that lift,
then, after a period end, short of it on the neighbouring lift (the same
lift on a closed component).  A group is small, and each of its crossing
records is compared with the source's by `Crossing.precedes`, the one
order of positions along a component.  Each candidate's marker test is
done in integers, as cancellation's peg test is: one `pairing.walk_columns`
call adds the walk's column crossings from the component's column table
into a signed tally by (column, t) and gives the columns of its two ends,
the closing piece through the corner, crossed arithmetically between those
ends on the arc line, adds its own, and `pairing.winds_only` asks for
winding 0 at every peg and w just above the corner.  The points come from
an `ArcSweep`, which serves validated diagrams only, so no walk reaches a
peg.  The rows, one list per target point, are filled in place, an entry
toggled per bigon, and each found bigon is listed as (source, target,
direction), the walk that certified it; no loop is built.  `gf2_rank`
eliminates on integer bit rows.  A grading with no target point has the
zero map, and no source is visited.

Each local extremum of the pulled-tight curve forces rank in one of the maps
at a predictable grading, with a single exception at the extremum carrying the
concordance invariant of the distinguished component once the filling slope
passes 2*tau - 1.  Those census lower bounds, the simple-filling detector,
and the dual-simplicity scan live here too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .curves import Component, Crossing, CurveDiagram, extrema_census, tau_epsilon
from .pairing import (
    ArcSweep,
    IPoint,
    SlopeSpec,
    genus_of,
    grading_key,
    surgery_dim,
    walk_columns,
    winds_only,
)


RULE_RANK_BOUND = "P5.2"
RULE_DUAL_SIMPLE = "T1.4"


class DiffMatrix(NamedTuple):
    kind: str  # "phi" or "psi"
    slope: SlopeSpec
    rows: tuple[tuple[int, ...], ...]  # rows indexed by target points
    rank: int
    source_points: tuple[IPoint, ...]
    target_points: tuple[IPoint, ...]
    bigons: tuple[tuple[IPoint, IPoint, int], ...]  # (source, target, direction) each


def gf2_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a 0/1 matrix over the two-element field.

    Each row becomes one integer, bit j its entry j mod 2, and the rows
    are reduced against a basis kept with distinct leading bits: a row
    loses the leading bit of each basis row that it holds, so a row left
    nonzero has a new leading bit and joins the basis.
    """
    basis: list[int] = []
    for r in rows:
        bits = 0
        for j, v in enumerate(r):
            if v & 1:
                bits |= 1 << j
        for b in basis:
            bits = min(bits, bits ^ b)
        if bits:
            basis.append(bits)
    return len(basis)


def _walk_order(groups: dict, comp: int, at: Crossing, k: int, direction: int, winding: int) -> list[int]:
    """The targets on lift k that the walk from the source point in
    `direction` meets, in walk order, as indices into the target points.

    The source lies on component `comp` at the crossing `at`, and `groups`
    maps (component, lift) to the (crossing, index) of the targets there,
    in position order.  The walk meets the targets past the source on lift
    k first; on a wrapping component (winding 1) it then passes a period
    end, and the targets short of the source that it reaches lie on lift
    k - direction.  On a closed component both parts are lift k's.
    """
    here = groups.get((comp, k), ())
    there = groups.get((comp, k - direction * winding), ())
    if direction > 0:
        return [i for e, i in here if at.precedes(e)] + [i for e, i in there if e.precedes(at)]
    return ([i for e, i in reversed(here) if e.precedes(at)]
            + [i for e, i in reversed(there) if at.precedes(e)])


def _winds_marked(c: Component, x: IPoint, z: IPoint, direction: int, corner: tuple[int, int],
                  w: int, p: int, q: int) -> bool:
    """Whether the marked bigon's loop from x to z winds every peg 0 times
    but the corner, which it winds w times just above.  x and z come from
    a sweep, whose diagram passed validation, so no walked segment meets a
    peg (the column table would raise `PointOnLoop`).

    The loop walks along c from x in `direction` to z', z's point moved by
    (m, 0) for the m of that walk, and closes through the corner, the peg
    (i, j + 1/2) given as corner = (i, j); no loop is built, and a found
    bigon is recorded by its walk alone.  One `pairing.walk_columns` call
    adds the walk's column crossings, from the column table, into the
    tally and gives the columns of its ends x and z'.  The closing piece
    z' -> corner -> x is one straight segment on the arc line of direction
    (q, p) through the corner, whose only peg is the corner: it crosses
    column i at the corner, which counts for the pegs below it
    (t = j - 1), and every other column k at t = j + floor(p*(k - i)/q),
    each added into the same tally.  All of it is integers.
    """
    tally: dict[tuple[int, int], int] = {}
    x_end, z_end = walk_columns(c, x.crossing, z.crossing, direction, tally)
    i, j = corner
    sign = -1 if z_end < x_end else 1  # the closing piece runs rightwards from z'
    for k in range(min(x_end, z_end), max(x_end, z_end)):
        key = k, j - 1 if k == i else j + p * (k - i) // q
        tally[key] = tally.get(key, 0) + sign
    return winds_only(tally, corner, w)


def differential_matrix(sweep: ArcSweep, h, kind: str) -> DiffMatrix:
    """The grading-h first differential as a mod-2 matrix with its rank.

    The source and target points come from `sweep`, the diagram's arcs of
    the differential's slope.  kind "psi" raises the grading by p (marker
    on the right of the shared peg), kind "phi" lowers it by p (marker on
    the left).  Needs p >= 1 and q >= 1: any other slope raises
    `ValueError`.
    """
    d, slope = sweep.diagram, sweep.slope
    if kind not in ("phi", "psi"):
        raise ValueError("kind must be 'phi' or 'psi'")
    if slope.q < 1 or slope.p < 0:
        raise ValueError("differentials need a slope with p >= 1 and q >= 1")
    key = grading_key(slope, h)
    p, q = slope.p, slope.q
    src_pts = sweep._points(key)
    tgt_pts = sweep._points(key + p if kind == "psi" else key - p)
    if not tgt_pts:  # no target point, no bigon: the zero map
        return DiffMatrix(kind, slope, (), 0, src_pts, tgt_pts, ())
    # The source arc of lift k runs from (k, h - p/2) to (k + q, h + p/2),
    # h = key + (p - 1)/2.  Its corner is the peg (k + dk, row + 1/2) at its
    # end that the target arc, on lift k + step, shares; the winding wanted
    # just above the corner is w.
    if kind == "psi":
        dk, step, w, row = q, q, 0, key + p - 1
    else:
        dk, step, w, row = 0, -q, 1, key - 1
    groups: dict[tuple[int, int], list[tuple[Crossing, int]]] = {}
    for i, z in enumerate(tgt_pts):
        groups.setdefault((z.comp, z.lift), []).append((z.crossing, i))
    bigons: list[tuple[IPoint, IPoint, int]] = []
    rows = [[0] * len(src_pts) for _ in tgt_pts]
    for j, x in enumerate(src_pts):
        c = d.components[x.comp]
        corner = (x.lift + dk, row)
        for direction in (1, -1):
            for i in _walk_order(groups, x.comp, x.crossing, x.lift + step, direction, c.winding):
                z = tgt_pts[i]
                if _winds_marked(c, x, z, direction, corner, w, p, q):
                    rows[i][j] ^= 1
                    bigons.append((x, z, direction))
    rows = tuple(map(tuple, rows))
    rank = gf2_rank(rows) if rows and src_pts else 0
    return DiffMatrix(kind, slope, rows, rank, src_pts, tgt_pts, tuple(bigons))


def differential_ranks(sweep: ArcSweep) -> dict:
    """{h: (phi rank, psi rank)} at each grading of `sweep.dims()`, by
    decreasing grading.  The half turn maps the sweep's diagram, which
    passed validation, onto itself, the grading-h arc of lift k onto the
    grading -h arc of lift -k - q and a left-marked (phi) bigon at h onto a
    right-marked (psi) one at -h: only h >= 0 is built, and (phi_h, psi_h)
    is (psi_-h, phi_-h) below 0."""
    ranks: dict = {}
    for h in sorted(sweep.dims(), reverse=True):
        ranks[h] = ranks[-h][::-1] if h < 0 else tuple(
            differential_matrix(sweep, h, kind).rank for kind in ("phi", "psi"))
    return ranks


# ---------------------------------------------------------------------------
# Census rank bounds


class CensusBound(NamedTuple):
    slope: SlopeSpec
    phi: dict
    psi: dict
    exception_applied: bool
    discounted: tuple[tuple[str, int], ...]

    def phi_bound(self, h) -> int:
        return self.phi.get(Fraction(h), 0)

    def psi_bound(self, h) -> int:
        return self.psi.get(Fraction(h), 0)


def census_bounds(d: CurveDiagram, slope: SlopeSpec) -> CensusBound:
    """Lower bounds for the differential ranks from the extrema census.

    The census, tau and epsilon are read off the pulled-tight curve (each
    component's reduced column word), so every drawing of a knot gets its
    knot's bounds.  Every local maximum at height h forces rank in the
    lowering map at grading h + (p-1)/2; every local minimum forces rank
    in the raising map at grading h + (1-p)/2.  When the distinguished
    component has tau > 0 and epsilon +1 (it climbs to tau's band, so a
    maximum comes next) and the slope exceeds 2*tau - 1, the single
    extremum pair carrying tau is discounted.  The discount is taken from
    the census counts at heights tau and -tau, and then each height is
    mapped to its grading once.
    """
    if slope.p < 1 or slope.q < 1:
        raise ValueError("census bounds need a slope with p >= 1 and q >= 1")
    p = slope.p
    census = extrema_census(d)
    maxima, minima = dict(census.n_plus), dict(census.n_minus)
    tau, eps = tau_epsilon(d)
    discounted: list[tuple[str, int]] = []
    applies = tau > 0 and eps == 1 and slope.p > (2 * tau - 1) * slope.q
    if applies:
        for kind, counts, h in (("max", maxima, tau), ("min", minima, -tau)):
            if counts.get(h):
                counts[h] -= 1
                discounted.append((kind, h))
    phi = {Fraction(2 * h + p - 1, 2): n for h, n in maxima.items() if n}
    psi = {Fraction(2 * h - p + 1, 2): n for h, n in minima.items() if n}
    return CensusBound(slope, phi, psi, applies, tuple(discounted))


# ---------------------------------------------------------------------------
# Simple-filling detection and scans


class ScanEntry(NamedTuple):
    slope: SlopeSpec
    dual_total: int
    filling_dim: int
    dually_simple: bool
    lspace: bool
    slope_big_enough: bool

    @property
    def theorem_violated(self) -> bool:
        """A flagged slope must be a simple filling above the genus bound."""
        return self.dually_simple and not (self.lspace and self.slope_big_enough)

    def verdict(self) -> str:
        if not self.dually_simple:
            return "not dually simple"
        if self.theorem_violated:
            return "THEOREM VIOLATION"
        return "dually simple: simple filling, slope above 2g-1"


def dually_simple_scan(d: CurveDiagram, pmax: int, qmax: int) -> list[ScanEntry]:
    """Compare dual-knot totals with filling dimensions over a slope grid.

    Flags every reduced slope p/q (0 < |p| <= pmax, 1 <= q <= qmax) whose
    dual total equals the filling dimension, and checks the forced
    consequences: the filling is simple and |p/q| > 2g - 1.  Any flagged
    slope failing those is a theorem violation.  Entries come by q, then
    by p ascending, the order the CLI prints.  Each dual total is
    `ArcSweep.total`, the sum of `dual_hfk_dims` read without building its
    grading keys.  The genus is `genus_of`, the top band of the
    components' reduced column words.
    """
    if pmax < 1 or qmax < 1:
        raise ValueError("scan bounds must be at least 1")
    g = genus_of(d)
    out = []
    for q in range(1, qmax + 1):
        for p in range(-pmax, pmax + 1):
            if p == 0 or math.gcd(abs(p), q) != 1:
                continue
            s = SlopeSpec(p, q)
            dual = ArcSweep(d, s).total()
            dim = surgery_dim(d, s)
            simple = dual == dim
            entry = ScanEntry(
                s,
                dual,
                dim,
                simple,
                dim == abs(p),
                abs(p) > (2 * g - 1) * q,
            )
            out.append(entry)
    return out
