"""First-page differentials, extrema rank bounds, and filling-slope scans.

The graded dual-knot homology carries two first differentials: one raising
the grading by p and one lowering it by p.  On a taut diagram both are
computed by counting bigons against a pair of adjacent arc lifts that share
a peg, with two markers placed on either side of the shared peg; the
lowering map counts bigons covering the left marker once, the raising map
the right one.  Counts are mod 2.

Each strict local extremum of the curve forces rank in one of the maps at a
predictable grading, with a single exception at the extremum carrying the
concordance invariant of the distinguished component once the filling slope
passes 2*tau - 1.  Those census lower bounds, the simple-filling detector,
and the dual-simplicity scan live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import Point, first_wound_peg
from .curves import CurveDiagram, extrema_census, tau_epsilon
from .pairing import (
    ArcLift,
    ArcSweep,
    IPoint,
    SlopeSpec,
    dual_hfk_dims,
    genus_of,
    subarc,
    surgery_dim,
    valid_grading,
    walk_span,
)


class GradingOutOfRange(ValueError):
    """Grading not in Z + (p-1)/2 for the requested slope."""


RULE_RANK_BOUND = "P5.2"
RULE_DUAL_SIMPLE = "T1.4"


@dataclass(frozen=True)
class MarkedBigon:
    source: IPoint
    target: IPoint
    loop: tuple[Point, ...]
    n_z: int
    n_w: int


@dataclass(frozen=True)
class DiffMatrix:
    kind: str  # "phi" or "psi"
    slope: SlopeSpec
    rows: tuple[tuple[int, ...], ...]  # rows indexed by target points
    rank: int
    source_points: tuple[IPoint, ...]
    target_points: tuple[IPoint, ...]
    bigons: tuple[MarkedBigon, ...]


def gf2_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a 0/1 matrix over the two-element field."""
    work = [list(r) for r in rows]
    if not work or not work[0]:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] & 1:
                work[i] = [(a ^ b) & 1 for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _corner_and_target_lift(arc: ArcLift, k_x: int, kind: str) -> tuple[Point, int]:
    """Shared peg and target lift index for one source lift."""
    q = arc.slope.q
    seg = arc.seg()
    if kind == "psi":
        return seg.b.translate(k_x), k_x + q
    return seg.a.translate(k_x), k_x - q


def _marked_bigons(d: CurveDiagram, arc: ArcLift, x: IPoint, targets: Sequence[IPoint],
                   kind: str) -> list[MarkedBigon]:
    """All marker-compatible bigons from source point x to target points.

    The loop crosses the corner's column once, at the corner, rightwards
    for phi and leftwards for psi, so the winding w just above the corner
    decides the markers: (w, w - 1) wants w = 1, (w, w + 1) wants w = 0.
    """
    corner, k_t = _corner_and_target_lift(arc, x.lift, kind)
    c = d.components[x.comp]
    want = (1, 0) if kind == "phi" else (0, 1)
    found = []
    for direction in (1, -1):
        # The targets on the target lift, in walk order; m places each
        # one's lift along the walk.
        spans = []
        for z in targets:
            if z.comp == x.comp and z.pos != x.pos:
                dist, m = walk_span(c, x, z, direction)
                if z.lift + m == k_t:
                    spans.append((dist, z))
        spans.sort(key=lambda e: e[0])
        for _, z in spans:
            loop = subarc(c, x, z, direction)[0] + [corner]
            if first_wound_peg(loop, corner, 1 if kind == "phi" else 0) is None:
                found.append(MarkedBigon(x, z, tuple(loop), *want))
    return found


def differential_matrix(sweep: ArcSweep, h, kind: str) -> DiffMatrix:
    """The grading-h first differential as a mod-2 matrix with its rank.

    The source and target points come from `sweep`, the diagram's arcs of
    the differential's slope.  kind "psi" raises the grading by p (marker
    on the right of the shared peg), kind "phi" lowers it by p (marker on
    the left).  Needs p >= 1 and q >= 1; negative slopes are handled by
    mirroring the diagram, which swaps the two kinds and negates gradings.
    """
    d, slope = sweep.diagram, sweep.slope
    if kind not in ("phi", "psi"):
        raise ValueError("kind must be 'phi' or 'psi'")
    if slope.q < 1 or slope.p < 0:
        raise ValueError("differentials need a slope with p >= 1 and q >= 1")
    h = Fraction(h)
    if not valid_grading(slope.p, h):
        raise GradingOutOfRange(f"grading {h} invalid for slope {slope}")
    src_arc = ArcLift(slope, h)
    tgt_h = h + slope.p if kind == "psi" else h - slope.p
    src_pts = sweep.points(h)
    tgt_pts = sweep.points(tgt_h)
    bigons: list[MarkedBigon] = []
    entries: dict[tuple[int, int], int] = {}
    for j, x in enumerate(src_pts):
        for bg in _marked_bigons(d, src_arc, x, tgt_pts, kind):
            i = tgt_pts.index(bg.target)
            entries[(i, j)] = entries.get((i, j), 0) ^ 1
            bigons.append(bg)
    rows = tuple(
        tuple(entries.get((i, j), 0) for j in range(len(src_pts))) for i in range(len(tgt_pts))
    )
    rank = gf2_rank(rows) if rows and src_pts else 0
    return DiffMatrix(kind, slope, rows, rank, src_pts, tgt_pts, tuple(bigons))


# ---------------------------------------------------------------------------
# Census rank bounds


@dataclass(frozen=True)
class CensusBound:
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

    Every local maximum at height h forces rank in the lowering map at
    grading h + (p-1)/2; every local minimum forces rank in the raising map
    at grading h + (1-p)/2.  When the distinguished component has tau > 0,
    turns down after its first column crossing, and the slope exceeds
    2*tau - 1, the single extremum pair carrying tau is discounted.
    """
    if slope.p < 1 or slope.q < 1:
        raise ValueError("census bounds need a slope with p >= 1 and q >= 1")
    p = slope.p
    census = extrema_census(d)
    phi: dict = {}
    psi: dict = {}
    for h, n in census.n_plus.items():
        g = Fraction(h) + Fraction(p - 1, 2)
        phi[g] = phi.get(g, 0) + n
    for h, n in census.n_minus.items():
        g = Fraction(h) + Fraction(1 - p, 2)
        psi[g] = psi.get(g, 0) + n
    tau, eps = tau_epsilon(d)
    discounted: list[tuple[str, int]] = []
    applies = tau > 0 and eps == 1 and slope.value() > 2 * tau - 1
    if applies:
        g_max = Fraction(tau) + Fraction(p - 1, 2)
        if phi.get(g_max, 0) > 0:
            phi[g_max] -= 1
            discounted.append(("max", tau))
        g_min = Fraction(-tau) + Fraction(1 - p, 2)
        if psi.get(g_min, 0) > 0:
            psi[g_min] -= 1
            discounted.append(("min", -tau))
    phi = {g: n for g, n in phi.items() if n}
    psi = {g: n for g, n in psi.items() if n}
    return CensusBound(slope, phi, psi, applies, tuple(discounted))


# ---------------------------------------------------------------------------
# Simple-filling detection and scans


@dataclass(frozen=True)
class ScanEntry:
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
    by p ascending, the order the CLI prints.
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
            dual = sum(dual_hfk_dims(d, s).values())
            dim = surgery_dim(d, s)
            simple = dual == dim
            entry = ScanEntry(
                s,
                dual,
                dim,
                simple,
                dim == abs(p),
                abs(Fraction(p, q)) > 2 * g - 1,
            )
            out.append(entry)
    return out
