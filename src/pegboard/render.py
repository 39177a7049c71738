"""Deterministic SVG rendering of peg-board diagrams.

Pegs are filled circles, components are polylines (the fundamental period
plus one lighter ghost translate for the wrapping component), overlays are
dashed.  Output is byte-stable: element order and coordinate formatting are
fixed functions of the input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .curves import CurveDiagram, canonicalize
from .geometry import Box, Point, pegs_in_box
from .pairing import ArcLift, SlopeSpec, line_family

SCALE = 60


def _fx(v: Fraction) -> str:
    return f"{float(v) * SCALE:.2f}"


def _fy(v: Fraction) -> str:
    return f"{-float(v) * SCALE:.2f}"  # flip so heights increase upward


def _polyline(points: Sequence[Point], color: str, width: str, dashed=False, opacity="1") -> str:
    coords = " ".join(f"{_fx(p.x)},{_fy(p.y)}" for p in points)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{width}" stroke-opacity="{opacity}"{dash}/>'
    )


def _overlay_lines(d: CurveDiagram, slope: SlopeSpec, window: Box) -> list[str]:
    fam = line_family(d, slope)
    out = []
    for k in fam.lift_indices(window):  # line k is the level set fam.form = k
        if fam.b == 0:
            x = (k - fam.c) / fam.a
            ends = [Point(x, window.ymin), Point(x, window.ymax)]
        else:
            ends = [Point(x, (k - fam.c - fam.a * x) / fam.b) for x in (window.xmin, window.xmax)]
        out.append(_polyline(ends, "#c0392b", "1.5", dashed=True))
    return out


def render_svg(d: CurveDiagram, overlay: Optional[SlopeSpec] = None,
               overlay_arc: Optional[ArcLift] = None) -> str:
    canon = canonicalize(d)
    box = canon.bbox().pad(Fraction(3, 4))
    window = Box(box.xmin, box.xmax + 1, min(box.ymin, Fraction(-3, 2)), max(box.ymax, Fraction(3, 2)))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="'
        f'{_fx(window.xmin)} {_fy(window.ymax)} '
        f'{float(window.xmax - window.xmin) * SCALE:.2f} '
        f'{float(window.ymax - window.ymin) * SCALE:.2f}">'
    ]
    parts.append(f'<!-- diagram: {canon.source} -->')
    for peg in pegs_in_box(window):
        parts.append(
            f'<circle cx="{_fx(peg.x)}" cy="{_fy(peg.y)}" r="4" fill="#222222"/>'
        )
    for i, c in enumerate(canon.components):
        color = "#1f77b4" if c.winding == 1 else "#2ca02c"
        pts = list(c.vertices) + ([] if c.winding == 1 else [c.vertices[0]])
        parts.append(_polyline(pts, color, "2.5"))
        if c.winding == 1:
            ghost = [p.translate(1) for p in pts]
            parts.append(_polyline(ghost, color, "2.5", opacity="0.3"))
    if overlay is not None:
        parts.extend(_overlay_lines(canon, overlay, window))
    if overlay_arc is not None:
        base = overlay_arc.seg()
        for k in overlay_arc.lift_indices(window):
            ends = [base.a.translate(k), base.b.translate(k)]
            parts.append(_polyline(ends, "#9467bd", "1.5", dashed=True))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
