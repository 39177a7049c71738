"""Seeded inputs for the pegboard benchmark: the diagram pool and the
operation lists of the three workloads.

Everything here is a pure function of the seed.  The pool is stratified:
the number of diagrams of each kind and size is fixed, and only the
exponents, tau values and slopes inside each stratum are drawn, so the cost
of one pass moves little from seed to seed.  This module does not import
pegboard; ``build_diagram`` receives the curves module from the caller.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("fill", "graded", "scan")
DEFAULT_SEED = 0

# Directory, relative to the checkout root, that receives the curve files.
# Operations name the files by this relative path, so the JSON bytes (which
# echo the knot selector) do not depend on where the checkout lives.
CURVE_DIR = ".perfbench_work/curves"

ZOO = ("unknot", "trefoil", "trefoil_mirror", "torus_2_5", "torus_3_4", "figure_eight")

# Alexander polynomials of the zoo's staircase knots, as descending exponent
# lists with coefficients alternating +1, -1, ..., +1.  The mirror trefoil is
# left out on purpose: its positive slopes are the trefoil's negative ones.
ZOO_STAIRCASES = {
    "unknot": (0,),
    "trefoil": (1, 0, -1),
    "torus_2_5": (2, 1, 0, -1, -2),
    "torus_3_4": (3, 2, 0, -2, -3),
}

# Strata of the generated pool.  A staircase stratum fixes the number of
# terms and the top exponent (the genus); the inner exponents are drawn.  A
# thin stratum fixes the figure-eight count and |tau|; the sign is drawn.
STAIRCASE_STRATA = ((3, 2), (3, 3), (3, 4), (3, 5),
                    (5, 2), (5, 3), (5, 3), (5, 4), (5, 4), (5, 5), (5, 5),
                    (7, 3), (7, 4), (7, 4), (7, 5), (7, 5), (7, 5), (7, 5))
THIN_STRATA = ((2, 1), (3, 0), (3, 2), (4, 1))


@dataclass(frozen=True)
class DiagramSpec:
    """One diagram of the pool: a zoo name, a staircase or a thin model."""

    kind: str  # "zoo", "staircase" or "thin"
    name: str
    exponents: tuple = ()  # staircase: descending Alexander exponents
    tau: int = 0  # thin
    fig8: int = 0  # thin

    @property
    def selector(self) -> str:
        """The knot argument a user would type for this diagram."""
        if self.kind == "zoo":
            return self.name
        return f"{CURVE_DIR}/{self.name}.curve"

    @property
    def staircase(self) -> Optional[tuple]:
        """Alexander exponents when the diagram is a staircase (L-space) knot."""
        if self.kind == "staircase":
            return self.exponents
        return ZOO_STAIRCASES.get(self.name) if self.kind == "zoo" else None

    def describe(self) -> dict:
        out = {"kind": self.kind, "name": self.name}
        if self.kind == "staircase":
            out["exponents"] = list(self.exponents)
        if self.kind == "thin":
            out.update(tau=self.tau, fig8=self.fig8)
        return out


def _int_token(n: int) -> str:
    return f"m{-n}" if n < 0 else str(n)


def staircase_spec(exponents) -> DiagramSpec:
    exps = tuple(exponents)
    return DiagramSpec("staircase", "stair_" + "_".join(_int_token(e) for e in exps), exps)


def thin_spec(tau: int, fig8: int) -> DiagramSpec:
    return DiagramSpec("thin", f"thin_t{_int_token(tau)}_f{fig8}", tau=tau, fig8=fig8)


def draw_staircase(rng: random.Random, length: int, top: int) -> tuple:
    """Symmetric exponents of an odd-length staircase with the given top."""
    inner = sorted(rng.sample(range(1, top), length // 2 - 1), reverse=True)
    upper = [top] + inner
    return tuple(upper) + (0,) + tuple(-e for e in reversed(upper))


def alexander(exponents) -> dict:
    """Coefficients alternating +1, -1, ..., +1 over descending exponents."""
    return {e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exponents)}


def draw_pool(seed: int) -> list[DiagramSpec]:
    """The zoo plus seeded staircases and thin diagrams, in a fixed order."""
    rng = random.Random(f"pool:{seed}")
    pool = [DiagramSpec("zoo", name) for name in ZOO]
    pool += [staircase_spec(draw_staircase(rng, n, top)) for n, top in STAIRCASE_STRATA]
    pool += [thin_spec(rng.choice((1, -1)) * tau, f) for f, tau in THIN_STRATA]
    return pool


def build_diagram(spec: DiagramSpec, curves):
    """Construct the diagram of a generated spec with pegboard's constructors."""
    if spec.kind == "staircase":
        return curves.lspace_staircase(alexander(spec.exponents), spec.name)
    if spec.kind == "thin":
        return curves.thin(spec.tau, spec.fig8, spec.name)
    return curves.build_zoo(spec.name)


# ---------------------------------------------------------------------------
# Operations


@dataclass(frozen=True)
class Op:
    """One CLI command.  ``argv`` is what ``pegboard.cli.main`` receives."""

    label: str
    command: str
    spec: DiagramSpec
    argv: tuple
    slope: Optional[tuple] = None  # (p, q) for pair/hfk/diff
    grid: Optional[tuple] = None  # (pmax, qmax) for scan-simple


def _slope_text(p: int, q: int) -> str:
    return f"{p}/{q}"


def make_op(command: str, spec: DiagramSpec, slope=None, grid=None) -> Op:
    """Build the argv.  Slopes always follow ``--``: argparse would read a
    negative slope such as -7/3 as an unknown option."""
    argv = [command, "--format", "json"]
    label = f"{command} {spec.name}"
    if grid is not None:
        argv += ["--pmax", str(grid[0]), "--qmax", str(grid[1])]
        label += f" {grid[0]}x{grid[1]}"
    argv.append(spec.selector)
    if slope is not None:
        argv += ["--", _slope_text(*slope)]
        label += f" {_slope_text(*slope)}"
    return Op(label, command, spec, tuple(argv), slope, grid)


def _draw_p(rng: random.Random, pmin: int, pmax: int, q: int) -> tuple:
    """A reduced slope p/q with pmin <= p <= pmax and p != 0."""
    choices = [p for p in range(pmin, pmax + 1) if p != 0 and math.gcd(abs(p), q) == 1]
    return rng.choice(choices), q


# Slope bands as (pmin, pmax, q).  Cost grows with |p| and q, so each band
# fixes q and keeps |p| in a narrow range.
# fill: every diagram gets one slope from each band; the few slopes at the
# CLI cap itself are the fixed FILL_STEEP operations.
FILL_BANDS = ((2, 6, 1), (3, 7, 2), (-6, -2, 1), (-7, -3, 2))
FILL_STEEP = (("trefoil", (63, 31)), ("unknot", (63, 31)), ("unknot", (-61, 29)))

# graded: the acceptance grid (1 <= p <= 5, q <= 3), a negative row and wider q.
HFK_BANDS = ((1, 3, 2), (-2, -1, 3), (1, 2, 5), (1, 3, 4))
DIFF_BANDS = ((5, 5, 1), (3, 3, 2), (2, 2, 3))

# scan: small grids on every diagram whose scan exits 0 at this commit (thin
# diagrams do not; see NOTES.md), plus the two 8x4 reference scans and two
# 4x2 scans.
SCAN_GRIDS = ((1, 1), (2, 1), (1, 2), (3, 1))
SCAN_FIXED = (("trefoil", (8, 4)), ("torus_3_4", (8, 4)),
              ("torus_2_5", (4, 2)), ("figure_eight", (4, 2)))


def fill_ops(pool, rng) -> list[Op]:
    ops = [make_op("pair", spec, slope=_draw_p(rng, *band))
           for spec in pool for band in FILL_BANDS]
    by_name = {s.name: s for s in pool}
    ops += [make_op("pair", by_name[name], slope=s) for name, s in FILL_STEEP]
    return ops


def graded_ops(pool, rng) -> list[Op]:
    ops = []
    for i, spec in enumerate(pool):
        ops.append(make_op("invariants", spec))
        ops.append(make_op("hfk", spec, slope=(1, 0)))
        ops.append(make_op("hfk", spec, slope=_draw_p(rng, *HFK_BANDS[i % len(HFK_BANDS)])))
        ops.append(make_op("diff", spec, slope=_draw_p(rng, *DIFF_BANDS[i % len(DIFF_BANDS)])))
    return ops


def scan_ops(pool, rng) -> list[Op]:
    ops = [make_op("scan-simple", spec, grid=g)
           for spec in pool if spec.kind != "thin" for g in SCAN_GRIDS]
    by_name = {s.name: s for s in pool}
    ops += [make_op("scan-simple", by_name[name], grid=g) for name, g in SCAN_FIXED]
    return ops


_BUILDERS = {"fill": fill_ops, "graded": graded_ops, "scan": scan_ops}


def workload_ops(workload: str, seed: int, pool=None) -> list[Op]:
    """The operation list of one pass, shuffled into a seeded order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    pool = draw_pool(seed) if pool is None else pool
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](pool, rng)
    rng.shuffle(ops)
    return ops
