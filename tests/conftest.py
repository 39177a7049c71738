from fractions import Fraction

import pytest
from hypothesis import strategies as st

from pegboard.curves import build_zoo, lspace_staircase, zoo_names
from pegboard.pairing import ArcSweep, IPoint


@pytest.fixture(scope="session")
def zoo():
    return {name: build_zoo(name) for name in zoo_names()}


@pytest.fixture(scope="session")
def staircases(zoo):
    return {k: zoo[k] for k in ("trefoil", "torus_2_5", "torus_3_4")}


def position(x) -> Fraction:
    """The position along its component, segment index i plus the ratio
    r/dg, of a `Crossing` record or of an `IPoint`'s record, as a Fraction."""
    c = x.crossing if isinstance(x, IPoint) else x
    return Fraction(c.i * c.dg + c.r, c.dg)


def kernel_counts(d, slope, reach=12) -> dict:
    """The kernel's own point count at each grading h of the slope with
    |h| <= reach, `len(points(h))`, cancelled grading by grading.  `dims`
    and `total` read each h < 0 from -h on a diagram that passes
    validation, so a symmetry test reads these; their sum must be the
    total, so the window holds every grading with a point."""
    sweep = ArcSweep(d, slope)
    p = slope.p
    counts = {Fraction(t, 2): len(sweep.points(Fraction(t, 2)))
              for t in range(-2 * reach, 2 * reach + 1) if (t - p + 1) % 2 == 0}
    assert sum(counts.values()) == sweep.total(), (d.source, str(slope))
    return counts


@st.composite
def staircase_diagrams(draw):
    """An L-space staircase with one to three distinct upper exponents."""
    upper = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True)), reverse=True)
    exps = upper + [0] + [-e for e in reversed(upper)]
    return lspace_staircase({e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)})
