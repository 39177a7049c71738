from fractions import Fraction

import pytest

from pegboard.curves import build_zoo, zoo_names
from pegboard.pairing import IPoint


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
