"""Filling dimensions of staircase knots against the closed form.

For a knot whose knot Floer complex is a staircase of genus g (an L-space
knot, such as a positive torus knot) and a slope p/q > 0,

    dim HF^(S^3_{p/q}(K)) = p + 2 * max(0, (2g - 1) * q - p)

(Ozsvath-Szabo, "Knot Floer homology and rational surgeries",
arXiv:math/0504404).  The genus comes from each diagram's own Alexander
polynomial, never from the curve, so the oracle shares no code with the
geometry kernel.  Negative slopes need the torsion coefficients instead and
are not checked here.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegboard.curves import build_zoo, lspace_staircase
from pegboard.pairing import SlopeSpec, surgery_dim


def closed_form_dim(genus: int, p: int, q: int) -> int:
    return p + 2 * max(0, (2 * genus - 1) * q - p)


# zoo staircases and the degree of their Alexander polynomials
ZOO_GENUS = {"unknot": 0, "trefoil": 1, "torus_2_5": 2, "torus_3_4": 3}
POSITIVE_SLOPES = [(p, q) for q in range(1, 5) for p in range(1, 13) if math.gcd(p, q) == 1]


@pytest.mark.parametrize("name", sorted(ZOO_GENUS))
def test_zoo_staircases_match_closed_form(name):
    d = build_zoo(name)
    genus = ZOO_GENUS[name]
    for p, q in POSITIVE_SLOPES + [(63, 31)]:
        assert surgery_dim(d, SlopeSpec(p, q)) == closed_form_dim(genus, p, q), f"{p}/{q}"


@st.composite
def staircase_polynomials(draw):
    upper = sorted(draw(st.lists(st.integers(1, 5), min_size=0, max_size=3, unique=True)), reverse=True)
    exps = upper + [0] + [-e for e in reversed(upper)]
    return {e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)}


@settings(max_examples=40, deadline=None)
@given(staircase_polynomials(), st.sampled_from(POSITIVE_SLOPES))
def test_generated_staircases_match_closed_form(alexander, pq):
    genus = max(alexander)
    assert surgery_dim(lspace_staircase(alexander), SlopeSpec(*pq)) == closed_form_dim(genus, *pq)
