import math
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pegboard.differentials as differentials
from pegboard.curves import CurveDiagram, build_zoo, lspace_staircase, thin, zoo_names
from pegboard.geometry import (
    ONE,
    Box,
    Point,
    Segment,
    _closed_edges,
    cross,
    on_segment,
    pegs_in_box,
    rat,
    winding_number,
)
from pegboard.pairing import (
    ArcLift,
    ArcSweep,
    IPoint,
    SlopeSpec,
    ZeroSurgery,
    dual_hfk_dims,
    genus_of,
    subarc,
    surgery_dim,
    walk_span,
)
from pegboard.differentials import (
    GradingOutOfRange,
    MarkedBigon,
    _corner_and_target_lift,
    census_bounds,
    differential_matrix,
    dually_simple_scan,
    gf2_rank,
)
from test_arc_sweep import grading_range


# The first-page comparison lives with its tests: nothing in the package
# calls it.


@dataclass(frozen=True)
class SpectralReport:
    slope: SlopeSpec
    dual_total: int
    rank_psi: int
    rank_phi: int
    filling_dim: int

    @property
    def first_page_collapse(self) -> int:
        return self.dual_total - 2 * self.rank_psi

    @property
    def ok(self) -> bool:
        return self.first_page_collapse >= self.filling_dim


def spectral_check(d: CurveDiagram, slope: SlopeSpec) -> SpectralReport:
    """One page of cancellation can at most halve the dual total down to the
    filling dimension: total - 2*rank(raising map) >= filling dimension."""
    if slope.is_vertical:
        raise ValueError("spectral comparison needs a finite filling slope")
    if slope.p == 0:
        raise ZeroSurgery("no spectral comparison at the 0-filling")
    work = d
    s = slope
    if slope.p < 0:
        work = d.mirror()
        s = SlopeSpec(-slope.p, slope.q)
    sweep = ArcSweep(work, s)
    dims = sweep.dims()
    phi = sum(differential_matrix(sweep, h, "phi").rank for h in dims)
    psi = sum(differential_matrix(sweep, h, "psi").rank for h in dims)
    return SpectralReport(slope, sum(dims.values()), psi, phi, surgery_dim(work, s))


SLOPES_PQ = [
    SlopeSpec(p, q)
    for p in range(1, 6)
    for q in range(1, 4)
    if math.gcd(p, q) == 1
]


class TestGf2Rank:
    def test_identity(self):
        assert gf2_rank([[1, 0], [0, 1]]) == 2

    def test_dependent_rows(self):
        assert gf2_rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2

    def test_empty(self):
        assert gf2_rank([]) == 0
        assert gf2_rank([[]]) == 0

    def test_mod2_semantics(self):
        assert gf2_rank([[1, 1], [1, 1]]) == 1


class TestDifferentialMatrix:
    def test_unknot_zero_maps(self, zoo):
        for kind in ("phi", "psi"):
            m = differential_matrix(ArcSweep(zoo["unknot"], SlopeSpec(1, 1)), 0, kind)
            assert m.rank == 0
            assert len(m.source_points) == 1
            assert len(m.target_points) == 0

    def test_trefoil_unit_slope_ranks(self, zoo):
        sweep = ArcSweep(zoo["trefoil"], SlopeSpec(1, 1))
        assert differential_matrix(sweep, 1, "phi").rank == 1
        assert differential_matrix(sweep, -1, "psi").rank == 1
        assert differential_matrix(sweep, 1, "psi").rank == 0
        assert differential_matrix(sweep, -1, "phi").rank == 0

    def test_trefoil_large_slope_top_vanishes(self, zoo):
        t = zoo["trefoil"]
        dims = dual_hfk_dims(t, SlopeSpec(5, 1))
        top = max(dims)
        assert differential_matrix(ArcSweep(t, SlopeSpec(5, 1)), top, "phi").rank == 0

    def test_marked_bigons_carry_single_marker(self, zoo):
        m = differential_matrix(ArcSweep(zoo["trefoil"], SlopeSpec(1, 1)), 1, "phi")
        assert m.bigons
        for bg in m.bigons:
            assert (bg.n_z, bg.n_w) == (1, 0)

    def test_bad_grading_rejected(self, zoo):
        with pytest.raises(GradingOutOfRange):
            differential_matrix(ArcSweep(zoo["trefoil"], SlopeSpec(2, 1)), 1, "phi")
        with pytest.raises(ZeroSurgery):
            differential_matrix(ArcSweep(zoo["trefoil"], SlopeSpec(0, 1)), 0, "phi")

    def test_kernel_of_lowering_map_at_top_is_at_most_one(self, zoo):
        # per slope, the top-grading kernel has dimension at most 1
        for name, d in zoo.items():
            for s in (SlopeSpec(1, 1), SlopeSpec(3, 1), SlopeSpec(3, 2)):
                sweep = ArcSweep(d, s)
                dims = sweep.dims()
                top = max(dims)
                m = differential_matrix(sweep, top, "phi")
                assert dims[top] - m.rank <= 1, (name, str(s))


class TestCensusBounds:
    def test_unknot_all_zero(self, zoo):
        cb = census_bounds(zoo["unknot"], SlopeSpec(1, 1))
        assert cb.phi == {} and cb.psi == {}

    def test_trefoil_unit_slope(self, zoo):
        cb = census_bounds(zoo["trefoil"], SlopeSpec(1, 1))
        assert cb.phi == {F(1): 1}
        assert cb.psi == {F(-1): 1}
        assert not cb.exception_applied

    def test_trefoil_past_threshold_discounts_both(self, zoo):
        cb = census_bounds(zoo["trefoil"], SlopeSpec(7, 1))
        assert cb.exception_applied
        assert cb.phi == {} and cb.psi == {}
        assert set(cb.discounted) == {("max", 1), ("min", -1)}

    def test_threshold_is_strict(self, zoo):
        # at slope exactly 2*tau - 1 the discount must stay inactive
        cb = census_bounds(zoo["trefoil"], SlopeSpec(1, 1))
        assert not cb.exception_applied

    def test_figure_eight_bounds_follow_the_closed_component(self, zoo):
        cb = census_bounds(zoo["figure_eight"], SlopeSpec(1, 1))
        assert cb.phi == {F(1): 1}
        assert cb.psi == {F(-1): 1}

    def test_ranks_dominate_bounds(self, zoo):
        for name, d in zoo.items():
            for s in (SlopeSpec(1, 1), SlopeSpec(2, 1), SlopeSpec(3, 2), SlopeSpec(5, 1)):
                cb = census_bounds(d, s)
                sweep = ArcSweep(d, s)
                for h in set(cb.phi) | set(cb.psi):
                    phi = differential_matrix(sweep, h, "phi").rank
                    psi = differential_matrix(sweep, h, "psi").rank
                    assert phi >= cb.phi_bound(h), (name, str(s), h)
                    assert psi >= cb.psi_bound(h), (name, str(s), h)


class TestDuality:
    def test_total_ranks_agree(self, zoo):
        for name, d in zoo.items():
            for s in (SlopeSpec(1, 1), SlopeSpec(2, 1), SlopeSpec(3, 2)):
                sp = spectral_check(d, s)
                assert sp.rank_phi == sp.rank_psi, (name, str(s))


class TestSpectral:
    def test_collapse_inequality_and_equalities(self, zoo):
        t = zoo["trefoil"]
        sp = spectral_check(t, SlopeSpec(1, 1))
        assert sp.first_page_collapse == 1 == sp.filling_dim
        u = spectral_check(zoo["unknot"], SlopeSpec(1, 1))
        assert u.first_page_collapse == 1 == u.filling_dim
        f8 = spectral_check(zoo["figure_eight"], SlopeSpec(1, 1))
        assert f8.ok

    def test_negative_slopes_via_mirror(self, zoo):
        sp = spectral_check(zoo["trefoil"], SlopeSpec(-2, 1))
        assert sp.ok

    def test_vanishing_total_rank_forces_simplicity(self, zoo):
        # whenever one total rank vanishes, the diagram has no closed
        # components and large fillings are simple
        for name, d in zoo.items():
            for s in SLOPES_PQ:
                sp = spectral_check(d, s)
                if sp.rank_phi == 0 or sp.rank_psi == 0:
                    assert d.acyclic() == [], (name, str(s))
                    big = 2 * genus_of(d) + 2
                    assert surgery_dim(d, SlopeSpec(big, 1)) == big


class TestScan:
    def test_unknot_all_slopes_simple(self, zoo):
        entries = [e for e in dually_simple_scan(zoo["unknot"], 3, 2) if e.dually_simple]
        grid = [
            (p, q)
            for q in range(1, 3)
            for p in range(-3, 4)
            if p != 0 and math.gcd(abs(p), q) == 1
        ]
        assert len(entries) == len(grid)
        assert all(not e.theorem_violated for e in entries)

    def test_figure_eight_has_none(self, zoo):
        assert [e for e in dually_simple_scan(zoo["figure_eight"], 4, 2) if e.dually_simple] == []

    def test_trefoil_simple_slopes_are_exactly_above_one(self, zoo):
        entries = dually_simple_scan(zoo["trefoil"], 4, 2)
        for e in entries:
            assert e.dually_simple == (F(e.slope.p, e.slope.q) > 1), str(e.slope)
            assert not e.theorem_violated

    def test_lspace_detection(self, zoo):
        assert surgery_dim(zoo["unknot"], SlopeSpec(4, 3)) == 4
        assert surgery_dim(zoo["trefoil"], SlopeSpec(5, 1)) == 5
        assert surgery_dim(zoo["figure_eight"], SlopeSpec(1, 1)) != 1

    def test_mirror_staircase_simple_slopes_are_below_minus_one(self, zoo):
        entries = dually_simple_scan(zoo["trefoil_mirror"], 3, 2)
        for e in entries:
            assert e.dually_simple == (F(e.slope.p, e.slope.q) < -1), str(e.slope)
            assert not e.theorem_violated


# ---------------------------------------------------------------------------
# The marked bigons before the corner's column count decided the markers
# (reference).  `_marked_bigons` and `winding_near` are verbatim copies; the
# peg check they call is `winding_number` peg by peg, leaving out `skip`.


def first_wound_peg(loop: Sequence[Point], skip: Optional[Point] = None) -> Optional[Point]:
    """The first peg of the loop's box, other than skip, with nonzero winding."""
    for peg in pegs_in_box(Box.around(loop)):
        if peg != skip and winding_number(loop, peg) != 0:
            return peg
    return None


def winding_near(loop: Sequence[Point], base: Point, direction: tuple) -> int:
    """Winding number at base + eps * direction for all small enough eps > 0.

    Used to probe the two sides of a point that lies on the loop (a marker
    next to a shared arc endpoint).  The winding is constant for eps below
    the first parameter at which the probe ray meets an edge not through
    base, and that threshold is computed exactly.
    """
    dx, dy = rat(direction[0]), rat(direction[1])
    if dx == 0 and dy == 0:
        raise ValueError("probe direction must be nonzero")
    eps_cap = ONE
    for a, b in _closed_edges(loop):
        # cross(a, b, base + eps*d) = cross(a, b, base) + eps * c1; solve for 0.
        c0 = cross(a, b, base)
        c1 = (b.x - a.x) * dy - (b.y - a.y) * dx
        if c1 == 0:
            continue
        eps_hit = -c0 / c1
        if eps_hit <= 0:
            continue
        hit = Point(base.x + eps_hit * dx, base.y + eps_hit * dy)
        if on_segment(hit, Segment(a, b)):
            eps_cap = min(eps_cap, eps_hit)
    probe = Point(base.x + (eps_cap / 2) * dx, base.y + (eps_cap / 2) * dy)
    return winding_number(loop, probe)


def _marked_bigons(d: CurveDiagram, arc: ArcLift, x: IPoint, targets: Sequence[IPoint],
                   kind: str) -> list[MarkedBigon]:
    """All marker-compatible bigons from source point x to target points."""
    p, q = arc.slope.p, arc.slope.q
    corner, k_t = _corner_and_target_lift(arc, x.lift, kind)
    c = d.components[x.comp]
    want = (1, 0) if kind == "phi" else (0, 1)
    found = []
    for direction in (1, -1):
        # Targets in walk order; m places each one's lift along the walk.
        spans = sorted(
            ((walk_span(c, x, z, direction), z) for z in targets if z.comp == x.comp and z.pos != x.pos),
            key=lambda e: e[0][0],
        )
        for (_, m), z in spans:
            if z.lift + m != k_t:
                continue
            sub, _ = subarc(c, x, z, direction)
            loop = sub + [corner]
            if loop[-1] == loop[0]:
                loop = loop[:-1]
            if first_wound_peg(loop, skip=corner) is not None:
                continue
            n_z = abs(winding_near(loop, corner, (-p, q)))
            n_w = abs(winding_near(loop, corner, (p, -q)))
            if (n_z, n_w) == want:
                found.append(MarkedBigon(x, z, tuple(loop), n_z, n_w))
    return found


def matrix_outcome(sweep: ArcSweep, h, kind: str):
    """The DiffMatrix, or the type and text of what differential_matrix raised."""
    try:
        return differential_matrix(sweep, h, kind)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def assert_marked_bigons_match(d: CurveDiagram, slope: SlopeSpec) -> int:
    """Both kinds at every grading of one slope must give the reference's
    DiffMatrix: rows, rank, points and bigons in order.  Returns the number
    of bigons found."""
    sweep = ArcSweep(d, slope)
    found = 0
    for h in grading_range(d, slope):
        for kind in ("phi", "psi"):
            got = matrix_outcome(sweep, h, kind)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(differentials, "_marked_bigons", _marked_bigons)
                want = matrix_outcome(sweep, h, kind)
            assert got == want, (d.source, str(slope), h, kind)
            found += len(got.bigons) if isinstance(got, differentials.DiffMatrix) else 0
    return found


DIFF_SLOPES = [
    SlopeSpec(p, q) for q in range(1, 6) for p in range(1, 10) if math.gcd(p, q) == 1
]


@pytest.mark.parametrize("name", zoo_names())
def test_marked_bigons_match_reference_on_zoo(name):
    d = build_zoo(name)
    found = sum(assert_marked_bigons_match(d, slope) for slope in DIFF_SLOPES)
    assert found or name == "unknot"


@pytest.mark.parametrize("tau,fig8", [(1, 1), (-1, 2), (2, 1), (0, 3)])
def test_marked_bigons_match_reference_on_thin_diagrams(tau, fig8):
    assert sum(assert_marked_bigons_match(thin(tau, fig8), slope) for slope in DIFF_SLOPES)


def test_marked_bigons_match_reference_near_the_slope_cap():
    assert_marked_bigons_match(build_zoo("trefoil"), SlopeSpec(63, 31))


@st.composite
def staircase_diagrams(draw):
    upper = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True)), reverse=True)
    exps = upper + [0] + [-e for e in reversed(upper)]
    return lspace_staircase({e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)})


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(staircase_diagrams(), st.builds(thin, st.integers(-3, 3), st.integers(0, 3))),
    st.sampled_from(DIFF_SLOPES),
)
def test_marked_bigons_match_reference_on_generated_diagrams(d, slope):
    assert_marked_bigons_match(d, slope)
