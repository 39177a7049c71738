import math
from fractions import Fraction as F

import pytest

from pegboard.pairing import ArcSweep, SlopeSpec, ZeroSurgery, dual_hfk_dims
from pegboard.differentials import (
    GradingOutOfRange,
    census_bounds,
    differential_matrix,
    dually_simple_scan,
    gf2_rank,
    is_lspace_slope,
    spectral_check,
    total_ranks,
)

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
                phi, psi = total_ranks(d, s)
                assert phi == psi, (name, str(s))


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
                phi, psi = total_ranks(d, s)
                if phi == 0 or psi == 0:
                    assert d.acyclic() == [], (name, str(s))
                    from pegboard.pairing import genus_of

                    big = 2 * genus_of(d) + 2
                    assert is_lspace_slope(d, SlopeSpec(big, 1))


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
        assert is_lspace_slope(zoo["unknot"], SlopeSpec(4, 3))
        assert is_lspace_slope(zoo["trefoil"], SlopeSpec(5, 1))
        assert not is_lspace_slope(zoo["figure_eight"], SlopeSpec(1, 1))

    def test_mirror_staircase_simple_slopes_are_below_minus_one(self, zoo):
        entries = dually_simple_scan(zoo["trefoil_mirror"], 3, 2)
        for e in entries:
            assert e.dually_simple == (F(e.slope.p, e.slope.q) < -1), str(e.slope)
            assert not e.theorem_violated
