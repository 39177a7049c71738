import csv
import io
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegboard.curves import build_zoo, lspace_staircase, tau_epsilon, zoo_names
from pegboard.ledger import (
    BUNDLE_MU,
    BUNDLE_TRIVIAL,
    COEFF_C,
    COEFF_F2,
    BadShape,
    ConstraintViolation,
    EvenDeterminant,
    InconsistentInputs,
    LedgerSequence,
    ParityViolation,
    RULES,
    RangeTooSmall,
    TorsionCertificate,
    TrivialAlexander,
    UndefinedAtZero,
    VacuousBound,
    dgamma_seq,
    dim_seq_C,
    dual_one_bounds,
    f2_shape_classify,
    genus_one_report,
    half_dim_C,
    no_torsion_consequence,
    poincare_demo,
    quasi_alt,
    sequences_from_csv,
    slope_propagation,
    t2_monotone_check,
    torsion_bound_half,
    triangle_check,
    unknotting_one_check,
)
from pegboard.pairing import SlopeSpec, dual_hfk_dims, surgery_dim


def mirror_sequence(seq: LedgerSequence) -> LedgerSequence:
    """Index negation, realizing the mirror knot's sequence."""
    return LedgerSequence(
        {-n: v for n, v in seq.values.items()}, seq.bundle, seq.coefficient
    )


def sequence_to_csv(seqs) -> str:
    """The CSV text `sequences_from_csv` reads: one row per (n, value)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["n", "value", "bundle", "coefficient"])
    for seq in seqs:
        for n in sorted(seq.values):
            writer.writerow([n, seq.values[n], seq.bundle, seq.coefficient])
    return out.getvalue()


def unknot_f2_pair(lo=-6, hi=6):
    d0 = LedgerSequence({n: (abs(n) if n else 2) for n in range(lo, hi + 1)},
                        BUNDLE_TRIVIAL, COEFF_F2)
    dmu = LedgerSequence({n: (abs(n) if n else 0) for n in range(lo, hi + 1)},
                         BUNDLE_MU, COEFF_F2)
    return d0, dmu


class TestSequencesAndFormulas:
    def test_dim_seq_V(self):
        seq = dim_seq_C("V", 2, 3, (-4, 6))
        assert seq.get(5) == 6
        assert seq.get(2) == 3

    def test_dim_seq_W(self):
        seq = dim_seq_C("W", 0, 4, (-3, 3))
        assert seq.get(0) == 6
        assert seq.get(3) == seq.get(-3) == 7

    def test_dim_seq_W_needs_zero_valley(self):
        with pytest.raises(BadShape):
            dim_seq_C("W", 1, 3, (-2, 2))

    @given(st.sampled_from(["V", "W"]), st.integers(-4, 4), st.integers(1, 5))
    @settings(max_examples=60)
    def test_consecutive_triples_are_exact(self, shape, nu, base):
        if shape == "W":
            nu = 0
        seq = dim_seq_C(shape, nu, base, (-8, 8))
        for n in range(-8, 7):
            assert triangle_check(seq.get(n), seq.get(n + 1), 1)

    def test_half_dim(self):
        assert half_dim_C(1, 0, 1) == 1
        assert half_dim_C(1, 1, 3) == 7
        with pytest.raises(UndefinedAtZero):
            half_dim_C(0, 0, 4)
        assert half_dim_C(0, 2, 4) == 9

    def test_dgamma(self):
        assert dgamma_seq(0, 1, (-3, 3)).get(2) == 3
        assert dgamma_seq(1, 1, (-3, 3)).get(2) == 1
        assert dgamma_seq(1, 1, (-3, 3)).get(-1) == 4

    def test_empty_span_names_the_range(self):
        for make in (lambda span: dim_seq_C("V", 0, 1, span), lambda span: dgamma_seq(1, 1, span)):
            with pytest.raises(ValueError, match="start 3 is past stop 1"):
                make((3, 1))
            assert list(make((3, 3)).values) == [3]

    def test_dual_gap_is_even_and_nonnegative_in_consistent_setup(self):
        # valley one left of twice tau, sequences glued at the valley edge
        for tau in (1, 2, 3):
            nu = 2 * tau - 1
            base = 2
            filling = dim_seq_C("V", nu, base, (-6, 6))
            dual = dgamma_seq(tau, base + 1, (-6, 6))
            for n in range(-6, 7):
                gap = dual.get(n) - filling.get(n)
                assert gap >= 0 and gap % 2 == 0

    def test_triangle_check(self):
        assert triangle_check(3, 4, 1)
        assert not triangle_check(1, 5, 2)
        for n in range(0, 7):
            assert triangle_check(n, n + 1, 1)


class TestCertificates:
    def test_torsion_bound_half_values(self):
        assert torsion_bound_half(1, 1).lower_bound == 1
        assert torsion_bound_half(1, 3).lower_bound == 5
        with pytest.raises(VacuousBound):
            torsion_bound_half(1, 0)

    def test_dual_one_bounds(self):
        lower, cert = dual_one_bounds(1, 1)
        assert (lower, cert.lower_bound) == (3, 1)
        lower, cert = dual_one_bounds(2, 5)
        assert (lower, cert.lower_bound) == (9, 3)
        with pytest.raises(ValueError):
            dual_one_bounds(0, 1)

    def test_every_positive_certificate_revalidates(self):
        certs = [
            torsion_bound_half(2, 2),
            dual_one_bounds(3, 4)[1],
            genus_one_report(1, 1, 1).certificate,
            genus_one_report(1, 0, 2).certificate,
            unknotting_one_check(9).certificate,
        ]
        for cert in certs:
            assert cert.revalidate(), cert

    def test_certificates_only_for_rules_they_can_revalidate(self):
        # A certificate must be replayable: ids that only name a constraint
        # (or nothing) are refused at construction.
        for rule in ("PA.2", "TB.2", "T1.4", "P3.16", "L2.2", "XX.0"):
            with pytest.raises(ValueError):
                TorsionCertificate("t", 1, rule, {})
        assert "PA.2" not in RULES and "TB.2" not in RULES
        cert = TorsionCertificate("t", 0, "T1.11", {"dim_khi": 3})
        assert cert.revalidate() and cert.to_json()["rule_text"] == RULES["T1.11"]

    # The closed forms below are written out here, not read from the rule
    # table: revalidate() replays the table, so it cannot catch a wrong
    # formula in it.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(-20, 20).filter(bool), st.integers(1, 30))
    def test_half_slope_bound_is_twice_the_gap_less_one(self, n, k):
        cert = torsion_bound_half(n, k)
        assert (cert.lower_bound, cert.rule) == (2 * k - 1, "L3.5")
        assert cert.revalidate()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30))
    def test_unit_filling_bounds_in_closed_form(self, d_top, dim1):
        lower, cert = dual_one_bounds(d_top, dim1)
        assert lower == dim1 + 2 * d_top
        assert (cert.lower_bound, cert.rule) == (2 * d_top - 1, "P1.4")
        assert cert.revalidate()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-12, 12).filter(bool), st.sampled_from((-1, 0, 1)), st.integers(0, 12))
    def test_genus_one_bounds_in_closed_form(self, a, tau, extra):
        d_top = abs(a) + extra
        rep = genus_one_report(a, tau, d_top)
        # |1 - 2a| is odd, so the middle dimension needs no parity bump
        middle = max(abs(1 - 2 * a), 3 if tau == 0 else 1)
        assert rep.khi_dims == (d_top, middle, d_top)
        assert rep.isharp1_dim == (2 * d_top - 1 if tau == 1 else 2 * d_top + 1)
        want = middle - 1 if tau == 0 else middle
        assert (rep.certificate.lower_bound, rep.certificate.rule) == (want, "P1.5")
        assert rep.certificate.revalidate()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40))
    def test_unknotting_one_bound_in_closed_form(self, half):
        dim = 2 * half + 1
        rep = unknotting_one_check(dim)
        assert rep.isharp_upper == dim + 3
        want = half - 1 if dim >= 5 else 0
        assert (rep.certificate.lower_bound, rep.certificate.rule) == (want, "P1.6")
        assert rep.certificate.revalidate()

    def test_certificate_json_round_trip(self):
        cert = torsion_bound_half(3, 2)
        blob = cert.to_json()
        assert blob["rule"] == "L3.5"
        assert blob["lower_bound"] == 3
        assert blob["inputs"] == {"n": 3, "k_n": 2}


class TestGenusOne:
    def test_trefoil_like(self):
        rep = genus_one_report(1, 1, 1)
        assert rep.khi_dims == (1, 1, 1)
        assert rep.isharp1_dim == 1
        assert rep.certificate.lower_bound == 1

    def test_zero_tau_forces_middle_three(self):
        rep = genus_one_report(1, 0, 1)
        assert rep.khi_dims == (1, 3, 1)
        assert rep.certificate.lower_bound == 2

    def test_negative_tau(self):
        rep = genus_one_report(-1, -1, 1)
        assert rep.isharp1_dim == 3
        assert rep.certificate.lower_bound >= 1

    def test_trivial_polynomial_rejected(self):
        with pytest.raises(TrivialAlexander):
            genus_one_report(0, 0, 1)

    def test_top_cannot_undershoot_coefficient(self):
        with pytest.raises(InconsistentInputs):
            genus_one_report(3, 1, 1)


class TestUnknottingAndQuasiAlt:
    def test_unknotting_values(self):
        assert unknotting_one_check(5).isharp_upper == 8
        assert unknotting_one_check(5).certificate.lower_bound == 1
        small = unknotting_one_check(3)
        assert small.isharp_upper == 6
        assert small.certificate.lower_bound == 0
        assert small.note is not None
        assert unknotting_one_check(11).certificate.lower_bound == 4

    def test_even_dims_rejected(self):
        with pytest.raises(ValueError):
            unknotting_one_check(4)

    def test_quasi_alt(self):
        unreduced, reduced = quasi_alt(3)
        assert str(unreduced) == "Z^4 + (Z/2)^1"
        assert str(reduced) == "Z^3"
        assert str(quasi_alt(1)[0]) == "Z^2"
        assert quasi_alt(5)[0].two_torsion == 2
        with pytest.raises(EvenDeterminant):
            quasi_alt(4)


class TestNoTorsionConsequence:
    def test_case3_contradiction(self):
        verdict = no_torsion_consequence(1, "V", 1, 1)
        assert not verdict.consistent and verdict.branch == "case-3"

    def test_case5_consistent(self):
        verdict = no_torsion_consequence(3, "V", 1, 1)
        assert verdict.consistent and verdict.branch == "case-5"
        assert any("fibered" in c for c in verdict.consequences)

    def test_W_shape_contradiction(self):
        verdict = no_torsion_consequence(2, "W", 0, 0)
        assert not verdict.consistent and verdict.branch == "case-1"

    def test_case2_and_case4(self):
        assert no_torsion_consequence(1, "V", 3, 1).branch == "case-2"
        assert no_torsion_consequence(5, "V", 3, 1).branch == "case-4"

    def test_inconsistent_inputs(self):
        with pytest.raises(InconsistentInputs):
            no_torsion_consequence(2, "V", 2, 1)


class TestShapeClassification:
    def test_unknot_fixture_is_W(self):
        d0, dmu = unknot_f2_pair()
        rep = f2_shape_classify(d0, dmu)
        assert rep.shape.kind == "W"
        assert (rep.shape.nu_plus, rep.shape.nu_minus) == (1, -1)
        assert rep.width_0 == 1
        assert rep.width_mu == 0

    def test_pure_V_fixture(self):
        vals = {n: 1 + abs(n - 1) for n in range(-4, 6)}
        d0 = LedgerSequence(vals, BUNDLE_TRIVIAL, COEFF_F2)
        dmu = LedgerSequence(vals, BUNDLE_MU, COEFF_F2)
        rep = f2_shape_classify(d0, dmu)
        assert rep.shape.kind == "V"
        assert rep.shape.nu_plus == rep.shape.nu_minus == 1
        assert rep.width_0 == 0

    def test_generalized_W_fixture(self):
        # valley plateau of width 3 on each side, zigzag between
        d0_vals = {}
        for n in range(-7, 8):
            if n <= -3:
                d0_vals[n] = 1 + (-3 - n)
            elif n >= 3:
                d0_vals[n] = 1 + (n - 3)
            else:
                d0_vals[n] = 1 if n % 2 != 0 else 2
        dmu_vals = {n: (v - 2 if (n % 2 == 0 and -3 <= n <= 3) else v) for n, v in d0_vals.items()}
        d0 = LedgerSequence(d0_vals, BUNDLE_TRIVIAL, COEFF_F2)
        dmu = LedgerSequence(dmu_vals, BUNDLE_MU, COEFF_F2)
        rep = f2_shape_classify(d0, dmu)
        assert rep.shape.kind == "GeneralizedW"
        assert (rep.shape.nu_plus, rep.shape.nu_minus) == (3, -3)
        assert rep.width_0 == 3

    def test_odd_disagreement_violates(self):
        d0, dmu = unknot_f2_pair()
        bad = dict(dmu.values)
        bad[1] += 2
        with pytest.raises(ConstraintViolation) as err:
            f2_shape_classify(d0, LedgerSequence(bad, BUNDLE_MU, COEFF_F2))
        assert err.value.rule == "L3.9"

    def test_mirror_symmetry_negates_and_swaps(self):
        d0, dmu = unknot_f2_pair()
        rep = f2_shape_classify(d0, dmu)
        rep_m = f2_shape_classify(mirror_sequence(d0), mirror_sequence(dmu))
        assert rep_m.shape.nu_plus == -rep.shape.nu_minus
        assert rep_m.shape.nu_minus == -rep.shape.nu_plus

    def test_range_too_small(self):
        d0 = LedgerSequence({0: 1, 1: 2}, BUNDLE_TRIVIAL, COEFF_F2)
        dmu = LedgerSequence({0: 1, 1: 2}, BUNDLE_MU, COEFF_F2)
        with pytest.raises(RangeTooSmall):
            f2_shape_classify(d0, dmu)

    def test_never_one_apart(self):
        # a sequence whose stable slopes would sit one apart is rejected
        vals = {-3: 4, -2: 3, -1: 2, 0: 2, 1: 2, 2: 3, 3: 4}
        # nu_plus = 1, nu_minus = -1 here is two apart; build a true one-apart:
        vals = {-3: 3, -2: 2, -1: 1, 0: 1, 1: 2, 2: 3}
        d0 = LedgerSequence(vals, BUNDLE_TRIVIAL, COEFF_F2)
        dmu = LedgerSequence(vals, BUNDLE_MU, COEFF_F2)
        with pytest.raises(ConstraintViolation) as err:
            f2_shape_classify(d0, dmu)
        assert err.value.rule == "P3.16"


class TestMonotoneAndCsv:
    def test_equal_sequences_pass(self):
        c = LedgerSequence({n: 2 for n in range(0, 5)}, BUNDLE_TRIVIAL, COEFF_C)
        f = LedgerSequence({n: 2 for n in range(0, 5)}, BUNDLE_TRIVIAL, COEFF_F2)
        rep = t2_monotone_check(c, f, 0)
        assert rep.ok and all(v == 0 for v in rep.t2.values())

    def test_constant_shift_passes(self):
        c = LedgerSequence({n: 2 for n in range(0, 5)}, BUNDLE_TRIVIAL, COEFF_C)
        f = LedgerSequence({n: 4 for n in range(0, 5)}, BUNDLE_TRIVIAL, COEFF_F2)
        rep = t2_monotone_check(c, f, 0)
        assert rep.ok and all(v == 1 for v in rep.t2.values())

    def test_increase_past_valley_reported(self):
        c = LedgerSequence({0: 1, 1: 2, 2: 3}, BUNDLE_TRIVIAL, COEFF_C)
        f = LedgerSequence({0: 1, 1: 2, 2: 5}, BUNDLE_TRIVIAL, COEFF_F2)
        rep = t2_monotone_check(c, f, 0)
        assert not rep.ok and rep.first_violation == 2

    def test_parity_violation(self):
        c = LedgerSequence({0: 1}, BUNDLE_TRIVIAL, COEFF_C)
        f = LedgerSequence({0: 2}, BUNDLE_TRIVIAL, COEFF_F2)
        with pytest.raises(ParityViolation):
            t2_monotone_check(c, f, 0)

    @pytest.mark.parametrize("f_values,message", [
        ({0: 1, 2: 3}, "missing value at n=1"),
        ({5: 1, 6: 1}, "sequences share no common range"),
    ], ids=["gap", "disjoint"])
    def test_range_checked_as_shape_classification_checks_it(self, f_values, message):
        c = LedgerSequence({0: 1, 1: 2, 2: 3}, BUNDLE_TRIVIAL, COEFF_C)
        f = LedgerSequence(f_values, BUNDLE_TRIVIAL, COEFF_F2)
        with pytest.raises(RangeTooSmall, match=message):
            t2_monotone_check(c, f, 0)

    def test_csv_without_a_tag_column_names_the_header(self):
        with pytest.raises(ValueError, match="n,value,bundle,coefficient"):
            sequences_from_csv("n,value,coefficient\n0,1,F2\n")

    def test_csv_short_row_names_its_line(self):
        with pytest.raises(ValueError, match="csv line 3 has fewer than 4 fields"):
            sequences_from_csv("n,value,bundle,coefficient\n0,1,trivial,F2\n1,2\n")

    def test_csv_round_trip(self):
        d0, dmu = unknot_f2_pair(-2, 2)
        text = sequence_to_csv([d0, dmu])
        back = sequences_from_csv(text)
        assert back[(BUNDLE_TRIVIAL, COEFF_F2)].values == d0.values
        assert back[(BUNDLE_MU, COEFF_F2)].values == dmu.values


class TestDemoAndPropagation:
    def test_poincare_demo_values(self):
        demo = poincare_demo()
        assert demo.conditional_value == 1
        assert demo.lower_bound == 3
        assert demo.contradiction
        assert any("adjunction inequality fails over F2" in line for line in demo.lines)

    def test_slope_propagation(self):
        region = slope_propagation(5, True)
        assert region.contains(F(5)) and region.contains(F(11, 2))
        assert not region.contains(F(9, 2))
        assert slope_propagation(3, False).empty


# ---------------------------------------------------------------------------
# The ledger checks the kernel: its closed forms, fed pegboard's own counts.
# The zoo and L-space staircases (upper exponents below) with their mirrors;
# thin diagrams are left out while their multi-component counts are wrong.

KERNEL_STAIRCASES = [(1,), (2,), (3, 1), (4, 2), (5, 2), (4, 3), (5, 3, 1), (5, 4, 2), (3, 2, 1)]


def _staircase(upper):
    exps = list(upper) + [0] + [-e for e in reversed(upper)]
    return lspace_staircase({e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)},
                            f"staircase{upper}")


KERNEL_DIAGRAMS = [build_zoo(name) for name in zoo_names()] + [
    d for upper in KERNEL_STAIRCASES for d in (_staircase(upper), _staircase(upper).mirror())
]


@pytest.mark.parametrize("d", KERNEL_DIAGRAMS, ids=lambda d: d.source)
def test_ledger_formulas_fit_the_kernel_counts(d):
    tau, _ = tau_epsilon(d)
    nu_sharp = 2 * tau - 1 if tau > 0 else (2 * tau + 1 if tau < 0 else 0)
    span = (min(-6, 2 * tau - 3), max(7, 2 * tau + 3))
    ns = range(span[0], span[1] + 1)
    dims = LedgerSequence({n: surgery_dim(d, SlopeSpec(n, 1)) for n in ns}, BUNDLE_TRIVIAL, COEFF_C)
    # L2.6 and L2.8: the integer fillings are V-shaped with valley at
    # nu_sharp.  The unknot's valley value, 0 at the 0-filling, is below
    # the formula's base of 1.
    if d.source != "unknot":
        assert dim_seq_C("V", nu_sharp, dims.get(nu_sharp), span).values == dims.values
    # L2.7: the half-integer fillings follow from the integer ones.
    for n in ns:
        if n or nu_sharp:
            half = surgery_dim(d, SlopeSpec(2 * n - 1, 2))
            assert half_dim_C(n, nu_sharp, dims.get(n)) == half, n
    # The 0-filling's dual knot has no grading, so the dual totals skip n = 0.
    totals = LedgerSequence({n: sum(dual_hfk_dims(d, SlopeSpec(n, 1)).values()) for n in ns if n},
                            BUNDLE_TRIVIAL, COEFF_C)
    # L2.9: each dual total exceeds its filling dimension by an even amount.
    for n, total in totals.values.items():
        assert total >= dims.get(n) and (total - dims.get(n)) % 2 == 0, n
    # L2.5: the dual totals are unimodal with their unique minimum at 2*tau,
    # which n = 0 hides for tau = 0.
    if tau:
        low = min(totals.values.values())
        assert [n for n, v in totals.values.items() if v == low] == [2 * tau]
        assert all(dgamma_seq(tau, low, span).get(n) == v for n, v in totals.values.items())
