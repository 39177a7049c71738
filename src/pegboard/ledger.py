"""Integer dimension-sequence arithmetic and 2-torsion certificates.

This module never computes a Floer group.  It consumes dimension sequences
(over C or over the two-element field, with trivial or mu bundle data) as
data, generates the sequences that closed formulas determine, checks the
parity and step constraints the surgery triangles impose, classifies the
shapes of mod-2 sequences, and emits machine-checkable lower bounds on the
amount of 2-torsion.  Every certificate carries a rule id and its recorded
inputs; its bound is that rule's formula on those inputs, written once in the
table that `TorsionCertificate.revalidate` replays.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional


class BadShape(ValueError):
    """W-shape sequences require the valley invariant to be 0."""


class UndefinedAtZero(ValueError):
    """The half-slope dimension formula excludes n = 0 when the valley is 0."""


class VacuousBound(ValueError):
    """A torsion bound was requested from a gap of zero."""


class InconsistentInputs(ValueError):
    """The valley invariant and tau must satisfy nu in {2 tau +- 1} or both 0."""


class ConstraintViolation(ValueError):
    """A sequence pair violates one of the named parity/step rules."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule


class RangeTooSmall(ValueError):
    """The sequence range does not exhibit the eventual unit slopes."""


class ParityViolation(ValueError):
    """Mod-2 and characteristic-0 dimensions must differ by an even amount >= 0."""


class TrivialAlexander(ValueError):
    """Genus-one certificates require a nontrivial symmetric polynomial."""


class EvenDeterminant(ValueError):
    """The alternating-knot group formula needs an odd determinant."""


BUNDLE_TRIVIAL = "trivial"
BUNDLE_MU = "mu"
COEFF_C = "C"
COEFF_F2 = "F2"

#: Machine-readable rule ids attached to certificates and violations.
RULES = {
    "L2.2": "surgery triangle: pairwise differences bounded by the third term",
    "L2.5": "dual-knot sequence is unimodal with unique minimum at twice tau",
    "L2.6": "integer-filling dimension formula (V and W shapes)",
    "L2.7": "half-integer filling dimension formula",
    "L2.8": "valley invariant is 2*tau +- 1 or both invariants vanish",
    "L2.9": "dual-knot dimension exceeds filling dimension by an even amount",
    "L3.5": "positive even gap at an integer filling forces torsion at the half slope",
    "L3.6": "torsion count is non-increasing past the valley",
    "L3.9": "mod-2 sequences with and without bundle twisting agree off even flats",
    "L3.10": "odd step-down against the twisted sequence forces an upward step",
    "L3.11": "odd step-down forces the twisted sequence two above",
    "L3.12": "even twisted step-down forces an upward step",
    "L3.13": "even step-down forces the twisted value one below the left neighbor",
    "P1.4": "dual knot of the unit filling carries torsion",
    "P1.5": "genus-one knots with nontrivial polynomial carry torsion",
    "P1.6": "unknotting-number-one knots carry torsion",
    "P3.16": "mod-2 sequence shapes: V, W, or generalized W",
    "T1.11": "unknotting-number-one dimension bound",
    "T1.4": "dual simplicity forces a simple filling above the genus bound",
}


class LedgerSequence(namedtuple("LedgerSequence", "values bundle coefficient")):
    """A sparse integer sequence with bundle/coefficient tags."""

    __slots__ = ()

    def __new__(cls, values: dict, bundle: str = BUNDLE_TRIVIAL, coefficient: str = COEFF_C):
        values = {int(k): int(v) for k, v in values.items()}
        if bundle not in (BUNDLE_TRIVIAL, BUNDLE_MU):
            raise ValueError(f"unknown bundle {bundle!r}")
        if coefficient not in (COEFF_C, COEFF_F2):
            raise ValueError(f"unknown coefficient {coefficient!r}")
        for n, v in values.items():
            if v < 0:
                raise ValueError(f"dimension at {n} is negative")
        return super().__new__(cls, values, bundle, coefficient)

    def get(self, n: int) -> int:
        return self.values[n]

    def has(self, n: int) -> bool:
        return n in self.values

    def span(self) -> tuple[int, int]:
        ks = sorted(self.values)
        return ks[0], ks[-1]


def sequences_from_csv(text: str) -> dict:
    """Parse 'n,value,bundle,coefficient' rows into sequences keyed by tags."""
    reader = csv.DictReader(io.StringIO(text))
    if not {"n", "value", "bundle", "coefficient"} <= set(reader.fieldnames or ()):
        raise ValueError("csv needs the header n,value,bundle,coefficient")
    grouped: dict = {}
    for row in reader:
        if None in row.values():
            raise ValueError(f"csv line {reader.line_num} has fewer than 4 fields")
        key = (row["bundle"].strip(), row["coefficient"].strip())
        grouped.setdefault(key, {})[int(row["n"])] = int(row["value"])
    return {
        key: LedgerSequence(vals, bundle=key[0], coefficient=key[1])
        for key, vals in grouped.items()
    }


# ---------------------------------------------------------------------------
# Certificates


class TorsionCertificate(namedtuple("TorsionCertificate", "target lower_bound rule inputs")):
    __slots__ = ()

    def __new__(cls, target: str, lower_bound: int, rule: str, inputs: dict):
        if rule not in _RECOMPUTE:
            raise ValueError(f"no certificate rule {rule!r}")
        if lower_bound < 0:
            raise ValueError("torsion bounds are non-negative")
        return super().__new__(cls, target, lower_bound, rule, inputs)

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "lower_bound": self.lower_bound,
            "rule": self.rule,
            "rule_text": RULES[self.rule],
            "inputs": dict(self.inputs),
        }

    @classmethod
    def issue(cls, target: str, rule: str, inputs: dict) -> TorsionCertificate:
        """The certificate whose bound is the rule's formula on the inputs."""
        return cls(target, _RECOMPUTE[rule](inputs), rule, inputs)

    def revalidate(self) -> bool:
        """Recompute the bound from the recorded inputs; must reproduce it."""
        return _RECOMPUTE[self.rule](self.inputs) == self.lower_bound


def _unknotting_bound(inputs: dict) -> int:
    return max(0, (inputs["dim_khi"] - 3) // 2)


#: Each certificate rule's bound as a formula in its recorded inputs, the one
#: place a bound is written: `issue` and `revalidate` both read it.
_RECOMPUTE = {
    "L3.5": lambda inputs: 2 * inputs["k_n"] - 1,
    "P1.4": lambda inputs: 2 * inputs["d_top"] - 1,
    "P1.5": lambda inputs: (
        inputs["middle_dim"] if inputs["tau"] in (1, -1) else inputs["middle_dim"] - 1
    ),
    "P1.6": _unknotting_bound,
    "T1.11": _unknotting_bound,
}


# ---------------------------------------------------------------------------
# Sequence generators (characteristic 0)


def _span_range(span: tuple[int, int]) -> range:
    """The integers from span[0] to span[1]; ValueError when there are none."""
    lo, hi = span
    if lo > hi:
        raise ValueError(f"empty range: start {lo} is past stop {hi}")
    return range(lo, hi + 1)


def dim_seq_C(shape: str, nu_sharp: int, base: int, span: tuple[int, int]) -> LedgerSequence:
    """Integer-filling dimensions from the closed V/W formulas.

    V-shape: value at n is base + |n - nu_sharp| with base the valley value.
    W-shape: nu_sharp must be 0; base is the twisted 0-filling dimension, and
    the sequence is base + |n| away from 0 with a bump base + 2 at 0.
    """
    if base < 1:
        raise ValueError("base dimension must be at least 1")
    ns = _span_range(span)
    if shape == "V":
        vals = {n: base + abs(n - nu_sharp) for n in ns}
    elif shape == "W":
        if nu_sharp != 0:
            raise BadShape("W-shape sequences have valley invariant 0")
        vals = {n: base + 2 if n == 0 else base + abs(n) for n in ns}
    else:
        raise BadShape(f"unknown shape {shape!r}")
    return LedgerSequence(vals, BUNDLE_TRIVIAL, COEFF_C)


def half_dim_C(n: int, nu_sharp: int, dim_n: int) -> int:
    """Dimension at the half slope (2n-1)/2 from the dimension at n."""
    if n == 0 and nu_sharp == 0:
        raise UndefinedAtZero("half-slope formula needs n != 0 or a nonzero valley invariant")
    return 2 * dim_n - 1 if nu_sharp < n else 2 * dim_n + 1


def dgamma_seq(tau: int, min_value: int, span: tuple[int, int]) -> LedgerSequence:
    """Dual-knot dimensions: unimodal with unique minimum at 2*tau.

    Only the minimum's location is forced; its value is an explicit input.
    """
    if min_value < 1:
        raise ValueError("minimum value must be at least 1")
    vals = {n: min_value + abs(n - 2 * tau) for n in _span_range(span)}
    return LedgerSequence(vals, BUNDLE_TRIVIAL, COEFF_C)


def triangle_check(a: int, b: int, c: int) -> bool:
    """Exactness: each dimension is at most the sum of the other two."""
    return abs(a - b) <= c and abs(b - c) <= a and abs(c - a) <= b


# ---------------------------------------------------------------------------
# Torsion bounds


def torsion_bound_half(n: int, k_n: int) -> TorsionCertificate:
    """Torsion at the half slope from a positive dual-vs-filling gap at n."""
    if n == 0:
        raise ValueError("the half-slope bound needs n != 0")
    if k_n < 1:
        raise VacuousBound("gap parameter k_n must be at least 1")
    return TorsionCertificate.issue(f"half-slope filling ({2 * n - 1})/2", "L3.5", {"n": n, "k_n": k_n})


def dual_one_bounds(d_top: int, dim_i1_c: int) -> tuple[int, TorsionCertificate]:
    """Dual knot of the unit filling: graded total and its torsion bound.

    The top summand forces rank d_top in both first differentials, so the
    dual total is at least dim_i1_c + 2*d_top, while the unit filling caps
    the characteristic-0 side; half the guaranteed gap is 2*d_top - 1.
    """
    if d_top < 1:
        raise ValueError("top-grading dimension is at least 1")
    if dim_i1_c < 1:
        raise ValueError("unit-filling dimension is at least 1")
    cert = TorsionCertificate.issue(
        "unit filling with its dual knot", "P1.4", {"d_top": d_top, "dim_i1_c": dim_i1_c}
    )
    return dim_i1_c + 2 * d_top, cert


# ---------------------------------------------------------------------------
# Case analysis for dually simple knots


class ConsequenceVerdict(NamedTuple):
    consistent: bool
    branch: str
    detail: str
    consequences: tuple[str, ...] = ()


def no_torsion_consequence(n: int, shape: str, nu_sharp: int, tau: int) -> ConsequenceVerdict:
    """Replay the case analysis for a torsion-free integer filling at n >= 0.

    Inputs describe the knot's characteristic-0 sequence data; the verdict
    names the admissible branch or the contradiction that rules it out.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not ((shape == "W" and nu_sharp == 0 and tau == 0) or nu_sharp in (2 * tau - 1, 2 * tau + 1)):
        raise InconsistentInputs(
            f"nu_sharp={nu_sharp} and tau={tau} violate the valley/tau relation"
        )
    if shape == "W":
        if n == 0:
            return ConsequenceVerdict(True, "flat-zero", "torsion-free 0-filling on a W-shape is admissible")
        return ConsequenceVerdict(
            False,
            "case-1",
            "W-shape makes the dual total equal the filling dimension at 1, "
            "contradicting the forced gap at the unit filling",
        )
    if shape != "V":
        raise BadShape(f"unknown shape {shape!r}")
    if n == 0:
        return ConsequenceVerdict(
            False,
            "flat-zero",
            "a torsion-free 0-filling on a V-shape propagates to the half slope, "
            "which always carries torsion",
        )
    if nu_sharp > n:
        return ConsequenceVerdict(
            False,
            "case-2",
            "valley right of n forces the dual total to equal the filling dimension at 1",
        )
    if nu_sharp == n:
        side = "n+1" if 2 * tau == nu_sharp + 1 else "n-1"
        return ConsequenceVerdict(
            False,
            "case-3",
            f"valley at n makes the dual sequence two below the filling sequence at {side}, "
            "an impossible negative even gap",
        )
    if 2 * tau == nu_sharp - 1:
        return ConsequenceVerdict(
            False,
            "case-4",
            "dual minimum left of the valley dips two below the filling sequence, "
            "an impossible negative even gap",
        )
    if nu_sharp <= 0:
        return ConsequenceVerdict(
            False,
            "case-5-degenerate",
            "non-positive valley makes the dual total equal the filling dimension at 1",
        )
    return ConsequenceVerdict(
        True,
        "case-5",
        "admissible: dual and filling sequences agree exactly on [valley+1, infinity)",
        consequences=(
            "fibered (top grading is one-dimensional)",
            "V-shaped",
            f"0 < nu_sharp = 2*tau - 1 = {nu_sharp} < n = {n}",
        ),
    )


# ---------------------------------------------------------------------------
# Mod-2 shape classification


class ShapeClass(namedtuple("ShapeClass", "nu_plus nu_minus")):
    __slots__ = ()

    def __new__(cls, nu_plus: int, nu_minus: int):
        gap = nu_plus - nu_minus
        if gap < 3 and gap not in (0, 2):
            raise ValueError("generalized W needs edge invariants more than two apart")
        return super().__new__(cls, nu_plus, nu_minus)

    @property
    def kind(self) -> str:
        """V, W or GeneralizedW: edge invariants 0, 2 or more than 2 apart."""
        return {0: "V", 2: "W"}.get(self.nu_plus - self.nu_minus, "GeneralizedW")

    @property
    def width(self) -> Fraction:
        return Fraction(self.nu_plus - self.nu_minus, 2)


class ShapeReport(NamedTuple):
    shape: ShapeClass
    shape_mu: ShapeClass
    width_0: Fraction
    width_mu: Fraction
    notes: tuple[str, ...]


def _edge_invariant(seq: LedgerSequence, start: int, stop: int) -> int:
    """Walk from start toward stop while each step goes down by one; where the
    walk ends.  From the top of the range this is nu_plus, from the bottom
    nu_minus."""
    step = 1 if stop > start else -1
    n = start
    while n != stop and seq.get(n) == seq.get(n + step) + 1:
        n += step
    return n


def _check_step_rules(d0: LedgerSequence, dmu: LedgerSequence, lo: int, hi: int):
    """All parity and step constraints on the common range, by rule id."""
    for n in range(lo, hi + 1):
        if n % 2 != 0:
            if dmu.get(n) != d0.get(n):
                raise ConstraintViolation("L3.9", f"odd n={n}: twisted and plain values differ")
        else:
            diff = dmu.get(n) - d0.get(n)
            if diff not in (-2, 0, 2):
                raise ConstraintViolation("L3.9", f"even n={n}: twisted gap {diff} not in {{-2,0,2}}")
            if diff != 0 and lo < n < hi and d0.get(n - 1) != d0.get(n + 1):
                raise ConstraintViolation("L3.9", f"even n={n}: twisted gap without flat neighbors")
    for n in range(lo, hi):
        for seq, other in ((d0, dmu), (dmu, d0)):
            if abs(seq.get(n + 1) - seq.get(n)) > 1:
                raise ConstraintViolation("L2.2", f"step from {n} to {n + 1} exceeds 1")
            if abs(seq.get(n + 1) - other.get(n)) > 1:
                raise ConstraintViolation("L2.2", f"mixed step from {n} to {n + 1} exceeds 1")
    for n in range(lo + 1, hi):
        if n % 2 != 0:
            if d0.get(n) == dmu.get(n + 1) + 1 and d0.get(n - 1) != d0.get(n) + 1:
                raise ConstraintViolation("L3.10", f"odd n={n}: forced upward step missing")
            if d0.get(n) == d0.get(n + 1) + 1 and dmu.get(n - 1) != d0.get(n) + 1:
                raise ConstraintViolation("L3.11", f"odd n={n}: twisted value not one above")
        else:
            if dmu.get(n) == d0.get(n + 1) + 1 and d0.get(n - 1) != d0.get(n) + 1:
                raise ConstraintViolation("L3.12", f"even n={n}: forced upward step missing")
    # L3.13 (an even step-down puts the twisted value one below the left
    # neighbour) holds once the checks above pass: with twisted gap 0 it is
    # L3.12, a gap of +2 makes a mixed step of 3 (L2.2), and -2 satisfies it.


def _common_range(a: LedgerSequence, b: LedgerSequence) -> tuple[int, int]:
    """The range from the larger start to the smaller end of the two spans;
    RangeTooSmall when it is empty or either sequence misses a value in it."""
    lo = max(a.span()[0], b.span()[0])
    hi = min(a.span()[1], b.span()[1])
    if lo > hi:
        raise RangeTooSmall("sequences share no common range")
    for n in range(lo, hi + 1):
        if not (a.has(n) and b.has(n)):
            raise RangeTooSmall(f"missing value at n={n}")
    return lo, hi


def f2_shape_classify(d0: LedgerSequence, dmu: LedgerSequence) -> ShapeReport:
    """Classify a mod-2 dimension sequence pair as V, W, or generalized W.

    Both sequences must cover a common contiguous range wide enough to show
    the eventual unit slopes on both sides.  Every applicable constraint is
    checked and a violation carries the broken rule id.  Interior values the
    shape analysis leaves open are reported as notes, never guessed.
    """
    if d0.coefficient != COEFF_F2 or dmu.coefficient != COEFF_F2:
        raise ValueError("shape classification is for mod-2 sequences")
    lo, hi = _common_range(d0, dmu)
    nu_p, nu_m = _edge_invariant(d0, hi, lo), _edge_invariant(d0, lo, hi)
    if nu_p >= hi or nu_m <= lo:
        raise RangeTooSmall("range does not exhibit the eventual unit slopes")
    _check_step_rules(d0, dmu, lo, hi)
    if nu_p == nu_m + 1:
        raise ConstraintViolation("P3.16", "edge invariants can never be exactly one apart")

    notes = []
    if nu_p == nu_m:
        m = nu_p
        for n in range(lo, hi + 1):
            diff = dmu.get(n) - d0.get(n)
            if n != m and diff != 0:
                raise ConstraintViolation("P3.16", f"V shape: twisted gap off the valley at n={n}")
        # The valley's own gap needs no check: L3.9 makes it 0 at an odd
        # valley, and a -2 gap at an even one is a mixed step of 3 (L2.2).
    elif nu_p == nu_m + 2:
        # the twisted sequence dips two at an even middle m, and rises two
        # beside an odd one; it agrees with d0 everywhere else
        m = nu_p - 1
        parity, gaps = ("even", {m: -2}) if m % 2 == 0 else ("odd", {m - 1: 2, m + 1: 2})
        for n in range(lo, hi + 1):
            if dmu.get(n) != d0.get(n) + gaps.get(n, 0):
                raise ConstraintViolation("P3.16", f"W shape ({parity} middle): bad twisted value at n={n}")
    else:
        sign = 2 if nu_p % 2 != 0 else -2
        for n in range(lo, hi + 1):
            if n % 2 == 0 and nu_m <= n <= nu_p:
                if d0.get(n) - dmu.get(n) != sign:
                    raise ConstraintViolation(
                        "P3.16", f"generalized W: even interior gap at n={n} must be {sign}"
                    )
            elif dmu.get(n) != d0.get(n):
                raise ConstraintViolation("P3.16", f"generalized W: unexpected twisted gap at n={n}")
        notes.append(
            "interior zigzag values between the edge invariants are reported as given; "
            "the shape rules do not pin them further"
        )
    shape = ShapeClass(nu_p, nu_m)
    shape_mu = ShapeClass(_edge_invariant(dmu, hi, lo), _edge_invariant(dmu, lo, hi))
    if shape.width != shape_mu.width and abs(shape.width - shape_mu.width) != 1:
        raise ConstraintViolation("P3.16", "widths of the two sequences must agree or differ by 1")
    return ShapeReport(shape, shape_mu, shape.width, shape_mu.width, tuple(notes))


# ---------------------------------------------------------------------------
# Genus one, unknotting number one, quasi-alternating


class GenusOneReport(NamedTuple):
    khi_dims: tuple[int, int, int]
    middle_is_lower_bound: bool
    isharp1_dim: int
    certificate: TorsionCertificate


def genus_one_report(a: int, tau: int, d_top: int) -> GenusOneReport:
    """Certificates for a genus-one knot with polynomial a*t + (1-2a) + a/t.

    The graded dims are (d_top, m, d_top) with m odd, at least |1 - 2a|, and
    at least 3 when tau is 0; m is reported as the minimal consistent value.
    The unit-filling dimension follows from the closed formula, and half the
    guaranteed mod-2 gap gives the torsion bound.
    """
    if tau not in (-1, 0, 1):
        raise ValueError("genus-one tau lies in {-1, 0, 1}")
    if a == 0:
        raise TrivialAlexander("trivial polynomial: no certificate from this route")
    if d_top < 1:
        raise ValueError("top-grading dimension is at least 1")
    if abs(a) > d_top:
        raise InconsistentInputs("top grading cannot be smaller than |a|")
    middle = max(abs(1 - 2 * a), 3 if tau == 0 else 1)
    if middle % 2 == 0:
        middle += 1
    isharp1 = 2 * d_top - 1 if tau == 1 else 2 * d_top + 1
    cert = TorsionCertificate.issue(
        "knot group in the three-sphere",
        "P1.5",
        {"a": a, "tau": tau, "d_top": d_top, "middle_dim": middle},
    )
    return GenusOneReport((d_top, middle, d_top), True, isharp1, cert)


class UnknottingOneReport(NamedTuple):
    isharp_upper: int
    certificate: TorsionCertificate
    note: Optional[str] = None


def unknotting_one_check(dim_khi: int) -> UnknottingOneReport:
    """Bound from unknotting number one: group dimension at most dim + 3."""
    if dim_khi < 1 or dim_khi % 2 == 0:
        raise ValueError("graded total of a knot group is odd and positive")
    note = None if dim_khi > 3 else (
        "dimension at most 3 happens only for the unknot and the trefoil; "
        "no torsion is forced by this route"
    )
    cert = TorsionCertificate.issue("knot group in the three-sphere", "P1.6", {"dim_khi": dim_khi})
    return UnknottingOneReport(dim_khi + 3, cert, note)


class GroupDescriptor(NamedTuple):
    free_rank: int
    two_torsion: int

    def __str__(self):
        if self.two_torsion:
            return f"Z^{self.free_rank} + (Z/2)^{self.two_torsion}"
        return f"Z^{self.free_rank}"


def quasi_alt(determinant: int) -> tuple[GroupDescriptor, GroupDescriptor]:
    """Unreduced and reduced groups of a quasi-alternating knot."""
    if determinant < 1 or determinant % 2 == 0:
        raise EvenDeterminant("knots have odd determinant")
    unreduced = GroupDescriptor(determinant + 1, (determinant - 1) // 2)
    reduced = GroupDescriptor(determinant, 0)
    return unreduced, reduced


# ---------------------------------------------------------------------------
# Slope propagation and monotonicity


class SlopeRegion(NamedTuple):
    empty: bool
    threshold: Optional[int] = None

    def contains(self, slope: Fraction) -> bool:
        return not self.empty and slope >= self.threshold

    def __str__(self):
        if self.empty:
            return "no slopes certified"
        return f"all slopes p/q >= {self.threshold}: dimension |p| over both coefficients, no 2-torsion"


def slope_propagation(n: int, minimal_at_n: bool) -> SlopeRegion:
    """Propagate mod-2 simplicity at an integer slope to everything above it."""
    if n < 1:
        raise ValueError("propagation starts from a positive integer slope")
    if not minimal_at_n:
        return SlopeRegion(empty=True)
    return SlopeRegion(empty=False, threshold=n)


class MonotoneReport(NamedTuple):
    t2: dict
    ok: bool
    first_violation: Optional[int] = None


def t2_monotone_check(seq_c: LedgerSequence, seq_f2: LedgerSequence, nu_sharp: int) -> MonotoneReport:
    """Half-gaps must be non-increasing past the valley invariant."""
    lo, hi = _common_range(seq_c, seq_f2)
    t2 = {}
    for n in range(lo, hi + 1):
        gap = seq_f2.get(n) - seq_c.get(n)
        if gap < 0 or gap % 2 != 0:
            raise ParityViolation(f"gap at n={n} is {gap}; must be even and non-negative")
        t2[n] = gap // 2
    for n in range(max(lo, nu_sharp), hi):
        if t2[n + 1] > t2[n]:
            return MonotoneReport(t2, False, n + 1)
    return MonotoneReport(t2, True)


# ---------------------------------------------------------------------------
# Worked contradiction demo


class PoincareDemo(NamedTuple):
    conditional_value: int
    lower_bound: int
    contradiction: bool
    lines: tuple[str, ...]


def poincare_demo() -> PoincareDemo:
    """Replay the conditional computation that pins the unit filling of the
    right-handed trefoil against its known mod-2 lower bound."""
    chain = []
    dim5 = 5
    chain.append(
        "assume the vanishing argument applied over the two-element field: each "
        "integer filling map in the surgery triangle vanishes"
    )
    chain.append(
        "then dim(1-filling) = dim(2-filling) - 1 = dim(3-filling) - 2 "
        "= dim(4-filling) - 3 = dim(5-filling) - 4"
    )
    chain.append(f"the 5-filling is a lens space: dimension {dim5} over the two-element field")
    conditional = dim5 - 4
    chain.append(f"conditional value: dim(1-filling of the trefoil) = {conditional}")
    lower = 3
    chain.append(f"known lower bound for the same space: {lower}")
    contradiction = conditional < lower
    chain.append(
        "conclusion: the adjunction inequality fails over F2"
        if contradiction
        else "no contradiction"
    )
    return PoincareDemo(conditional, lower, contradiction, tuple(chain))
