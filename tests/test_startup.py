"""Start-up loads only the layers a command runs, and every record of the
package is a read-only named tuple.

`ledger` and `render` are imported by the commands that use them (`ledger`,
`demo`, `render`), so a pairing, graded or scan command never loads them.
No module imports `dataclasses`, so no command loads it, nor the `inspect`
that it brings; nor does any command load `random`.  The closure is
checked in a fresh interpreter: this process has already imported every
module of the package.  That interpreter runs without `site` (`-S`), whose
start-up hooks may load `random` themselves; the package needs only the
standard library.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pegboard.curves import (
    Component,
    CurveDiagram,
    ExtremaCensus,
    ValidationReport,
    Violation,
    build_zoo,
    extrema_census,
    validate,
)
from pegboard.differentials import (
    CensusBound,
    DiffMatrix,
    ScanEntry,
    census_bounds,
    differential_matrix,
    dually_simple_scan,
)
from pegboard.geometry import Box, Point, Segment, pt
from pegboard.ledger import (
    BUNDLE_MU,
    BUNDLE_TRIVIAL,
    COEFF_C,
    COEFF_F2,
    ConsequenceVerdict,
    GenusOneReport,
    GroupDescriptor,
    LedgerSequence,
    MonotoneReport,
    PoincareDemo,
    ShapeClass,
    ShapeReport,
    SlopeRegion,
    TorsionCertificate,
    UnknottingOneReport,
    dim_seq_C,
    f2_shape_classify,
    genus_one_report,
    no_torsion_consequence,
    poincare_demo,
    quasi_alt,
    slope_propagation,
    t2_monotone_check,
    unknotting_one_check,
)
from pegboard.pairing import ArcLift, ArcSweep, PairingReport, SlopeSpec, surgery_report

SRC = Path(__file__).resolve().parents[1] / "src"

CLOSURE_SCRIPT = """
import contextlib, io, json, sys

before = set(sys.modules)

def loaded():
    return sorted(m for m in sys.modules if m == "pegboard" or m.startswith("pegboard."))

def heavy():
    return sorted({"dataclasses", "inspect", "random"} & (set(sys.modules) - before))

out = {}
import pegboard.cli
out["import"] = loaded()
out["csv"] = "csv" in sys.modules
out["heavy"] = [heavy()]
with contextlib.redirect_stdout(io.StringIO()):
    out["pair"] = pegboard.cli.main(["pair", "trefoil", "--", "3/1"])
    out["scan"] = pegboard.cli.main(["scan-simple", "--pmax", "1", "--qmax", "1", "trefoil"])
    out["after_commands"] = loaded()
    out["heavy"].append(heavy())
    out["demo"] = pegboard.cli.main(["demo", "poincare", "--format", "json"])
    out["after_demo"] = loaded()
    out["heavy"].append(heavy())
    out["render"] = pegboard.cli.main(["render", "trefoil", "--overlay", "3/2"])
out["after_render"] = loaded()
out["heavy"].append(heavy())
print(json.dumps(out))
"""

EAGER = ["pegboard", "pegboard.cli", "pegboard.curves", "pegboard.differentials",
         "pegboard.geometry", "pegboard.pairing", "pegboard.textfmt"]


@functools.cache
def closure() -> dict:
    """What `CLOSURE_SCRIPT` reports from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-S", "-c", CLOSURE_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_closure_leaves_ledger_and_render_to_their_commands():
    out = closure()
    assert out["import"] == EAGER
    assert out["csv"] is False
    assert (out["pair"], out["scan"]) == (0, 0)
    assert out["after_commands"] == EAGER
    assert out["demo"] == 0
    assert "pegboard.ledger" in out["after_demo"]
    assert "pegboard.render" not in out["after_demo"]
    assert out["render"] == 0
    assert "pegboard.render" in out["after_render"]


def test_no_command_loads_dataclasses_or_inspect():
    # nor `random`: none of the three is newly loaded after the import,
    # after `pair` and `scan-simple`, after `demo` and after `render`
    assert closure()["heavy"] == [[], [], [], []]


def _records():
    """(record class, field names in order, defaults, one instance built by
    the code that returns it) for each record of the package."""
    d = build_zoo("trefoil")
    slope = SlopeSpec(2, 1)
    sweep = ArcSweep(d, slope)
    h = max(sweep.dims())
    arc = ArcLift(SlopeSpec(3, 2), 1)
    seq_c = dim_seq_C("V", 1, 1, (-3, 3))
    d0 = LedgerSequence({n: abs(n) if n else 2 for n in range(-6, 7)}, BUNDLE_TRIVIAL, COEFF_F2)
    dmu = LedgerSequence({n: abs(n) for n in range(-6, 7)}, BUNDLE_MU, COEFF_F2)
    shapes = f2_shape_classify(d0, dmu)
    return [
        (Point, ("x", "y"), {}, pt("1/2", -3)),
        (Segment, ("a", "b"), {}, arc.seg()),
        (Box, ("xmin", "xmax", "ymin", "ymax"), {}, d.bbox()),
        (Component, ("vertices", "winding"), {}, d.gamma0()),
        (CurveDiagram, ("components", "source"), {"source": "anonymous"}, d),
        (SlopeSpec, ("p", "q"), {}, SlopeSpec.parse("6/-4")),
        (ArcLift, ("slope", "height"), {}, arc),
        (LedgerSequence, ("values", "bundle", "coefficient"),
         {"bundle": BUNDLE_TRIVIAL, "coefficient": COEFF_C}, seq_c),
        (TorsionCertificate, ("target", "lower_bound", "rule", "inputs"), {},
         unknotting_one_check(9).certificate),
        (ConsequenceVerdict, ("consistent", "branch", "detail", "consequences"),
         {"consequences": ()}, no_torsion_consequence(1, "V", 1, 1)),
        (ShapeClass, ("nu_plus", "nu_minus"), {}, shapes.shape),
        (ShapeReport, ("shape", "shape_mu", "width_0", "width_mu", "notes"), {}, shapes),
        (GenusOneReport, ("khi_dims", "middle_is_lower_bound", "isharp1_dim", "certificate"), {},
         genus_one_report(1, 1, 1)),
        (UnknottingOneReport, ("isharp_upper", "certificate", "note"), {"note": None},
         unknotting_one_check(9)),
        (GroupDescriptor, ("free_rank", "two_torsion"), {}, quasi_alt(3)[0]),
        (SlopeRegion, ("empty", "threshold"), {"threshold": None}, slope_propagation(2, True)),
        (MonotoneReport, ("t2", "ok", "first_violation"), {"first_violation": None},
         t2_monotone_check(seq_c, LedgerSequence(seq_c.values, coefficient=COEFF_F2), 1)),
        (PoincareDemo, ("conditional_value", "lower_bound", "contradiction", "lines"), {},
         poincare_demo()),
        (Violation, ("code", "message", "component"), {"component": None},
         Violation("V1", "a message")),
        (ValidationReport, ("violations",), {}, validate(d)),
        (ExtremaCensus, ("n_plus", "n_minus"), {}, extrema_census(d)),
        (PairingReport, ("slope", "counts", "total", "cancelled", "flags"), {"flags": ()},
         surgery_report(d, SlopeSpec(3, 1))),
        (DiffMatrix, ("kind", "slope", "rows", "rank", "source_points", "target_points", "bigons"),
         {}, differential_matrix(sweep, h, "phi")),
        (CensusBound, ("slope", "phi", "psi", "exception_applied", "discounted"), {},
         census_bounds(d, slope)),
        (ScanEntry, ("slope", "dual_total", "filling_dim", "dually_simple", "lspace",
                     "slope_big_enough"), {}, dually_simple_scan(d, 1, 1)[0]),
    ]


RECORDS = _records()


@pytest.mark.parametrize("cls, fields, defaults, record", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_converted_records_keep_their_interface(cls, fields, defaults, record):
    assert type(record) is cls
    assert cls._fields == fields
    # A record that checks its fields in its own `__new__` subclasses a
    # namedtuple and gives its defaults there, so `_field_defaults` stays
    # empty; the instance built below is what shows them.
    assert cls._field_defaults == (defaults if cls.__base__ is tuple else {})
    assert tuple(getattr(record, name) for name in fields) == tuple(record)
    bare = cls(*record[:len(fields) - len(defaults)])
    assert {name: getattr(bare, name) for name in defaults} == defaults
    # `Component` and `CurveDiagram` keep an instance `__dict__` for their
    # cached tables, so only they take a new attribute.
    kept = () if cls in (Component, CurveDiagram) else ("not_a_field",)
    for name in fields + kept:
        with pytest.raises(AttributeError):
            setattr(record, name, None)

