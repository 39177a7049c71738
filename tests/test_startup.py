"""Start-up loads only the layers a command runs, and the result records
built once per command are read-only NamedTuples.

`ledger` and `render` are imported by the commands that use them (`ledger`,
`demo`, `render`), so a pairing, graded or scan command never loads them.
The closure is checked in a fresh interpreter: this process has already
imported every module of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pegboard.curves import ExtremaCensus, ValidationReport, Violation, build_zoo, extrema_census, validate
from pegboard.differentials import (
    CensusBound,
    DiffMatrix,
    ScanEntry,
    census_bounds,
    differential_matrix,
    dually_simple_scan,
)
from pegboard.pairing import ArcSweep, PairingReport, SlopeSpec, surgery_report

SRC = Path(__file__).resolve().parents[1] / "src"

CLOSURE_SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "pegboard" or m.startswith("pegboard."))

out = {}
import pegboard.cli
out["import"] = loaded()
out["csv"] = "csv" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    out["pair"] = pegboard.cli.main(["pair", "trefoil", "--", "3/1"])
    out["scan"] = pegboard.cli.main(["scan-simple", "--pmax", "1", "--qmax", "1", "trefoil"])
    out["after_commands"] = loaded()
    out["demo"] = pegboard.cli.main(["demo", "poincare", "--format", "json"])
out["after_demo"] = loaded()
print(json.dumps(out))
"""

EAGER = ["pegboard", "pegboard.cli", "pegboard.curves", "pegboard.differentials",
         "pegboard.geometry", "pegboard.pairing", "pegboard.textfmt"]


def test_import_closure_leaves_ledger_and_render_to_their_commands():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CLOSURE_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["import"] == EAGER
    assert out["csv"] is False
    assert (out["pair"], out["scan"]) == (0, 0)
    assert out["after_commands"] == EAGER
    assert out["demo"] == 0
    assert "pegboard.ledger" in out["after_demo"]
    assert "pegboard.render" not in out["after_demo"]


def _records():
    """(record class, field names in order, defaults, one instance built by
    the code that returns it) for each converted record."""
    d = build_zoo("trefoil")
    slope = SlopeSpec(2, 1)
    sweep = ArcSweep(d, slope)
    h = max(sweep.dims())
    return [
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
    assert cls._field_defaults == defaults
    assert tuple(getattr(record, name) for name in fields) == tuple(record)
    bare = cls(*record[:len(fields) - len(defaults)])
    assert {name: getattr(bare, name) for name in defaults} == defaults
    for name in fields[:1] + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)

