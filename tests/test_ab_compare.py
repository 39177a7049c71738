"""Smoke test of `tools/ab_compare.py`, the in-process A/B timer.

One pass of the `graded` workload compares the checkout with itself: the
two copies are imported side by side under their own package names, every
command gives both the same exit code and bytes, and the three CPU figures
are printed for both with their ratio.
"""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_compare.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_checkout_against_itself(capsys):
    tool = load_tool()
    assert tool.main([str(ROOT), "--workload", "graded", "--passes", "1", "--pool-seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("workload graded, pool seed 0, 112 commands, 1 passes")
    for line, name in zip(lines[1:4], ("wall_s", "op_ms.p50", "op_ms.p90")):
        assert re.fullmatch(rf"{re.escape(name)}: this \S+ other \S+ ratio \d+\.\d{{4}}", line), line
    assert lines[4:] == ["differing outputs: 0 of 112 commands"]
    # two copies, each under its own name, neither of them `pegboard`
    this, other = sys.modules["pegboard_this.cli"], sys.modules["pegboard_other.cli"]
    assert this is not other and this.__file__ == other.__file__
