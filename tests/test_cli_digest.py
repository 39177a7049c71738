"""Smoke test of `tools/cli_digest.py`, the CLI bit-identity sweep.

The full sweep (every zoo and thin diagram) stays out of the suite; here it
runs twice on one thin diagram, read from a curve file, and must give the
same digest both times: nothing one command leaves behind changes the
next command's bytes.  A zoo diagram's cases end with its six `render`
calls.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_digest_of_one_diagram_is_stable(capsys):
    tool = load_tool()
    label = tool.thin_label(1, 1)
    per_diagram = len(tool.cases(label))
    digests = []
    for _ in range(2):
        assert tool.main(["--knot", label]) == 0
        digests.append(capsys.readouterr().out)
    assert digests[0] == digests[1]
    # the two `zoo list` cases open every run
    assert digests[0].startswith("sha256 ") and digests[0].endswith(f" cases {per_diagram + 2}\n")
    assert per_diagram == 2 * (53 + 54 + 25 + 2)


def test_a_zoo_diagram_adds_its_renders():
    tool = load_tool()
    drawn = tool.cases("trefoil", drawn=True)
    assert drawn[:-6] == tool.cases("trefoil")
    assert [argv[:2] for argv in drawn[-6:]] == [["render", "trefoil"]] * 6
    assert [" ".join(argv[2:]) for argv in drawn[-6:]] == [
        "", "--overlay 3/2", "--overlay 0/1", "--overlay -7/3",
        "--overlay-arc 1/0@1", "--overlay-arc 3/2@1"]
