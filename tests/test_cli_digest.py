"""Smoke test of `tools/cli_digest.py`, the CLI bit-identity sweep.

The full sweep (every zoo and thin diagram) stays out of the suite; here it
runs twice on one thin diagram, read from a curve file, and must give the
same digest both times: nothing one command leaves behind changes the
next command's bytes.  The whole grid holds 8,678 cases: the zoo, the thin
diagrams and the six curve files in `tools/curves`.  The zoo's part of the sweep is pinned to its
digest, so a change to any zoo case's bytes fails the suite; a deliberate
output change updates `ZOO_SHA256` and says so in CHANGES.md.  A zoo diagram's cases end with its six `render`
calls.  A per-case file written with `--cases` matches its own run under
`--against`, and a case whose saved hash was changed is listed.
"""

import json

import importlib.util
from pathlib import Path

from pegboard.curves import zoo_names

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
# `cli_digest.digest(zoo_names())`: 1,658 cases on the six zoo diagrams.
ZOO_SHA256 = "679e2f935780a6dd31d1e2a3d79ae35aca7f1c10c1ca0918e88c1cdda8696745"


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
    assert per_diagram == 2 * (53 + 54 + 26 + 2)


def test_a_zoo_diagram_adds_its_renders():
    tool = load_tool()
    drawn = tool.cases("trefoil", drawn=True)
    assert drawn[:-6] == tool.cases("trefoil")
    assert [argv[:2] for argv in drawn[-6:]] == [["render", "trefoil"]] * 6
    assert [" ".join(argv[2:]) for argv in drawn[-6:]] == [
        "", "--overlay 3/2", "--overlay 0/1", "--overlay -7/3",
        "--overlay-arc 1/0@1", "--overlay-arc 3/2@1"]


def test_against_lists_the_cases_that_differ(capsys, tmp_path):
    tool = load_tool()
    label = tool.thin_label(-1, 2)
    saved = tmp_path / "cases.txt"
    assert tool.main(["--knot", label, "--cases", str(saved)]) == 0
    written = capsys.readouterr().out
    lines = saved.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(tool.cases(label)) + 2
    assert tool.main(["--knot", label, "--against", str(saved)]) == 0
    clean = capsys.readouterr().out
    assert clean == written and "differs" not in clean
    # one changed hash and one dropped case are listed, in case order
    case_hash, changed = lines[5].split(" ", 1)
    lines[5] = f"{'0' * len(case_hash)} {changed}"
    dropped = lines.pop(9).split(" ", 1)[1]
    saved.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert tool.main(["--knot", label, "--against", str(saved)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [f"differs {changed}", f"differs {dropped}", clean.strip()]
    assert json.loads(changed)[1] == label


def test_the_grid_runs_every_diagram():
    # The zoo's 1,658 cases, 270 on each of the 20 thin diagrams and on each
    # of the six drawings with segments along arc lines, read from their
    # curve files; naming the zoo and thin diagrams leaves the drawings out.
    tool = load_tool()
    argvs = tool.grid()
    assert len(argvs) == 1658 + 20 * 270 + 6 * 270 == 8678
    assert [argv[1] for argv in argvs[-6 * 270::270]] == tool.DRAWN
    assert all((tool.CURVES / f"{label}.curve").is_file() for label in tool.DRAWN)
    thin = [tool.thin_label(tau, f) for tau, f in tool.THIN]
    assert len(tool.grid(zoo_names() + thin)) == 7058


def test_the_zoo_output_is_pinned():
    tool = load_tool()
    names = zoo_names()
    hexdigest, per_case = tool.digest(names)
    assert len(per_case) == 2 + sum(len(tool.cases(name, drawn=True)) for name in names) == 1658
    knots = " ".join(f"--knot {name}" for name in names)
    assert hexdigest == ZOO_SHA256, (
        f"the zoo's CLI output changed.  In a checkout with the pinned output run "
        f"`python3 tools/cli_digest.py {knots} --cases FILE`, then here "
        f"`python3 tools/cli_digest.py {knots} --against FILE` to list the cases that differ")
