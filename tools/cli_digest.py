"""One sha256 over the CLI's outputs on a fixed grid: a bit-identity check.

    python3 tools/cli_digest.py [--knot NAME ...] [--cases FILE] [--against FILE]

Run from a checkout: pegboard is imported from ``src/`` next to this
directory.  Each case is one in-process ``pegboard.cli.main(argv)`` call,
and the digest covers its argv, exit code, stdout and stderr, in case
order.  Two checkouts that print the same digest gave the same bytes on
every case.  The grid opens with ``zoo list`` in text and in JSON; then,
for each diagram, in text and in JSON:

* ``pair`` and ``hfk`` at every reduced slope with 0 < |p| <= 9 and
  q <= 4, at 0/1, and at 63/31 and -61/29 near the slope cap, where the
  piece test of bigon cancellation finds blocked pairs;
* ``diff`` at those slopes with p >= 1, 63/31 included, and ``hfk`` at 1/0;
* ``scan-simple --pmax 9 --qmax 4 --all`` and ``invariants``;

and, for each zoo diagram, its ``render`` SVG: plain, with ``--overlay``
at 3/2, 0/1 and -7/3, and with ``--overlay-arc`` at 1/0@1 and 3/2@1.

The diagrams are the zoo, ``thin(tau, f)`` for -2 <= tau <= 2 and
0 <= f <= 3, and the six drawings in ``tools/curves`` whose segments lie
along arc lines (``collinear``, ``tall``, ``upright``, ``stacked``,
``two_stacks`` and ``triangle``).  Each thin diagram is read from a curve
file named ``thin_t<tau>_f<f>`` (``m`` for a minus sign), and each drawing
from a copy of its file under its own name, in a temporary
``$PEGBOARD_ZOO_DIR``, whose path is replaced by ``$PEGBOARD_ZOO_DIR`` in
the outputs.  ``--knot`` restricts the run to the named diagrams, so
naming the zoo and thin diagrams alone runs the grid without the
drawings.  The last line printed is ``sha256 <hex> cases <n>``.

``--cases FILE`` also writes one line per case, ``<sha256 hex> <argv as
JSON>``, the hash taken over the same argv, exit code, stdout and stderr.
``--against FILE`` reads such a file and prints the argv of every case whose
hash differs from the saved one or that the file lacks, then exits 1 if
there is any.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOPES = [f"{p}/{q}" for q in range(1, 5) for p in range(-9, 10) if p and math.gcd(abs(p), q) == 1]
CAP = ["63/31", "-61/29"]
THIN = [(tau, f) for tau in range(-2, 3) for f in range(4)]
CURVES = ROOT / "tools" / "curves"
DRAWN = ["collinear", "tall", "upright", "stacked", "two_stacks", "triangle"]
FORMATS = ("text", "json")
RENDERS = [[], ["--overlay", "3/2"], ["--overlay", "0/1"], ["--overlay", "-7/3"],
           ["--overlay-arc", "1/0@1"], ["--overlay-arc", "3/2@1"]]


def thin_label(tau: int, f: int) -> str:
    return f"thin_t{f'm{-tau}' if tau < 0 else tau}_f{f}"


def cases(knot: str, drawn: bool = False) -> list[list[str]]:
    """Every argv the grid runs on one diagram, in order; `drawn` adds the
    `render` cases of a zoo diagram."""
    argvs = [["pair", knot, s] for s in SLOPES + ["0/1"] + CAP]
    argvs += [["hfk", knot, s] for s in SLOPES + ["0/1", "1/0"] + CAP]
    argvs += [["diff", knot, s] for s in SLOPES + CAP if not s.startswith("-")]
    argvs += [["scan-simple", knot, "--pmax", "9", "--qmax", "4", "--all"], ["invariants", knot]]
    formatted = [argv + ["--format", fmt] for argv in argvs for fmt in FORMATS]
    return formatted + ([["render", knot, *extra] for extra in RENDERS] if drawn else [])


def grid(knots=None) -> list[list[str]]:
    """Every argv of the run on the named diagrams, or on all of them, in
    order."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from pegboard.curves import zoo_names

    zoo = zoo_names()
    names = zoo + [thin_label(tau, f) for tau, f in THIN] + DRAWN
    unknown = set(knots or ()) - set(names)
    if unknown:
        raise SystemExit(f"unknown diagram(s): {', '.join(sorted(unknown))}")
    argvs = [["zoo", "list", "--format", fmt] for fmt in FORMATS]
    return argvs + [argv for name in names if not knots or name in knots for argv in cases(name, name in zoo)]


def digest(knots=None) -> tuple[str, list[tuple[str, str]]]:
    """(sha256 hex over the grid, (argv as JSON, sha256 hex) of each case),
    on the named diagrams or on all of them."""
    argvs = grid(knots)
    import pegboard.cli as cli
    from pegboard.curves import thin
    from pegboard.textfmt import emit_curve_text

    h = hashlib.sha256()
    per_case = []
    saved = os.environ.get("PEGBOARD_ZOO_DIR")
    with tempfile.TemporaryDirectory() as zoo_dir:
        for tau, f in THIN:
            Path(zoo_dir, f"{thin_label(tau, f)}.curve").write_text(emit_curve_text(thin(tau, f)), encoding="utf-8")
        for label in DRAWN:
            Path(zoo_dir, f"{label}.curve").write_bytes((CURVES / f"{label}.curve").read_bytes())
        os.environ["PEGBOARD_ZOO_DIR"] = zoo_dir
        try:
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                texts = [t.getvalue().replace(zoo_dir, "$PEGBOARD_ZOO_DIR") for t in (out, err)]
                line = json.dumps([argv, code, *texts]).encode() + b"\n"
                h.update(line)
                per_case.append((json.dumps(argv), hashlib.sha256(line).hexdigest()))
        finally:
            if saved is None:
                del os.environ["PEGBOARD_ZOO_DIR"]
            else:
                os.environ["PEGBOARD_ZOO_DIR"] = saved
    return h.hexdigest(), per_case


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--knot", action="append", help="a zoo name or thin label; repeatable")
    ap.add_argument("--cases", type=Path, help="write each case's hash to this file")
    ap.add_argument("--against", type=Path, help="list the cases that differ from this file's hashes")
    args = ap.parse_args(argv)
    hexdigest, per_case = digest(args.knot)
    if args.cases:
        args.cases.write_text("".join(f"{case_hash} {case}\n" for case, case_hash in per_case), encoding="utf-8")
    differing = []
    if args.against:
        lines = args.against.read_text(encoding="utf-8").splitlines()
        saved = {case: case_hash for case_hash, case in (line.split(" ", 1) for line in lines)}
        differing = [case for case, case_hash in per_case if saved.get(case) != case_hash]
        for case in differing:
            print(f"differs {case}")
    print(f"sha256 {hexdigest} cases {len(per_case)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
