import argparse
import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

import pegboard.cli
import pegboard.textfmt
from pegboard.cli import EXIT_INVALID, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from pegboard.textfmt import emit_curve_text, parse_curve_text
from test_arc_sweep import DRAWINGS, TRIANGLE, sheared

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "pegboard" / "schemas" / "report.schema.json")
    .read_text()
)

# (command, slope or options) run on each drawing with segments along arc
# lines and on its sheared copy, which holds none.
DRAWN_RUNS = [("hfk", "1/1"), ("hfk", "1/0"), ("diff", "1/1"), ("scan-simple", "--pmax", "2", "--qmax", "1"),
              ("invariants",)]
# tau is read from the first transversal crossing of the peg column, and
# these drawings pass the column only along runs of vertices on it, which
# their sheared copies cross: `diff` and `invariants` refuse them.
NO_TAU = {"upright", "stacked"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


class TestBasicCommands:
    def test_zoo_list(self, capsys):
        code, payload = run_json(capsys, "zoo", "list")
        assert code == EXIT_OK
        assert "trefoil" in payload["names"]

    def test_pair_json(self, capsys):
        code, payload = run_json(capsys, "pair", "trefoil", "5/1")
        assert code == EXIT_OK
        assert payload["total"] == 5
        assert payload["cancelled_bigons"] == 0

    def test_pair_multiple_slopes_text(self, capsys):
        code, out, _ = run(capsys, "pair", "unknot", "1/1", "3/2")
        assert code == EXIT_OK
        assert "dim = 1" in out and "dim = 3" in out

    def test_hfk_vertical(self, capsys):
        code, payload = run_json(capsys, "hfk", "figure_eight", "1/0")
        assert code == EXIT_OK
        assert payload["dims"] == {"1": 1, "0": 3, "-1": 1}

    def test_vertical_refused_elsewhere(self, capsys):
        code, _, err = run(capsys, "pair", "trefoil", "1/0")
        assert code == EXIT_USAGE
        assert "hfk" in err

    def test_invariants(self, capsys):
        code, payload = run_json(capsys, "invariants", "unknot")
        assert code == EXIT_OK
        assert (payload["genus"], payload["tau"], payload["epsilon"]) == (0, 0, 0)

    def test_diff_ok(self, capsys):
        code, payload = run_json(capsys, "diff", "trefoil", "1/1")
        assert code == EXIT_OK
        assert all(row["ok"] for row in payload["gradings"])

    def test_scan_simple(self, capsys):
        code, payload = run_json(capsys, "scan-simple", "trefoil", "--pmax", "3", "--qmax", "2")
        assert code == EXIT_OK
        flagged = [e["slope"] for e in payload["entries"] if e["dually_simple"]]
        assert set(flagged) == {"2/1", "3/1", "3/2"}

    def test_scan_simple_over_the_whole_slope_cap(self, capsys):
        # Every reduced slope the CLI accepts, |p| <= 64 and q <= 32, on
        # the largest zoo diagram: the output's bytes are pinned.
        code, out, err = run(capsys, "scan-simple", "torus_3_4", "--pmax", "64", "--qmax", "32", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4259da1c3b77c67c070cbd22bb90d282e2683975c41660755cd42c8310fd299f")

    def test_demo_poincare(self, capsys):
        code, payload = run_json(capsys, "demo", "poincare")
        assert code == EXIT_OK
        assert payload["result"]["conditional_value"] == 1
        assert payload["result"]["lower_bound"] == 3

    def test_usage_error_on_bad_slope(self, capsys):
        code, _, err = run(capsys, "pair", "trefoil", "x/y")
        assert code == EXIT_USAGE

    def test_negative_slope_needs_no_separator(self, capsys):
        code, payload = run_json(capsys, "pair", "trefoil", "-7/3")
        assert code == EXIT_OK and payload["slope"] == "-7/3"
        code, out, _ = run(capsys, "pair", "trefoil", "--format", "json", "--", "-7/3")
        assert code == EXIT_OK and json.loads(out) == payload
        code, payload = run_json(capsys, "hfk", "trefoil", "-3/2")
        assert code == EXIT_OK and payload["total"] == 9
        code, _, err = run(capsys, "diff", "trefoil", "-3/2")
        assert code == EXIT_USAGE and "p >= 1 and q >= 1" in err
        code, payload = run_json(capsys, "ledger", "genus-one", "1", "-1", "1")
        assert code == EXIT_OK
        code, payload = run_json(capsys, "ledger", "dgamma", "--tau", "-1", "--min", "1")
        assert code == EXIT_OK

    def test_unknown_knot(self, capsys):
        code, _, err = run(capsys, "pair", "granny", "1/1")
        assert code == EXIT_USAGE


class TestLedgerCommands:
    def test_quasi_alt(self, capsys):
        code, out, _ = run(capsys, "ledger", "quasi-alt", "3")
        assert code == EXIT_OK
        assert "Z^4 + (Z/2)^1" in out

    def test_torsion_half_json(self, capsys):
        code, payload = run_json(capsys, "ledger", "torsion-half", "1", "3")
        assert code == EXIT_OK
        assert payload["certificate"]["lower_bound"] == 5
        assert payload["certificate"]["rule"] == "L3.5"

    def test_dual_one(self, capsys):
        code, payload = run_json(capsys, "ledger", "dual-one", "1", "1")
        assert code == EXIT_OK
        assert payload["result"]["khi_lower"] == 3
        assert payload["certificate"]["lower_bound"] == 1

    def test_shape_classify_csv(self, capsys, tmp_path):
        rows = ["n,value,bundle,coefficient"]
        for n in range(-6, 7):
            rows.append(f"{n},{abs(n) if n else 2},trivial,F2")
            rows.append(f"{n},{abs(n) if n else 0},mu,F2")
        csv_path = tmp_path / "unknot.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code, payload = run_json(capsys, "ledger", "shape-classify", str(csv_path))
        assert code == EXIT_OK
        assert payload["result"]["kind"] == "W"
        assert payload["result"]["width_0"] == "1"

    def test_t2_check_violation_exit_code(self, capsys, tmp_path):
        rows = ["n,value,bundle,coefficient"]
        for n, c_val, f_val in [(0, 1, 1), (1, 2, 2), (2, 3, 5)]:
            rows.append(f"{n},{c_val},trivial,C")
            rows.append(f"{n},{f_val},trivial,F2")
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "ledger", "t2-check", str(csv_path), "--nu", "0")
        assert code == EXIT_VIOLATION

    @pytest.mark.parametrize("rows,message", [
        (["0,1,trivial,C", "1,2,trivial,C", "2,3,trivial,C", "0,1,trivial,F2", "2,3,trivial,F2"],
         "error: missing value at n=1\n"),
        (["0,1,trivial,C", "5,1,trivial,F2"], "error: sequences share no common range\n"),
    ], ids=["gap", "disjoint"])
    def test_t2_check_needs_a_common_range(self, capsys, tmp_path, rows, message):
        csv_path = tmp_path / "gap.csv"
        csv_path.write_text("\n".join(["n,value,bundle,coefficient"] + rows) + "\n")
        code, out, err = run(capsys, "ledger", "t2-check", str(csv_path), "--nu", "0")
        assert (code, out, err) == (EXIT_USAGE, "", message)

    @pytest.mark.parametrize("op", [
        ("dim-seq", "--shape", "V", "--nu", "0", "--base", "1"),
        ("dgamma", "--tau", "1", "--min", "1"),
    ], ids=["dim-seq", "dgamma"])
    def test_empty_range_is_a_usage_error(self, capsys, op):
        code, out, err = run(capsys, "ledger", *op, "--start", "3", "--stop", "1")
        assert (code, out, err) == (EXIT_USAGE, "", "error: empty range: start 3 is past stop 1\n")
        code, out, _ = run(capsys, "ledger", *op, "--start", "3", "--stop", "3")
        assert code == EXIT_OK and out.startswith("n=3: ") and out.count("\n") == 1

    def test_csv_without_bundle_column_names_the_header(self, capsys, tmp_path):
        csv_path = tmp_path / "untagged.csv"
        csv_path.write_text("n,value,coefficient\n0,1,F2\n")
        code, _, err = run(capsys, "ledger", "shape-classify", str(csv_path))
        assert (code, err) == (EXIT_USAGE, "error: csv needs the header n,value,bundle,coefficient\n")

    def test_no_torsion(self, capsys):
        code, payload = run_json(capsys, "ledger", "no-torsion", "3", "V", "1", "1")
        assert code == EXIT_OK
        assert payload["result"]["branch"] == "case-5"


class TestFilesAndRender:
    def test_file_knot_and_zoo_dir(self, capsys, tmp_path, monkeypatch):
        text = "component winding=1\nv -1/2 0\nv 1/2 0\n"
        path = tmp_path / "myknot.curve"
        path.write_text(text)
        code, payload = run_json(capsys, "pair", str(path), "4/1")
        assert code == EXIT_OK and payload["total"] == 4
        monkeypatch.setenv("PEGBOARD_ZOO_DIR", str(tmp_path))
        code, payload = run_json(capsys, "pair", "myknot", "2/1")
        assert code == EXIT_OK and payload["total"] == 2

    def test_invalid_file_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.curve"
        path.write_text("component winding=1\nv -1/2 1/4\nv 1/2 1/4\n")
        code, out, err = run(capsys, "pair", str(path), "1/1")
        assert code == EXIT_INVALID and out == ""
        assert err == (f"error: invalid diagram in {path}: "
                       "[seam] seam crossing at height 1/4, expected 0\n")

    def test_invalid_zoo_diagram_exit_code(self, capsys, monkeypatch):
        # A built-in diagram is validated at load as a file is, with the
        # same exit code and no file name in the message.
        from fractions import Fraction
        from pegboard.curves import Component, CurveDiagram
        from pegboard.geometry import pt

        seam = Component((pt(Fraction(-1, 2), Fraction(1, 4)), pt(Fraction(1, 2), Fraction(1, 4))), 1)
        monkeypatch.setattr(pegboard.cli, "build_zoo", lambda name: CurveDiagram((seam,), name))
        code, out, err = run(capsys, "pair", "trefoil", "1/1")
        assert code == EXIT_INVALID and out == ""
        assert err == "error: invalid diagram: [seam] seam crossing at height 1/4, expected 0\n"

    @pytest.mark.parametrize("argv", DRAWN_RUNS, ids=" ".join)
    @pytest.mark.parametrize("d", DRAWINGS, ids=lambda d: d.source)
    def test_a_drawing_along_arc_lines_reads_as_its_sheared_copy(self, capsys, tmp_path, monkeypatch, d, argv):
        # Every command that reads arcs pairs the drawing at every slope,
        # with the exit code and output of its sheared copy, unless it reads
        # a tau the drawing does not give; each is read from a file of one
        # name, in a directory of its own.
        outputs = []
        for name, diagram in (("drawn", d), ("sheared", sheared(d))):
            (tmp_path / name).mkdir()
            (tmp_path / name / "knot.curve").write_text(emit_curve_text(diagram))
            monkeypatch.chdir(tmp_path / name)
            outputs.append(run(capsys, argv[0], "knot.curve", *argv[1:]))
        drawn, copy = outputs
        if argv[0] in ("diff", "invariants") and d.source in NO_TAU:
            assert drawn == (EXIT_INVALID, "", "error: distinguished component misses the peg column\n")
        else:
            assert drawn == copy and drawn[2] == ""

    def test_a_degenerate_arc_slope_still_pairs_its_filling(self, capsys, tmp_path):
        path = tmp_path / "triangle.curve"
        path.write_text(emit_curve_text(TRIANGLE))
        code, out, err = run(capsys, "pair", str(path), "1/1")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"{path} @ 1/1: dim = 1 ")

    @pytest.mark.parametrize("argv", [
        ("pair", "trefoil", "1/1", "--out", "{tmp}/missing/x.txt"),
        ("ledger", "shape-classify", "{tmp}/missing.csv"),
        ("ledger", "t2-check", "{tmp}/missing.csv", "--nu", "0"),
        ("pair", "{tmp}", "1/1"),
    ], ids=["out-dir", "shape-classify", "t2-check", "directory-knot"])
    def test_file_errors_exit_1_without_traceback(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    # valid diagrams whose tau cannot be read: the distinguished component
    # passes the peg column only along a run of vertices on it
    # (NoVerticalCrossing), or crosses it on a peg row (AmbiguousHeight)
    GEOMETRY_ERRORS = {
        "no-column-crossing": ("component winding=1\nv -1/2 0\nv 0 -1/8\nv 0 1/8\nv 1/2 0\n",
                               "error: distinguished component misses the peg column\n"),
        "crossing-on-peg-row": ("component winding=1\nv -1/2 0\nv 0 1\nv 1/32 3/2\nv 0 0\n"
                                "v -1/32 -3/2\nv 0 -1\nv 1/2 0\n",
                                "error: y = 3/2 lies exactly on a peg row\n"),
    }

    @pytest.mark.parametrize("command", [("invariants",), ("diff", "1/1")], ids=lambda c: c[0])
    @pytest.mark.parametrize("case", sorted(GEOMETRY_ERRORS))
    def test_geometry_errors_of_valid_diagrams_exit_2(self, capsys, tmp_path, command, case):
        text, message = self.GEOMETRY_ERRORS[case]
        path = tmp_path / "knot.curve"
        path.write_text(text)
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out, err) == (EXIT_INVALID, "", message)

    def test_render_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert main(["render", "trefoil", "--overlay", "1/1", "--out", str(out1)]) == EXIT_OK
        assert main(["render", "trefoil", "--overlay", "1/1", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_render_structure(self, capsys):
        code, out, _ = run(capsys, "render", "unknot")
        assert code == EXIT_OK
        assert out.startswith("<svg")
        assert out.count("<circle") >= 3
        assert out.count("<polyline") >= 1

    def test_render_matches_golden_file(self, capsys):
        golden = (Path(__file__).parent / "golden" / "unknot.svg").read_text()
        code, out, _ = run(capsys, "render", "unknot")
        assert code == EXIT_OK
        assert out == golden

    def test_render_refuses_invalid(self, capsys, tmp_path):
        path = tmp_path / "bad.curve"
        path.write_text("component winding=1\nv -1/2 1/4\nv 1/2 1/4\n")
        code, _, _ = run(capsys, "render", str(path))
        assert code == EXIT_INVALID

    def test_json_outputs_are_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "pair", "figure_eight", "3/2", "--format", "json")
        _, out2, _ = run(capsys, "pair", "figure_eight", "3/2", "--format", "json")
        assert out1 == out2

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "hfk", "trefoil", "1/0", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "grading,dim"

    def test_pair_csv_has_one_header_for_several_slopes(self, capsys):
        code, out, _ = run(capsys, "pair", "trefoil", "1", "2", "--format", "csv")
        assert (code, out) == (EXIT_OK, "slope,class,count\n1/1,0,1\n2/1,0,1\n2/1,1,1\n")
        _, single, _ = run(capsys, "pair", "trefoil", "2", "--format", "csv")
        assert single == "slope,class,count\n2/1,0,1\n2/1,1,1\n"

    def test_pair_json_is_one_array_for_several_slopes(self, capsys):
        code, payload = run_json(capsys, "pair", "trefoil", "1", "2")
        assert code == EXIT_OK
        singles = [run_json(capsys, "pair", "trefoil", s)[1] for s in ("1", "2")]
        assert payload == singles
        assert [p["total"] for p in payload] == [1, 2]

    def test_hfk_refuses_zero_filling(self, capsys):
        code, _, err = run(capsys, "hfk", "trefoil", "0/1")
        assert code == EXIT_USAGE
        assert "0-filling" in err

    def test_render_overlay_arc(self, capsys):
        code, out, _ = run(capsys, "render", "trefoil", "--overlay-arc", "1/1@1")
        assert code == EXIT_OK
        assert "stroke-dasharray" in out
        golden = (Path(__file__).parent / "golden" / "trefoil_arc.svg").read_text()
        code, out, _ = run(capsys, "render", "trefoil", "--overlay-arc", "1/1@0")
        assert code == EXIT_OK
        assert out == golden

    def test_render_out_file_matches_golden_file(self, capsys, tmp_path):
        svg = tmp_path / "arc.svg"
        code, out, _ = run(capsys, "render", "trefoil", "--overlay-arc", "1/1@0", "--out", str(svg))
        assert (code, out) == (EXIT_OK, "")
        assert svg.read_bytes() == (Path(__file__).parent / "golden" / "trefoil_arc.svg").read_bytes()

    @pytest.mark.parametrize("value", ["1/1", "1/1@x", "@1", "x@1"])
    def test_malformed_arc_gets_a_usage_message(self, capsys, value):
        code, out, err = run(capsys, "render", "trefoil", "--overlay-arc", value)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: bad arc '{value}'; use p/q@h, a slope and a grading\n"

    def test_negative_arc_needs_no_equals_sign(self, capsys, tmp_path):
        code, out, err = run(capsys, "render", "torus_3_4", "--overlay-arc", "-7/3@-3")
        assert (code, err) == (EXIT_OK, "") and "stroke-dasharray" in out
        assert run(capsys, "render", "torus_3_4", "--overlay-arc=-7/3@-3") == (code, out, err)
        svg = tmp_path / "arc.svg"
        code, stdout, _ = run(capsys, "render", "torus_3_4", "--overlay-arc", "-7/3@-3",
                              "--out", str(svg))
        assert (code, stdout) == (EXIT_OK, "") and svg.read_text() == out
        assert run(capsys, "render", "trefoil", "--overlay-arc", "-2/3@-1/2")[0] == EXIT_OK
        # an option is still read as an option, not as the arc
        code, _, err = run(capsys, "render", "trefoil", "--overlay-arc", "--out", str(svg))
        assert code == EXIT_USAGE and "--overlay-arc: expected one argument" in err

    def test_console_script_installed(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "pegboard.cli", "zoo", "list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "trefoil" in proc.stdout



TREFOIL_PAIR_2_1 = ("{} @ 2/1: dim = 2 (cancelled 1 bigon pairs)\n"
                    "  class 0: 1\n  class 1: 1\n")


class TestLoading:
    """What loading a curve file prints, and its exit code, per selector.
    A path is shown normalised (`./x.curve` as `x.curve`); the selector
    itself is echoed as typed."""

    CASES = {
        "dot-slash": ("./x.curve", EXIT_OK, TREFOIL_PAIR_2_1.format("./x.curve"), ""),
        "double-slash": ("dir//x.curve", EXIT_OK, TREFOIL_PAIR_2_1.format("dir//x.curve"), ""),
        "zoo-dir-name": ("z", EXIT_OK, TREFOIL_PAIR_2_1.format("z"), ""),
        "missing": ("missing.curve", EXIT_USAGE, "",
                    "error: unknown knot 'missing.curve': not a zoo name or readable file\n"),
        "directory": ("./dir/", EXIT_USAGE, "", "error: [Errno 21] Is a directory: 'dir'\n"),
        "invalid": ("./bad.curve", EXIT_INVALID, "",
                    "error: invalid diagram in bad.curve: "
                    "[seam] seam crossing at height 1/4, expected 0\n"),
        "unparsable": ("./garbled.curve", EXIT_INVALID, "",
                       "error: cannot parse garbled.curve: line 2, column 3: bad rational 'v'\n"),
    }

    @pytest.fixture
    def site(self, tmp_path, monkeypatch):
        """A working directory holding the trefoil as x.curve, dir/x.curve
        and zoo/z.curve (with $PEGBOARD_ZOO_DIR set to zoo), and two broken
        files."""
        text = pegboard.textfmt.emit_curve_text(pegboard.cli.build_zoo("trefoil"))
        for name in ("x.curve", "dir/x.curve", "zoo/z.curve"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        (tmp_path / "bad.curve").write_text("component winding=1\nv -1/2 1/4\nv 1/2 1/4\n")
        (tmp_path / "garbled.curve").write_text("component winding=1\nv v 0\nv 1/2 0\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PEGBOARD_ZOO_DIR", "zoo")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_selector_output_and_exit_code(self, capsys, site, case):
        selector, code, out, err = self.CASES[case]
        assert run(capsys, "pair", selector, "2/1") == (code, out, err)

    @pytest.mark.parametrize("selector, source", [
        ("./x.curve", "x.curve"), ("dir//x.curve", "dir/x.curve"), ("z", "zoo/z.curve")])
    def test_render_names_the_normalised_path(self, capsys, site, selector, source):
        code, out, err = run(capsys, "render", selector)
        assert (code, err) == (EXIT_OK, "")
        assert f"<!-- diagram: {source} -->" in out.splitlines()


def _subparsers(parser):
    """The parsers of the subcommands directly under `parser`, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_output_parser_has_one_format_and_one_out():
    commands = _subparsers(pegboard.cli.build_parser())
    parsers = {name: p for name, p in commands.items() if name != "ledger"}
    parsers.update({f"ledger {op}": p for op, p in _subparsers(commands["ledger"]).items()})
    assert len(parsers) == 8 + 13
    for name, p in parsers.items():
        options = [o for a in p._actions for o in a.option_strings]
        want = (0, 1) if name == "render" else (1, 1)
        assert (options.count("--format"), options.count("--out")) == want, name
    group = [o for a in commands["ledger"]._actions for o in a.option_strings]
    assert "--format" not in group and "--out" not in group


@pytest.fixture
def fresh_parser():
    """main() as in a new process: no parser built yet."""
    pegboard.cli._parser.cache_clear()
    yield
    pegboard.cli._parser.cache_clear()


class TestOneParserPerProcess:
    def test_repeated_commands_give_identical_results(self, capsys, tmp_path, fresh_parser):
        path = tmp_path / "knot.curve"
        path.write_text("component winding=1\nv -1/2 0\nv 1/2 0\n")
        commands = [
            ("pair", "trefoil"),
            ("pair", "--help"),
            ("pair", "trefoil", "-7/3"),
            ("pair", str(path), "4/1", "--format", "json"),
            ("pair", "trefoil", "x/y"),
            ("ledger", "genus-one", "1", "-1", "1", "--format", "json"),
            ("hfk", "torus_3_4", "-3/2", "--format", "json"),
            ("ledger", "quasi-alt", "3"),
            ("diff", "trefoil", "2/1", "--format", "csv"),
            ("invariants", str(path), "--format", "json"),
            ("pair", "trefoil", "1/1", "--format", "json"),
        ]
        first = [run(capsys, *argv) for argv in commands]
        second = [run(capsys, *argv) for argv in commands]
        assert first == second
        codes = [code for code, _, _ in first]
        assert codes == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE] + [EXIT_OK] * 6
        assert "required: p/q" in first[0][2] and first[1][1].startswith("usage: pegboard pair")

    def test_parser_is_built_once(self, capsys, monkeypatch, fresh_parser):
        built = []
        real = pegboard.cli.build_parser

        def counting_build():
            built.append(1)
            return real()

        monkeypatch.setattr(pegboard.cli, "build_parser", counting_build)
        for argv in (["zoo", "list"], ["pair", "trefoil"], ["pair", "unknot", "1/1"],
                     ["ledger", "triangle", "1", "1", "1"]):
            main(argv)
        capsys.readouterr()
        assert len(built) == 1
        assert real() is not pegboard.cli._parser()  # build_parser stays fresh


COMMANDS = {
    "pair": ("2/1",),
    "hfk": ("1/1",),
    "diff": ("1/1",),
    "invariants": (),
    "scan-simple": ("--pmax", "2", "--qmax", "1"),
    "render": (),
}


@pytest.mark.parametrize("source", ["zoo", "file"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_validates_once(capsys, monkeypatch, tmp_path, command, source):
    calls = []
    real = pegboard.curves.validate

    def counting_validate(d):
        calls.append(d)
        return real(d)

    # Every reader of validity takes the report that the diagram keeps
    # (`CurveDiagram._validation`, built by `curves.validate`): the loader,
    # and for `scan-simple` and `invariants` `genus_of` and each slope's
    # `ArcSweep.total`, so one call serves them all.
    monkeypatch.setattr(pegboard.curves, "validate", counting_validate)
    knot = "trefoil"
    if source == "file":
        knot = str(tmp_path / "trefoil.curve")
        Path(knot).write_text(pegboard.textfmt.emit_curve_text(pegboard.cli.build_zoo("trefoil")))
    code, _, _ = run(capsys, command, knot, *COMMANDS[command])
    assert code == EXIT_OK
    assert len(calls) == 1
