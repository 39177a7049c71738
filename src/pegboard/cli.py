"""Command-line front end.

Subcommands: zoo, pair, hfk, diff, invariants, scan-simple, ledger, demo,
render.  Knots are selected by zoo name, by a curve-file path, or by a name
resolved inside $PEGBOARD_ZOO_DIR.  Exit codes: 0 success, 1 usage error,
2 validation failure (also a valid diagram whose tau cannot be read: its
distinguished component passes the peg column only along runs of vertices
on it, or first crosses it on a peg row), 3 theorem violation detected.
Every diagram that passes validation pairs at every slope: a segment along
a line or arc is read pushed off it.

The ledger and render layers are imported by the commands that use them
(`ledger` and `demo`, and `render`), so the pairing, graded and scan
commands never load them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .curves import (
    AmbiguousHeight,
    BadSpec,
    InvariantViolation,
    NoVerticalCrossing,
    build_zoo,
    extrema_census,
    tau_epsilon,
    zoo_names,
)
from .differentials import (
    RULE_DUAL_SIMPLE,
    RULE_RANK_BOUND,
    census_bounds,
    differential_ranks,
    dually_simple_scan,
)
from .pairing import (
    ArcLift,
    ArcSweep,
    SlopeSpec,
    dual_hfk_dims,
    genus_of,
    surgery_report,
)
from .textfmt import parse_curve_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VIOLATION = 3

MAX_P = 64
MAX_Q = 32


# argparse's pattern for a negative number, widened to negative slopes p/q
# and to arcs p/q@h with a negative slope (h an integer or p/q, any sign)
_NEGATIVE_NUMBER_OR_SLOPE = re.compile(r"^-\d+(/\d+)?(@-?\d+(/\d+)?)?$|^-\d*\.\d+$")


class _SubcommandParser(argparse.ArgumentParser):
    """Reads a negative slope such as -7/3, or an arc such as -7/3@-3, as a
    value, as argparse already reads a negative integer such as -7; no option
    here looks like any of them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER_OR_SLOPE


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_knot(selector: str):
    """The diagram `selector` names, validated exactly once: a curve file by
    parse_curve_text, a zoo diagram here.  The report is kept on the
    diagram (`CurveDiagram._validation`), so no later reader validates
    again."""
    try:
        d = build_zoo(selector)
    except BadSpec:
        pass
    else:
        report = d._validation
        if not report.ok:
            raise CliError(f"invalid diagram: {report.summary()}", EXIT_INVALID)
        return d
    # a file that exists costs one existence check and one read
    path = Path(selector)
    if not path.exists():
        zoo_dir = os.environ.get("PEGBOARD_ZOO_DIR")
        candidate = Path(zoo_dir) / f"{selector}.curve" if zoo_dir else None
        if candidate is None or not candidate.exists():
            raise CliError(f"unknown knot {selector!r}: not a zoo name or readable file", EXIT_USAGE)
        path = candidate
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        return parse_curve_text(text, source=str(path))
    except InvariantViolation as exc:
        raise CliError(f"invalid diagram in {path}: {exc}", EXIT_INVALID)
    except ValueError as exc:
        raise CliError(f"cannot parse {path}: {exc}", EXIT_INVALID)


def _parse_slope(text: str, allow_vertical=False) -> SlopeSpec:
    try:
        slope = SlopeSpec.parse(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad slope {text!r}; use p/q or an integer", EXIT_USAGE)
    if slope.is_vertical and not allow_vertical:
        raise CliError("the vertical slope 1/0 is only meaningful for 'hfk'", EXIT_USAGE)
    if abs(slope.p) > MAX_P or slope.q > MAX_Q:
        raise CliError(f"slope grid is capped at |p| <= {MAX_P}, q <= {MAX_Q}", EXIT_USAGE)
    return slope


def _parse_arc(text: str) -> ArcLift:
    """An arc written p/q@h: its slope (1/0 allowed) and grading height."""
    slope_text, _, h_text = text.partition("@")
    try:
        h = Fraction(h_text)
        SlopeSpec.parse(slope_text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad arc {text!r}; use p/q@h, a slope and a grading", EXIT_USAGE) from None
    return ArcLift(_parse_slope(slope_text, allow_vertical=True), h)


def _write(args, body: str) -> None:
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)


def _emit(args, payload, text_lines: list[str], csv_rows=None) -> None:
    """Write one report: payload (a JSON object or array), the text lines or
    the CSV rows, as --format asks."""
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        body = json.dumps(payload, indent=2, sort_keys=True)
    elif fmt == "csv":
        if csv_rows is None:
            raise CliError("csv output is not available for this command", EXIT_USAGE)
        body = "\n".join(",".join(str(v) for v in row) for row in csv_rows)
    else:
        body = "\n".join(text_lines)
    _write(args, body + "\n")


def _counts_json(counts: dict) -> dict:
    return {str(k): v for k, v in sorted(counts.items(), key=lambda kv: str(kv[0]))}


def cmd_zoo(args) -> int:
    names = zoo_names()
    _emit(args, {"schema_version": 1, "kind": "zoo", "names": names}, names,
          [[n] for n in names])
    return EXIT_OK


def cmd_pair(args) -> int:
    d = _load_knot(args.knot)
    payloads, lines, csv_rows = [], [], [["slope", "class", "count"]]
    for slope_text in args.slopes:
        slope = _parse_slope(slope_text)
        rep = surgery_report(d, slope)
        counts = _counts_json(rep.counts)
        payload = {
            "schema_version": 1,
            "kind": "pairing",
            "knot": args.knot,
            "slope": str(slope),
            "total": rep.total,
            "counts": counts,
            "cancelled_bigons": len(rep.cancelled),
            "flags": list(rep.flags),
        }
        payloads.append(payload)
        lines.append(f"{args.knot} @ {slope}: dim = {rep.total} "
                     f"(cancelled {len(rep.cancelled)} bigon pairs)")
        lines += [f"  class {k}: {v}" for k, v in counts.items()]
        lines += [f"  note: {f}" for f in rep.flags]
        csv_rows += [[str(slope), k, v] for k, v in counts.items()]
    # several slopes: one JSON array, one CSV table under one header
    _emit(args, payloads[0] if len(payloads) == 1 else payloads, lines, csv_rows)
    return EXIT_OK


def cmd_hfk(args) -> int:
    d = _load_knot(args.knot)
    slope = _parse_slope(args.slope, allow_vertical=True)
    dims = dual_hfk_dims(d, slope)
    payload = {
        "schema_version": 1,
        "kind": "graded-dims",
        "knot": args.knot,
        "slope": str(slope),
        "dims": _counts_json(dims),
        "total": sum(dims.values()),
    }
    lines = [f"{args.knot} @ {slope}: graded dual dims (total {sum(dims.values())})"]
    lines += [f"  h = {h}: {n}" for h, n in sorted(dims.items(), reverse=True)]
    csv_rows = [["grading", "dim"]] + [[str(h), n] for h, n in sorted(dims.items(), reverse=True)]
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


def cmd_diff(args) -> int:
    d = _load_knot(args.knot)
    slope = _parse_slope(args.slope)
    if slope.p < 1 or slope.q < 1:
        raise CliError("differentials need a slope with p >= 1 and q >= 1", EXIT_USAGE)
    bounds = census_bounds(d, slope)
    rows = []
    for h, (phi, psi) in differential_ranks(ArcSweep(d, slope)).items():
        pb, sb = bounds.phi_bound(h), bounds.psi_bound(h)
        rows.append({"grading": str(h), "phi_rank": phi, "psi_rank": psi,
                     "phi_bound": pb, "psi_bound": sb, "ok": phi >= pb and psi >= sb})
    payload = {
        "schema_version": 1,
        "kind": "differentials",
        "knot": args.knot,
        "slope": str(slope),
        "gradings": rows,
        "exception_applied": bounds.exception_applied,
    }
    lines = [f"{args.knot} @ {slope}: first differentials "
             f"(extremum discount {'active' if bounds.exception_applied else 'inactive'})"]
    for r in rows:
        mark = "ok" if r["ok"] else f"THEOREM VIOLATION [{RULE_RANK_BOUND}]"
        lines.append(
            f"  h = {r['grading']}: lowering rank {r['phi_rank']} (bound {r['phi_bound']}), "
            f"raising rank {r['psi_rank']} (bound {r['psi_bound']}) .. {mark}"
        )
    fields = ["grading", "phi_rank", "psi_rank", "phi_bound", "psi_bound", "ok"]
    _emit(args, payload, lines, [fields] + [[r[f] for f in fields] for r in rows])
    return EXIT_OK if all(r["ok"] for r in rows) else EXIT_VIOLATION


def cmd_invariants(args) -> int:
    d = _load_knot(args.knot)
    tau, eps = tau_epsilon(d)
    census = extrema_census(d)
    payload = {
        "schema_version": 1,
        "kind": "invariants",
        "knot": args.knot,
        "genus": genus_of(d),
        "tau": tau,
        "epsilon": eps,
        "census": {
            "maxima": {str(h): n for h, n in sorted(census.n_plus.items())},
            "minima": {str(h): n for h, n in sorted(census.n_minus.items())},
        },
    }
    lines = [
        f"{args.knot}: genus {payload['genus']}, tau {tau}, epsilon {eps}",
        f"  maxima by height: {dict(sorted(census.n_plus.items()))}",
        f"  minima by height: {dict(sorted(census.n_minus.items()))}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_scan_simple(args) -> int:
    d = _load_knot(args.knot)
    if args.pmax > MAX_P or args.qmax > MAX_Q:
        raise CliError(f"scan grid is capped at |p| <= {MAX_P}, q <= {MAX_Q}", EXIT_USAGE)
    entries = dually_simple_scan(d, args.pmax, args.qmax)
    violated = any(e.theorem_violated for e in entries)
    payload = {
        "schema_version": 1,
        "kind": "scan",
        "knot": args.knot,
        "entries": [
            {
                "slope": str(e.slope),
                "dual_total": e.dual_total,
                "filling_dim": e.filling_dim,
                "dually_simple": e.dually_simple,
                "lspace": e.lspace,
                "verdict": e.verdict(),
            }
            for e in entries
        ],
    }
    lines = [f"{args.knot}: dual-simplicity scan over |p| <= {args.pmax}, q <= {args.qmax}"]
    for e in entries:
        if e.dually_simple or args.all:
            lines.append(
                f"  {e.slope}: dual {e.dual_total} vs dim {e.filling_dim} .. {e.verdict()}"
            )
    flagged = [e for e in entries if e.dually_simple]
    lines.append(f"  flagged {len(flagged)} dually simple slope(s)")
    if violated:
        lines.append(f"  THEOREM VIOLATION [{RULE_DUAL_SIMPLE}]")
    csv_rows = [["slope", "dual_total", "filling_dim", "dually_simple", "lspace", "verdict"]] + [
        [str(e.slope), e.dual_total, e.filling_dim, e.dually_simple, e.lspace, e.verdict()]
        for e in entries
    ]
    _emit(args, payload, lines, csv_rows)
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_demo(args) -> int:
    from . import ledger

    demo = ledger.poincare_demo()
    payload = {
        "schema_version": 1,
        "kind": "demo",
        "result": {
            "conditional_value": demo.conditional_value,
            "lower_bound": demo.lower_bound,
            "contradiction": demo.contradiction,
        },
        "lines": list(demo.lines),
    }
    _emit(args, payload, list(demo.lines))
    return EXIT_OK


def cmd_render(args) -> int:
    from .render import render_svg

    d = _load_knot(args.knot)
    overlay = _parse_slope(args.overlay) if args.overlay else None
    arc = _parse_arc(args.overlay_arc) if args.overlay_arc else None
    _write(args, render_svg(d, overlay=overlay, overlay_arc=arc))
    return EXIT_OK


def _certified(cert, fields: dict) -> str:
    """File the certificate under fields and return its text line."""
    fields["certificate"] = cert.to_json()
    return f"{cert.target}: 2-torsion count >= {cert.lower_bound} [{cert.rule}]"


def cmd_ledger(args) -> int:
    from . import ledger as lm

    op = args.op
    fields, csv_rows, code = {}, None, EXIT_OK
    if op in ("dim-seq", "dgamma"):
        if op == "dim-seq":
            seq = lm.dim_seq_C(args.shape, args.nu, args.base, (args.start, args.stop))
        else:
            seq = lm.dgamma_seq(args.tau, args.min, (args.start, args.stop))
        rows = [(n, seq.values[n]) for n in sorted(seq.values)]
        lines = [f"n={n}: {v}" for n, v in rows]
        fields = {"result": {str(n): v for n, v in rows}, "lines": lines}
        csv_rows = [["n", "value"]] + [list(r) for r in rows]
    elif op == "half-dim":
        value = lm.half_dim_C(args.n, args.nu, args.dim)
        fields, lines = {"result": value, "lines": []}, [f"dim at ({2 * args.n - 1})/2 = {value}"]
    elif op == "torsion-half":
        lines = [_certified(lm.torsion_bound_half(args.n, args.k), fields)]
    elif op == "dual-one":
        lower, cert = lm.dual_one_bounds(args.d_top, args.dim1)
        fields["result"] = {"khi_lower": lower}
        lines = [f"graded dual total >= {lower}", _certified(cert, fields)]
    elif op == "no-torsion":
        verdict = lm.no_torsion_consequence(args.n, args.shape, args.nu, args.tau)
        lines = [f"branch {verdict.branch}: {'consistent' if verdict.consistent else 'contradiction'}",
                 f"  {verdict.detail}"]
        lines += [f"  consequence: {c}" for c in verdict.consequences]
        fields = {"result": {"branch": verdict.branch, "consistent": verdict.consistent,
                             "detail": verdict.detail, "consequences": list(verdict.consequences)},
                  "lines": lines}
    elif op == "genus-one":
        rep = lm.genus_one_report(args.a, args.tau, args.d_top)
        fields["result"] = {"khi_dims": list(rep.khi_dims), "isharp1_dim": rep.isharp1_dim,
                            "middle_is_lower_bound": rep.middle_is_lower_bound}
        lines = [f"graded dims (top, middle, bottom) >= {rep.khi_dims}",
                 f"unit-filling dimension = {rep.isharp1_dim}",
                 _certified(rep.certificate, fields)]
    elif op == "unknotting-one":
        rep = lm.unknotting_one_check(args.dim)
        fields["result"] = {"isharp_upper": rep.isharp_upper, "note": rep.note}
        lines = [f"group dimension <= {rep.isharp_upper}", _certified(rep.certificate, fields)]
        if rep.note:
            lines.append(f"note: {rep.note}")
    elif op == "quasi-alt":
        unreduced, reduced = lm.quasi_alt(args.delta)
        fields = {"result": {"unreduced": str(unreduced), "reduced": str(reduced)}, "lines": []}
        lines = [f"unreduced: {unreduced}", f"reduced: {reduced}"]
    elif op == "triangle":
        ok = lm.triangle_check(args.a, args.b, args.c)
        fields, lines = {"result": ok, "lines": []}, [f"triangle admissible: {ok}"]
    elif op == "slope-prop":
        region = lm.slope_propagation(args.n, args.minimal == "yes")
        fields, lines = {"result": str(region), "lines": []}, [str(region)]
    elif op == "shape-classify":
        seqs = lm.sequences_from_csv(Path(args.csv).read_text(encoding="utf-8"))
        try:
            d0 = seqs[(lm.BUNDLE_TRIVIAL, lm.COEFF_F2)]
            dmu = seqs[(lm.BUNDLE_MU, lm.COEFF_F2)]
        except KeyError:
            raise CliError("csv must contain mod-2 rows for both bundle values", EXIT_USAGE)
        rep = lm.f2_shape_classify(d0, dmu)
        lines = [
            f"shape: {rep.shape.kind} with edge invariants ({rep.shape.nu_minus}, {rep.shape.nu_plus})",
            f"widths: plain {rep.width_0}, twisted {rep.width_mu}",
        ] + [f"note: {n}" for n in rep.notes]
        fields = {"result": {"kind": rep.shape.kind, "nu_plus": rep.shape.nu_plus,
                             "nu_minus": rep.shape.nu_minus, "width_0": str(rep.width_0),
                             "width_mu": str(rep.width_mu)},
                  "lines": lines}
    elif op == "t2-check":
        seqs = lm.sequences_from_csv(Path(args.csv).read_text(encoding="utf-8"))
        try:
            seq_c = seqs[(lm.BUNDLE_TRIVIAL, lm.COEFF_C)]
            seq_f2 = seqs[(lm.BUNDLE_TRIVIAL, lm.COEFF_F2)]
        except KeyError:
            raise CliError("csv must contain trivial-bundle rows over both coefficients", EXIT_USAGE)
        rep = lm.t2_monotone_check(seq_c, seq_f2, args.nu)
        lines = [f"t2 at n={n}: {v}" for n, v in sorted(rep.t2.items())]
        lines.append("monotone past the valley: ok" if rep.ok
                     else f"violation at n={rep.first_violation}")
        fields = {"result": {"ok": rep.ok, "first_violation": rep.first_violation,
                             "t2": {str(n): v for n, v in rep.t2.items()}},
                  "lines": lines}
        code = EXIT_OK if rep.ok else EXIT_VIOLATION
    _emit(args, {"schema_version": 1, "kind": "ledger", **fields}, lines, csv_rows)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegboard",
        description="Exact peg-board pairing calculator and dimension/torsion ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    p_zoo = sub.add_parser("zoo", help="list built-in diagrams")
    p_zoo.add_argument("action", choices=("list",))
    p_zoo.set_defaults(func=cmd_zoo)

    p_pair = sub.add_parser("pair", help="filling dimensions via minimal intersections")
    p_pair.add_argument("knot")
    p_pair.add_argument("slopes", nargs="+", metavar="p/q")
    p_pair.set_defaults(func=cmd_pair)

    p_hfk = sub.add_parser("hfk", help="graded dual-knot dimensions (1/0 = the knot itself)")
    p_hfk.add_argument("knot")
    p_hfk.add_argument("slope", metavar="p/q")
    p_hfk.set_defaults(func=cmd_hfk)

    p_diff = sub.add_parser("diff", help="first-differential ranks against census bounds")
    p_diff.add_argument("knot")
    p_diff.add_argument("slope", metavar="p/q")
    p_diff.set_defaults(func=cmd_diff)

    p_inv = sub.add_parser("invariants", help="genus, tau, epsilon, extrema census")
    p_inv.add_argument("knot")
    p_inv.set_defaults(func=cmd_invariants)

    p_scan = sub.add_parser("scan-simple", help="dual-simplicity scan over a slope grid")
    p_scan.add_argument("knot")
    p_scan.add_argument("--pmax", type=int, required=True)
    p_scan.add_argument("--qmax", type=int, required=True)
    p_scan.add_argument("--all", action="store_true", help="print every slope, not just flagged")
    p_scan.set_defaults(func=cmd_scan_simple)

    p_demo = sub.add_parser("demo", help="worked narrative computations")
    p_demo.add_argument("which", choices=("poincare",))
    p_demo.set_defaults(func=cmd_demo)

    p_render = sub.add_parser("render", help="emit a deterministic SVG picture")
    p_render.add_argument("knot")
    p_render.add_argument("--overlay", help="dashed filling-line family of this slope")
    p_render.add_argument("--overlay-arc", help="dashed arc 'p/q@h'")
    p_render.add_argument("--out", help="write the SVG here instead of stdout")
    p_render.set_defaults(func=cmd_render)

    p_ledger = sub.add_parser("ledger", help="dimension arithmetic and torsion certificates")
    lsub = p_ledger.add_subparsers(dest="op", required=True)

    p = lsub.add_parser("dim-seq")
    p.add_argument("--shape", choices=("V", "W"), required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--start", type=int, default=-6)
    p.add_argument("--stop", type=int, default=6)

    p = lsub.add_parser("half-dim")
    p.add_argument("n", type=int)
    p.add_argument("nu", type=int)
    p.add_argument("dim", type=int)

    p = lsub.add_parser("dgamma")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--start", type=int, default=-6)
    p.add_argument("--stop", type=int, default=6)

    p = lsub.add_parser("torsion-half")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = lsub.add_parser("dual-one")
    p.add_argument("d_top", type=int)
    p.add_argument("dim1", type=int)

    p = lsub.add_parser("no-torsion")
    p.add_argument("n", type=int)
    p.add_argument("shape", choices=("V", "W"))
    p.add_argument("nu", type=int)
    p.add_argument("tau", type=int)

    p = lsub.add_parser("genus-one")
    p.add_argument("a", type=int)
    p.add_argument("tau", type=int)
    p.add_argument("d_top", type=int)

    p = lsub.add_parser("unknotting-one")
    p.add_argument("dim", type=int)

    p = lsub.add_parser("quasi-alt")
    p.add_argument("delta", type=int)

    p = lsub.add_parser("triangle")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)

    p = lsub.add_parser("slope-prop")
    p.add_argument("n", type=int)
    p.add_argument("minimal", choices=("yes", "no"))

    p = lsub.add_parser("shape-classify")
    p.add_argument("csv")

    p = lsub.add_parser("t2-check")
    p.add_argument("csv")
    p.add_argument("--nu", type=int, required=True)

    p_ledger.set_defaults(func=cmd_ledger)
    for p in (*sub.choices.values(), *lsub.choices.values()):
        if p not in (p_render, p_ledger):  # render has its own --out
            p.add_argument("--format", choices=("text", "json", "csv"), default="text")
            p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parse_args keeps no state
    on it between calls, and building it costs more than most commands."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (NoVerticalCrossing, AmbiguousHeight) as exc:
        # the diagram passed validation but its tau cannot be read: its
        # distinguished component passes the peg column only along runs,
        # or first crosses it on a peg row
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
