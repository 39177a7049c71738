"""pegboard benchmark: seeded CLI workloads, checked, timed end to end and
per layer.

    python3 perfbench/run.py --workload fill|graded|scan --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; pegboard is imported from ``src/`` there,
never from an installed copy.  One process, one thread.  Each operation is
one in-process ``pegboard.cli.main(argv)`` call with ``--format json``.

A pass runs the workload's operation list once.  With ``--trace 0`` passes
repeat until ``--seconds`` have elapsed (at least MIN_PASSES of them) and
the end-to-end metrics are reported.  With ``--trace 1`` every operation
runs once untraced and, right after, once traced, and the per-layer metrics
are reported.  Outputs are checked after each pass, outside the timed
region.  The last line of standard output is one JSON object; a summary
with every metric, its unit and the sample counts comes before it.

Times are reported in reference seconds: each measured time is scaled by
PROBE_REF_S / (time of a fixed arithmetic probe run around it), which
cancels the machine's own speed swings (see NOTES.md).  The summary also
prints the raw wall-clock figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 9
MIN_PASSES = 2
# The probe sums 1/k for k = 1..PROBE_TERMS in exact fractions: the same
# interpreter, bignum and allocation work that pegboard's kernel does, and
# none of pegboard's code.  PROBE_REF_S is its time on the sizing machine
# (Python 3.11.7) when that machine runs at full speed.
PROBE_TERMS = 300
PROBE_REF_S = 0.00062

sys.path.insert(0, str(HERE))

import bench_oracle  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (for example: no pegboard sources)."""


def probe() -> float:
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, PROBE_TERMS + 1):
        total += Fraction(1, k)
    return time.perf_counter() - t0


def _import_pegboard():
    if not (SRC / "pegboard" / "__init__.py").is_file():
        raise BenchError(f"no pegboard sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "pegboard" or m.startswith("pegboard.")]:
        del sys.modules[name]
    import pegboard.cli as cli
    import pegboard.curves as curves
    import pegboard.textfmt as textfmt

    if Path(cli.__file__).resolve().parent != (SRC / "pegboard").resolve():
        raise BenchError(f"pegboard was imported from {cli.__file__}, not from {SRC}")
    return cli, curves, textfmt


def setup(seed: int):
    """Import pegboard, build the zoo, generate the seeded pool and write its
    curve files.  Returns (cli module, pool)."""
    cli, curves, textfmt = _import_pegboard()
    for name in curves.zoo_names():
        curves.build_zoo(name)
    pool = wl.draw_pool(seed)
    (ROOT / wl.CURVE_DIR).mkdir(parents=True, exist_ok=True)
    for spec in pool:
        if spec.kind != "zoo":
            text = textfmt.emit_curve_text(wl.build_diagram(spec, curves))
            (ROOT / spec.selector).write_text(text, encoding="utf-8")
    return cli, pool


def timed_setup(seed: int):
    """Repeat the set-up; returns (cli, pool, raw seconds, reference seconds),
    each time the median over the repeats."""
    raw, ref = [], []
    p_before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli, pool = setup(seed)
        t = time.perf_counter() - t0
        p_after = probe()
        raw.append(t)
        ref.append(t * 2 * PROBE_REF_S / (p_before + p_after))
        p_before = p_after
    return cli, pool, statistics.median(raw), statistics.median(ref)


def run_op(cli, op):
    """One command: (exit code or error text, captured stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # an escaping exception is a failed operation
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), time.perf_counter() - t0


def run_pass(cli, ops):
    """Every operation once, each between two probes.  Returns a list of
    (rc, text, raw seconds, reference seconds)."""
    results = []
    p_before = probe()
    for op in ops:
        rc, text, t = run_op(cli, op)
        p_after = probe()
        results.append((rc, text, t, t * 2 * PROBE_REF_S / (p_before + p_after)))
        p_before = p_after
    return results


def run_paired_pass(cli, ops, tracer):
    """Every operation untraced, then traced right after it, so that both
    runs see the same machine speed.  Returns (untraced, traced) results."""
    plain, traced = [], []
    for i, op in enumerate(ops):
        plain.append(run_op(cli, op))
        tracer.op_id = i
        tracer.install()
        try:
            traced.append(run_op(cli, op))
        finally:
            tracer.uninstall()
    return plain, traced


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_pass(ops, results, digests, first_digests, failures) -> int:
    """Check one pass; append (label, reasons) to failures for each failed
    operation.  Returns the number of outputs compared against a reference
    digest."""
    compared = 0
    for i, (op, (rc, text, *_)) in enumerate(zip(ops, results)):
        reasons = bench_oracle.check_output(op, rc, text) if isinstance(rc, int) else [rc]
        h = digest(text)
        want = digests.get(op.label)
        if want is not None:
            compared += 1
            if h != want:
                reasons.append("output differs from the reference digest")
        if first_digests.setdefault(i, h) != h:
            reasons.append("output differs from an earlier run of the same command")
        if reasons:
            failures.append((op.label, reasons))
    return compared


def quantile(values, q: float) -> float:
    """The q-quantile by statistics.quantiles (exclusive method)."""
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(cli, ops, seconds, digests, failures):
    """Untraced passes until `seconds` have elapsed and MIN_PASSES are done.
    Returns (passes, digest comparisons); a pass is the list run_pass gives."""
    passes, first, compared = [], {}, 0
    t_end = time.perf_counter() + seconds
    while True:
        results = run_pass(cli, ops)
        passes.append(results)
        compared += check_pass(ops, results, digests, first, failures)
        if time.perf_counter() >= t_end and len(passes) >= MIN_PASSES:
            return passes, compared


def per_op_medians(passes, column: int) -> list[float]:
    """Each command's median time over the passes."""
    return [statistics.median(r[column] for r in runs) for runs in zip(*passes)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    try:
        cli, pool, setup_raw, setup_ref = timed_setup(args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops = wl.workload_ops(args.workload, args.seed, pool)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    failures: list = []
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations per pass")
    print("pool: " + json.dumps([s.describe() for s in pool]))

    if args.trace:
        tracer = bench_trace.Tracer()
        first: dict = {}
        plain, traced = run_paired_pass(cli, ops, tracer)
        compared = check_pass(ops, plain, digests, first, failures)
        compared += check_pass(ops, traced, digests, first, failures)
        attempted = 2 * len(ops)
        plain_s = sum(t for *_, t in plain)
        traced_s = sum(t for *_, t in traced)
        metrics = tracer.layer_metrics()
        metrics["bench.trace_overhead_frac"] = metric((traced_s - plain_s) / plain_s, "ratio")
        span_file = WORK / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write_spans(span_file)
        print(f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s (raw wall clock); "
              f"{len(tracer.start)} spans written to {span_file.relative_to(ROOT)}")
    else:
        passes, compared = measure(cli, ops, args.seconds, digests, failures)
        attempted = len(passes) * len(ops)
        ref = per_op_medians(passes, 3)
        raw = per_op_medians(passes, 2)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": metric(sum(ref), "s"),
            "op_ms.p50": metric(1000 * statistics.median(ref), "ms"),
            "op_ms.p90": metric(1000 * quantile(ref, 0.9), "ms"),
            "setup_s": metric(setup_ref, "s"),
            "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        }
        walls = ", ".join(f"{sum(r[2] for r in p):.3f}" for p in passes)
        print(f"passes: {len(passes)}; op_ms over {len(ref)} commands, each the median "
              f"of {len(passes)} runs")
        print(f"raw wall clock: passes {walls} s; wall_s {sum(raw):.4f} s, "
              f"op_ms.p50 {1000 * statistics.median(raw):.3f} ms, "
              f"op_ms.p90 {1000 * quantile(raw, 0.9):.3f} ms, setup_s {setup_raw:.4f} s")

    failed = len(failures)
    for label, reasons in failures:
        print(f"FAIL {label}: {'; '.join(reasons)}")
    print(f"digests compared: {compared} of {attempted} outputs")
    print(f"fail_frac: {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
