"""In-process A/B timing of two pegboard checkouts on one benchmark workload.

    python3 tools/ab_compare.py OTHER_CHECKOUT --workload fill|graded|scan \
        [--passes N] [--pool-seed S]

Run from a checkout.  Its ``pegboard`` (``src/`` next to this directory)
and OTHER_CHECKOUT's are imported side by side in one process, as two
packages under their own names.  The operation list is the one that
``perfbench/bench_workloads.py`` of this checkout draws for the workload
and pool seed; that module is read, never changed, and the pool's curve
files are written by this checkout's ``emit_curve_text`` into a temporary
directory that the commands run in.  Each pass runs every command once on
each copy, back to back, alternating from command to command and from
pass to pass which copy goes first, so both see the same machine speed.

Each copy's figures are perfbench's, over the per-command medians: the
workload's ``wall_s`` (their sum), ``op_ms.p50`` and ``op_ms.p90``.  The
tool prints each for both copies and the ratio this/other, and the number
of commands whose exit code or output differs between the copies.

It measures CPU time only.  The two copies share one interpreter, one
heap and one garbage collector, so neither copy's ``peak_rss_mb`` (or
collector cadence) can be read off this run; use ``perfbench/run.py`` in
each checkout for those.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    """The module at path, or the package in directory path, imported
    under `name`; a package's submodules then import as `name.<module>`."""
    if path.is_dir():
        spec = importlib.util.spec_from_file_location(name, path / "__init__.py",
                                                      submodule_search_locations=[str(path)])
    else:
        spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_copy(checkout: Path, name: str):
    """(cli, curves, textfmt) of the checkout's pegboard, imported as the
    package `name`, so that two checkouts' copies live side by side."""
    package = checkout / "src" / "pegboard"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no pegboard sources under {checkout / 'src'}")
    _load(name, package)
    return tuple(importlib.import_module(f"{name}.{module}") for module in ("cli", "curves", "textfmt"))


def run(cli, argv) -> tuple:
    """(exit code, stdout, seconds) of one in-process command."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue(), time.perf_counter() - t0


def quantile(values, q: float) -> float:
    """The q-quantile as perfbench reads it (`statistics.quantiles`, n=100)."""
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def figures(medians: list[float]) -> dict:
    """wall_s, op_ms.p50 and op_ms.p90 over the per-command medians."""
    return {"wall_s": sum(medians), "op_ms.p50": 1000 * statistics.median(medians),
            "op_ms.p90": 1000 * quantile(medians, 0.9)}


def compare(other: Path, workload: str, passes: int, pool_seed: int) -> dict:
    """Run the workload on both copies; returns {"this": figures, "other":
    figures, "commands": count, "differing": labels of differing commands}."""
    wl = _load("ab_bench_workloads", ROOT / "perfbench" / "bench_workloads.py")
    this_cli, curves, textfmt = load_copy(ROOT, "pegboard_this")
    other_cli = load_copy(other.resolve(), "pegboard_other")[0]
    pool = wl.draw_pool(pool_seed)
    ops = wl.workload_ops(workload, pool_seed, pool)
    times = {"this": [[] for _ in ops], "other": [[] for _ in ops]}
    differing = set()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        curve_dir = Path(work, wl.CURVE_DIR)
        curve_dir.mkdir(parents=True)
        for spec in pool:
            if spec.kind != "zoo":
                text = textfmt.emit_curve_text(wl.build_diagram(spec, curves))
                Path(work, spec.selector).write_text(text, encoding="utf-8")
        os.chdir(work)
        try:
            for n in range(passes):
                for i, op in enumerate(ops):
                    sides = [("this", this_cli), ("other", other_cli)]
                    if (n + i) % 2:
                        sides.reverse()
                    results = {}
                    for side, cli in sides:
                        code, out, seconds = run(cli, op.argv)
                        times[side][i].append(seconds)
                        results[side] = (code, out)
                    if results["this"] != results["other"]:
                        differing.add(op.label)
        finally:
            os.chdir(cwd)
    out = {side: figures([statistics.median(t) for t in per_op]) for side, per_op in times.items()}
    return {**out, "commands": len(ops), "differing": sorted(differing)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", type=Path, help="the checkout to compare against")
    ap.add_argument("--workload", required=True, choices=("fill", "graded", "scan"))
    ap.add_argument("--passes", type=int, default=10)
    ap.add_argument("--pool-seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    result = compare(args.other, args.workload, args.passes, args.pool_seed)
    print(f"workload {args.workload}, pool seed {args.pool_seed}, {result['commands']} commands, "
          f"{args.passes} passes; per-command medians, CPU time only")
    for name in ("wall_s", "op_ms.p50", "op_ms.p90"):
        this, other = result["this"][name], result["other"][name]
        print(f"{name}: this {this:.6g} other {other:.6g} ratio {this / other:.4f}")
    for label in result["differing"]:
        print(f"differs {label}")
    print(f"differing outputs: {len(result['differing'])} of {result['commands']} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
