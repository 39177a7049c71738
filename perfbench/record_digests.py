"""Record the reference digests that run.py checks outputs against.

    python3 perfbench/record_digests.py

Runs one pass of every workload at the default seed, checks each output
with the oracles, and writes the sha256 of every JSON output, keyed by
operation label, to perfbench/digests.json.  Rerun only when an output
change is deliberate.
"""

from __future__ import annotations

import json
import os
import sys

import run
import bench_oracle
import bench_workloads as wl


def main() -> int:
    os.chdir(run.ROOT)
    cli, pool = run.setup(wl.DEFAULT_SEED)
    digests: dict = {}
    bad = 0
    for workload in wl.WORKLOADS:
        ops = wl.workload_ops(workload, wl.DEFAULT_SEED, pool)
        for op, (rc, text, *_) in zip(ops, run.run_pass(cli, ops)):
            reasons = bench_oracle.check_output(op, rc, text) if isinstance(rc, int) else [rc]
            h = run.digest(text)
            if digests.setdefault(op.label, h) != h:
                reasons.append("two outputs for one label")
            for reason in reasons:
                bad += 1
                print(f"FAIL {op.label}: {reason}", file=sys.stderr)
    if bad:
        print("digests not written", file=sys.stderr)
        return 1
    run.DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(digests)} digests to {run.DIGESTS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
