"""Golden bytes for `pegboard ledger`.

A fixed grid of ledger commands (every op, in every format, with refused
inputs among them) runs through `cli.main`.  For each (op, format) the exit
codes, stdout and stderr of its commands are hashed in order into one
sha256, and the hashes must equal `golden/ledger_cli.json`.

The file pins the ledger's output as it is; a change that means to alter
that output regenerates it with `python tests/test_ledger_golden.py`, and
the new file is part of the reviewed diff.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "ledger_cli.json"
FORMATS = ("text", "json", "csv")
SPAN = range(-4, 5)


def _csv(rows) -> str:
    return "n,value,bundle,coefficient\n" + "".join(f"{n},{v},{b},{c}\n" for n, v, b, c in rows)


def _f2_pair(d0: dict, dmu: dict) -> str:
    return _csv([(n, d0[n], "trivial", "F2") for n in sorted(d0)]
                + [(n, dmu[n], "mu", "F2") for n in sorted(dmu)])


def _shape_fixtures() -> list:
    """(d0, dmu) mod-2 pairs: one of each shape, W with even and odd middle."""
    w_even = ({n: abs(n) if n else 2 for n in SPAN}, {n: abs(n) for n in SPAN})
    # W with middle 1: d0 dips at 0 and 2, the twisted sequence is two above there
    d0 = {n: 1 - n if n <= 0 else (2 if n == 1 else n - 1) for n in SPAN}
    w_odd = (d0, {n: v + 2 if n in (0, 2) else v for n, v in d0.items()})
    v_shape = ({n: 1 + abs(n - 1) for n in SPAN},) * 2
    span7 = range(-7, 8)
    d0 = {n: 1 + (-3 - n) if n <= -3 else 1 + (n - 3) if n >= 3 else (1 if n % 2 else 2)
          for n in span7}
    gen_w = (d0, {n: v - 2 if n % 2 == 0 and -3 <= n <= 3 else v for n, v in d0.items()})
    base = [w_even, w_odd, v_shape, gen_w]
    mirrored = [tuple({-n: v for n, v in s.items()} for s in pair) for pair in base]
    return base + mirrored


def _shape_csvs() -> list[str]:
    """Each fixture, each single-value perturbation of it, seeded random
    pairs, and malformed files."""
    texts = []
    for d0, dmu in _shape_fixtures():
        texts.append(_f2_pair(d0, dmu))
        for which, n, delta in itertools.product((0, 1), sorted(d0), (-2, -1, 1, 2)):
            pair = [dict(d0), dict(dmu)]
            pair[which][n] += delta
            texts.append(_f2_pair(*pair))
    rng = random.Random(13)
    for _ in range(400):
        # unit slopes at both ends around a random interior, twisted gaps at
        # even interior points, mostly where the plain neighbors are flat
        d0 = {-2: rng.randint(1, 3)}
        for n in range(-1, 3):
            d0[n] = max(0, d0[n - 1] + rng.choice((-1, 0, 1)))
        for n in (-3, -4):
            d0[n] = d0[n + 1] + 1
        for n in (3, 4):
            d0[n] = d0[n - 1] + 1
        dmu = {n: max(0, v + rng.choice((-2, 0, 2)))
               if n % 2 == 0 and -2 <= n <= 2 and (d0[n - 1] == d0[n + 1] or rng.random() < 0.2)
               else v for n, v in d0.items()}
        texts.append(_f2_pair(d0, dmu))
    texts += [
        "n,value\n0,1\n",
        "n,value,bundle,coefficient\n0,1,trivial\n",
        _csv([(n, abs(n), "trivial", "F2") for n in SPAN]),
        _csv([(0, 1, "trivial", "F2"), (0, 1, "mu", "F2")]),
        _f2_pair({0: 1, 1: 2}, {1: 2, 2: 3}),
        _f2_pair({n: abs(n) for n in SPAN if n != 1}, {n: abs(n) for n in SPAN}),
    ]
    return texts


def _t2_csvs() -> list[str]:
    c = {n: abs(n) + 1 for n in SPAN}
    gaps = [
        {n: 0 for n in SPAN},
        {n: 2 for n in SPAN},
        {n: 2 * max(0, 2 - abs(n)) for n in SPAN},
        {n: 2 * max(0, n) for n in SPAN},
        {n: 1 if n == 2 else 0 for n in SPAN},
        {n: -2 if n == -1 else 0 for n in SPAN},
    ]
    texts = [_csv([(n, c[n], "trivial", "C") for n in SPAN]
                  + [(n, c[n] + g[n], "trivial", "F2") for n in SPAN]) for g in gaps]
    texts += [
        _csv([(n, c[n], "trivial", "C") for n in SPAN]),
        _csv([(0, 1, "trivial", "C"), (2, 1, "trivial", "F2")]),
    ]
    return texts


def ledger_grid(workdir: Path) -> dict:
    """op -> argument lists; the CSV files the grid reads go into workdir."""
    r = range
    grid = {
        "dim-seq": [
            ["--shape", s, "--nu", str(nu), "--base", str(b), "--start", str(a), "--stop", str(z)]
            for s, nu, b, (a, z) in itertools.product(
                ("V", "W"), r(-2, 3), r(0, 3), ((-3, 3), (2, 1), (0, 0)))
        ],
        "half-dim": [[str(n), str(nu), str(d)]
                     for n, nu, d in itertools.product(r(-2, 3), r(-2, 3), r(0, 4))],
        "dgamma": [
            ["--tau", str(t), "--min", str(m), "--start", str(a), "--stop", str(z)]
            for t, m, (a, z) in itertools.product(r(-1, 2), r(0, 3), ((-3, 3), (2, 1), (0, 0)))
        ],
        "torsion-half": [[str(n), str(k)] for n, k in itertools.product(r(-2, 3), r(-1, 4))],
        "dual-one": [[str(t), str(d)] for t, d in itertools.product(r(-1, 4), r(-1, 4))],
        "no-torsion": [
            [str(n), s, str(nu), str(t)]
            for n, s, nu, t in itertools.product(r(-1, 4), ("V", "W"), r(-3, 4), r(-2, 3))
        ],
        "genus-one": [[str(a), str(t), str(d)]
                      for a, t, d in itertools.product(r(-3, 4), r(-2, 3), r(-1, 5))],
        "unknotting-one": [[str(d)] for d in r(-1, 13)],
        "quasi-alt": [[str(d)] for d in r(-1, 10)],
        "triangle": [[str(a), str(b), str(c)] for a, b, c in itertools.product(r(0, 4), repeat=3)],
        "slope-prop": [[str(n), m] for n, m in itertools.product(r(-1, 4), ("yes", "no"))],
        "shape-classify": [],
        "t2-check": [],
    }
    for i, text in enumerate(_shape_csvs()):
        (workdir / f"shape{i:03d}.csv").write_text(text, encoding="utf-8")
        grid["shape-classify"].append([f"shape{i:03d}.csv"])
    for i, text in enumerate(_t2_csvs()):
        (workdir / f"t2{i:03d}.csv").write_text(text, encoding="utf-8")
        grid["t2-check"] += [[f"t2{i:03d}.csv", "--nu", str(nu)] for nu in r(-2, 3)]
    return grid


def ledger_digests(workdir: Path) -> dict:
    """{op: {format: sha256}} over the grid, run with workdir as the cwd."""
    from pegboard.cli import main

    grid = ledger_grid(workdir)
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for op, arg_lists in grid.items():
            digests[op] = {}
            for fmt in FORMATS:
                h = hashlib.sha256()
                for args in arg_lists:
                    argv = ["ledger", op, *args, "--format", fmt]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                    h.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
                digests[op][fmt] = h.hexdigest()
    finally:
        os.chdir(cwd)
    return digests


def test_ledger_cli_output_matches_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert ledger_digests(tmp_path) == golden


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(ledger_digests(Path(tmp)), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
