"""Every example in the README's "Command line" block runs.

Each `pegboard ...` line of the block goes through `cli.main` in a fresh
directory that holds a small valid `dims.csv` (the ledger example reads
it).  Each must exit 0, and each `--format json` output must parse as one
JSON value.
"""

import json
import shlex
from pathlib import Path

import pytest

from pegboard.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_lines() -> list[str]:
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("pegboard ")]


def write_dims_csv(path: Path) -> None:
    """Mod-2 rows for both bundle values: the unknot's V and W shapes."""
    rows = ["n,value,bundle,coefficient"]
    for n in range(-6, 7):
        rows.append(f"{n},{abs(n) if n else 2},trivial,F2")
        rows.append(f"{n},{abs(n) if n else 0},mu,F2")
    path.write_text("\n".join(rows) + "\n")


COMMANDS = command_lines()


def test_the_block_lists_every_command():
    named = {shlex.split(line, comments=True)[1] for line in COMMANDS}
    assert named == {"zoo", "invariants", "pair", "hfk", "diff", "scan-simple", "ledger",
                     "demo", "render"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_dims_csv(tmp_path / "dims.csv")
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        json.loads(out)
