"""Every top-level function and class of the package is used in the package,
and every import is used in its module.

A top-level definition in `src/pegboard` counts as used when some module
of the package refers to it outside the definition itself: by name, as an
attribute or in an import.  A definition that nothing refers to is dead
code, unless it is one of the names in `KEPT`, each kept for the reason
given there.  A name that a module imports counts as used when the module
reads it by name or lists it in its `__all__`; an import that its module
never uses is dead too, unless it is one of the names in `KEPT_IMPORTS`.
"""

import ast
from pathlib import Path

import pegboard

PACKAGE = Path(pegboard.__file__).parent

KEPT = {
    "geometry.winding_number": "perfbench/bench_trace.py wraps it by name",
    "pairing.arc_points": "perfbench/bench_trace.py wraps it by name",
    "textfmt.emit_curve_text": "the public writer, which perfbench set-up calls",
}

KEPT_IMPORTS = {
    "differentials.GradingOutOfRange": "its home before it moved to pairing, where callers still import it",
}


def references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of each name, attribute and imported name in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno) for alias in node.names]
    return out


def unreferenced(package: Path) -> list[str]:
    """`module.name` of each top-level function or class that no module
    of the package in that directory refers to outside its own definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    refs = {module: references(tree) for module, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            used = any(name == node.name and (other != module or line not in own)
                       for other, found in refs.items() for name, line in found)
            if not used:
                dead.append(f"{module}.{node.name}")
    return dead


def unused_imports(package: Path) -> list[str]:
    """`module.name` of each name that a module of the package in that
    directory imports and then never reads by name nor lists in its
    `__all__`; `from __future__` imports are directives, not names."""
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        unused += [f"{path.stem}.{name}" for name in imported if name not in read]
    return unused


def test_every_top_level_definition_is_used():
    assert sorted(unreferenced(PACKAGE)) == sorted(KEPT)


def test_the_check_finds_an_unused_definition(tmp_path):
    # A function that only calls itself is unused.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "geometry.py", "a") as f:
        f.write("\n\ndef unused_peg_search(s):\n    return unused_peg_search(s)\n")
    assert sorted(unreferenced(tmp_path)) == sorted([*KEPT, "geometry.unused_peg_search"])


def test_every_import_is_used():
    assert sorted(unused_imports(PACKAGE)) == sorted(KEPT_IMPORTS)


def test_the_check_finds_an_unused_import(tmp_path):
    # An import that nothing in its module reads is unused, whether of a
    # module, of a name or under another name.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "differentials.py", "a") as f:
        f.write("\nimport bisect\nfrom fractions import Fraction as F\n")
    assert sorted(unused_imports(tmp_path)) == sorted([*KEPT_IMPORTS, "differentials.bisect",
                                                       "differentials.F"])
