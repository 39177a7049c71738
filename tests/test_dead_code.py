"""Every top-level function and class of the package is used in the package,
every import is used in its module, and no module imports another
module's private name.

A top-level definition in `src/pegboard` counts as used when some module
of the package refers to it outside the definition itself: by name, as an
attribute or in an import.  A definition that nothing refers to is dead
code, unless it is one of the names in `KEPT`, each kept for the reason
given there.  A name that a module imports counts as used when the module
reads it by name or lists it in its `__all__`; an import that its module
never uses is dead too.  A name with a leading underscore is private to
its module: another module of the package that needs it calls for a
public reader instead.
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


def private_imports(package: Path) -> list[str]:
    """`module.name` of each private name, one with a leading underscore
    but not a dunder, that a module of the package in that directory
    imports from another module of the package."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pegboard")):
                found += [f"{path.stem}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_every_import_is_used():
    assert unused_imports(PACKAGE) == []


def test_the_check_finds_an_unused_import(tmp_path):
    # An import that nothing in its module reads is unused, whether of a
    # module, of a name or under another name.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "differentials.py", "a") as f:
        f.write("\nimport bisect\nfrom fractions import Fraction as F\n")
    assert sorted(unused_imports(tmp_path)) == ["differentials.F", "differentials.bisect"]


def test_no_module_imports_a_private_name():
    assert private_imports(PACKAGE) == []


def test_the_check_finds_a_private_import(tmp_path):
    # A private name imported from a sibling module, relatively or by the
    # package's name, is found; a dunder or a public name is not.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "differentials.py", "a") as f:
        f.write("\nfrom .pairing import _walk, walk_columns\n"
                "from pegboard.curves import _cycle_key\nfrom . import __version__\n")
    assert private_imports(tmp_path) == ["differentials._walk", "differentials._cycle_key"]
