"""Every top-level function and class of the package is used in the package,
every property is read in it, every import is used in its module, no
module imports another module's private name, and none imports
`dataclasses`.

A top-level definition in `src/pegboard` counts as used when some module
of the package refers to it outside the definition itself: by name, as an
attribute or in an import.  A definition that nothing refers to is dead
code, unless it is one of the names in `KEPT`, each kept for the reason
given there.  A `@property` or `cached_property` of a class in the package
counts as read when some module reads an attribute of its name outside the
property's own definition; a read off `self` counts only for the class
that holds it.  The check goes by name, so a property that shares its name
with a read property of another class passes it.  A name that a module
imports counts as used when the module reads it by name or lists it in its
`__all__`; an import that its module never uses is dead too.  A name with a leading underscore is private to
its module: another module of the package that needs it calls for a
public reader instead.  The package's records are named tuples:
`dataclasses` would bring `inspect`, `ast`, `dis` and `tokenize` into
every command's start-up.
"""

import ast
from pathlib import Path
from typing import Optional

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


def attribute_reads(tree: ast.AST) -> list[tuple[str, int, Optional[str]]]:
    """(attribute, line, owner) of each attribute the tree reads: owner is
    the name of the innermost class around a read off `self`, else None."""
    owners = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
                    owners[node] = cls.name
    return [(node.attr, node.lineno, owners.get(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


def unread_properties(package: Path) -> list[str]:
    """`module.Class.name` of each `@property` or `cached_property` of a
    top-level class of the package in that directory that no module of it
    reads: no read of an attribute of that name outside the property's own
    definition, off `self` only in that class."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reads = {module: attribute_reads(tree) for module, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for fn in cls.body:
                decorators = [getattr(d, "id", getattr(d, "attr", None)) for d in getattr(fn, "decorator_list", ())]
                if not {"property", "cached_property"} & set(decorators):
                    continue
                own = range(fn.lineno, fn.end_lineno + 1)
                read = any(attr == fn.name and owner in (None, cls.name) and (other != module or line not in own)
                           for other, found in reads.items() for attr, line, owner in found)
                if not read:
                    unread.append(f"{module}.{cls.name}.{fn.name}")
    return unread


def test_every_property_is_read():
    assert unread_properties(PACKAGE) == []


def test_the_check_finds_an_unread_property(tmp_path):
    # A property read only in its own body, or only off `self` in another
    # class, is unread; a cached_property read off `self` in its own class
    # is read.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "geometry.py", "a") as f:
        f.write("\n\nfrom functools import cached_property\n\n\n"
                "class PegProbe:\n    @property\n    def probe_span(self):\n        return self.probe_span\n\n"
                "    @property\n    def probe_depth(self):\n        return 0\n\n\n"
                "class PegGauge:\n    @cached_property\n    def probe_depth(self):\n        return 1\n\n"
                "    def total(self):\n        return self.probe_depth\n")
    assert unread_properties(tmp_path) == ["geometry.PegProbe.probe_span", "geometry.PegProbe.probe_depth"]


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


def importers_of(package: Path, name: str) -> list[str]:
    """Stem of each module of the package in that directory that imports
    the module `name` or a name from it, once per import statement."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import) and any(alias.name == name for alias in node.names)
                    or isinstance(node, ast.ImportFrom) and not node.level and node.module == name):
                found.append(path.stem)
    return found


def test_no_module_imports_dataclasses():
    assert importers_of(PACKAGE, "dataclasses") == []


def test_the_check_finds_a_dataclasses_import(tmp_path):
    # A plain or aliased import of the module and an import from it are
    # found; a relative import of a sibling module is not.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "geometry.py", "a") as f:
        f.write("\nimport dataclasses as dc\n")
    with open(tmp_path / "ledger.py", "a") as f:
        f.write("\nfrom dataclasses import dataclass, field\nfrom . import geometry\n")
    assert importers_of(tmp_path, "dataclasses") == ["geometry", "ledger"]
