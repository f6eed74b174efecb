"""Every name a package module imports is used in that module, and no
module has an ``assert`` statement (``python -O`` strips them, so a check
must raise).  No linter is a dependency, so these tests are the guards."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "supercoinv"


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_guard_flags_an_unused_import():
    assert _unused_imports("import os\nfrom math import comb, gcd\ngcd(1)\n") \
        == [(1, "os"), (2, "comb")]
    assert _unused_imports("import os.path\nos.path.join('a')\n") == []


def test_package_modules_have_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        assert _unused_imports(path.read_text()) == [], path.name


def _asserts(source):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_guard_flags_an_assert():
    assert _asserts("x = 1\nassert x\nif x:\n    assert x > 0\n") == [2, 4]


def test_package_modules_have_no_assert():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _asserts(path.read_text()) == [], path.name
