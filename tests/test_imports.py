"""Every name a package module imports is used in that module.  No linter
is a dependency, so this test is the guard against dead imports."""

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
