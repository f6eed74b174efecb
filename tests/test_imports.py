"""Every name a package module imports is used in that module, every
import sits at module level, no module has an ``assert`` statement
(``python -O`` strips them, so a check must raise), ``Fraction`` is used
only where a true rational is needed, only ``SparseTerms._like`` builds a
sparse-term result without its constructor, and every function, class
and method of the package is referenced somewhere.  No linter is a
dependency, so these tests are the guards."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "supercoinv"


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


def _nested_imports(source):
    """Line numbers of every import below module level."""
    tree = ast.parse(source)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and node not in tree.body]


def test_guard_flags_a_nested_import():
    source = ("import os\n"
              "def f():\n"
              "    from math import comb\n"
              "    return comb(2, 1)\n"
              "class C:\n"
              "    import json\n")
    assert _nested_imports(source) == [3, 6]


def test_package_imports_are_at_module_level():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _nested_imports(path.read_text()) == [], path.name


def _asserts(source):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_guard_flags_an_assert():
    assert _asserts("x = 1\nassert x\nif x:\n    assert x > 0\n") == [2, 4]


def test_package_modules_have_no_assert():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _asserts(path.read_text()) == [], path.name


# the only places a rational number is formed: back-substitution
FRACTION_SCOPES = {"QMatrix.solve", "QMatrix.kernel_basis",
                   "_back_substitute"}


def _scoped(source, match):
    """(line, enclosing qualified name) of every node ``match`` accepts."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if match(node):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def _fraction_uses(source):
    """(line, enclosing qualified name) of every use of ``Fraction``; the
    import itself is not a use."""
    return _scoped(source, lambda node: (
        isinstance(node, ast.Name) and node.id == "Fraction"
        or isinstance(node, ast.Attribute) and node.attr == "Fraction"))


def test_guard_flags_fraction_outside_back_substitution():
    source = ("from fractions import Fraction\n"
              "import fractions\n"
              "class QMatrix:\n"
              "    def solve(self):\n"
              "        return Fraction(1)\n"
              "def helper():\n"
              "    return fractions.Fraction(1, 2)\n"
              "HALF = Fraction(1, 2)\n")
    assert _fraction_uses(source) == [(5, "QMatrix.solve"), (7, "helper"),
                                      (8, "")]


def test_fraction_only_in_back_substitution():
    for path in sorted(PACKAGE.glob("*.py")):
        stray = [(line, scope) for line, scope
                 in _fraction_uses(path.read_text())
                 if scope not in FRACTION_SCOPES]
        assert stray == [], path.name


# the one place a result is built without running its class's constructor
NEW_SCOPES = {"SparseTerms._like"}


def _new_calls(source):
    """(line, enclosing qualified name) of every call ``X.__new__(...)``
    on a named class; ``super().__new__`` in a ``__new__`` is not one."""
    return _scoped(source, lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)))


def test_guard_flags_a_hand_built_result():
    source = ("class MPoly:\n"
              "    def partial(self):\n"
              "        r = MPoly.__new__(MPoly)\n"
              "        return r\n"
              "class Engine:\n"
              "    def __new__(cls):\n"
              "        return super().__new__(cls)\n"
              "def act(f):\n"
              "    return object.__new__(type(f))\n")
    assert _new_calls(source) == [(3, "MPoly.partial"), (9, "act")]


def test_results_are_built_only_by_like():
    for path in sorted(PACKAGE.glob("*.py")):
        stray = [(line, scope) for line, scope
                 in _new_calls(path.read_text())
                 if scope not in NEW_SCOPES]
        assert stray == [], path.name


def _definitions(source):
    """(name, is_method) of every top-level function and class, and of
    every method that is not a dunder."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, False))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, True) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__")]
    return out


def _references(source):
    """(names, attributes): every name read or imported, and every
    attribute taken.  A ``def`` or ``class`` statement is not a reference
    to its own name, and a method is referenced only as an attribute, so
    a local variable of the same name does not count."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attrs


def _unreferenced(package_sources, other_sources):
    names, attrs = set(), set()
    for source in package_sources + other_sources:
        n, a = _references(source)
        names |= n
        attrs |= a
    return sorted(name for source in package_sources
                  for name, is_method in _definitions(source)
                  if name not in attrs and (is_method or name not in names))


def test_guard_flags_an_unreferenced_definition():
    package = ["def used():\n    pass\n"
               "def unused():\n    pass\n"
               "class Box:\n"
               "    def __init__(self):\n        pass\n"
               "    def read(self):\n        pass\n"
               "    def dead(self):\n        dead = 1\n        return dead\n"]
    tests = ["from pkg import Box, used\nused()\nBox().read()\n"]
    assert _unreferenced(package, tests) == ["dead", "unused"]


def test_every_definition_is_referenced():
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    others = [path.read_text()
              for folder in ("tests", "bench")
              for path in sorted((ROOT / folder).glob("*.py"))]
    assert _unreferenced(package, others) == []
