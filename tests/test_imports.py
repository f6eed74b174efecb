"""Every name a package module imports is used in that module, every
import sits at module level, no module has an ``assert`` statement
(``python -O`` strips them, so a check must raise) or raises
``AssertionError`` (the command line reports only its own failure
types), ``Fraction`` is used only where a true rational is needed, only
``SparseTerms._like`` builds a sparse-term result without its
constructor, only ``collect`` sums coefficients by key and drops a zero
sum (the echelon kernel's in-place row subtraction aside), only
``combinatorics`` imports ``accumulate`` (it cuts the mu-blocks), no
class body holds a container, no function is wrapped in a process-global
cache and no function writes module-level state (one allowed exception),
and every function, class and method of the package is referenced
somewhere.  No linter is a dependency, so these tests are the guards."""

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
    """Line numbers of every ``assert`` statement and every ``raise`` of
    ``AssertionError``, called or not."""
    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Raise)
                  and raises_assertion_error(node))


def test_guard_flags_an_assert():
    assert _asserts("x = 1\nassert x\nif x:\n    assert x > 0\n") == [2, 4]
    source = ("def f(x):\n"
              "    if x < 0:\n"
              "        raise AssertionError('negative')\n"
              "    if x > 9:\n"
              "        raise AssertionError\n"
              "    raise ValueError('x')\n")
    assert _asserts(source) == [3, 5]


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


# the one place coefficients are summed by key and a zero sum is dropped,
# and the in-place row subtraction of the echelon kernel
ACCUMULATION_SCOPES = {"collect", "_IntEchelon.reduce"}


def _accumulations(source):
    """(line, enclosing qualified name) of every ``del d[k]`` and every
    ``d.get(k, 0) + c`` or ``- c``, either side of the operator."""
    def get_zero(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and len(node.args) == 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == 0)
    return _scoped(source, lambda node: (
        isinstance(node, ast.Delete)
        and any(isinstance(t, ast.Subscript) for t in node.targets)
        or isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.Add, ast.Sub))
        and (get_zero(node.left) or get_zero(node.right))))


def test_guard_flags_a_hand_copied_accumulation():
    source = ("def collect(pairs, out):\n"
              "    for k, c in pairs:\n"
              "        s = out.get(k, 0) + c\n"
              "class SymFn:\n"
              "    def add(self, out, k, c):\n"
              "        out[k] = out.get(k, 0) - c\n"
              "        n = 1 + out.get(k, 0)\n"
              "        m = out.get(k, 1) + c\n"
              "        if not out[k]:\n"
              "            del out[k]\n"
              "        del self.cache\n"
              "        return self.get(k, 0)\n"
              "def drop(d, k):\n"
              "    del d.cache, d[k]\n")
    assert _accumulations(source) == [(3, "collect"), (6, "SymFn.add"),
                                      (7, "SymFn.add"), (10, "SymFn.add"),
                                      (14, "drop")]


def test_accumulation_only_in_collect():
    for path in sorted(PACKAGE.glob("*.py")):
        stray = [(line, scope) for line, scope
                 in _accumulations(path.read_text())
                 if scope not in ACCUMULATION_SCOPES]
        assert stray == [], path.name


# the one module that sums mu into block ends: ``mu_blocks`` cuts every
# mu-interval, and ``block_parameters`` runs the staircase heights
ACCUMULATE_MODULES = {"combinatorics.py"}


def _accumulate_uses(source):
    """Line numbers of every import of ``itertools.accumulate`` and every
    ``itertools.accumulate`` attribute read."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and node.module == "itertools"
                  and any(a.name == "accumulate" for a in node.names)
                  or isinstance(node, ast.Attribute)
                  and node.attr == "accumulate")


def test_guard_flags_an_accumulate_import():
    source = ("from itertools import (combinations,\n"
              "                       accumulate)\n"
              "import itertools\n"
              "ends = list(itertools.accumulate((2, 1)))\n"
              "from math import comb\n")
    assert _accumulate_uses(source) == [1, 4]


def test_only_combinatorics_accumulates():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ACCUMULATE_MODULES:
            assert _accumulate_uses(path.read_text()) == [], path.name


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


# module-level state a function may write, each with the reason it stays
MUTABLE_STATE_ALLOWED = {
    "coinvariant.CACHE_STATS": "bench/worker.py reads the cache counters",
}
CONTAINER_CALLS = {"dict", "list", "set"}
CACHE_DECORATORS = {"cache", "lru_cache"}
MUTATING_METHODS = {"append", "extend", "insert", "remove", "pop", "popitem",
                    "clear", "update", "setdefault", "add", "discard", "sort",
                    "reverse"}


def _targets(node):
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _root_name(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_container(node):
    return (isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp))
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in CONTAINER_CALLS)


def _written_names(func, module_names):
    """(line, name) of every module-level name the function writes through
    a subscript or attribute target, a mutating method or ``global``;
    a parameter or local of the same name shadows it."""
    params = func.args
    local = {a.arg for a in params.posonlyargs + params.args
             + params.kwonlyargs + [params.vararg, params.kwarg] if a}
    local |= {node.id for node in ast.walk(func)
              if isinstance(node, ast.Name)
              and isinstance(node.ctx, ast.Store)}
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            found += [(node.lineno, name) for name in node.names]
            continue
        if isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = _targets(node)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATING_METHODS):
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            for t in (target.elts if isinstance(target, ast.Tuple)
                      else [target]):
                if isinstance(t, ast.Name) and not isinstance(node, ast.Call):
                    continue
                name = _root_name(t)
                if name in module_names and name not in local:
                    found.append((node.lineno, name))
    return found


def _cache_decorators(func):
    """(line, function name) of every ``cache``/``lru_cache`` decorator of
    the function, called or not, by name or as a module attribute."""
    found = []
    for dec in func.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = (target.attr if isinstance(target, ast.Attribute)
                else getattr(target, "id", None))
        if name in CACHE_DECORATORS:
            found.append((dec.lineno, func.name))
    return found


def _mutable_state(source):
    """(line, name) of every class-body assignment of a dict, list or set
    (named Class.attribute), of every function under a cache decorator
    (named by the function), and of every write by a function to a
    module-level name."""
    tree = ast.parse(source)
    module_names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            module_names |= {t.id for t in _targets(node)
                             if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module_names |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.Assign, ast.AnnAssign))
                        and item.value is not None
                        and _is_container(item.value)):
                    for t in _targets(item):
                        found.add((item.lineno, f"{node.name}.{t.id}"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(_written_names(node, module_names))
            found.update(_cache_decorators(node))
    return sorted(found)


def test_guard_flags_mutable_state():
    source = ("import os\n"
              "TABLE = {}\n"
              "STATS = {'hits': 0}\n"
              "SEEN = []\n"
              "COUNT = 0\n"
              "class Engine:\n"
              "    _instances = {}\n"
              "    _order: list = list()\n"
              "    _limit = 5\n"
              "    def get(self, n):\n"
              "        TABLE[n] = self\n"
              "        STATS['hits'] += 1\n"
              "        SEEN.append(n)\n"
              "        os.environ['X'] = '1'\n"
              "        return TABLE.get(n)\n"
              "def bump():\n"
              "    global COUNT\n"
              "    COUNT += 1\n"
              "def shadowed(TABLE):\n"
              "    TABLE[1] = 2\n"
              "    SEEN = []\n"
              "    SEEN.append(1)\n"
              "    del STATS['hits']\n")
    assert _mutable_state(source) == [
        (7, "Engine._instances"), (8, "Engine._order"), (11, "TABLE"),
        (12, "STATS"), (13, "SEEN"), (14, "os"), (17, "COUNT"),
        (23, "STATS")]


def test_guard_flags_a_cache_decorator():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=None)\n"
              "def binom(n, k):\n"
              "    return n\n"
              "class Q:\n"
              "    @classmethod\n"
              "    @functools.lru_cache\n"
              "    def row(cls, n):\n"
              "        return n\n"
              "    @property\n"
              "    def size(self):\n"
              "        return 0\n"
              "@cache\n"
              "def fact(n):\n"
              "    return n\n")
    assert _mutable_state(source) == [(3, "binom"), (8, "row"),
                                      (14, "fact")]


def test_package_keeps_no_mutable_state():
    for path in sorted(PACKAGE.glob("*.py")):
        stray = [(line, name) for line, name
                 in _mutable_state(path.read_text())
                 if f"{path.stem}.{name}" not in MUTABLE_STATE_ALLOWED]
        assert stray == [], path.name
