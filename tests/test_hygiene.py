"""Source hygiene: every name a module of the package imports is used, every
private name and every public function or class the package defines is read
somewhere in it or re-exported, every public method is read by the package
or the benchmark, every defaulted parameter is passed by some call, the
package depends on nothing beyond the standard library and numpy, so it
imports scipy nowhere, one real transform pair in ``ops`` is its only FFT,
and the conditioning limit is a constant of ``odesystem`` that no other
module reads."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stripwave"
# the package's __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import statement that no name
    in the module reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nimport xml.dom\n"
              "from math import pi, tau\n"
              "def f():\n    return np.zeros(1) * pi + xml.dom.Node.ELEMENT_NODE\n")
    assert unused_imports(source) == [(2, "os"), (5, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _bound_names(target) -> list:
    """Names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for elt in target.elts for n in _bound_names(elt)]
    return []


def _is_dataclass(cls) -> bool:
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in cls.decorator_list)


def unread_names(sources: dict, readers=()) -> list:
    """(module, line, name) of each name that no module of ``sources``
    ({module: source}) reads as a name or an attribute, and that
    ``__init__`` does not import: leading-underscore module-level functions,
    classes and constants, leading-underscore methods, and public
    module-level functions and classes.  Also each dataclass field and
    public method of a class in ``sources`` that no attribute read in
    ``sources`` or in ``readers`` (more sources) reaches."""
    defined, members, read, attrs = [], [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name, True))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, n.lineno, n.id, False)
                            for t in targets for n in _bound_names(t)]
            if isinstance(node, ast.ClassDef):
                defined += [(module, f.lineno, f.name, False) for f in node.body
                            if isinstance(f, ast.FunctionDef)]
                members += [(module, f.lineno, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
                if _is_dataclass(node):
                    members += [(module, f.lineno, f.target.id) for f in node.body
                                if isinstance(f, ast.AnnAssign)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom) and module == "__init__":
                read.update(alias.asname or alias.name for alias in n.names)
    for source in [*sources.values(), *readers]:
        attrs.update(n.attr for n in ast.walk(ast.parse(source))
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    return sorted([(module, line, name) for module, line, name, top in defined
                   if (_private(name) or (top and not name.startswith("_")))
                   and name not in read]
                  + [m for m in members if m[2] not in attrs])


def test_private_detector_flags_unread_and_keeps_read():
    sources = {
        "a": ("_LIMIT = 3\n_A, _B = 1, 2\n"
              "def _helper():\n    return _LIMIT + _A\n"
              "def _dead():\n    return 0\n"
              "class _Unused:\n    pass\n"
              "class Public:\n"
              "    def __init__(self):\n        self._x = _helper()\n"
              "    def _used(self):\n        return self._x\n"
              "    def _orphan(self):\n        return self._used()\n"
              "    def method(self):\n        return 0\n"
              "CONSTANT = 1\n"
              "def exported():\n    return Public()\n"
              "def orphan():\n    return 0\n"
              "class Orphan:\n    pass\n"
              "@dataclass\nclass Record:\n    kept: int\n    dropped: int\n"
              "    def unused(self):\n        return self.kept\n"
              "@dataclass(frozen=True)\nclass Frozen:\n    never: int\n"
              "class Plain:\n    annotated: int\n"),
        "b": "from c import _Cross\nprint(_Cross, Record, Frozen(1), Plain)\n",
        "c": "class _Cross:\n    pass\n",
        "__init__": "from .a import exported\n",
    }
    # a reader outside the sources reaches a method, never a name
    readers = ["exported().method()\n_dead()\n"]
    assert unread_names(sources, readers) == [
        ("a", 2, "_B"), ("a", 5, "_dead"), ("a", 7, "_Unused"),
        ("a", 14, "_orphan"), ("a", 21, "orphan"), ("a", 23, "Orphan"),
        ("a", 28, "dropped"), ("a", 29, "unused"), ("a", 33, "never")]


def test_no_unread_private_names():
    root = SRC.parent.parent
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    # this file's own AST code (node.names, n.attr, ...) reads no field of the package
    readers = [p.read_text() for d in ("tests", "perfbench")
               for p in sorted((root / d).rglob("*.py")) if p.name != "test_hygiene.py"]
    assert unread_names(sources, readers) == []


# public methods that only the tests read, on purpose: the tests' Hermitian
# oracle and README's documented lookup of one table row
TEST_ONLY_METHODS = frozenset({"_LatticeField.hermitian_defect", "SymbolTable.entry"})


def methods_no_reader_reaches(sources: dict, readers=()) -> list:
    """(module, line, "Class.method") of each public method of a class in
    ``sources`` ({module: source}) that no attribute read in ``sources`` or
    in ``readers`` (more sources) reaches.  A bare name, a parameter or a
    docstring that spells the method does not count as a read."""
    attrs = {n.attr for source in [*sources.values(), *readers]
             for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted((module, f.lineno, f"{cls.name}.{f.name}")
                  for module, source in sources.items()
                  for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
                  for f in cls.body if isinstance(f, ast.FunctionDef)
                  and not f.name.startswith("_") and f.name not in attrs)


def test_method_detector_flags_methods_no_attribute_reaches():
    sources = {
        "a": ("class Grid:\n"
              "    def integrate(self, values):\n"
              "        \"\"\"integrate over the grid\"\"\"\n"
              "        integrate = values.sum()\n        return integrate\n"
              "    def differentiate(self, values):\n        return values\n"
              "    def scale(self, a):\n        return a\n"
              "    def _private(self):\n        return 0\n"
              "    @property\n    def size(self):\n        return self.differentiate(1)\n"),
        "b": "def integrate(x):\n    return x\nprint(integrate(Grid().size), scale)\n",
    }
    # a reader outside the sources reaches a method as an attribute
    assert methods_no_reader_reaches(sources, ["Grid().scale(2)\n"]) == [
        ("a", 2, "Grid.integrate")]
    assert methods_no_reader_reaches(sources) == [
        ("a", 2, "Grid.integrate"), ("a", 8, "Grid.scale")]


def test_every_public_method_is_read_outside_the_tests():
    # a method the package and the benchmark never call is dead code that
    # the tests keep alive, unless it is kept on purpose
    root = SRC.parent.parent
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    readers = [p.read_text() for p in sorted((root / "perfbench").rglob("*.py"))]
    assert [m for m in methods_no_reader_reaches(sources, readers)
            if m[2] not in TEST_ONLY_METHODS] == []


def _calls_by_name(sources) -> dict:
    """{callee name: [(positional count, keyword names), ...]} over every call
    in ``sources``; a ``*args`` call counts as reaching every position and a
    ``**kwargs`` call as passing every keyword (None in the names)."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 {k.arg for k in node.keywords}))
    return calls


def unpassed_defaults(defs: dict, callers) -> list:
    """(module, line, function, parameter) of each defaulted parameter of a
    function or method in ``defs`` ({module: source}) that no call in
    ``callers`` (sources) passes, by keyword or by enough positional
    arguments to reach it.  Calls are matched by callee name; a class's name
    and the names of its subclasses in ``defs`` count as calls to its
    ``__init__``."""
    calls = _calls_by_name(callers)
    trees = {module: ast.parse(source) for module, source in defs.items()}
    bases = {node.name: {getattr(b, "id", None) for b in node.bases}
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def subclasses(name):
        return {name}.union(*(subclasses(c) for c, b in bases.items() if name in b))

    found = []
    for module, tree in trees.items():
        methods = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = methods.get(id(fn))
            names = (subclasses(cls.name) if cls and fn.name == "__init__"
                     else {fn.name})
            seen = [c for name in names for c in calls.get(name, [])]
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            args = fn.args.posonlyargs + fn.args.args
            args = args[1:] if cls and not static else args
            defaulted = [(i, a.arg) for i, a in enumerate(args)
                         if i >= len(args) - len(fn.args.defaults)]
            defaulted += [(float("inf"), a.arg) for a, d in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            found += [(module, fn.lineno, fn.name, arg) for i, arg in defaulted
                      if not any(npos > i or arg in kw or None in kw
                                 for npos, kw in seen)]
    return sorted(found)


def test_default_detector_flags_unpassed_and_keeps_passed():
    defs = {"a": ("def f(x, y=1, z=2, *, w=3, v=4):\n    return x\n"
                  "class Failure(Exception):\n"
                  "    def __init__(self, msg, trace=None, code=0):\n"
                  "        super().__init__(msg)\n"
                  "    def method(self, a, b=1, c=2):\n        return a\n"
                  "    @staticmethod\n    def static(a, b=1):\n        return a\n"
                  "class Diverged(Failure):\n    pass\n"
                  "def g(x, flag=False):\n    return x\n"
                  "def h(x, flag=False):\n    return x\n")}
    callers = ["f(1, 2)\nf(1, w=4)\nDiverged('m', trace=1)\nobj.method(1, 2)\n"
               "Failure.static(1, 2)\ng(*xs)\nh(1, **kw)\n"]
    assert unpassed_defaults(defs, callers) == [
        ("a", 1, "f", "v"), ("a", 1, "f", "z"), ("a", 4, "__init__", "code"),
        ("a", 6, "method", "c")]


def test_every_default_is_passed():
    root = SRC.parent.parent
    callers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((root / d).rglob("*.py"))]
    defs = {p.stem: p.read_text() for p in MODULES}
    assert unpassed_defaults(defs, callers) == []


# the dependencies pyproject.toml declares, beside the standard library
ALLOWED_PACKAGES = frozenset(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(source: str) -> list:
    """(line, module) of each import of a top-level package outside
    ALLOWED_PACKAGES: import statements, and ``importlib.import_module`` or
    ``__import__`` of a literal name.  Relative imports (the package's own
    modules) are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and (getattr(node.func, "id", None) == "__import__"
                   or getattr(node.func, "attr", None) == "import_module")):
            names = [node.args[0].value]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in ALLOWED_PACKAGES]
    return sorted(found)


def test_dependency_detector_flags_foreign_packages():
    source = ("import os, mpmath\nimport numpy.linalg as la\n"
              "from scipy.linalg import expm\nfrom . import grids\n"
              "from .fields import write_csv\nfrom sympy.core import Symbol\n"
              "import importlib\nmp = importlib.import_module('mpmath.libmp')\n"
              "np = __import__('numpy')\nsp = __import__('sympy')\n")
    assert foreign_imports(source) == [(1, "mpmath"), (3, "scipy.linalg"), (6, "sympy.core"),
                                       (8, "mpmath.libmp"), (10, "sympy")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_scipy(path):
    # scipy is a test dependency: no scope of the package imports it
    assert foreign_imports(path.read_text()) == []


def module_scope_scipy_imports(source: str) -> list:
    """(line, module) of each scipy import that runs when the module is
    imported, i.e. outside every function body.  Importing scipy.linalg costs
    more than a small job, so the package defers it to its first use."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "scipy"):
            found.append((node.lineno, node.module))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_scipy_import_detector_flags_module_scope_only():
    source = ("import os, scipy.linalg\nfrom scipy import linalg\n"
              "import numpy as np\ntry:\n    from scipy.linalg import expm\n"
              "except ImportError:\n    pass\nclass C:\n"
              "    from scipy import special\n    def f(self):\n"
              "        from scipy.linalg import lu_factor\n        return lu_factor\n"
              "def g():\n    import scipy.linalg\n    return scipy\n"
              "h = lambda: __import__('scipy')\nfrom . import grids\n")
    assert module_scope_scipy_imports(source) == [
        (1, "scipy.linalg"), (2, "scipy"), (5, "scipy.linalg"), (9, "scipy")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import_at_module_scope(path):
    assert module_scope_scipy_imports(path.read_text()) == []


_FFT_MODULES = ("numpy.fft", "scipy.fft", "scipy.fftpack")


def fft_uses(source: str) -> list:
    """(line, name) of each ``np.fft.<name>`` (or ``numpy.fft.<name>``) the
    source reads, and of each import of an FFT module, named by the module."""
    tree = ast.parse(source)
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fft" and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            uses.append((node.lineno, node.attr))
        names = ([node.module] if isinstance(node, ast.ImportFrom)
                 else [a.name for a in node.names] if isinstance(node, ast.Import) else [])
        uses += [(node.lineno, name) for name in names
                 if name and name.startswith(_FFT_MODULES)]
    return sorted(uses)


def test_fft_detector_flags_calls_and_imports():
    source = ("import numpy as np\nfrom scipy.fft import fft\nimport numpy.fft\n"
              "a = np.fft.rfftn(x)\nb = np.fft.ifftn(a)\nc = np.linalg.norm(b)\n")
    assert fft_uses(source) == [(2, "scipy.fft"), (3, "numpy.fft"), (4, "rfftn"),
                                (5, "ifftn")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_real_transform_pair(path):
    # real fields, one layout: rfftn/irfftn in ops and no other transform
    uses = {name for _, name in fft_uses(path.read_text())}
    assert uses == ({"rfftn", "irfftn"} if path.name == "ops.py" else set())


def unbounded_caches(source: str) -> list:
    """(line, text) of each cache whose size is not bounded by an explicit
    integer: a bare ``lru_cache`` decorator, an ``lru_cache`` call with no
    ``maxsize``, ``maxsize=None`` or any other non-integer, and every use of
    ``functools.cache``.  Memory stays bounded as grids grow."""
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "cache") for a in node.names if a.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" \
                and name(node.value) == "functools":
            found.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.Call) and name(node.func) == "lru_cache":
            sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            if not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(d.lineno, ast.unparse(d)) for d in node.decorator_list
                      if name(d) == "lru_cache"]
    return sorted(found)


def test_cache_detector_flags_unbounded_caches():
    source = ("import functools\nfrom functools import lru_cache, cache\n"
              "@lru_cache(maxsize=8)\ndef a(x):\n    return x\n"
              "@lru_cache(16)\ndef b(x):\n    return x\n"
              "@lru_cache\ndef c(x):\n    return x\n"
              "@functools.lru_cache(maxsize=None)\ndef d(x):\n    return x\n"
              "@functools.cache\ndef e(x):\n    return x\n"
              "@lru_cache()\ndef f(x):\n    return x\n"
              "g = lru_cache(maxsize=SIZE)(len)\n"
              "@functools.lru_cache(maxsize=4, typed=True)\ndef h(x):\n    return x\n")
    assert unbounded_caches(source) == [
        (2, "cache"), (9, "lru_cache"), (12, "functools.lru_cache(maxsize=None)"),
        (15, "functools.cache"), (18, "lru_cache()"), (21, "lru_cache(maxsize=SIZE)")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path.read_text()) == []


def conditioning_limits(source: str) -> list:
    """(line, text) of each parameter, keyword argument or attribute named
    ``cond_limit`` and each read or import of the name ``COND_LIMIT``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.arg, ast.keyword)) and node.arg == "cond_limit":
            found.append((node.lineno, "cond_limit"))
        elif isinstance(node, ast.Attribute) and node.attr == "cond_limit":
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id == "COND_LIMIT" \
                and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, "COND_LIMIT"))
        elif isinstance(node, ast.Attribute) and node.attr == "COND_LIMIT":
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name == "COND_LIMIT"]
    return sorted(found)


def test_conditioning_limit_detector_flags_parameters_and_reads():
    source = ("from .odesystem import COND_LIMIT\nfrom . import odesystem\n"
              "COND_LIMIT = 1e12\n"
              "def f(x, cond_limit=1e12):\n    return x > odesystem.COND_LIMIT\n"
              "def g(x, *, cond_limit):\n    return x > COND_LIMIT\n"
              "def h(limit):\n    return limit\n"
              "h(s.cond_limit)\nf(1, cond_limit=2)\n")
    assert conditioning_limits(source) == [
        (1, "import COND_LIMIT"), (4, "cond_limit"), (5, "odesystem.COND_LIMIT"),
        (6, "cond_limit"), (7, "COND_LIMIT"), (10, "s.cond_limit"), (11, "cond_limit")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_conditioning_limit_in_odesystem(path):
    # no function takes or passes the limit, no object holds it, and
    # odesystem alone reads its constant, at each check
    found = conditioning_limits(path.read_text())
    assert found == ([] if path.name != "odesystem.py"
                     else [(line, "COND_LIMIT") for line, name in found if name == "COND_LIMIT"])
