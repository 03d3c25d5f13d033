"""Source hygiene: every name a module of the package imports is used, every
private name and every public function or class the package defines is read
somewhere in it or re-exported, every defaulted parameter is passed by some
call, and the package depends on nothing beyond the standard library, numpy
and scipy."""

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
    readers = [p.read_text() for d in ("tests", "perfbench")
               for p in sorted((root / d).rglob("*.py"))]
    assert unread_names(sources, readers) == []


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
ALLOWED_PACKAGES = frozenset(sys.stdlib_module_names) | {"numpy", "scipy"}


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
    assert foreign_imports(source) == [(1, "mpmath"), (6, "sympy.core"),
                                       (8, "mpmath.libmp"), (10, "sympy")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_scipy(path):
    assert foreign_imports(path.read_text()) == []
