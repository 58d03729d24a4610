"""Source hygiene: every name a module imports is used in that module, every
function, class and constant a module defines is read in the package,
``demos/`` or ``perfbench/``, and so is every member of its classes, the leaf
modules import no package module but ``_checks``, which imports none, no module
but ``_checks`` makes its own scalar type test or array dtype test, and importing
the package loads no process-pool modules."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import npcl

PACKAGE = sorted(Path(npcl.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
# the package's __init__ re-exports names without calling them, so it is no caller
CALLERS = [*MODULES, *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
# modules that stand on numpy, the standard library and the scalar checks of `_checks` alone; the rest of
# the package builds on them, and `_checks` itself imports no package module
LEAVES = ["_checks", "data", "losses", "selection", "adversarial", "net"]
# class members read only where no attribute load shows it, each with its reader
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a bad command line",
    "training.EpochMetrics.train_loss": "dataclasses.fields reads every field for metrics.csv",
    "verification.CheckResult.value": "the acceptance PASS lines print it",
}


def sources(paths):
    return {str(p): p.read_text(encoding="utf-8") for p in paths}


def unused_imports(source):
    """Names bound by an import statement and never referenced elsewhere in ``source``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nfrom a.b import c\nc(system)\n") == [
        "os (line 1)"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def referenced_names(source, imports=True):
    """Every name ``source`` reads, looks up as an attribute or, with ``imports``, imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and imports:
            names.update(node.name.split("."))
    return names


def module_names(source):
    """The functions, classes and constants ``source`` defines at module level, dunder names
    aside, read from its syntax tree, so nothing is imported."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def unread_module_names(modules, callers):
    """``module.name`` for each module-level name of ``modules`` (path -> source) that its own
    module never reads and no other source in ``callers`` (path -> source) references."""
    references = {name: referenced_names(source) for name, source in callers.items()}
    unread = []
    for module, source in modules.items():
        used = referenced_names(source, imports=False).union(
            *(names for name, names in references.items() if name != module))
        unread += [f"{Path(module).stem}.{name}" for name in module_names(source) if name not in used]
    return sorted(unread)


def test_detects_a_reference():
    assert referenced_names("import a.b as c\nfrom d import e\nf.g(h)\ndef i(): pass\nj = 1\n") == {
        "a", "b", "e", "f", "g", "h"
    }


def test_detects_an_unread_module_name():
    modules = {
        "a.py": ('__all__ = ["E", "f"]\nK = 1\nL: int = 2\nM = L\nclass E(Exception): pass\n'
                 "def f(): raise E\ndef _g(): pass\n"),
        "b.py": "__all__ = []\nfrom a import f\n",
    }
    assert unread_module_names(modules, modules) == ["a.K", "a.M", "a._g"]


def test_every_module_name_is_read():
    assert unread_module_names(sources(PACKAGE), sources(CALLERS)) == []


def class_members(source):
    """``Class.member`` -> its definition, for each method, property, dataclass field and class
    constant of the module-level classes of ``source``, dunder names aside."""
    members = {}
    for cls in ast.parse(source).body:
        for node in cls.body if isinstance(cls, ast.ClassDef) else []:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            members.update((f"{cls.name}.{name}", node) for name in names if not name.startswith("__"))
    return members


def attribute_loads(source):
    """Each attribute name ``source`` loads -> the call of each load, None where it is not called.
    A keyword argument or an attribute store is no load."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    loads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.setdefault(node.attr, []).append(calls.get(id(node)))
    return loads


def accepts(member, call):
    """Whether ``call``, made through an instance or the class, fits the positional arity of
    ``member``; a property, field or constant takes any call, as it may hold a callable."""
    if not isinstance(member, ast.FunctionDef):
        return True
    decorators = {d.id for d in member.decorator_list if isinstance(d, ast.Name)}
    if "property" in decorators or any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True
    spec = member.args
    params = [*spec.posonlyargs, *spec.args][0 if "staticmethod" in decorators else 1:]
    named = {k.arg for k in call.keywords}
    required = [p for p in params[: len(params) - len(spec.defaults)] if p.arg not in named]
    return len(required) <= len(call.args) and (spec.vararg is not None or len(call.args) <= len(params))


def unread_members(modules, callers, allowed=()):
    """``module.Class.member`` for each class member of ``modules`` (path -> source) that no
    source in ``callers`` (path -> source) loads as an attribute, outside ``allowed``.  A called
    load counts only when its positional arity fits the member, so ``d.values()`` does not
    read a ``values(self, a, b)``."""
    loads = [attribute_loads(source) for source in callers.values()]
    unread = []
    for module, source in modules.items():
        for qualified, member in class_members(source).items():
            name = qualified.rsplit(".", 1)[1]
            calls = [call for found in loads for call in found.get(name, [])]
            if not any(call is None or accepts(member, call) for call in calls):
                unread.append(f"{Path(module).stem}.{qualified}")
    return sorted(set(unread) - set(allowed))


def test_detects_an_unread_class_member():
    defines = textwrap.dedent("""\
        from dataclasses import dataclass

        @dataclass
        class P:
            x: int
            y: int = 0
            z: int = 0
            K = 1

            def __post_init__(self): pass
            def values(self, a, b): pass
            def used(self, a, b=1): pass

            @property
            def size(self): return 1

            @property
            def seen(self): return self.K

            @classmethod
            def make(cls, x): return cls(x, y=2, z=3)

            @staticmethod
            def hook(message): pass
        """)
    reads = "from a import P\np = P.make(1)\np.used(2)\np.seen\np.x\n{}.values()\np.z = 4\n"
    modules = {"a.py": defines, "b.py": reads}
    # keyword arguments and stores read nothing, and dict.values() is no read of values(self, a, b)
    assert unread_members(modules, modules) == ["a.P.hook", "a.P.size", "a.P.values", "a.P.y", "a.P.z"]
    assert unread_members(modules, modules, {"a.P.hook": "a framework calls it"}) == [
        "a.P.size", "a.P.values", "a.P.y", "a.P.z"]
    # a called load whose arity fits is a read, with arguments by keyword or by position
    modules["b.py"] += "p.values(1, b=2)\nP.hook('m')\n"
    assert unread_members(modules, modules) == ["a.P.size", "a.P.y", "a.P.z"]


def test_every_class_member_is_read():
    modules, callers = sources(MODULES), sources(CALLERS)
    assert unread_members(modules, callers, ALLOWED) == []
    # an entry stays on the list only while its member has no reader the scan can see
    assert set(ALLOWED) <= set(unread_members(modules, callers))


def package_imports(source):
    """The ``npcl`` modules ``source`` imports, relative imports included, read from its syntax tree."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "npcl"):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "npcl"]
    return found


def test_detects_a_package_import():
    source = ("from __future__ import annotations\nimport os, npcl.net\nfrom . import data\n"
              "from .losses import f\nfrom npcl import cli\nfrom numpy import g\n")
    assert package_imports(source) == ["npcl.net", ".", ".losses", "npcl"]


@pytest.mark.parametrize("name", LEAVES)
def test_leaf_module_imports_no_package_module(name):
    path = Path(npcl.__file__).parent / f"{name}.py"
    assert set(package_imports(path.read_text(encoding="utf-8"))) <= ({"._checks"} if name != "_checks" else set())


def scalar_type_tests(source):
    """Lines of ``source`` with an ``isinstance`` call that tests for ``bool`` or whose types name
    ``np.integer`` or ``np.floating``: a copy of the type tests ``_checks`` holds."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:]
            if any(isinstance(t, ast.Name) and t.id == "bool" or isinstance(t, ast.Attribute)
                   and t.attr in ("integer", "floating") for t in types):
                lines.append(node.lineno)
    return lines


def test_detects_a_scalar_type_test():
    source = ("isinstance(a, bool)\nisinstance(b, (int, np.integer))\nisinstance(c, numpy.floating)\n"
              "isinstance(d, (str, tuple))\nissubclass(e, bool)\nnp.issubdtype(f.dtype, np.integer)\n"
              "x = isinstance(g, int) and not isinstance(g, bool)\n")
    assert scalar_type_tests(source) == [1, 2, 3, 7]


def dtype_tests(source):
    """Lines of ``source`` that load ``.dtype.kind`` or name ``issubdtype``: a copy of the array rules
    ``_checks`` holds."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and (node.attr == "issubdtype" or node.attr == "kind" and
                isinstance(node.value, ast.Attribute) and node.value.attr == "dtype")
                or isinstance(node, ast.Name) and node.id == "issubdtype"):
            lines.add(node.lineno)
    return sorted(lines)


def test_detects_a_dtype_test():
    source = ("a.dtype.kind in 'iu'\nnp.issubdtype(b.dtype, np.integer)\nc.kind\nd.dtype.char\n"
              "numpy.issubdtype(e, f)\nissubdtype(g, h)\nx = k.dtype\ny = m.dtype.kind == 'b'\n")
    assert dtype_tests(source) == [1, 2, 5, 6, 8]


def outside_checks(scan):
    """``module -> lines`` for each module but ``_checks`` in which ``scan`` finds a line."""
    found = {p.name: scan(p.read_text(encoding="utf-8")) for p in MODULES if p.stem != "_checks"}
    return {name: lines for name, lines in found.items() if lines}


def test_scalar_type_tests_live_in_checks():
    assert outside_checks(scalar_type_tests) == {}


def test_dtype_tests_live_in_checks():
    assert outside_checks(dtype_tests) == {}


def test_import_loads_no_process_pool_modules():
    # the sweep imports them lazily; loaded with npcl they add about 11 ms to its 140 ms import
    code = ("import sys, npcl, npcl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
