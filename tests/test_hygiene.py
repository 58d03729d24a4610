"""Source hygiene: every name a module imports is used in that module, every
function, class and constant a module defines is read in the package,
``demos/`` or ``perfbench/``, the leaf modules import no other package
module, and importing the package loads no process-pool modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import npcl

PACKAGE = sorted(Path(npcl.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
# the package's __init__ re-exports names without calling them, so it is no caller
CALLERS = [*MODULES, *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
# modules that stand on numpy and the standard library alone; the rest of the package builds on them
LEAVES = ["data", "losses", "selection", "adversarial", "net"]


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
    def sources(paths):
        return {str(p): p.read_text(encoding="utf-8") for p in paths}

    assert unread_module_names(sources(PACKAGE), sources(CALLERS)) == []


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
    assert package_imports(path.read_text(encoding="utf-8")) == []


def test_import_loads_no_process_pool_modules():
    # the sweep imports them lazily; loaded with npcl they add about 11 ms to its 140 ms import
    code = ("import sys, npcl, npcl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
