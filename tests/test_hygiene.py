"""Source hygiene: every name a module imports is used in that module, and every
name the package exports is used outside ``tests/``."""

import ast
from pathlib import Path

import pytest

import npcl

MODULES = sorted(p for p in Path(npcl.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
CALLERS = [*MODULES, *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]


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


def referenced_names(source):
    """Every name ``source`` reads, looks up as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_detects_a_reference():
    assert referenced_names("import a.b as c\nfrom d import e\nf.g(h)\ndef i(): pass\n") == {
        "a", "b", "e", "f", "g", "h"
    }


def test_every_export_has_a_caller():
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in CALLERS))
    assert sorted(set(npcl.__all__) - used) == []
