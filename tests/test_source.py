"""Checks on the package source itself, with the standard library only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/streamrobust/*.py"))
MODULES = SOURCES + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str):
    """Names a module imports but never reads, as a Name or as the base of an attribute chain."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom math import pi, tau\nprint(os.sep, pi)\n"
    assert unused_imports(source) == [(3, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_imports_no_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def defined_names(source: str):
    """Names a module defines at its top level, by def, class or assignment, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined.update((n.id, node.lineno) for n in ast.walk(target) if isinstance(n, ast.Name))
    return defined


def read_names(source: str):
    """Names a module reads: as a loaded name, as an attribute or as an imported name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_the_check_finds_a_name_nothing_reads():
    source = "import os\nA, B = 1, 2\nC: int = A\ndef f():\n    return os.sep\nclass K:\n    pass\nprint(K.f)\n"
    defined = defined_names(source)
    assert sorted(name for name in defined if name not in read_names(source)) == ["B", "C"]


def test_src_defines_no_top_level_name_that_no_module_reads():
    read = set().union(*(read_names(path.read_text()) for path in MODULES))
    dead = [(path.name, line, name) for path in SOURCES for name, line in defined_names(path.read_text()).items()
            if name not in read]
    assert dead == []
