"""Source hygiene: every name a dp1 module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import dp1

MODULES = sorted(p for p in Path(dp1.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")  # the package re-exports what it imports


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom dataclasses import dataclass\nos.sep\n") == ["dataclass"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
