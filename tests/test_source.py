"""Source hygiene: every name a dp1 module imports is used in that module, and
only the modules that own the class table name a class id."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dp1
from dp1 import real_forms

MODULES = sorted(Path(dp1.__file__).resolve().parent.glob("*.py"))

# The class table, the frozen tables and the records that name the class they check.
CLASS_ID_OWNERS = {"real_forms.py", "golden.py", "report.py"}
CLASS_IDS = {c.id for c in real_forms.deformation_classes()}

# Every dp1 process imports dp1.cli, so these stay off its import path: dataclasses
# brings inspect, ast, dis and tokenize, and fractions brings decimal.
SLOW_IMPORTS = ("dataclasses", "fractions", "decimal", "inspect")


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


def class_id_constants(source: str) -> list[str]:
    """The string constants of the module that are class ids."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in CLASS_IDS]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom dataclasses import dataclass\nos.sep\n") == ["dataclass"]


def test_the_scan_sees_a_class_id():
    assert class_id_constants('lambda_basis("M-4")\nname = "M-4:x"\n') == ["M-4"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in CLASS_ID_OWNERS],
                         ids=lambda p: p.name)
def test_only_the_class_table_owners_name_a_class_id(path):
    assert class_id_constants(path.read_text(encoding="utf-8")) == []


def test_the_cli_imports_no_slow_stdlib_module():
    # -S leaves out site and its .pth files, so only dp1's own imports count.
    src = str(Path(dp1.__file__).resolve().parents[1])
    code = f"import dp1.cli, sys; print([m for m in {SLOW_IMPORTS!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
