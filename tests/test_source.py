"""Source hygiene: every name a dp1 module imports is used in that module, only
the modules that own the class table name a class id, no module reads the
process environment, only `lattice` names the byte-lane bound, one function
builds every stratum, and every definition is reached from the CLI or a
benchmark layer."""

import ast
import importlib.util
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
# brings inspect, ast, dis and tokenize, fractions brings decimal, and only
# --format csv needs csv.
SLOW_IMPORTS = ("dataclasses", "fractions", "decimal", "inspect", "csv")

# The os names through which a module reads the process environment.
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}

# The byte-lane bound and its |lane| table: `lattice.Columns` checks every lane sum
# against them, and every other module reaches the lanes through it.
LANE_NAMES = {"LANE", "ABS"}
LANE_OWNER = "lattice.py"

# The one function that builds a `counting.Stratum`: B^0, B^2 and B^4 alike.
STRATUM_BUILDER = "counting.b_classes_cached"

# The benchmark's tracer names its layers in dp1, so they are roots of the walk.
BENCH_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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


def names_read(source: str, names: set[str]) -> list[str]:
    """The given names the module reads or imports, as attribute, name or
    `from ... import`, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names]
    return sorted(name for name in found if name in names)


def environment_reads(source: str) -> list[str]:
    return names_read(source, ENVIRONMENT_NAMES)


def callers_of(source: str, name: str) -> list[str]:
    """The functions of the module, by dotted path through their classes and
    enclosing functions, whose bodies call `name` as a name or an attribute, sorted;
    a call outside any function is the module's own, "<module>"."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def optional_fields(source: str, cls: str) -> list[str]:
    """The annotated fields of the module's class `cls` whose annotation admits
    None (a None or an Optional in it, a string annotation parsed first)."""
    fields = []
    for node in (n for c in ast.parse(source).body if isinstance(c, ast.ClassDef) and c.name == cls
                 for n in c.body if isinstance(n, ast.AnnAssign)):
        note = node.annotation
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            note = ast.parse(note.value, mode="eval")
        if any(isinstance(n, ast.Constant) and n.value is None or "Optional" in (
                getattr(n, "id", None), getattr(n, "attr", None)) for n in ast.walk(note)):
            fields.append(node.target.id)
    return fields


def unreached(sources: dict[str, str], roots: list[str]) -> list[str]:
    """The top-level functions, classes, methods and module constants of the modules
    (name: source) that no walk from the roots, given as "module.name" or
    "module.Class.method", reaches, sorted.  The walk goes by name: a reached
    definition reaches each definition, in any module, that a Name or an Attribute
    in its body names.  A class reaches its dunder methods, and a module's other
    top-level statements are roots."""
    defs = {}  # key: (name, the nodes it reads, the keys it reaches by itself)
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            if isinstance(node, ast.ClassDef):
                methods = [f for f in node.body if isinstance(f, ast.FunctionDef)]
                rest = [n for n in node.body if n not in methods]
                dunders = [f"{module}.{node.name}.{f.name}" for f in methods if f.name.startswith("__")]
                reads = [*node.bases, *node.keywords, *node.decorator_list, *rest]
                defs[f"{module}.{node.name}"] = (node.name, reads, dunders)
                defs.update((f"{module}.{node.name}.{f.name}", (f.name, [f], [])) for f in methods)
            elif isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = (node.name, [node], [])
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update((f"{module}.{n.id}", (n.id, [node], [])) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                defs[f"{module}:{i}"] = (None, [node], [])
                roots = [*roots, f"{module}:{i}"]
    assert set(roots) <= set(defs), sorted(set(roots) - set(defs))
    by_name = {}
    for key, (name, _, _) in defs.items():
        by_name.setdefault(name, []).append(key)
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            _, nodes, implied = defs[key]
            todo += implied
            for n in (n for node in nodes for n in ast.walk(node)):
                todo += by_name.get(n.id if isinstance(n, ast.Name) else getattr(n, "attr", None), [])
    return sorted(key for key, (name, _, _) in defs.items() if name is not None and key not in seen)


def tracer_layers() -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH_TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [f"{module}.{path}" for module, path in tracer.LAYERS]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom dataclasses import dataclass\nos.sep\n") == ["dataclass"]


def test_the_scan_sees_a_class_id():
    assert class_id_constants('lambda_basis("M-4")\nname = "M-4:x"\n') == ["M-4"]


def test_the_scan_sees_an_environment_read():
    source = "import os\nos.environ.get('X')\nfrom os import getenv as g\nhome = g('HOME')\n"
    assert environment_reads(source) == ["environ", "getenv"]


def test_the_scan_sees_a_lane_name():
    source = "from .lattice import LANE as bound\nx = lattice.ABS\nLANES = 2\n"
    assert names_read(source, LANE_NAMES) == ["ABS", "LANE"]


def test_the_scan_sees_each_caller_of_a_constructor():
    source = ("x = Box(1)\nclass Shelf:\n    def fill(self):\n        return [mod.Box(n) for n in (1, 2)]\n"
              "def build():\n    def inner():\n        return Box(0)\n    return inner\n"
              "def read(box):\n    return box.Box\n")
    assert callers_of(source, "Box") == ["<module>", "Shelf.fill", "build.inner"]


def test_the_scan_sees_a_field_that_admits_none():
    source = ("class Box(NamedTuple):\n    n: int\n    a: Columns | None\n    b: Optional[int]\n"
              "    c: 'bytes | None'\n    d: typing.Optional[str]\n    e: tuple[int, ...]\n"
              "class Other:\n    f: None\n")
    assert optional_fields(source, "Box") == ["a", "b", "c", "d"]


def test_one_function_builds_every_stratum():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    builders = [f"{module}.{f}" for module, source in sources.items() for f in callers_of(source, "Stratum")]
    assert builders == [STRATUM_BUILDER]
    assert optional_fields(sources["counting"], "Stratum") == []


def test_the_walk_sees_an_unreached_definition():
    sources = {
        "a": "import b\nLIMIT = 3\nSPARE = 4\ndef main():\n    return b.Box(LIMIT).size\n"
             "if __name__ == '__main__':\n    main()\n",
        "b": "class Box:\n    def __init__(self, n):\n        self.n = n\n"
             "    @property\n    def size(self):\n        return self.n\n"
             "    def volume(self):\n        return helper(self.n)\n"
             "def helper(n):\n    return n ** 3\n",
    }
    assert unreached(sources, []) == ["a.SPARE", "b.Box.volume", "b.helper"]
    assert unreached(sources, ["b.Box.volume"]) == ["a.SPARE"]


def test_every_definition_is_reached_from_the_cli_or_a_bench_layer():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreached(sources, ["cli.main", *tracer_layers()]) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != LANE_OWNER], ids=lambda p: p.name)
def test_only_lattice_names_the_lane_bound(path):
    assert names_read(path.read_text(encoding="utf-8"), LANE_NAMES) == []


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
