"""Run one dp1 CLI invocation in this interpreter with spans around each layer.

Usage (from the repository root, with src on PYTHONPATH):

    python3 bench/tracer.py verify --class M-4

Every public function named in LAYERS is wrapped, and every dp1 module global
or class attribute that refers to it is rebound to the wrapper: names are
imported with ``from .lattice import ...``, so patching the defining module
alone would miss calls made from other modules.  Spans (layer, start, end,
parent) are kept in memory; at exit one JSON document goes to stdout holding
the CLI's exit code, its captured stdout, the spans, a few counters and the
``cache_info()`` of the cached layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter_ns

# (module, attribute path) of each traced layer; the span name is "module.path".
LAYERS = (
    ("lattice", "enumerate_coordinates"),
    ("lattice", "Sublattice.coordinates_of"),
    ("lattice", "Sublattice.span"),
    ("lattice", "integer_kernel"),
    ("roots", "identify"),
    ("real_forms", "lambda_basis"),
    ("pin", "qhat_code"),
    ("pin", "qhat_from_coordinates"),
    ("pin", "reachable_codes"),
    ("counting", "b_classes_cached"),
    ("counting", "count_report"),
    ("counting", "classify_levels"),
    ("wallcross", "splittings"),
    ("wallcross", "vanishing_roots_cached"),
    ("wallcross", "delta_table"),
    ("properties", "run_all"),
    ("properties", "weyl_basis_robustness"),
    ("properties", "enumeration_closure"),
    ("report", "build_records"),
    ("cli", "render"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.stack = [-1]
        self.enum_vectors = 0
        self.enum_keys: set = set()
        self.render_bytes = 0

    def wrap(self, name: str, fn, observe=None):
        layer = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def observe_enumeration(self, args, result) -> None:
        lat, norm = args
        self.enum_vectors += len(result)
        self.enum_keys.add((lat.gram, norm))

    def observe_render(self, args, result) -> None:
        self.render_bytes += len(result.encode("utf-8"))


def install(tracer: Tracer) -> dict:
    """Wrap every layer and rebind all dp1 references; returns the original callables."""
    import dp1.cli  # noqa: F401  (imports every dp1 module)

    modules = [m for n, m in sorted(sys.modules.items()) if n == "dp1" or n.startswith("dp1.")]
    originals = {}
    for mod_name, path in LAYERS:
        name = f"{mod_name}.{path}"
        owner = sys.modules[f"dp1.{mod_name}"]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        observe = {"lattice.enumerate_coordinates": tracer.observe_enumeration,
                   "cli.render": tracer.observe_render}.get(name)
        wrapped = tracer.wrap(name, fn, observe)
        originals[name] = fn
        if cls_path:
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            continue
        rebound = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    rebound += 1
        if not rebound:
            raise RuntimeError(f"no reference to {name} found")
    return originals


def main(argv: list[str]) -> int:
    tracer = Tracer()
    originals = install(tracer)
    import dp1.cli

    out = io.StringIO()
    start = perf_counter_ns()
    with contextlib.redirect_stdout(out):
        try:
            code = dp1.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    end = perf_counter_ns()
    caches = {name: list(fn.cache_info()[:2]) for name, fn in originals.items()
              if hasattr(fn, "cache_info")}
    json.dump({
        "exit": code,
        "stdout": out.getvalue(),
        "main_ns": [start, end],
        "names": tracer.names,
        "spans": tracer.spans,
        "counters": {
            "lattice.enumerate_coordinates.vectors": tracer.enum_vectors,
            "lattice.enumerate_coordinates.distinct": len(tracer.enum_keys),
            "cli.render.bytes": tracer.render_bytes,
        },
        "caches": caches,
    }, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
