"""The library names the benchmark reaches for from outside `src/`.

`bench/tracer.py` wraps every name in its `TRACED` table, and
`bench/workloads.py` and `bench/record.py` import names from `raycap`. A
deletion or rename in the library that misses one of them breaks the
benchmark and none of the library's own tests, so both are read here
from the bench sources (parsed, not run) and resolved against the library.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text())


def _traced() -> dict:
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED table")


def test_every_traced_name_resolves():
    """As `Tracer.install` reads them: `Class.method` from the class
    `__dict__`, any other name from the module."""
    missing = []
    for short, names in _traced().items():
        module = importlib.import_module(f"raycap.{short}")
        for name in names:
            if "." in name:
                cls, meth = name.split(".")
                found = meth in vars(getattr(module, cls, object))
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{short}.{name}")
    assert missing == []


def test_every_raycap_name_the_bench_imports_exists():
    """A name is a module attribute or, as in `from raycap import report`,
    a submodule."""
    imported = [
        (source, node.module, alias.name)
        for source in ("workloads.py", "record.py")
        for node in ast.walk(_tree(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("raycap")
        for alias in node.names
    ]
    assert imported
    missing = [
        (source, module, name) for source, module, name in imported
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert missing == []
