"""Package-level checks that no single module's tests cover."""

import ast
import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import primedir

MODULES = ["primedir"] + sorted(f"primedir.{m.name}" for m in pkgutil.iter_modules(primedir.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry breaks `from module import *`
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


BENCH_FILES = sorted(pathlib.Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def _metric_entries(node, where=""):
    """(where, entry) for every metric of a benchmark file: each value of a
    "metrics" object, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "metrics" and isinstance(value, dict):
                yield from ((f"{where}/metrics/{name}", entry) for name, entry in value.items())
            yield from _metric_entries(value, f"{where}/{key}")
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _metric_entries(value, f"{where}/{k}")


def test_bench_file_committed():
    # every performance claim cites a committed BENCH_<n>.json
    assert "BENCH_1.json" in [path.name for path in BENCH_FILES]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_schema(path):
    """A committed benchmark file parses, names its schema, records the
    machine, and gives every metric a unit."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch(r"primedir\.bench\.[a-z_]+\.v\d+", doc["schema"])
    assert {"nproc", "python", "numpy", "longdouble_nmant"} <= doc["fingerprint"].keys()
    entries = list(_metric_entries(doc))
    assert entries
    for where, entry in entries:
        assert isinstance(entry, dict) and isinstance(entry.get("unit"), str) and entry["unit"], where


def test_import_leaves_thread_pool_unloaded():
    # every benchmark run's setup_s counts `import primedir`, and importing
    # concurrent.futures adds about 7 ms to it, so maximal imports its thread
    # pool only inside a call
    src = str(pathlib.Path(primedir.__file__).resolve().parents[1])
    code = "import sys, primedir; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_extended_precision_only_in_the_naive_baseline():
    # np.longdouble is 80-bit on x86-64 but float64 on aarch64, macOS and
    # Windows, so a library path that used it would depend on the platform;
    # only criterion 8's timed baseline keeps it
    where = set()
    for path in sorted(pathlib.Path(primedir.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        funcs = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for line, text in enumerate(source.splitlines(), 1):
            if re.search(r"longdouble|longfloat|float96|float128", text):
                inner = [f for f in funcs if f.lineno <= line <= f.end_lineno]
                where.add((path.name, max(inner, key=lambda f: f.lineno).name if inner else None))
    assert where == {("multiplier.py", "m_k_naive_grid")}
