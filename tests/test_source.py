"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "obsorder"
TESTS = ROOT / "tests"


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # silently vanish; the package raises its own errors instead.
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10, f"package source not found under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the package: " + ", ".join(found)


def test_all_names_resolve():
    # a stale __all__ entry breaks `from module import *` and nothing else
    paths = sorted(SRC.rglob("*.py"))
    missing = []
    for path in paths:
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, "names in __all__ that do not resolve: " + ", ".join(missing)


def test_benchmark_selfcheck_passes():
    # the benchmark calls the public API by name; a deleted or renamed name
    # it relies on fails here rather than in a benchmark run
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selfcheck.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_every_test_module_imports():
    # the suite runs with --continue-on-collection-errors, under which a
    # module whose import fails (a missing test dependency such as
    # hypothesis) drops out of the run; here it fails a test instead
    paths = sorted(TESTS.glob("test_*.py"))
    assert len(paths) > 5, f"test modules not found under {TESTS}"
    failed = []
    for path in paths:
        spec = importlib.util.spec_from_file_location(f"_import_check_{path.stem}", path)
        try:
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
        except Exception as exc:  # any import failure is reported by module
            failed.append(f"{path.name}: {type(exc).__name__}: {exc}")
    assert not failed, "test modules that do not import: " + "; ".join(failed)


def test_oracle_has_one_loop_and_no_inline_threshold():
    # every oracle handle answers through OracleHandle.query_many, and the
    # Hermitian rule it applies is hermitian's: a second loop or a float
    # literal in a function (an inline tolerance) would fork them again
    tree = ast.parse((SRC / "oracle.py").read_text())
    loops = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "query_many"]
    assert len(loops) == 1, f"oracle.py defines query_many {len(loops)} times"
    floats = [
        f"oracle.py:{node.lineno}"
        for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
    ]
    assert not floats, "float literals outside oracle.py's named constants: " + ", ".join(floats)
