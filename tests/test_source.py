"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import json
import os
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


def _eigensolver_owners(path: Path) -> list[str]:
    """The function around each ``np.linalg.eigh`` or ``eigvalsh`` in the
    file, in order; "<module>" for one outside every function."""
    tree = ast.parse(path.read_text())
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                owner.setdefault(id(node), fn.name)
    return [
        owner.get(id(node), "<module>")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")
        and ast.unparse(node.value) == "np.linalg"
    ]


def test_eigensolvers_run_in_the_two_spectrum_accessors():
    # hermitian.py decomposes a wrapper only through HermitianMatrix._eigh
    # and _eigvalsh, which keep their result; the harness references check
    # the library, so they take their own spectra and never read those caches
    assert sorted(_eigensolver_owners(SRC / "hermitian.py")) == ["_eigh", "_eigvalsh"]
    harness = SRC / "harness.py"
    owners = set(_eigensolver_owners(harness))
    assert {"bisection_max_lambda", "local_scalar", "_suite_thm1"} <= owners
    cached = [
        f"harness.py:{node.lineno}"
        for node in ast.walk(ast.parse(harness.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("_eigh", "_eigvalsh")
    ]
    assert not cached, "harness reads the spectrum cache at " + ", ".join(cached)


def _fresh(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter on this source."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_oracle_child_loads_the_wire_format_only():
    # a demo oracle child needs hermitian and io; the transport (subprocess),
    # the harness (hashlib) and the order code stay unloaded
    loaded = json.loads(_fresh(
        "import json, sys; import obsorder.demo_oracles; "
        "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] "
        "in ('obsorder', 'hashlib', 'subprocess'))))"
    ))
    assert loaded == ["obsorder", "obsorder.demo_oracles", "obsorder.errors",
                      "obsorder.hermitian", "obsorder.io", "obsorder.tolerances"]


def test_package_imports_no_submodule_at_load():
    # the package resolves its names on first use; one import at its top
    # level would load that module, and all it imports, in every child
    tree = ast.parse((SRC / "__init__.py").read_text())
    found = [
        f"__init__.py:{node.lineno}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("obsorder"))
        or isinstance(node, ast.Import) and any(a.name.startswith("obsorder") for a in node.names)
    ]
    assert not found, "module-level imports of obsorder submodules: " + ", ".join(found)


def test_star_import_binds_every_public_name():
    import obsorder

    namespace = {}
    exec("from obsorder import *", namespace)
    missing = [n for n in obsorder.__all__ if namespace.get(n) is not getattr(obsorder, n)]
    assert not missing, "public names that `import *` does not bind: " + ", ".join(missing)
    assert set(obsorder.__all__) <= set(dir(obsorder))


def test_names_resolve_after_a_bare_import():
    modules = sorted([p.stem for p in SRC.glob("*.py") if p.stem != "__init__"]
                     + [p.parent.name for p in SRC.glob("*/__init__.py")])
    out = _fresh(
        "import sys, types, numpy as np, obsorder\n"
        "print(sorted(n for n in sys.modules if n.startswith('obsorder')))\n"
        "print(obsorder.loewner.leq(np.eye(2), 2 * np.eye(2)), obsorder.leq is obsorder.loewner.leq)\n"
        "try:\n    obsorder.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n"
        f"print([n for n in {modules!r} if not isinstance(getattr(obsorder, n), types.ModuleType)])\n"
    )
    assert len(modules) > 10, f"package source not found under {SRC}"
    assert out.splitlines() == [
        "['obsorder']",
        "True True",
        "module 'obsorder' has no attribute 'no_such_name'",
        "[]",
    ]
