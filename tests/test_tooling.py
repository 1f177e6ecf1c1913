"""The test run itself: a falsified hypothesis test must fail as a test,
with its falsifying example, also when warnings are errors; every source
file parses as the oldest supported Python; every module of the package
uses what it imports, with the CLI and the verify suites importing no
private name of another module, only the verify suites sampling, and
only ``commgraph.groups`` making a ``GroupTable``; the lattice oracle imports no private name of ``commgraph.groups``; and
the benchmark's tracer finds every name it wraps."""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="without libcst, hypothesis writes no patch on a "
                           "failure, and the warning cannot arise")
def test_falsified_example_is_reported_with_warnings_as_errors(pytester):
    """Exit code 1 (tests failed), not 3 (internal error): hypothesis's
    patch writer is imported on a failure, and libcst's import warning
    must not end the run (see ``conftest.py``)."""
    pytester.makepyfile(test_falsified="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_always_fails(x):
            assert x is None
    """)
    result = pytester.runpytest("-W", "error", "-p", "no:cacheprovider")
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.stdout.fnmatch_lines(["*Falsifying example*"])


def test_sources_parse_as_python_3_10():
    """The package supports Python 3.10 (``requires-python``); no file may
    use syntax added after it."""
    root = Path(__file__).resolve().parents[1]
    files = sorted([*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")])
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


SOURCE_MODULES = sorted(
    path for path in (Path(__file__).resolve().parents[1]
                      / "src" / "commgraph").glob("*.py")
    if path.name != "__init__.py")


def _imports(tree: ast.Module):
    """(module, imported name, bound name) for each import in the tree;
    module is None for a plain ``import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield None, alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield ("." * node.level + (node.module or ""), alias.name,
                       alias.asname or alias.name)


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    """A name imported and never read is a dead import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [bound for _, _, bound in _imports(tree) if bound not in used]
    assert not unused, f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("name", ["cli.py", "verify.py"])
def test_clients_import_no_private_names(name):
    """The CLI and the verify suites call the other modules through their
    public names only."""
    path = next(path for path in SOURCE_MODULES if path.name == name)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [f"{module}.{imported}"
               for module, imported, _ in _imports(tree)
               if module is not None and imported.startswith("_")
               and (module.startswith(".")
                    or module.split(".")[0] == "commgraph")]
    assert not private, f"{name} imports private names {private}"


def test_lattice_oracle_imports_no_private_group_names():
    """The lattice oracle closes subgroups and conjugates by its own code,
    so a change to the library's closure, inverses or class orbits
    cannot change the reference as well: it imports no private name of
    ``commgraph.groups``."""
    path = Path(__file__).resolve().parent / "lattice_oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [imported for module, imported, _ in _imports(tree)
               if module == "commgraph.groups" and imported.startswith("_")]
    assert not private, f"the oracle imports {private} from commgraph.groups"


def test_only_the_lemma_suite_samples():
    """The library proves its answers: a table is proven a group and a
    lattice is pinned against an oracle, with nothing sampled.  Only the
    randomized lemma trials of ``verify`` import ``random``."""
    package = Path(__file__).resolve().parents[1] / "src" / "commgraph"
    sampling = sorted(
        path.name for path in package.glob("*.py")
        if any((module or imported).split(".")[0] == "random"
               for module, imported, _ in _imports(
                   ast.parse(path.read_text(encoding="utf-8")))))
    assert sampling == ["verify.py"]


def test_only_groups_makes_tables():
    """Every table comes from the one proof that a product is a group: only
    ``commgraph.groups`` calls ``GroupTable(...)``, on a ``GroupAction``'s
    filled table or on a table from outside proven equal to one."""
    makers = sorted(
        path.name for path in SOURCE_MODULES
        if any(isinstance(node, ast.Call) and "GroupTable" in (
                   getattr(node.func, "id", None),
                   getattr(node.func, "attr", None))
               for node in ast.walk(ast.parse(
                   path.read_text(encoding="utf-8")))))
    assert makers == ["groups.py"]


def test_benchmark_tracer_wraps_every_name():
    """``perfbench/spans.instrument`` wraps the public names that ``verify``
    and ``cli`` call, ``spans.GROUP_OPS`` among them, and fails on one that
    is missing.  It runs in a fresh interpreter, as the benchmark's traced
    samples do, because it rebinds the names in the imported modules; with
    ``-B``, so that it writes no bytecode under ``perfbench/``."""
    root = Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            f"sys.path[:0] = {[str(root / 'perfbench'), str(root / 'src')]!r}\n"
            "import spans\n"
            "spans.instrument(spans.Tracer())\n")
    result = subprocess.run([sys.executable, "-B", "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
