"""The benchmark in ``perfbench/`` reaches into blowlab by name: the
tracer rebinds module attributes, and the workloads and the worker
import functions and constants.  Each of those names must still resolve,
so that a rename or deletion in the package fails here, in the tier-1
suite, before it breaks a benchmark run.  The benchmark's files are only
read."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({(module, attr) for module, attr, _, _ in tracing.TRACED})


def _imported_names(filename):
    """(module, name) for every blowlab name a benchmark file imports or
    reads as an attribute of an imported blowlab module."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("blowlab"):
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module == "blowlab":
                    modules[bound] = f"blowlab.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


BENCH_NAMES = sorted(set(_traced_names()) | _imported_names("workloads.py")
                     | _imported_names("worker.py"))


def test_names_found():
    # Guards the scan itself: the benchmark reads these, so an empty or
    # partial scan would make the resolution test vacuous.
    for expected in (("blowlab.pde", "step"), ("blowlab.pde", "init_state"),
                     ("blowlab.testfuncs", "phi_quadrature"),
                     ("blowlab.cli", "_SVG_CATEGORIES"),
                     ("blowlab.cli", "run_experiment")):
        assert expected in BENCH_NAMES


@pytest.mark.parametrize("module,name", BENCH_NAMES)
def test_bench_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
