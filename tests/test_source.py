"""Source hygiene checks that need no linter."""

import ast
import importlib
from pathlib import Path

import pytest

import harmonium

MODULES = sorted(
    p for p in Path(harmonium.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_no_module_keeps_a_functools_cache():
    # every call computes its own result; the one module-level store is
    # constructive._h_cycle_cache, a plain dict
    cached = [f"{path.stem}.{name}"
              for path in MODULES
              for name, value in vars(importlib.import_module(f"harmonium.{path.stem}")).items()
              if hasattr(value, "cache_clear")]
    assert cached == []


def test_oracle_h_calls_no_other_harmonium_function():
    # the oracle is the independent reference the solver is checked
    # against, so its body may name no function defined in the package
    functions = {node.name
                 for path in MODULES
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    solver = ast.parse(Path(harmonium.solver.__file__).read_text())
    oracle = next(node for node in solver.body
                  if isinstance(node, ast.FunctionDef) and node.name == "oracle_h")
    named = set()
    for node in ast.walk(oracle):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert {"_search", "exists_k", "solve", "class_counts", "lower_bounds", "stats",
            "is_harmonious"} <= functions
    assert sorted(named & (functions - {"oracle_h"})) == []
