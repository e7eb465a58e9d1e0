"""The pair path's modules do not import the extract path's: archives,
pooling, scores and commits work on plain arrays and pooled features, not
on frames, flow or histograms."""

import ast
from pathlib import Path

import pytest

import potsim

EXTRACT_MODULES = {"descriptors", "flow", "frames"}


def potsim_imports(source: str) -> set[str]:
    """Every dotted part of the potsim names a module's source imports,
    at any depth (a function's lazy import too)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "potsim"]
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "potsim"
        ):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(part for name in names for part in name.split("."))
    return found


@pytest.mark.parametrize("module", ["archive", "pooling", "similarity", "commit"])
def test_pair_path_does_not_import_the_extract_path(module):
    source = (Path(potsim.__file__).parent / f"{module}.py").read_text()
    assert potsim_imports(source) & EXTRACT_MODULES == set()


def test_potsim_imports_sees_each_form():
    source = (
        "from .flow import farneback_flow\n"
        "from . import frames\n"
        "def f():\n"
        "    import potsim.descriptors\n"
    )
    assert potsim_imports(source) & EXTRACT_MODULES == EXTRACT_MODULES
    assert potsim_imports("from numpy import flow\nimport frames\n") == set()
