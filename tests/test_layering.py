"""The pair path's modules do not import the extract path's: archives,
pooling, scores and commits work on plain arrays and pooled features, not
on frames, flow or histograms. And the modules that decide a run's
settings and files import no numpy or scipy, so the parser and a finished
command load neither."""

import ast
from pathlib import Path

import pytest

import potsim

EXTRACT_MODULES = {"descriptors", "flow", "frames"}
NUMPY_FREE_MODULES = {"commit", "layout", "params"}
POTSIM_MODULES = {path.stem for path in Path(potsim.__file__).parent.glob("*.py")}


def source_of(module: str) -> str:
    return (Path(potsim.__file__).parent / f"{module}.py").read_text()


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


def packages_imported(source: str) -> set[str]:
    """The top-level package of every absolute import of a module's
    source, at any depth, as ``potsim_imports`` walks it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add((node.module or "").split(".")[0])
    return found


@pytest.mark.parametrize("module", ["archive", "pooling", "similarity", "commit", "layout"])
def test_pair_path_does_not_import_the_extract_path(module):
    assert potsim_imports(source_of(module)) & EXTRACT_MODULES == set()


@pytest.mark.parametrize("module", sorted(NUMPY_FREE_MODULES))
def test_settings_and_files_modules_import_no_numpy(module):
    """No numpy or scipy, and of potsim's modules only the others of this
    set, which import neither: a closed set, so none loads numpy through
    another."""
    source = source_of(module)
    assert packages_imported(source) & {"numpy", "scipy"} == set()
    assert potsim_imports(source) & POTSIM_MODULES <= NUMPY_FREE_MODULES


def test_potsim_imports_sees_each_form():
    source = (
        "from .flow import farneback_flow\n"
        "from . import frames\n"
        "def f():\n"
        "    import potsim.descriptors\n"
    )
    assert potsim_imports(source) & EXTRACT_MODULES == EXTRACT_MODULES
    assert potsim_imports("from numpy import flow\nimport frames\n") == set()


def test_packages_imported_sees_each_form():
    source = (
        "import numpy as np\n"
        "from scipy.ndimage import uniform_filter\n"
        "from . import flow\n"
        "def f():\n"
        "    import os.path\n"
    )
    assert packages_imported(source) == {"numpy", "scipy", "os"}
