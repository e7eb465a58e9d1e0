"""The pair path's modules do not import the extract path's: archives,
pooling, scores and commits work on plain arrays and pooled features, not
on frames, flow or histograms. The modules that decide a run's settings
and files import no numpy or scipy, so the parser and a finished command
load neither. And a module binds by ``from ... import`` only names it
uses: a name re-exported from a module that no longer defines it is a
second home for one decision."""

import ast
from pathlib import Path

import pytest

import potsim

EXTRACT_MODULES = {"descriptors", "flow", "frames"}
NUMPY_FREE_MODULES = {"commit", "layout", "params", "stage"}
POTSIM_MODULES = {path.stem for path in Path(potsim.__file__).parent.glob("*.py")}
# (module, name) bound by a module-level `from ... import` and not used there
UNUSED_IMPORT_ALLOWLIST = {
    # perfbench's tracer wraps engine.csd_sixtuple by that name
    ("engine", "csd_sixtuple"),
    # and counts calls of engine.kernel_distance, which sim no longer makes:
    # it scores its pairs without numpy (stage.write_similarity)
    ("engine", "kernel_distance"),
}


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


@pytest.mark.parametrize("module", ["archive", "pooling", "similarity", "commit", "layout", "stage"])
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


def module_level_imports(tree: ast.Module) -> list[ast.ImportFrom]:
    """The `from ... import` statements of a module's top level, those
    inside a top-level `if` or `try` too, but not a function's or a
    class's; `from __future__` imports bind no usable name and are left out."""
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found.append(node)
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            pending.extend(ast.iter_child_nodes(node))
    return found


def unused_imports(source: str) -> set[str]:
    """The names a module binds with a module-level `from ... import` and
    never reads as a name (a bare name or an attribute's base)."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name
        for node in module_level_imports(tree)
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


@pytest.mark.parametrize("module", sorted(POTSIM_MODULES))
def test_module_level_imports_are_used(module):
    unused = {(module, name) for name in unused_imports(source_of(module))}
    assert unused - UNUSED_IMPORT_ALLOWLIST == set()


def test_unused_import_allowlist_is_current():
    """Each allowlisted name is still bound and still unused there."""
    for module, name in UNUSED_IMPORT_ALLOWLIST:
        assert name in unused_imports(source_of(module)), (module, name)


def test_unused_imports_sees_each_form():
    source = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from .layout import SLOTS, shard_count as count, spare\n"
        "if TYPE_CHECKING:\n"
        "    from .layout import PipelineConfig, Unused\n"
        "try:\n"
        "    from os import fspath\n"
        "except ImportError:\n"
        "    from os import fsencode\n"
        "def f(config: PipelineConfig) -> Sequence[int]:\n"
        "    from .engine import lazy\n"
        "    return SLOTS.index, count(3), TYPE_CHECKING, fspath\n"
    )
    assert unused_imports(source) == {"spare", "Unused", "fsencode"}
