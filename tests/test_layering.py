"""The package's modules import one another in one direction only, and read
none of one another's private names."""

import ast
from pathlib import Path

import pytest

import mrio_footprint

PACKAGE = Path(mrio_footprint.__file__).parent

# Lowest first: each module may import only modules listed before it.
LAYERS = ("errors", "algebra", "model", "scenario", "indicators", "fileio", "fixtures", "cli")


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports with ``from .x import``
    or ``from . import x``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.split(".")[0])
    return imported


def private_names_read(module: str) -> set[str]:
    """The private names of other package modules that ``module`` reads,
    by ``from .x import _y`` or as ``x._y`` after ``from . import x``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    modules: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                read.update(f"{node.module}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            read.add(f"{node.value.id}.{node.attr}")
    return read


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_no_upward_import(module):
    lower = set(LAYERS[:LAYERS.index(module)])
    assert package_imports(module) - lower == set()


def test_fileio_needs_only_the_model():
    # Reading and writing accounts knows nothing of scenarios or reports.
    assert package_imports("fileio") <= {"errors", "model"}


@pytest.mark.parametrize("module", LAYERS)
def test_no_module_reads_a_private_name_of_another(module):
    assert private_names_read(module) == set()
