"""The package depends on numpy alone, as pyproject.toml declares."""

import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "toda_darboux").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_packages(source: str) -> set:
    """Top-level names of the absolute imports in source; relative imports stay inside."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_import_scan_sees_every_form():
    source = "import os.path, scipy\nfrom numpy.linalg import det\nfrom . import banded\n"
    assert imported_packages(source) == {"os", "scipy", "numpy"}


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_module_imports_only_the_standard_library_and_numpy(path):
    assert imported_packages(path.read_text()) <= ALLOWED
