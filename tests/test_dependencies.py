"""The package depends on numpy alone, as pyproject.toml declares."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "toda_darboux").glob("*.py"))
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


def test_importing_the_package_loads_no_process_machinery():
    # the CSV writer forks with os alone: these imports would only add start-up time
    heavy = ("multiprocessing", "concurrent.futures", "subprocess")
    code = f"import sys, toda_darboux.cli; print([m for m in {heavy!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout.strip() == "[]"
