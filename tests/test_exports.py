"""The package's public names are the modules' ``__all__``, declared once."""

import types

import toda_darboux
from toda_darboux import banded, darboux, lattice, lu

MODULES = (banded, lu, darboux, lattice)


def test_every_declared_name_is_defined_in_its_module():
    for module in MODULES:
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__


def test_package_exports_exactly_the_declared_names_each_once():
    declared = [n for module in MODULES for n in module.__all__]
    public = {
        n for n, v in vars(toda_darboux).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert len(declared) == len(set(declared)) and public == set(declared)
