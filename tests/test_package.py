"""The public surface of the `patmat` namespace.

Each module's `__all__` is where a name becomes public; the package
exports the concatenation of those lists and nothing else.
"""

import importlib

import pytest

import patmat

# the modules whose names the package exports, in export order
MODULES = ("symbols", "pattern", "realization", "rank", "systems", "network", "errors")
UNEXPORTED = ("oracles", "cli")


def module(name):
    return importlib.import_module(f"patmat.{name}")


def test_no_duplicates():
    assert len(patmat.__all__) == len(set(patmat.__all__))


def test_all_is_the_concatenation_of_the_module_lists():
    expected = [name for mod in MODULES for name in module(mod).__all__]
    assert patmat.__all__ == expected
    assert len(expected) == 52


@pytest.mark.parametrize("mod", MODULES)
def test_every_name_is_its_defining_module_object(mod):
    for name in module(mod).__all__:
        assert getattr(patmat, name) is getattr(module(mod), name)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from patmat import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(patmat.__all__)


@pytest.mark.parametrize("mod", UNEXPORTED)
def test_oracles_and_cli_stay_unexported(mod):
    assert mod not in patmat.__all__
    assert not set(module(mod).__all__) & set(patmat.__all__)
