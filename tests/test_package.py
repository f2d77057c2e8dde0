"""The public surface of the `patmat` namespace.

Each module's `__all__` is where a name becomes public; the package
exports the concatenation of those lists and nothing else.  The modules
load on first use, so some checks run in a fresh interpreter.
"""

import importlib
import subprocess
import sys

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
    assert len(expected) == 50


@pytest.mark.parametrize("mod", MODULES)
def test_every_name_is_its_defining_module_object(mod):
    for name in module(mod).__all__:
        assert getattr(patmat, name) is getattr(module(mod), name)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from patmat import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(patmat.__all__)
    assert "full_row_rank" in dir(patmat)
    assert not hasattr(patmat, "no_such_name")
    with pytest.raises(AttributeError, match="'no_such_name'"):
        patmat.no_such_name


@pytest.mark.parametrize("mod", UNEXPORTED)
def test_oracles_and_cli_stay_unexported(mod):
    assert mod not in patmat.__all__
    assert not set(module(mod).__all__) & set(patmat.__all__)
    # a submodule resolves as an attribute, loading what it imports only
    code = (
        "import sys, patmat\n"
        f"for name in ('rank', {mod!r}):\n"
        "    assert getattr(patmat, name) is sys.modules['patmat.' + name]\n"
        "assert 'patmat.network' not in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
