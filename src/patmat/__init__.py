"""Pattern matrices over {0, *, ?} and strong structural system analysis.

The package decides properties that must hold for every real matrix
consistent with a symbolic zero/nonzero/arbitrary pattern: full rank with
replayable certificates, controllability of descriptor systems,
input-state observability, output controllability, and target
controllability of directed networks.

Modules load on first use: `import patmat` loads none of them, and an
exported name loads its defining module and the ones it is searched after.
"""

import importlib

__version__ = "0.1.0"

# A name is public when its module lists it in __all__; the package
# exports every module's list, in this order.
_EXPORTING = ("symbols", "pattern", "realization", "rank", "systems", "network", "errors")
# The search order: each module after the ones it imports, so that a name
# loads its own module and those before it, and none after it.  Names are
# unique across the lists, so the first hit is the only one.
_SEARCH = ("errors", "symbols", "pattern", "realization", "rank", "systems", "network")
_SUBMODULES = frozenset(_EXPORTING) | {"oracles", "cli"}


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _module(name)  # the import binds it here
    if name == "__all__":
        value = [export for module in _EXPORTING for export in _module(module).__all__]
    else:
        for module in map(_module, _SEARCH):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    exports = globals().get("__all__") or __getattr__("__all__")
    return sorted(set(globals()) | set(exports))
