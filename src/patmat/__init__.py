"""Pattern matrices over {0, *, ?} and strong structural system analysis.

The package decides properties that must hold for every real matrix
consistent with a symbolic zero/nonzero/arbitrary pattern: full rank with
replayable certificates, controllability of descriptor systems,
input-state observability, output controllability, and target
controllability of directed networks.
"""

from . import errors, network, pattern, rank, realization, symbols, systems
from .errors import *
from .network import *
from .pattern import *
from .rank import *
from .realization import *
from .symbols import *
from .systems import *

__version__ = "0.1.0"

# A name is public when its module lists it in __all__; the package
# exports every module's list, in this order.
__all__ = [
    name
    for module in (symbols, pattern, realization, rank, systems, network, errors)
    for name in module.__all__
]
