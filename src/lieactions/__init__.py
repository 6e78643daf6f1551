"""lieactions: exact Lie-algebra invariants, contractions, and
constructed group actions, with numerical verification.

Exact layers (structure constants, series, centers, derivations,
obstruction verdicts, polynomial vector fields) compute certificates
over Q. Numerical layers (deformation and action verification, flows)
cross-check the constructions with seeded sampling.

The re-exports below are imported on first use (PEP 562), so importing
the package, or a module of the numerical layer, loads no exact layer.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# re-exported name -> the submodule that defines it
_EXPORTS = {
    "LieAlgebra": "algebra",
    "SeriesReport": "algebra",
    "direct_sum": "algebra",
    "from_json_dict": "algebra",
    "to_json_dict": "algebra",
    "catalog": "catalog",
    "DEFAULT_SEED": "constants",
    "RatMatrix": "linalg",
    "Subspace": "linalg",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """The package module. `catalog` names both the function it re-exports
    and a submodule; importing the submodule would bind the submodule to the
    package's `catalog`, so that binding is dropped and the name resolves
    to the function."""

    def __setattr__(self, name: str, value) -> None:
        if name == "catalog" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
