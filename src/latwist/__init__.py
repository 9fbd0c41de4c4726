"""Exact homology-lattice computations for blown-up rational and ruled
surfaces: exceptional classes, Cremona reduction certificates,
symplectic cone tests, and twist factorizations.

Modules load on first use.  Importing the package compiles no layer;
reading an exported name (``latwist.in_cone``) or a layer module
(``latwist.cone``) imports its home module then, and binds the name
here, so later reads are plain global lookups.  A ``latwist classify``
call compiles ``lattice``, ``classexpr``, ``reduction`` and ``cli``
only; ``cone``, ``decompose`` and ``oracle`` load when a caller first
reaches them.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the module it lives in; __all__ follows this order
_EXPORTS = {
    "LatticeModel": "lattice",
    "HomClass": "lattice",
    "FormClass": "lattice",
    "pairing": "lattice",
    "form_pairing": "lattice",
    "reflect": "lattice",
    "reflection_matrix": "lattice",
    "is_characteristic": "lattice",
    "ParseError": "classexpr",
    "parse_class": "classexpr",
    "parse_form": "classexpr",
    "print_class": "classexpr",
    "class_to_json": "classexpr",
    "class_from_json": "classexpr",
    "form_from_json": "classexpr",
    "model_to_json": "classexpr",
    "model_from_json": "classexpr",
    "NormalForm": "reduction",
    "ReflectionWord": "reduction",
    "cremona_reduce": "reduction",
    "is_exceptional": "reduction",
    "is_K_null_spherical": "reduction",
    "ExceptionalSet": "cone",
    "ConeResult": "cone",
    "LagrangianResult": "cone",
    "enumerate_exceptional": "cone",
    "in_cone": "cone",
    "is_lagrangian_spherical": "cone",
    "inflation_admissible": "cone",
    "IsometryMatrix": "decompose",
    "ValidationReport": "decompose",
    "DecompositionError": "decompose",
    "validate": "decompose",
    "decompose_K": "decompose",
    "decompose_K_alpha": "decompose",
    "decompose_ruled": "decompose",
    "matrix_to_json": "decompose",
    "matrix_from_json": "decompose",
    "EnumQuery": "oracle",
    "CrosscheckReport": "oracle",
    "enumerate_classes": "oracle",
    "crosscheck": "oracle",
    "bfs_is_exceptional": "oracle",
    "bfs_is_knull_spherical": "oracle",
}

_LAYERS = ("lattice", "classexpr", "reduction", "cone", "decompose", "oracle", "cli")

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    # called only for names not yet bound in this module
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _LAYERS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
