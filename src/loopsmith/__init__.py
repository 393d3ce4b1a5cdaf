"""Finite loop tables: structure analysis and half-morphism search.

The names below are loaded on first use (PEP 562), so that importing the
package, or one submodule of it, does not import the rest: ``loopsmith.X``
and ``from loopsmith import X`` return the submodule's own object.
"""

import importlib

_EXPORTS = {
    "errors": (
        "HalfMapError", "InternalCheckError", "LoopError", "LoopFileError", "QuotientError",
        "TableValidationError", "TheoremViolation",
    ),
    "table": ("CatalogEntry", "LoopTable", "MoufangFlags", "ValidationReport", "relabel", "validate"),
    "closure": (
        "Subloop", "associator_subloop", "center", "commutant", "commutative_nilpotency_class",
        "commutator_subloop", "generate_subloop", "nucleus", "nucleus_left", "nucleus_middle",
        "nucleus_right",
    ),
    "subloops": ("hall_3prime_subgroup", "is_normal", "quotient", "restriction", "sylow_subloop"),
    "innermaps": (
        "cycles_str", "inner_l", "inner_r", "inner_t", "is_automorphic", "is_automorphism",
        "is_left_automorphic", "inner_map_witness", "perm_from_cycles",
    ),
    "halfmorph": (
        "GGTriple", "HalfClass", "HalfEnumeration", "HalfKind", "HalfMap", "SearchStats",
        "TheoremReport", "classify", "d_set", "enumerate_half_automorphisms", "find_gg_triples",
        "half_maps_form_group_check", "induced_on_quotient", "is_semi_isomorphism", "make_half_map",
        "verify_main_theorem",
    ),
    "loopformat": ("parse_loop_file", "write_loop_file"),
    "catalog": (
        "builtin", "catalog_keys", "check_expected", "entries", "make_chein", "make_cyclic",
        "make_dihedral", "make_quaternion8", "make_symmetric3",
    ),
}

# exported name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # read through each time, so the package never holds a stale copy
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
