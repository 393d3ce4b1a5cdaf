"""Finite loop tables: structure analysis and half-morphism search."""

from .errors import (
    HalfMapError,
    InternalCheckError,
    LoopError,
    LoopFileError,
    QuotientError,
    TableValidationError,
    TheoremViolation,
)
from .table import ElementOrder, LoopTable, MoufangFlags, ValidationReport, relabel, validate
from .subloops import (
    Subloop,
    associator_subloop,
    center,
    commutant,
    commutative_nilpotency_class,
    commutator_subloop,
    generate_subloop,
    hall_3prime_subgroup,
    is_normal,
    nucleus,
    nucleus_left,
    nucleus_middle,
    nucleus_right,
    quotient,
    restriction,
    sylow_subloop,
)
from .innermaps import (
    cycles_str,
    inner_l,
    inner_r,
    inner_t,
    is_automorphic,
    is_automorphism,
    is_left_automorphic,
    inner_map_witness,
    moufang_l_iff_r_check,
    perm_from_cycles,
)
from .halfmorph import (
    GGTriple,
    HalfClass,
    HalfEnumeration,
    HalfKind,
    HalfMap,
    SearchStats,
    TheoremReport,
    classify,
    d_set,
    enumerate_half_automorphisms,
    find_gg_triples,
    half_maps_form_group_check,
    induced_on_quotient,
    is_semi_isomorphism,
    make_half_map,
    verify_main_theorem,
)
from .catalog import (
    CatalogEntry,
    builtin,
    catalog_keys,
    check_expected,
    entries,
    make_chein,
    make_cyclic,
    make_dihedral,
    make_quaternion8,
    make_symmetric3,
    parse_loop_file,
    write_loop_file,
)

__version__ = "0.1.0"
