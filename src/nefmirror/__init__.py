"""nefmirror: exact Batyrev-Borisov nef-partition duality, Calabi-Yau
double-cover invariants, and GKZ/tautological period systems.

All types are immutable values and all operations are pure functions, so
everything here is safe to use from multiple threads.  A NefPartition
computes its dual and MPCP side on first read and keeps them; threads that
race on that first read compute equal values.
"""

from .errors import (
    ConsistencyError,
    DomainError,
    GoldenMismatchError,
    InputError,
    NefMirrorError,
    SmoothnessError,
)
from .lattice import (
    Cone,
    LatticePolytope,
    Triangulation,
    cayley_polytope,
    convex_hull,
    dual_cone,
    is_reflexive,
    lattice_points,
    make_cone,
    maximal_boundary_triangulation,
    minkowski_sum,
    mixed_area,
    normalized_volume,
    polar_dual,
    polytope_from_json,
    polytope_to_json,
    pyramid,
)
from .toric import (
    CartierData,
    Fan,
    ToricDivisor,
    anticanonical,
    cartier_data,
    divisor_from_polytope,
    divisor_polytope,
    fan_from_json,
    fan_to_json,
    hodge_numbers_smooth_toric,
    is_ample,
    is_calabi_yau_cover,
    is_complete,
    is_fano,
    is_nef,
    is_simplicial,
    is_smooth,
    linear_equivalence_witness,
    linearly_equivalent,
    make_fan,
    mpcp_fan,
    normal_fan,
    projective_bundle_fan,
    semiample_contraction,
)
from .nefpart import (
    DualNefPartition,
    NefPartition,
    build_nef_partition,
    cayley_cone,
    double_dual_check,
    dualize,
    nef_partition_from_json,
    nef_partition_to_json,
    s_polytope,
)
from .invariants import (
    CoverInvariants,
    branched_cover_euler,
    dk_euler,
    double_cover_invariants,
    surface_node_count,
    verify_mirror_duality,
)
from .periods import (
    CoeffVar,
    DiffOperator,
    GKZData,
    gkz_data,
    parse_operators,
    serialize_operators,
    taut_system,
)
from .catalog import catalog_run, find_entry, load_catalog

__version__ = "0.1.0"

__all__ = [
    "NefMirrorError", "InputError", "DomainError", "SmoothnessError",
    "ConsistencyError", "GoldenMismatchError",
    "LatticePolytope", "Cone", "Triangulation",
    "convex_hull", "polar_dual", "is_reflexive", "lattice_points",
    "normalized_volume", "minkowski_sum", "mixed_area", "cayley_polytope",
    "pyramid", "dual_cone", "make_cone", "maximal_boundary_triangulation",
    "polytope_to_json", "polytope_from_json",
    "Fan", "ToricDivisor", "CartierData",
    "make_fan", "normal_fan", "mpcp_fan", "is_smooth", "is_complete",
    "is_simplicial", "hodge_numbers_smooth_toric", "divisor_polytope",
    "divisor_from_polytope", "cartier_data", "is_nef", "is_ample",
    "anticanonical", "is_fano", "projective_bundle_fan",
    "semiample_contraction", "linearly_equivalent",
    "linear_equivalence_witness", "is_calabi_yau_cover",
    "fan_to_json", "fan_from_json",
    "NefPartition", "DualNefPartition", "build_nef_partition", "dualize",
    "double_dual_check", "cayley_cone", "s_polytope",
    "nef_partition_to_json", "nef_partition_from_json",
    "CoverInvariants", "dk_euler", "branched_cover_euler",
    "double_cover_invariants", "verify_mirror_duality", "surface_node_count",
    "GKZData", "CoeffVar", "DiffOperator",
    "gkz_data", "taut_system", "serialize_operators", "parse_operators",
    "load_catalog", "find_entry", "catalog_run",
]
