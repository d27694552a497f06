"""nefmirror: exact Batyrev-Borisov nef-partition duality, Calabi-Yau
double-cover invariants, and GKZ/tautological period systems.

All types are immutable values and all operations are pure functions, so
everything here is safe to use from multiple threads.  A NefPartition
computes its dual, the Euler number and h-vector of its MPCP side and its
Cayley pyramid on first read and keeps them; threads that race on that
first read compute equal values.
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
    cayley_pyramid,
    convex_hull,
    dual_cone,
    is_reflexive,
    lattice_points,
    make_cone,
    maximal_boundary_triangulation,
    polar_dual,
)
from .toric import (
    CartierData,
    Fan,
    ToricDivisor,
    anticanonical,
    cartier_data,
    divisor_from_polytope,
    hodge_numbers_smooth_toric,
    is_ample,
    is_calabi_yau_cover,
    is_complete,
    is_fano,
    is_smooth,
    linear_equivalence_witness,
    linearly_equivalent,
    make_fan,
    mpcp_fan,
    nef_polytope,
    normal_fan,
    projective_bundle_fan,
    semiample_contraction,
)
from .nefpart import (
    NefPartition,
    build_nef_partition,
    cayley_cone,
    dualize,
    nef_partition_from_json,
)
from .invariants import (
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
    taut_text,
)
from .catalog import catalog_run, find_entry, load_catalog

__version__ = "0.1.0"

__all__ = [
    "NefMirrorError", "InputError", "DomainError", "SmoothnessError",
    "ConsistencyError", "GoldenMismatchError",
    "LatticePolytope", "Cone", "Triangulation",
    "convex_hull", "polar_dual", "is_reflexive", "lattice_points",
    "cayley_pyramid",
    "dual_cone", "make_cone", "maximal_boundary_triangulation",
    "Fan", "ToricDivisor", "CartierData",
    "make_fan", "normal_fan", "mpcp_fan", "is_smooth", "is_complete",
    "hodge_numbers_smooth_toric", "divisor_from_polytope", "cartier_data",
    "nef_polytope",
    "is_ample", "anticanonical", "is_fano", "projective_bundle_fan",
    "semiample_contraction", "linearly_equivalent",
    "linear_equivalence_witness", "is_calabi_yau_cover",
    "NefPartition", "build_nef_partition", "dualize", "cayley_cone",
    "nef_partition_from_json",
    "dk_euler", "branched_cover_euler",
    "double_cover_invariants", "verify_mirror_duality", "surface_node_count",
    "GKZData", "CoeffVar", "DiffOperator",
    "gkz_data", "taut_text", "serialize_operators", "parse_operators",
    "load_catalog", "find_entry", "catalog_run",
]
