"""p-capacities, equilibrium measures and square tilings on the
boundaries of rooted trees."""

from types import ModuleType as _ModuleType

from .capacity import (
    CapacityInterval,
    EquilibriumResult,
    LevelEquilibriumResult,
    RescalingResult,
    ResistanceResult,
    capacity_of_set,
    capacity_recursive,
    homogeneous_capacity,
    rescaling_constant,
    symmetric_capacity,
    total_resistance,
)
from .characterization import (
    CharacterizationReport,
    capacity_equation_check,
    check_potential_bound,
    recover_equilibrium_set,
    verify_equilibrium,
)
from .constructions import (
    CompactSetResult,
    DigitExpansion,
    SubdyadicResult,
    compact_set_of_capacity,
    greedy_digits,
    lambda_digits,
    subdyadic_tree_of_capacity,
)
from .oracle import OracleConvergenceError, OracleResult, oracle_capacity
from .potential import (
    HarmonicityReport,
    PExponent,
    VertexFunction,
    as_exponent,
    energy,
    energy_all,
    is_p_harmonic,
    p_laplacian,
    potential,
    potential_all,
    signed_power,
)
from .tiling import (
    Tiling,
    TilingReport,
    TilingSquare,
    build_tiling,
    emit_svg,
    measure_from_tiling,
    tiling_from_json,
    validate_tiling,
)
from .trees import (
    AdditivityReport,
    BoundaryMeasure,
    Explicit,
    Homogeneous,
    SphericallySymmetric,
    Subdyadic,
    SymmetricTree,
    Tree,
    TreeStructureError,
    TreeTooLargeError,
    build_tree,
    confluent,
    edge_function_from_mapping,
    edge_function_to_mapping,
    is_forward_additive,
    predecessor_path,
    spanned_subtree,
    spec_from_json,
    spec_to_json,
    tent,
    tree_from_json,
    tree_to_json,
)

__version__ = "0.1.0"

# importing the names above also binds the submodules; keep them out
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
