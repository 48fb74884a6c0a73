"""M-stationarity certificates for programs with complementarity constraints.

Given first-order data at a feasible point, the package constructs
per-branch multipliers by polar-cone LPs, combines them into an
M-stationarity witness by a max-of-min-norms convex-combination rule,
and cross-checks every result with brute-force oracles.
"""

from .cones import (
    BranchAssignment,
    LinearizedCone,
    branch_cone_contains,
    branch_cone_inclusion_check,
    enumerate_branch_assignments,
    polar_branch_membership,
    polar_separating_direction,
    tmpcclin_contains,
)
from .errors import (
    BranchBudgetExceeded,
    DimensionMismatch,
    InfeasiblePoint,
    MpccError,
    NotAffine,
    NumericalFailure,
    ParseError,
    PatternBudgetExceeded,
    PostconditionViolated,
    SystemViolated,
)
from .model import (
    AffineInstance,
    FeasibilityReport,
    FirstOrderData,
    IndexSets,
    MultiplierVector,
    Tolerances,
    check_feasibility,
    classify_indices,
    evaluate_affine,
)
from .oracle import (
    PatternKind,
    TangentSampleReport,
    grid_min_norm,
    oracle_combiner_grid,
    oracle_m_exists,
    oracle_s_exists,
    oracle_tangent_sample,
    ray_stays_feasible,
)
from .solvers import (
    LinearProgram,
    LpOutcome,
    LpStatus,
    MinNormProblem,
    MinNormResult,
    lp_feasible,
    lp_solve,
    min_norm_point,
)
from .stationarity import (
    BranchRecord,
    BranchWalk,
    CombineResult,
    MultiplierClass,
    ResidualReport,
    StationarityVerdict,
    VerdictKind,
    certify_m_stationarity,
    check_stationarity_system,
    classify_multiplier,
    schinabeck_combine,
)

__version__ = "0.1.0"
