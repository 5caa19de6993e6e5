"""fejerlab: diagnostics for Fejer-monotone sequences and nonexpansive maps.

Desk-scale numerical laboratory: exact convex geometry with closed-form
projectors, nonexpansive operator expressions with averagedness
certificates, orbit generation with drift estimation, sequence checkers, and
a scenario runner with CSV/JSON export.

Importing the package loads numpy and PyYAML only: each function that calls
scipy imports the subpackage it needs, so a run pays only for what it uses.
"""

from .errors import (
    CertificateRequiredError,
    ConfigError,
    DimensionMismatchError,
    FejerlabError,
    MonotonicityViolationError,
    NonFiniteValueError,
    UnsupportedSetError,
)
from .geometry import (
    AffineSubspace,
    Ball,
    Box,
    CodimResult,
    ConvexSet,
    Halfspace,
    Hyperplane,
    LinearSubspace,
    MinkowskiSum,
    Orthant,
    Point,
    Ray,
    ball,
    codimension,
    dual_cone_contains,
    full_space,
    sample_witnesses,
)
from .operators import (
    AffineMap,
    AveragednessCertificate,
    Composition,
    ConvexCombination,
    DouglasRachford,
    Identity,
    Linear,
    Negation,
    OperatorExpr,
    Projector,
    Reflector,
    ScalarPiecewiseLinear,
    Translation,
    certify,
    fixed_set_description,
    random_scalar_piecewise_linear,
    verify_averaged,
    verify_nonexpansive,
)
from .dynamics import (
    DisplacementEstimate,
    LimitEstimate,
    Trajectory,
    detect_limit,
    difference_orbit,
    estimate_displacement,
    iterate,
    normalized_from_raw,
    shadow,
)
from .analysis import (
    ClusterSet,
    check_asymptotic_regularity,
    check_cluster_orthogonality,
    check_codim1_theorem,
    check_connectivity,
    check_fejer,
    check_shadow_superset,
    check_sum_decoupling,
    estimate_cluster_set,
)
from .report import DiagnosticsReport
from .scenarios import (
    CheckDef,
    RunArtifacts,
    ScenarioSpec,
    TrajectoryDef,
    get_scenario,
    list_scenarios,
    run_scenario,
)
from .config import dump_scenario, load_scenario, parse_scenario, serialize_scenario
from .exports import export_report, export_trajectory

__version__ = "0.1.0"
