"""Route planning for continual learning over dissimilar task regions.

An agent visits T regions once each, training a linear-regression model on
every region's local data. The expected final loss splits into a
forgetting term driven by parameter dissimilarity, the travel cost of the
route, and a route-independent noise constant. This package provides the
instance format, the route objective (one form for both learning regimes,
with one regime-specific weight per position), an approximation planner
with a 3/2-style travel guarantee, an exact small-instance oracle,
forgetting-only and random baselines, and Monte Carlo verification of the
closed-form loss.
The planners, the one closed form and the verifier alike read the regime
from (m, n); no function takes it as an argument, and no public name is
split by regime.
"""

from .instance import (
    FormatError,
    ParameterError,
    ProblemInstance,
    RegimeError,
    RegimeKind,
    Route,
    ValidationError,
    classify_regime,
    generate_instance,
    metric_closure,
    read_instance,
    validate_instance,
    write_instance,
)
from .loss import (
    LossBreakdown,
    Objective,
    best_final_region,
    closed_form_forgetting,
    loss_upper,
)
from .mc_verify import (
    McReport,
    TaskGroundTruth,
    delta0_vector,
    delta_matrix,
    simplex_ground_truth,
    verify_closed_form,
)
from .planner import (
    PlanResult,
    Strategy,
    plan,
    plan_algorithm1,
    plan_exact,
    plan_forgetting_baseline,
    plan_random,
)
from .shp import (
    HELD_KARP_MAX_T,
    InvariantViolation,
    SizeLimitError,
    held_karp_min_path,
    minimum_spanning_tree,
    route_travel_cost,
)

__version__ = "0.1.0"

__all__ = [
    "FormatError",
    "ParameterError",
    "ProblemInstance",
    "RegimeError",
    "RegimeKind",
    "Route",
    "ValidationError",
    "classify_regime",
    "generate_instance",
    "metric_closure",
    "read_instance",
    "validate_instance",
    "write_instance",
    "LossBreakdown",
    "Objective",
    "best_final_region",
    "closed_form_forgetting",
    "loss_upper",
    "McReport",
    "TaskGroundTruth",
    "delta0_vector",
    "delta_matrix",
    "simplex_ground_truth",
    "verify_closed_form",
    "PlanResult",
    "Strategy",
    "plan",
    "plan_algorithm1",
    "plan_exact",
    "plan_forgetting_baseline",
    "plan_random",
    "HELD_KARP_MAX_T",
    "InvariantViolation",
    "SizeLimitError",
    "held_karp_min_path",
    "minimum_spanning_tree",
    "route_travel_cost",
]
