"""Optimal uncertainty quantification over product measures of Dirac masses.

Computes optimal upper bounds on failure probabilities by differential-
evolution search over finite-dimensional product measures, with moment
constraints enforced by a nested inner optimization.  Ships with the
hypervelocity-impact perforation surrogate.
"""

__version__ = "0.1.0"

from .de import (
    Bounds,
    ChangeOverGeneration,
    DESettings,
    GenerationRecord,
    SolveReport,
    Strategy,
    ValueBelow,
    de_solve,
    mutate_best1exp,
    termination_met,
)
from .errors import (
    ConfigError,
    ConstraintViolation,
    DomainError,
    InfeasibleConstrain,
    InnerLoopFailed,
    OUQError,
    ZeroMassMeasure,
)
from .measures import (
    DiscreteMeasure,
    ParamLayout,
    ProductMeasure,
    SupportPoint,
    event_probability,
    expectation,
    flatten,
    normalize,
    pack,
    set_mean,
    set_range,
    unflatten,
    unpack,
)
from .registry import get_response, register_response
from .solver import (
    FeasibilityAudit,
    MeanConstraint,
    OUQProblem,
    OUQResult,
    build_bounds,
    constrain_params,
    impose_expectation,
    ouq_cost,
    ouq_solve,
)
from .surrogate import (
    DEFAULT_PARAMS,
    SurrogateParams,
    ballistic_limit,
    mils_to_mm,
    perforation_area,
)
