"""Optimal uncertainty quantification over product measures of Dirac masses.

Computes optimal upper bounds on failure probabilities by differential-
evolution search over finite-dimensional product measures.  The mean
constraint is enforced by repair: each trial's weight is moved within one
factor into the band; only if the move leaves no initial trial feasible
does a nested inner optimization draw the initial population.  Ships with
the hypervelocity-impact perforation surrogate.

The names below are the public surface; everything else (exception
classes, block kernels, the repair internals) is imported from the module
that defines it.
"""

__version__ = "0.1.0"

from .de import Bounds, ChangeOverGeneration, DESettings, de_solve
from .measures import (
    DiscreteMeasure,
    ParamLayout,
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
from .solver import FeasibilityAudit, MeanConstraint, OUQProblem, ouq_solve
from .surrogate import ballistic_limit, perforation_area
