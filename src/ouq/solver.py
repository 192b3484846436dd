"""The OUQ outer loop and the nested mean-constraint inner loop.

The outer loop maximizes the probability of the failure event over product
measures of weighted Dirac masses (recast as minimizing the negative).
Each trial parameter vector is first repaired by the constraint function:
weights are renormalized per factor, and if the expected response leaves
the admissible band [m-d, m+d] a nested differential-evolution run imposes
it (least-squares distance to the target mean, value-to-reach d^2).

Both loops hand `de_solve` whole generations: repair and cost work on
(m, param_length) blocks through the block kernels of `measures`, and the
response is called once per block.  `constrain_params` is the same repair
for one vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .de import (
    Bounds,
    DESettings,
    SolveReport,
    TerminationRule,
    ValueBelow,
    de_solve,
)
from .errors import ConstraintViolation, InfeasibleConstrain, InnerLoopFailed, ZeroMassMeasure
# event_probability, flatten and normalize are not called here, but
# ouq.solver keeps naming the whole measure layer: perfbench wraps these
# names on this module
from .measures import (
    MASS_TOL,
    ParamLayout,
    ProductMeasure,
    event_probability,
    event_probability_block,
    expectation,
    expectation_block,
    factor_masses,
    flatten,
    normalize,
    normalize_block,
    unflatten,
)

# Slack on the expectation band that FeasibilityAudit allows.
BAND_TOL = 1e-6


@dataclass(frozen=True)
class MeanConstraint:
    """Admissible band [m - d, m + d] for the expected response."""

    m: float
    d: float

    def __post_init__(self):
        if not math.isfinite(self.m):
            raise ValueError(f"band centre m must be finite, got {self.m}")
        if not self.d > 0.0:
            raise ValueError(f"acceptable deviation d must be positive, got {self.d}")

    @classmethod
    def from_band(cls, m1: float, m2: float) -> "MeanConstraint":
        if not m1 < m2:
            raise ValueError(f"mean band needs m1 < m2, got [{m1}, {m2}]")
        return cls(m=(m1 + m2) / 2.0, d=(m2 - m1) / 2.0)

    @property
    def band(self) -> tuple[float, float]:
        return (self.m - self.d, self.m + self.d)


@dataclass(frozen=True)
class OUQProblem:
    response: Callable[..., float]
    layout: ParamLayout
    constraint: MeanConstraint
    failure_tolerance: float = 0.0
    outer: DESettings = DESettings(npop=40)
    inner: DESettings = DESettings(npop=20)
    outer_termination: Optional[TerminationRule] = None

    def __post_init__(self):
        if not self.failure_tolerance >= 0.0:
            raise ValueError(f"failure_tolerance must be nonnegative, got {self.failure_tolerance}")
        rule = self.outer_termination
        if isinstance(rule, ValueBelow) and not rule.tolerance < 0.0:
            raise ValueError(
                "outer value_below tolerance must be negative (the outer cost is -P;"
                f" -0.3 stops at bound 0.3), got {rule.tolerance}"
            )

    def failure_predicate(self) -> Callable[..., bool]:
        tol = self.failure_tolerance
        resp = self.response
        return lambda *xs: abs(resp(*xs)) <= tol


@dataclass
class OUQResult:
    probability_bound: float
    maximizer: ProductMeasure
    expectation_at_maximizer: float
    report: SolveReport


@dataclass
class FeasibilityAudit:
    """Records constraint health at every outer cost evaluation."""

    evaluations: int = 0
    mass_violations: int = 0
    band_violations: int = 0
    worst_mass_deviation: float = 0.0
    worst_band_excess: float = 0.0

    def record(self, masses: np.ndarray, expect_values: np.ndarray, band: tuple[float, float]):
        """Record one block of evaluated measures: their (m, dimension) factor
        masses and their m expectations."""
        self.evaluations += len(expect_values)
        dev = np.abs(masses - 1.0).max(axis=1)
        self.worst_mass_deviation = max(self.worst_mass_deviation, float(dev.max()))
        self.mass_violations += int(np.count_nonzero(dev > MASS_TOL))
        excess = np.maximum(np.maximum(band[0] - expect_values, expect_values - band[1]), 0.0)
        self.worst_band_excess = max(self.worst_band_excess, float(excess.max()))
        self.band_violations += int(np.count_nonzero(excess > BAND_TOL))


def build_bounds(layout: ParamLayout) -> Bounds:
    """Box for the flattened vector: [0,1] per weight, the axis box per position."""
    pairs = []
    for n, (lo, hi) in zip(layout.npts_per_dim, layout.bounds_per_dim):
        pairs.extend([(0.0, 1.0)] * n)
        pairs.extend([(lo, hi)] * n)
    return Bounds.from_pairs(pairs)


def cost_block(
    block: np.ndarray,
    problem: OUQProblem,
    audit: Optional[FeasibilityAudit] = None,
) -> np.ndarray:
    """Negative failure probability of the measure of every row of a block."""
    layout = problem.layout
    if audit is not None:
        audit.record(
            factor_masses(block, layout),
            expectation_block(block, layout, problem.response),
            problem.constraint.band,
        )
    return -event_probability_block(block, layout, problem.failure_predicate())


def impose_expectation(
    params: np.ndarray,
    problem: OUQProblem,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Move a normalized parameter vector into the admissible expectation band.

    Runs a nested DE minimizing (E[response] - m)^2 over the same box as
    the outer problem, terminating at value-to-reach d^2 (i.e. |E - m| <= d),
    for at most `problem.inner.max_generations` generations.  The incoming
    vector takes slot 0 of the inner population; the other slots are drawn
    uniformly from the box.  Each inner generation is renormalized and
    costed as one block.

    The result is the parameter vector of the best inner member, which need
    not be related to the incoming one.  When any member of the initial
    population already lies in the band (on the reference problem every one
    of the 900 inner calls of seed 0 does), the run stops at generation 0
    and returns the initial member whose expectation is nearest m.  The
    repair is then a random restart near the band centre, not a small move
    of the trial.
    """
    con = problem.constraint
    layout = problem.layout
    settings = problem.inner if seed is None else replace(problem.inner, seed=seed)

    def inner_cost(block: np.ndarray) -> np.ndarray:
        return (expectation_block(block, layout, problem.response) - con.m) ** 2

    def renormalize_weights(block, generation, slots):
        return normalize_block(block, layout)

    try:
        report = de_solve(
            inner_cost,
            build_bounds(layout),
            settings,
            constrain=renormalize_weights,
            termination=ValueBelow(con.d**2),
            initial=params,
            vectorized=True,
        )
    except InfeasibleConstrain as exc:
        raise InnerLoopFailed(f"inner population was entirely degenerate: {exc}")
    if report.opt_cost > con.d**2:
        raise InnerLoopFailed(
            f"inner loop exhausted {settings.max_generations} generations at "
            f"cost {report.opt_cost:.6g} > d^2 = {con.d ** 2:.6g}"
        )
    return report.opt_params


def repair_block(
    block: np.ndarray,
    problem: OUQProblem,
    inner_seed: Callable[[int], Optional[int]],
) -> tuple[np.ndarray, dict[int, ConstraintViolation]]:
    """Repair every row of a trial block: renormalize weights, then impose the mean band.

    A factor whose mass is off 1 by more than MASS_TOL is renormalized;
    the expectation is then computed for the whole block, and each row
    outside [m-d, m+d] goes through the nested optimization on its own,
    seeded with `inner_seed(row)`.  Returns the repaired block and, for
    each row that cannot be repaired, its ConstraintViolation:
    ZeroMassMeasure for all-zero weights, InnerLoopFailed when the band
    cannot be reached.  The caller treats those rows as infeasible.
    """
    out, nonzero = normalize_block(block, problem.layout, tol=MASS_TOL)
    failures: dict[int, ConstraintViolation] = {
        row: ZeroMassMeasure("cannot normalize a measure with zero total mass")
        for row in np.flatnonzero(~nonzero).tolist()
    }
    rows = np.flatnonzero(nonzero)
    lo, hi = problem.constraint.band
    e = expectation_block(out[rows], problem.layout, problem.response)
    for row, value in zip(rows.tolist(), e.tolist()):
        if not lo <= value <= hi:
            try:
                out[row] = impose_expectation(out[row], problem, seed=inner_seed(row))
            except ConstraintViolation as exc:
                failures[row] = exc
    return out, failures


def constrain_params(
    params: np.ndarray,
    problem: OUQProblem,
    inner_seed: Optional[int] = None,
) -> np.ndarray:
    """Repair one trial vector as repair_block does; raises its ConstraintViolation.

    Raises ZeroMassMeasure for all-zero weights and InnerLoopFailed when
    the band cannot be reached; the caller treats either as an infeasible
    trial.
    """
    layout = problem.layout
    params = np.asarray(params, dtype=float)
    if params.shape != (layout.param_length,) or not np.all(np.isfinite(params)):
        raise ValueError(
            f"expected {layout.param_length} finite parameters for layout "
            f"{layout.npts_per_dim}, got {params.tolist()}"
        )
    out, failures = repair_block(params[None, :], problem, lambda row: inner_seed)
    if failures:
        raise failures[0]
    return out[0]


def _derive_inner_seed(outer_seed: int, generation: int, slot: int) -> int:
    # Child streams keyed by (generation, slot) so nested runs never
    # perturb the outer RNG stream.
    ss = np.random.SeedSequence(entropy=outer_seed, spawn_key=(generation, slot))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def ouq_solve(
    problem: OUQProblem,
    audit: Optional[FeasibilityAudit] = None,
    trace_hook: Optional[Callable[[int, float, np.ndarray], None]] = None,
) -> OUQResult:
    """Compute the optimal upper bound on the failure probability.

    A trial the repair cannot bring into the band is infeasible and never
    enters the outer population, so the maximizer is always a repaired
    measure.  Raises InfeasibleConstrain when no member of the initial
    outer population can be repaired, and DomainError when the response
    returns a non-finite value.

    Each outer generation is repaired and costed as one block
    (`de_solve(vectorized=True)`); only its out-of-band rows run the
    nested DE, one row at a time, each with an inner seed derived from
    (outer seed, generation, slot).
    """
    outer_seed = problem.outer.seed

    def repair(block: np.ndarray, generation: int, slots: np.ndarray):
        def inner_seed(row: int) -> int:
            return _derive_inner_seed(outer_seed, generation, int(slots[row]))

        out, failures = repair_block(block, problem, inner_seed)
        feasible = np.ones(len(block), dtype=bool)
        feasible[list(failures)] = False
        return out, feasible

    report = de_solve(
        lambda block: cost_block(block, problem, audit=audit),
        build_bounds(problem.layout),
        problem.outer,
        constrain=repair,
        termination=problem.outer_termination,
        trace_hook=trace_hook,
        vectorized=True,
    )
    maximizer = unflatten(report.opt_params, problem.layout)
    return OUQResult(
        probability_bound=-report.opt_cost,
        maximizer=maximizer,
        expectation_at_maximizer=expectation(maximizer, problem.response),
        report=report,
    )
