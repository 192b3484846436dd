"""The OUQ outer loop and the nested mean-constraint inner loop.

The outer loop maximizes the probability of the failure event over product
measures of weighted Dirac masses (recast as minimizing the negative).
Each trial parameter vector is first repaired by the constraint function:
weights are renormalized per factor, and if the expected response leaves
the admissible band [m-d, m+d] a nested differential-evolution run imposes
it (least-squares distance to the target mean, value-to-reach d^2).
"""

from __future__ import annotations

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
from .errors import InfeasibleConstrain, InnerLoopFailed
from .measures import (
    MASS_TOL,
    ParamLayout,
    ProductMeasure,
    event_probability,
    expectation,
    flatten,
    normalize,
    pack,
    unflatten,
    unpack,
)

# Feasibility slack on the expectation band after the inner loop.
BAND_TOL = 1e-6


@dataclass(frozen=True)
class MeanConstraint:
    """Admissible band [m - d, m + d] for the expected response."""

    m: float
    d: float

    def __post_init__(self):
        if self.d <= 0.0:
            raise ValueError("acceptable deviation d must be positive")

    @classmethod
    def from_band(cls, m1: float, m2: float) -> "MeanConstraint":
        if not m1 < m2:
            raise ValueError(f"need m1 < m2, got [{m1}, {m2}]")
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
        if self.failure_tolerance < 0.0:
            raise ValueError("failure_tolerance must be nonnegative")

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

    def record(self, product: ProductMeasure, expect_value: float, band: tuple[float, float]):
        self.evaluations += 1
        dev = max(abs(f.mass() - 1.0) for f in product.factors)
        self.worst_mass_deviation = max(self.worst_mass_deviation, dev)
        if dev > MASS_TOL:
            self.mass_violations += 1
        excess = max(band[0] - expect_value, expect_value - band[1], 0.0)
        self.worst_band_excess = max(self.worst_band_excess, excess)
        if excess > BAND_TOL:
            self.band_violations += 1


def build_bounds(layout: ParamLayout) -> Bounds:
    """Box for the flattened vector: [0,1] per weight, the axis box per position."""
    pairs = []
    for n, (lo, hi) in zip(layout.npts_per_dim, layout.bounds_per_dim):
        pairs.extend([(0.0, 1.0)] * n)
        pairs.extend([(lo, hi)] * n)
    return Bounds.from_pairs(pairs)


def ouq_cost(
    params: np.ndarray,
    problem: OUQProblem,
    audit: Optional[FeasibilityAudit] = None,
) -> float:
    """Negative failure probability of the measure encoded by params."""
    product = unflatten(params, problem.layout)
    prob = event_probability(product, problem.failure_predicate())
    if audit is not None:
        audit.record(
            product, expectation(product, problem.response), problem.constraint.band
        )
    return -prob


def impose_expectation(
    product: ProductMeasure,
    problem: OUQProblem,
    seed: Optional[int] = None,
) -> ProductMeasure:
    """Move a normalized product measure into the admissible expectation band.

    Runs a nested DE minimizing (E[response] - m)^2 over the same box as
    the outer problem, terminating at value-to-reach d^2 (i.e. |E - m| <= d),
    for at most `problem.inner.max_generations` generations.  The incoming
    measure takes slot 0 of the inner population; the other slots are drawn
    uniformly from the box.

    The result is the best inner member, which need not be related to the
    incoming measure.  When any member of the initial population already
    lies in the band (on the reference problem every one of the 900 inner
    calls of seed 0 does), the run stops at generation 0 and returns the
    initial member whose expectation is nearest m.  The repair is then a
    random restart near the band centre, not a small move of the trial.
    """
    con = problem.constraint
    layout = problem.layout
    bounds = build_bounds(layout)
    settings = problem.inner if seed is None else replace(problem.inner, seed=seed)

    def inner_cost(q: np.ndarray) -> float:
        e = expectation(unflatten(q, layout), problem.response)
        return (e - con.m) ** 2

    def renormalize_weights(q: np.ndarray, generation: int, slot: int) -> np.ndarray:
        p = unflatten(q, layout)
        return flatten(pack([normalize(f) for f in unpack(p)]))

    try:
        report = de_solve(
            inner_cost,
            bounds,
            settings,
            constrain=renormalize_weights,
            termination=ValueBelow(con.d**2),
            initial=flatten(product),
        )
    except InfeasibleConstrain as exc:
        raise InnerLoopFailed(f"inner population was entirely degenerate: {exc}")
    if report.opt_cost > con.d**2:
        raise InnerLoopFailed(
            f"inner loop exhausted {settings.max_generations} generations at "
            f"cost {report.opt_cost:.6g} > d^2 = {con.d ** 2:.6g}"
        )
    return unflatten(report.opt_params, layout)


def constrain_params(
    params: np.ndarray,
    problem: OUQProblem,
    inner_seed: Optional[int] = None,
) -> np.ndarray:
    """Repair a trial vector: renormalize weights, then impose the mean band.

    Mirrors the constraint flow: unflatten, normalize any factor whose mass
    is off 1, pack, and if the expectation leaves [m-d, m+d] hand the
    measure to the nested optimization.  Raises ZeroMassMeasure for
    all-zero weights and InnerLoopFailed when the band cannot be reached;
    the caller treats either as an infeasible trial.
    """
    con = problem.constraint
    factors = unpack(unflatten(params, problem.layout))
    factors = [
        normalize(f) if abs(f.mass() - 1.0) > MASS_TOL else f for f in factors
    ]
    product = pack(factors)

    lo, hi = con.band
    e = expectation(product, problem.response)
    if not lo <= e <= hi:
        product = impose_expectation(product, problem, seed=inner_seed)
        e = expectation(product, problem.response)
        if not lo - BAND_TOL <= e <= hi + BAND_TOL:
            raise InnerLoopFailed(
                f"expectation {e:.6g} still outside [{lo}, {hi}] after inner loop"
            )
    return flatten(product)


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
    outer population can be repaired.
    """
    bounds = build_bounds(problem.layout)
    outer_seed = problem.outer.seed

    def repair(vec: np.ndarray, generation: int, slot: int) -> np.ndarray:
        return constrain_params(
            vec, problem, inner_seed=_derive_inner_seed(outer_seed, generation, slot)
        )

    report = de_solve(
        lambda v: ouq_cost(v, problem, audit=audit),
        bounds,
        problem.outer,
        constrain=repair,
        termination=problem.outer_termination,
        trace_hook=trace_hook,
    )
    maximizer = unflatten(report.opt_params, problem.layout)
    return OUQResult(
        probability_bound=-report.opt_cost,
        maximizer=maximizer,
        expectation_at_maximizer=expectation(maximizer, problem.response),
        report=report,
    )
