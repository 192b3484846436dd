"""The OUQ outer loop and the mean-band repair.

The outer loop maximizes the probability of the failure event over product
measures of weighted Dirac masses (recast as minimizing the negative).
Each trial parameter vector is first repaired by the constraint function:
weights are renormalized per factor, and if the expected response leaves
the admissible band [lower, upper] its weights are moved to bring it
back.  E is affine in each factor's weights, so moving weight within one
factor reaches the nearest band edge exactly whenever the conditional
expectation at one of that factor's points lies past it
(`shift_weights`); the positions, and with them the outer DE's mutation,
are kept.  A trial that no single factor can bring back is infeasible;
the outer DE keeps its slot at +inf.  Only if no initial row is feasible
does the fallback replace each with a seeded draw of an in-band measure,
the best member of a nested differential-evolution run from a uniform
population (least-squares distance to the band's centre, value-to-reach d^2).

Both loops work on whole generations: repair and cost take
(m, param_length) blocks through the block kernels of `measures`.  The
repair makes the one pass of atom values of an outer generation, over
every normalized row, zero-mass rows too, and reads E of the trials, the
g of the weight move and E of the moved trials from that one (m, A)
array in place; the weight move keeps every position, so the repair
returns the values of its feasible rows after its mask, and the DE hands
them to the cost with those rows; the cost reads the failure probability
and a `FeasibilityAudit`'s E from them.  Only the
fallback's vectors get a pass of their own.  The fallback's nested runs
go in lockstep (`de_lockstep`), so each inner generation of all of them
is one block too.  `constrain_params` is the one repair, and the one
constraint the outer DE gets: it renormalizes, makes the pass, runs the
weight move for every generation, then the fallback if generation 0 has
no feasible row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .de import (
    Bounds,
    DESettings,
    SolveReport,
    TerminationRule,
    ValueBelow,
    de_lockstep,
    de_solve,
)
# event_probability, flatten and normalize are not called here, but
# ouq.solver keeps naming the whole measure layer: perfbench wraps these
# names on this module
from .measures import (
    MASS_TOL,
    ParamLayout,
    ProductMeasure,
    atom_values,
    conditional_expectations_block,
    event_probability,
    expectation,
    expectation_block,
    expectation_of_values,
    factor_masses,
    flatten,
    layout_plan,
    normalize,
    normalize_block,
    unflatten,
)

# Slack on the expectation band that FeasibilityAudit allows.
BAND_TOL = 1e-6
# shift_weights aims this share of the band width inside the nearest edge.
BAND_NUDGE = 1e-9


@dataclass(frozen=True)
class MeanConstraint:
    """Admissible band [lower, upper] for the expected response, its edges as
    given.  The centre `m` and half-width `d` derive from them, for the
    fallback's inner cost (E - m)^2 and its stop d^2, which must be finite.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower < self.upper and math.isfinite(self.d * self.d)):
            raise ValueError(f"mean band needs m1 < m2 and a finite d^2, got {list(self.band)}")

    @classmethod
    def from_band(cls, m1: float, m2: float) -> "MeanConstraint":
        return cls(m1, m2)

    @property
    def band(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    @property
    def m(self) -> float:
        return (self.lower + self.upper) / 2.0

    @property
    def d(self) -> float:
        return (self.upper - self.lower) / 2.0


@dataclass(frozen=True)
class OUQProblem:
    """The failure event is |response| <= failure_tolerance; its probability
    is bounded over the measures of `layout` with E[response] in the band."""

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


@dataclass
class InnerCounts:
    """Totals over the band repairs of a solve; they depend only on the seed.

    `runs`, `generations` and `evaluations` count the fallback's nested-DE
    runs, one per initial row when no initial row is feasible; `repair_rows`
    counts the out-of-band rows that reached the weight move; `failures`
    counts the fallback's rows left outside the band.
    """

    runs: int = 0
    generations: int = 0
    evaluations: int = 0
    repair_rows: int = 0
    failures: int = 0


@dataclass
class OUQResult:
    probability_bound: float
    maximizer: ProductMeasure
    expectation_at_maximizer: float
    report: SolveReport
    inner: InnerCounts


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
    values: np.ndarray,
    problem: OUQProblem,
    audit: Optional[FeasibilityAudit] = None,
) -> np.ndarray:
    """Negative failure probability of the measure of every row of a block,
    from the (m, A) response values at the rows' atoms (`atom_values`),
    which also give the audit its E; the response is not called."""
    layout = problem.layout
    if audit is not None:
        audit.record(
            factor_masses(block, layout),
            expectation_of_values(block, layout, values),
            problem.constraint.band,
        )
    return -expectation_of_values(block, layout, np.abs(values) <= problem.failure_tolerance)


def impose_expectation(
    problem: OUQProblem, seeds: Sequence[int], counts: InnerCounts
) -> np.ndarray:
    """The fallback: one seeded draw of a measure per seed, aimed at the band.

    `constrain_params` calls it at most once per solve, the last resort
    for an initial population with no feasible row.  Each seed starts
    its own nested DE from a uniform population over the box of the outer
    problem, minimizing (E[response] - m)^2 over weight-renormalized vectors,
    terminating at value-to-reach d^2 (about |E - m| <= d), for at most
    `problem.inner.max_generations` generations.  The runs go in lockstep
    (`de_lockstep`): each inner generation of all still-running runs is
    renormalized and costed as one block, and a run's result is the one it
    would reach alone.  A run whose own initial population has a member
    at cost <= d^2 stops at generation 0 with the member nearest m in E.

    Returns the (len(seeds), param_length) best vectors, in seed order;
    whether one lies in the band is the caller's test.  The runs' counts
    are added to `counts`.  A run no initial member of which has mass in
    every factor raises InfeasibleConstrain (a uniform weight is 0.0 with
    odds 2^-53).
    """
    con = problem.constraint
    layout = problem.layout

    def inner_cost(block: np.ndarray) -> np.ndarray:
        return (expectation_block(block, layout, problem.response) - con.m) ** 2

    reports = de_lockstep(
        inner_cost,
        build_bounds(layout),
        problem.inner,
        seeds,
        constrain=lambda block, generation: normalize_block(block, layout),
        termination=ValueBelow(con.d**2),
    )
    counts.runs += len(reports)
    counts.generations += sum(r.generations_run for r in reports)
    counts.evaluations += sum(r.evaluations for r in reports)
    return np.reshape([r.opt_params for r in reports], (len(reports), layout.param_length))


def shift_weights(
    block: np.ndarray, values: np.ndarray, expect: np.ndarray, problem: OUQProblem
) -> np.ndarray:
    """Move each out-of-band row's expectation to the nearest band edge by
    moving weight within one factor; positions are not touched.

    `values` holds the response at the rows' atoms, `expect` their
    expectations, each outside the band.  The target is the nearest edge,
    nudged inside by BAND_NUDGE of the band width.  E is affine in each
    factor's weights, E = sum_j w_kj g_kj with g_kj = E[f | x_k = x_kj], so
    per factor the smallest move in L1 takes mass to the point with the
    highest g (the lowest, when E is above the band) from the other points,
    the farthest in g first, until E reaches the target.  The moves of all
    factors are computed together, on (dimension, m, n_max) arrays in which
    a factor with fewer points is padded with points of zero gap, which
    take no move (`layout_plan`).  A row takes the factor whose move is
    smallest in L1, the first on ties; a row that no factor can move to the
    target comes back unchanged.  Each factor's weights stay on the simplex,
    and every weight in [0, 1].
    """
    lo, hi = problem.constraint.band
    nudge = BAND_NUDGE * (hi - lo)
    up = expect < lo
    sign = np.where(up, 1.0, -1.0)[:, None]
    need = np.where(up, lo + nudge - expect, expect - (hi - nudge))[:, None]
    plan = layout_plan(problem.layout.npts_per_dim)
    cols, real = plan.shift_cols, plan.real
    out = block.copy()
    weights = block[:, cols].transpose(1, 0, 2).copy()
    h = sign * conditional_expectations_block(block, problem.layout, values)  # to rise by `need`
    if real is not None:
        h = np.where(real, h, -np.inf)
    # the arrays are indexed flat: `first` is each (factor, row)'s first point
    first = np.arange(0, h.size, h.shape[2]).reshape(h.shape[:2])
    dest = first + h.argmax(axis=2)
    gap = h.reshape(-1)[dest][..., None] - h
    if real is not None:
        gap = np.where(real, gap, 0.0)
    order = first[..., None] + (-gap).argsort(axis=2, kind="stable")
    gap, w = gap.reshape(-1)[order], weights.reshape(-1)[order]
    gain = w * gap
    before = gain.cumsum(axis=2) - gain  # what the farther points reach
    # a subnormal gap overflows the quotient to inf, which the clamp makes w
    with np.errstate(over="ignore"):
        take = np.divide(need - before, gap, out=np.zeros(gap.shape), where=gap > 0.0)
    # clamped to 0 last: padding holds a position, which may be negative
    take = np.maximum(np.minimum(take, w), 0.0)
    moved = take.sum(axis=2)
    weights.reshape(-1)[order] = w - take
    # the whole mass of a factor, moved, can sum to an ulp above 1
    weights.reshape(-1)[dest] = np.minimum(weights.reshape(-1)[dest] + moved, 1.0)
    reach = gain.sum(axis=2) >= need[:, 0]
    rows = reach.any(axis=0).nonzero()[0]
    choice = np.where(reach, 2.0 * moved, np.inf).argmin(axis=0)[rows]
    out[rows[:, None], cols[choice]] = weights[choice, rows]
    return out


def _derive_inner_seed(outer_seed: int, slot: int) -> int:
    # Child streams keyed by (0, slot), 0 for the initial population, so
    # nested runs never perturb the outer RNG stream.
    ss = np.random.SeedSequence(entropy=outer_seed, spawn_key=(0, slot))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def constrain_params(
    block: np.ndarray, generation: int, problem: OUQProblem, counts: InnerCounts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constraint of `ouq_solve`: repair one outer generation.

    Every factor is renormalized, so the outer DE finds no slack in the
    factor masses.  One pass of `atom_values` over every row, zero-mass
    rows too (their positions lie in the box), then serves the weight
    move: it changes no position, so the pass gives E of the rows, the g
    of `shift_weights` and E of the moved rows.  A non-finite value at any
    row's atoms raises DomainError.  Each row outside [lower, upper] gets
    the weight move, and keeps it if the moved row is in the band; a row
    the move leaves outside comes back normalized and unchanged,
    infeasible.  If the initial population (`generation` 0) then has no
    feasible row, the fallback draws for every row in one lockstep, row
    `row` with the inner seed derived from (outer seed, row).  The draws
    get one `atom_values` pass and the moved rows' band test: a draw in
    the band replaces its row and the row's values; a row whose draw is
    not stays as it was, infeasible, a failure (a nested run that cannot
    start raises InfeasibleConstrain).  Returns the repaired block, every
    row inside the box, the constraint protocol's mask `feasible` and the
    atom values of the feasible rows, in row order: the data the DE passes
    to `cost_block` with those rows.
    """
    layout = problem.layout
    out, feasible = normalize_block(block, layout)
    lo, hi = problem.constraint.band
    values = atom_values(out, layout, problem.response)
    e = expectation_of_values(out, layout, values)
    rows = np.flatnonzero(feasible & ~((lo <= e) & (e <= hi)))
    if rows.size:
        moved = shift_weights(out[rows], values[rows], e[rows], problem)
        e = expectation_of_values(moved, layout, values[rows])
        fixed = (lo <= e) & (e <= hi)
        out[rows[fixed]] = moved[fixed]
        feasible[rows[~fixed]] = False
        counts.repair_rows += rows.size
    if generation == 0 and not feasible.any():
        seeds = [_derive_inner_seed(problem.outer.seed, row) for row in range(len(out))]
        best = impose_expectation(problem, seeds, counts)
        drawn = atom_values(best, layout, problem.response)
        e = expectation_of_values(best, layout, drawn)
        feasible = (lo <= e) & (e <= hi)
        values[feasible] = drawn[feasible]
        out[feasible] = best[feasible]
        counts.failures += int(np.count_nonzero(~feasible))
    return out, feasible, values[feasible]


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

    Each outer generation is repaired by `constrain_params` and costed as
    one block by `cost_block` (`de_solve(vectorized=True)`), from the atom
    values the repair returns and the DE passes on, so the response is
    called once per generation outside the fallback's nested runs.  The
    result's `inner` holds the repair counts and the totals of the
    fallback's nested runs.
    """
    inner = InnerCounts()
    report = de_solve(
        # both names are looked up per call, so a wrapper set on the module
        # sees every generation
        lambda block, values: cost_block(block, values, problem, audit),
        build_bounds(problem.layout),
        problem.outer,
        constrain=lambda block, generation: constrain_params(block, generation, problem, inner),
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
        inner=inner,
    )
