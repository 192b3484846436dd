"""Differential-evolution global minimizer (Best1Exp) with strict bounds.

The engine supports a pluggable parameter-constraint function applied to
every trial before cost evaluation, and solver-independent termination
rules evaluated on the best-cost history.  Cost and constraint may work one
vector at a time or on a whole generation at once (`vectorized=True`).
Runs are fully deterministic given the seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConstraintViolation, InfeasibleConstrain


class Strategy(str, enum.Enum):
    # Standard Best1Exp: per-coordinate exponential crossover into the target.
    BEST1EXP_STANDARD = "best1exp_standard"
    # Whole-vector variant: mutate every coordinate at once or return best as-is.
    BEST1EXP_PAPER_SNIPPET = "best1exp_paper_snippet"


@dataclass(frozen=True)
class DESettings:
    npop: int = 40
    cross_probability: float = 0.9
    scaling_factor: float = 0.9
    strategy: Strategy = Strategy.BEST1EXP_STANDARD
    seed: int = 0
    max_generations: int = 1000

    # Each test is written so that NaN fails it.
    def __post_init__(self):
        if not self.npop >= 4:
            raise ValueError(f"npop must be >= 4 (best + two candidates + target), got {self.npop}")
        if not 0.0 <= self.cross_probability <= 1.0:
            raise ValueError(f"cross_probability must lie in [0, 1], got {self.cross_probability}")
        if not self.scaling_factor > 0.0:
            raise ValueError(f"scaling_factor must be positive, got {self.scaling_factor}")
        if not self.max_generations >= 1:
            raise ValueError(f"max_generations must be >= 1, got {self.max_generations}")


@dataclass(frozen=True)
class ChangeOverGeneration:
    """Stop when the best cost moved at most `tolerance` over `generations` generations."""

    tolerance: float = 1e-4
    generations: int = 10

    name = "change_over_generation"

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not self.generations >= 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")


@dataclass(frozen=True)
class ValueBelow:
    """Stop once the best cost is at or below `tolerance` (value to reach)."""

    tolerance: float

    name = "value_below"

    def __post_init__(self):
        if not self.tolerance >= 0.0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tolerance}")


TerminationRule = ChangeOverGeneration | ValueBelow


def termination_met(rule: TerminationRule, history: Sequence[float]) -> bool:
    """Evaluate a termination rule on the best-cost history.

    The history carries one entry per completed generation, preceded by the
    initial-population best.
    """
    if len(history) == 0:
        raise ValueError("history must be nonempty")
    if isinstance(rule, ChangeOverGeneration):
        if len(history) <= rule.generations:
            return False
        return abs(history[-1] - history[-1 - rule.generations]) <= rule.tolerance
    if isinstance(rule, ValueBelow):
        return history[-1] <= rule.tolerance
    raise TypeError(f"unknown termination rule: {rule!r}")


@dataclass(frozen=True)
class Bounds:
    """Componentwise box constraints, lower <= upper per parameter."""

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def from_pairs(cls, pairs) -> "Bounds":
        lo = np.asarray([p[0] for p in pairs], dtype=float)
        hi = np.asarray([p[1] for p in pairs], dtype=float)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("need lower <= upper componentwise")
        return cls(lo, hi)

    def __len__(self) -> int:
        return self.lower.size

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(x, self.lower), self.upper)


@dataclass
class GenerationRecord:
    generation: int
    best_cost: float
    best_params: np.ndarray


@dataclass
class SolveReport:
    opt_params: np.ndarray
    opt_cost: float
    generations_run: int
    evaluations: int
    trace: list[GenerationRecord]
    terminated_by: str


def mutate_best1exp(
    best: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    target: np.ndarray,
    settings: DESettings,
    rng: np.random.Generator,
) -> np.ndarray:
    """Build one Best1Exp trial vector from the current best and two candidates.

    Standard strategy: starting at a random coordinate, copy
    best + F*(c1 - c2) into consecutive (cyclic) coordinates of the target
    while successive uniform draws stay below the cross probability; at
    least one coordinate is always mutated.  Snippet strategy: with
    probability (1 - CR) return best unchanged, otherwise mutate the whole
    vector at once.
    """
    d = best.size
    if not (c1.size == d and c2.size == d and target.size == d):
        raise ValueError(
            f"vector lengths differ: {best.size}, {c1.size}, {c2.size}, {target.size}"
        )
    f = settings.scaling_factor
    if settings.strategy is Strategy.BEST1EXP_PAPER_SNIPPET:
        if rng.random() >= settings.cross_probability:
            return best.copy()
        return best + f * (c1 - c2)

    trial = target.copy()
    i = int(rng.integers(d))
    mutated = 0
    while True:
        trial[i] = best[i] + f * (c1[i] - c2[i])
        mutated += 1
        i = (i + 1) % d
        if mutated >= d or rng.random() >= settings.cross_probability:
            break
    return trial


def _one_row_at_a_time(cost, constrain):
    """Block forms of a per-vector cost and constrain, for de_solve."""

    def cost_block(block):
        return [cost(row) for row in block]

    if constrain is None:
        return cost_block, None

    def constrain_block(block, generation, slots):
        out = block.copy()
        feasible = np.ones(len(block), dtype=bool)
        for i, slot in enumerate(slots.tolist()):
            try:
                out[i] = constrain(block[i], generation, slot)
            except ConstraintViolation:
                feasible[i] = False
        return out, feasible

    return cost_block, constrain_block


def de_solve(
    cost: Callable,
    bounds: Bounds,
    settings: DESettings,
    constrain: Optional[Callable] = None,
    termination: Optional[TerminationRule] = None,
    *,
    initial: Optional[np.ndarray] = None,
    trace_hook: Optional[Callable[[int, float, np.ndarray], None]] = None,
    vectorized: bool = False,
) -> SolveReport:
    """Minimize `cost` over the box with differential evolution.

    Each generation builds all `npop` trials against the generation-start
    population, then clips them to the box, passes them through the
    constraint function, re-clips and evaluates them as one block; a trial
    replaces its population slot only on strict improvement, so the
    best-cost history is monotone non-increasing.

    By default `cost(params)` takes one vector and returns a float, and
    `constrain(params, generation, slot)` returns the repaired vector or
    raises ConstraintViolation.  With `vectorized=True` both take a block:
    `cost(block)` gets an (m, d) array and returns m costs, and
    `constrain(block, generation, slots)` gets the (npop, d) trials with
    their slot numbers and returns `(block, feasible)`, where `feasible`
    is a boolean mask.  Either way a repair can derive per-trial seeds from
    its position in the run; generation 0 is the initial population.
    Out-of-box trials are always clipped, never rejected.

    An infeasible trial (ConstraintViolation, or False in `feasible`)
    costs +inf, is never evaluated and never replaces a population member,
    so a generation of infeasible trials leaves the population unchanged.
    An infeasible initial member holds its slot, clipped but unrepaired,
    at cost +inf until a feasible trial replaces it; if no initial member
    is feasible, InfeasibleConstrain is raised.
    """
    if not vectorized:
        cost, constrain = _one_row_at_a_time(cost, constrain)

    d = len(bounds)
    rng = np.random.default_rng(settings.seed)
    evaluations = 0
    slots = np.arange(settings.npop)

    def evaluate(block, generation):
        """Returns (params, costs) of a block of trials; infeasible ones cost +inf."""
        nonlocal evaluations
        block = bounds.clip(block)
        feasible = np.ones(len(block), dtype=bool)
        if constrain is not None:
            repaired, feasible = constrain(block, generation, slots)
            feasible = np.asarray(feasible, dtype=bool)
            repaired = bounds.clip(np.asarray(repaired, dtype=float))
            block = np.where(feasible[:, None], repaired, block)
        costs = np.full(len(block), math.inf)
        if feasible.any():
            costs[feasible] = cost(block[feasible])
            evaluations += int(np.count_nonzero(feasible))
        return block, costs

    pop = rng.uniform(bounds.lower, bounds.upper, size=(settings.npop, d))
    if initial is not None:
        pop[0] = np.asarray(initial, dtype=float)
    pop, costs = evaluate(pop, 0)
    if evaluations == 0:
        raise InfeasibleConstrain("constrain rejected the entire initial population")

    best_idx = int(np.argmin(costs))
    history = [float(costs[best_idx])]
    trace: list[GenerationRecord] = []
    terminated_by = "max_generations"
    generations_run = 0

    if termination is not None and termination_met(termination, history):
        return SolveReport(
            opt_params=pop[best_idx].copy(),
            opt_cost=float(costs[best_idx]),
            generations_run=0,
            evaluations=evaluations,
            trace=trace,
            terminated_by=termination.name,
        )

    for gen in range(1, settings.max_generations + 1):
        best_vec = pop[best_idx].copy()
        trials = np.empty_like(pop)
        for slot in range(settings.npop):
            others = slots[slots != slot]
            c1, c2 = rng.choice(others, size=2, replace=False)
            trials[slot] = mutate_best1exp(
                best_vec, pop[c1], pop[c2], pop[slot], settings, rng
            )
        trials, trial_costs = evaluate(trials, gen)
        improved = trial_costs < costs
        pop[improved] = trials[improved]
        costs[improved] = trial_costs[improved]

        best_idx = int(np.argmin(costs))
        best_cost = float(costs[best_idx])
        history.append(best_cost)
        generations_run = gen
        trace.append(GenerationRecord(gen, best_cost, pop[best_idx].copy()))
        if trace_hook is not None:
            trace_hook(gen, best_cost, pop[best_idx].copy())
        if termination is not None and termination_met(termination, history):
            terminated_by = termination.name
            break

    return SolveReport(
        opt_params=pop[best_idx].copy(),
        opt_cost=float(costs[best_idx]),
        generations_run=generations_run,
        evaluations=evaluations,
        trace=trace,
        terminated_by=terminated_by,
    )
