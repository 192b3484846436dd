"""Differential-evolution global minimizer (Best1Exp) with strict bounds.

The engine supports a pluggable parameter-constraint function applied to
every trial before cost evaluation, and solver-independent termination
rules evaluated on the best-cost history.  Cost and constraint may work one
vector at a time or on a whole generation at once (`vectorized=True`).
`de_lockstep` runs several independently seeded runs side by side and
evaluates each generation of all of them as one block; `de_solve` is that
loop with one run.  Runs are fully deterministic given the seed.
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
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance}")


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


class _TrialBuilder:
    """Builds each generation's Best1Exp trials from raw PCG64 words.

    The words are read exactly as the per-slot numpy calls read them, so the
    trials and the stream match bit for bit.  `rng.choice(others, 2,
    replace=False)` is Floyd's algorithm: bounded draws in [0, n-2] and
    [0, n-1] (the second becomes n-1 if it repeats the first), then one in
    [0, 1] that swaps them when 0.  Bounded draws, `rng.integers(d)` too, use
    Lemire's 32-bit method with rejection on the low, then the high half of a
    word; a range of 0 draws nothing.  `rng.random()` takes a whole word w as
    (w >> 11) * 2**-53.  Unused words and a pending high half carry over to
    the next generation, so nothing else may draw from the generator.
    """

    def __init__(self, rng: np.random.Generator, settings: DESettings):
        state = rng.bit_generator.state
        self._raw, self._settings, self._words = rng.bit_generator.random_raw, settings, []
        self._half = state["uinteger"] if state["has_uint32"] else None

    def __call__(self, pop: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Trials best + F*(pop[c1] - pop[c2]) over a cyclic run of each slot's
        row (standard), or over all of it unless the slot keeps best (snippet)."""
        npop, d = pop.shape
        if best.shape != (d,):
            raise ValueError(f"vector lengths differ: population rows {d}, best {best.size}")
        need = npop * (2 + max(d - 1, 1))  # the most a generation takes without rejections
        self._words += self._raw(max(need - len(self._words), 0)).tolist()
        while True:
            try:
                a, b, start, run = map(np.array, self._draw(npop, d))
                break
            except IndexError:  # rejections took more than `need`
                self._words += self._raw(npop).tolist()
        donors = best + self._settings.scaling_factor * (pop[a] - pop[b])
        if self._settings.strategy is Strategy.BEST1EXP_PAPER_SNIPPET:
            return np.where(run[:, None], best, donors)
        return np.where((np.arange(d) - start[:, None]) % d < run[:, None], donors, pop)

    def _draw(self, npop: int, d: int):
        """Per slot: the rows of both candidates, and the crossover start and
        run length (standard) or keep-best flag (snippet)."""
        words, pos, half = self._words, 0, self._half
        cr = self._settings.cross_probability
        snippet = self._settings.strategy is Strategy.BEST1EXP_PAPER_SNIPPET

        def bounded(hi):
            nonlocal pos, half
            while hi:
                if half is None:
                    u, half, pos = words[pos] & 0xFFFFFFFF, words[pos] >> 32, pos + 1
                else:
                    u, half = half, None
                if (u * (hi + 1)) & 0xFFFFFFFF >= (0xFFFFFFFF - hi) % (hi + 1):
                    return (u * (hi + 1)) >> 32
            return 0

        a, b, start, run = [], [], [], []
        for slot in range(npop):
            x, y = bounded(npop - 3), bounded(npop - 2)  # indices into the other slots
            y = npop - 2 if y == x else y
            x, y = (x, y) if bounded(1) else (y, x)
            a.append(x + (x >= slot))
            b.append(y + (y >= slot))
            if snippet:
                pos += 1
                run.append((words[pos - 1] >> 11) * 2**-53 >= cr)
                continue
            start.append(bounded(d - 1))
            length = 1
            while length < d:
                pos += 1
                if (words[pos - 1] >> 11) * 2**-53 >= cr:
                    break
                length += 1
            run.append(length)
        self._words, self._half = words[pos:], half
        return a, b, start, run


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


class _Run:
    """One run of a lockstep: its generator, population, costs and best-cost history."""

    def __init__(self, seed: int, settings: DESettings, bounds: Bounds):
        self.rng = np.random.default_rng(seed)
        self.pop = self.rng.uniform(bounds.lower, bounds.upper, size=(settings.npop, len(bounds)))
        self.costs = self.build = None
        self.best, self.evaluations = 0, 0
        self.history: list[float] = []
        self.trace: list[GenerationRecord] = []

    def report(self, termination: Optional[TerminationRule]) -> SolveReport:
        return SolveReport(
            opt_params=self.pop[self.best].copy(),
            opt_cost=float(self.costs[self.best]),
            generations_run=len(self.history) - 1,
            evaluations=self.evaluations,
            trace=self.trace,
            terminated_by=termination.name if self.stopped(termination) else "max_generations",
        )

    def stopped(self, termination: Optional[TerminationRule]) -> bool:
        return termination is not None and termination_met(termination, self.history)


def de_lockstep(
    cost: Callable,
    bounds: Bounds,
    settings: DESettings,
    seeds: Sequence[int],
    constrain: Optional[Callable] = None,
    termination: Optional[TerminationRule] = None,
    *,
    initial: Optional[Sequence[np.ndarray]] = None,
    trace_hook: Optional[Callable[[int, float, np.ndarray], None]] = None,
) -> list[SolveReport | InfeasibleConstrain]:
    """Run one DE per seed in lockstep; `settings.seed` is not used.

    Each run is the run `de_solve` makes with that seed (see there): its own
    generator, uniform initial population (`initial[k]` in slot 0 when
    given), trial builder and best-cost history, so its result does not
    depend on the other runs.  What the runs share is the evaluation: each
    generation the populations of all still-running runs are stacked into
    one (runs * npop, d) block, which is clipped, passed to
    `constrain(block, generation, slots)` (slots numbered 0..npop-1 per run)
    and costed with one call of each, in the block forms of
    `de_solve(vectorized=True)`.  A run leaves the block once its
    termination rule holds or after `settings.max_generations`.

    Returns one entry per seed: the run's SolveReport, or, if no member of
    its initial population was feasible, the InfeasibleConstrain that
    `de_solve` would raise.  `trace_hook` is called for every run at every
    generation, in seed order.
    """
    npop, d = settings.npop, len(bounds)
    slots = np.arange(npop)
    runs = [_Run(seed, settings, bounds) for seed in seeds]
    if not runs:
        return []
    if initial is not None:
        if len(initial) != len(runs):
            raise ValueError(f"{len(initial)} initial vectors for {len(runs)} runs")
        for run, row in zip(runs, initial):
            run.pop[0] = np.asarray(row, dtype=float)

    def evaluate(block, generation):
        """Per run: params and costs of its trials (infeasible ones cost +inf),
        and how many were evaluated."""
        block = bounds.clip(block)
        feasible = np.ones(len(block), dtype=bool)
        if constrain is not None:
            repaired, feasible = constrain(block, generation, np.tile(slots, len(block) // npop))
            feasible = np.asarray(feasible, dtype=bool)
            repaired = bounds.clip(np.asarray(repaired, dtype=float))
            block = np.where(feasible[:, None], repaired, block)
        costs = np.full(len(block), math.inf)
        if feasible.any():
            costs[feasible] = cost(block[feasible])
        counts = np.count_nonzero(feasible.reshape(-1, npop), axis=1).tolist()
        return zip(block.reshape(-1, npop, d), costs.reshape(-1, npop), counts)

    live = []
    for run, (pop, costs, count) in zip(runs, evaluate(np.concatenate([r.pop for r in runs]), 0)):
        run.pop, run.costs, run.evaluations = pop, costs, count
        if count == 0:
            continue
        run.best = int(np.argmin(costs))
        run.history.append(float(costs[run.best]))
        if not run.stopped(termination):  # many inner runs stop here
            run.build = _TrialBuilder(run.rng, settings)
            live.append(run)

    generation = 0
    while live and generation < settings.max_generations:
        generation += 1
        block = np.concatenate([run.build(run.pop, run.pop[run.best]) for run in live])
        for run, (trials, trial_costs, count) in zip(live, evaluate(block, generation)):
            run.evaluations += count
            improved = trial_costs < run.costs
            run.pop[improved] = trials[improved]
            run.costs[improved] = trial_costs[improved]
            run.best = int(np.argmin(run.costs))
            best_cost = float(run.costs[run.best])
            run.history.append(best_cost)
            run.trace.append(GenerationRecord(generation, best_cost, run.pop[run.best].copy()))
            if trace_hook is not None:
                trace_hook(generation, best_cost, run.pop[run.best].copy())
        live = [run for run in live if not run.stopped(termination)]

    return [
        run.report(termination) if run.history
        else InfeasibleConstrain("constrain rejected the entire initial population")
        for run in runs
    ]


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
    population in one pass over raw PCG64 words of the seeded generator
    (`_TrialBuilder`, which reads them as numpy's `choice`, `integers` and
    `random` did, so the stream is defined here, not by those methods),
    then clips them to the box, passes them through the constraint
    function, re-clips and evaluates them as one block; a trial replaces
    its population slot only on strict improvement, so the best-cost
    history is monotone non-increasing.  This is `de_lockstep` with the
    one seed `settings.seed`.

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
    (report,) = de_lockstep(
        cost,
        bounds,
        settings,
        [settings.seed],
        constrain,
        termination,
        initial=None if initial is None else [initial],
        trace_hook=trace_hook,
    )
    if isinstance(report, InfeasibleConstrain):
        raise report
    return report
