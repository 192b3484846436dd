"""Differential-evolution global minimizer (Best1Exp: DE/best/1 with
exponential crossover) with strict bounds.

The engine supports a pluggable constraint function applied to each
generation's block of trials, clipped to the box, before cost evaluation:
it returns the block, every row still inside the box, a boolean mask of
the feasible rows, the only ones costed, and optionally data for the
cost, which gets it with those rows.  Termination rules are
solver-independent, evaluated on the best-cost history.  Cost may work one
vector at a time or on a whole generation at once (`vectorized=True`).
`de_lockstep` runs several independently seeded runs side by side and
evaluates each generation of all of them as one block, npop rows per run
in seed order; `de_solve` is that loop with one run.  Runs are fully
deterministic given the seed: each generation's trials read the next
npop * (d + 2) uniforms of the run's own generator, drawn up to a window of
generations at a time, so the stream is the same whatever the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InfeasibleConstrain


def _check_count(name: str, value, minimum: int):
    """Raise ValueError unless `value` is an integer (a numpy one too, not a
    bool) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


# Best1Exp's crossover probability cr and scaling factor F, the same in every DE loop
CROSS_PROBABILITY = 0.9
SCALING_FACTOR = 0.9


@dataclass(frozen=True)
class DESettings:
    npop: int = 40
    seed: int = 0
    max_generations: int = 1000

    def __post_init__(self):
        _check_count("npop", self.npop, 4)  # best + two candidates + target
        _check_count("max_generations", self.max_generations, 1)
        _check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class ChangeOverGeneration:
    """Stop when the best cost moved at most `tolerance` over `generations` generations."""

    tolerance: float = 1e-4
    generations: int = 10

    name = "change_over_generation"

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        _check_count("generations", self.generations, 1)

    def met(self, history: Sequence[float]) -> bool:
        if len(history) <= self.generations:
            return False
        return abs(history[-1] - history[-1 - self.generations]) <= self.tolerance


@dataclass(frozen=True)
class ValueBelow:
    """Stop once the best cost is at or below `tolerance` (value to reach)."""

    tolerance: float

    name = "value_below"

    def __post_init__(self):
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance}")

    def met(self, history: Sequence[float]) -> bool:
        return history[-1] <= self.tolerance


TerminationRule = ChangeOverGeneration | ValueBelow


@dataclass(frozen=True)
class Bounds:
    """Componentwise box constraints, lower <= upper per parameter."""

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def from_pairs(cls, pairs) -> "Bounds":
        lo = np.asarray([p[0] for p in pairs], dtype=float)
        hi = np.asarray([p[1] for p in pairs], dtype=float)
        if not lo.size:
            raise ValueError("a box needs at least one dimension")
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


WINDOW_UNIFORMS = 4096  # the most uniforms a window draws, unless one generation needs more


def _draw_window(rngs, generation: int, npop: int, d: int, settings: DESettings):
    """The Best1Exp choices of a stack of runs for W generations from
    `generation` on (at least 1, at most WINDOW_UNIFORMS uniforms, never
    past max_generations), from one call per run of its generator rngs[k]:
    the stream of one (npop, d + 2) block u per generation.

    Slot i takes its candidates i + a and i + b (mod npop), a uniform over
    1..npop-1 from u0 and b uniform over the rest from u1, so the pair is
    uniform over ordered pairs of other rows.  The exponential crossover
    copies the donor into slot i's row over a cyclic run starting at
    floor(u2*d), of length 1 plus the number of leading u3.. below
    CROSS_PROBABILITY (geometric, at most d).  Returns the (runs, W, 2, npop)
    slots (a, b) and the (runs, W, npop, d) mask of the coordinates where
    each trial keeps its target, not the donor.
    """
    size = max(WINDOW_UNIFORMS // (len(rngs) * npop * (d + 2)), 1)
    u = np.empty((len(rngs), min(size, settings.max_generations + 1 - generation), npop, d + 2))
    for rng, draws in zip(rngs, u, strict=True):
        rng.random(out=draws)
    # a = floor(u0 (npop - 1)) + 1, b = floor(u1 (npop - 2)) + 1, start = floor(u2 d)
    a, b = ((u[..., k] * (npop - 1 - k)).astype(np.intp) + 1 for k in (0, 1))
    start = (u[..., 2:3] * d).astype(np.intp)
    below = u[..., 3:] < CROSS_PROBABILITY
    del u  # freed before the rest, which numpy buffers, so a window takes less memory
    pairs = (np.stack([a, b + (b >= a)], axis=2) + np.arange(npop)) % npop
    run = np.logical_and.accumulate(below, axis=3).sum(axis=3, keepdims=True)
    return pairs, (np.arange(d) - start) % d > run


def _trials(pops, best, pairs, keep):
    """One generation's trials of a stack of runs, (runs, npop, d) `pops` and
    (runs, d) `best`, from its slice of a window (`_draw_window`): run k's
    slot i gets best[k] + F*(pops[k, a] - pops[k, b]), (a, b) = pairs[k, :, i]
    and F = SCALING_FACTOR, or its target pops[k, i] where `keep` holds; the
    (runs * npop, d) trials come run by run."""
    runs, npop, d = pops.shape
    rows = pops.reshape(-1, d)[pairs + np.arange(0, runs * npop, npop)[:, None, None]]
    donors = best[:, None] + SCALING_FACTOR * (rows[:, 0] - rows[:, 1])
    return np.where(keep, pops, donors).reshape(-1, d)


def de_lockstep(
    cost: Callable,
    bounds: Bounds,
    settings: DESettings,
    seeds: Sequence[int],
    constrain: Optional[Callable] = None,
    termination: Optional[TerminationRule] = None,
    *,
    trace_hook: Optional[Callable[[int, float, np.ndarray], None]] = None,
) -> list[SolveReport]:
    """Run one DE per seed in lockstep; `settings.seed` is not used.

    Each run is the run `de_solve` makes with that seed (see there): its own
    generator, uniform initial population, trial draws and best-cost
    history, so its result does not depend on the other runs.  What the
    runs share is the work and the state: the populations and costs of the
    still-running runs are stacked in seed order as (runs, npop, d) and
    (runs, npop) arrays, and each generation their trials (the initial
    draws at generation 0, later one `_trials` pass over the stack's
    window of draws, `_draw_window`) form one (runs * npop, d) block, whose
    row r is slot r % npop of the (r // npop)-th of them.  It is clipped,
    passed to `constrain(block, generation)` and its feasible rows costed,
    with one call of each, in the forms of `de_solve(vectorized=True)`:
    the cost gets `block[feasible]` and whatever the constraint returned
    after the mask, in the same call, so data the constraint made for its
    feasible rows reaches the cost with exactly those rows.  Every run's
    population is then updated at once.  A run leaves the stack once
    its termination rule holds or after `settings.max_generations`, and its
    report is built as it leaves.

    Returns one SolveReport per seed.  If the initial population of any run
    has no feasible member, InfeasibleConstrain is raised at generation 0;
    an error the cost or the constraint raises goes through as well.
    `trace_hook` is called for every run at every generation from 1 on, in
    seed order; the trace starts there too.
    """
    npop, d = settings.npop, len(bounds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    u = np.empty((len(seeds), npop, d))
    for rng, draws in zip(rngs, u):
        rng.random(out=draws)
    # scaled as rng.uniform(lower, upper, (npop, d)) scales its draws
    pops = bounds.clip(bounds.lower + (bounds.upper - bounds.lower) * u)
    costs = np.full((len(seeds), npop), math.inf)
    evaluations = np.zeros(len(seeds), dtype=int)
    histories: list[list[float]] = [[] for _ in seeds]
    traces: list[list[GenerationRecord]] = [[] for _ in seeds]
    results: list = [None] * len(seeds)
    live = list(range(len(seeds)))  # the seed index of each row of the stack
    pairs = keep = np.empty((len(seeds), 0))  # the live runs' drawn generations to come
    generation = 0
    while live:
        rows = np.arange(len(live))
        if generation:
            if not pairs.shape[1]:
                pairs, keep = _draw_window([rngs[k] for k in live], generation, npop, d, settings)
            block = _trials(pops, pops[rows, best], pairs[:, 0], keep[:, 0])
            pairs, keep = pairs[:, 1:], keep[:, 1:]
        else:  # generation 0 tries the initial draws themselves
            block = pops.reshape(-1, d)
        block = bounds.clip(block)
        if constrain is None:
            feasible, data = np.ones(len(block), dtype=bool), ()
        else:
            block, feasible, *data = constrain(block, generation)
        # an infeasible row costs +inf, so it never takes a slot
        trial_costs = np.full(len(block), math.inf)
        if feasible.any():
            trial_costs[feasible] = cost(block[feasible], *data)
        evaluations += feasible.reshape(-1, npop).sum(axis=1)
        if generation == 0 and not evaluations.all():
            raise InfeasibleConstrain("constrain rejected the entire initial population")
        trial_costs = trial_costs.reshape(costs.shape)
        improved = trial_costs < costs
        np.copyto(pops, block.reshape(pops.shape), where=improved[..., None])
        np.copyto(costs, trial_costs, where=improved)
        best = np.argmin(costs, axis=1)
        for i, (k, best_cost) in enumerate(zip(live, costs[rows, best].tolist())):
            history = histories[k]
            history.append(best_cost)
            if generation:
                traces[k].append(GenerationRecord(generation, best_cost, pops[i, best[i]].copy()))
                if trace_hook is not None:
                    trace_hook(generation, best_cost, pops[i, best[i]].copy())
            stopped = termination is not None and termination.met(history)
            if stopped or generation == settings.max_generations:
                results[k] = SolveReport(
                    opt_params=pops[i, best[i]].copy(),
                    opt_cost=best_cost,
                    generations_run=generation,
                    evaluations=int(evaluations[i]),
                    trace=traces[k],
                    terminated_by=termination.name if stopped else "max_generations",
                )
        staying = [results[k] is None for k in live]
        if not all(staying):
            pops, costs, best, evaluations, pairs, keep = (
                a[staying] for a in (pops, costs, best, evaluations, pairs, keep))
            live = [k for k in live if results[k] is None]
        generation += 1
    return results


def de_solve(
    cost: Callable,
    bounds: Bounds,
    settings: DESettings,
    constrain: Optional[Callable] = None,
    termination: Optional[TerminationRule] = None,
    *,
    trace_hook: Optional[Callable[[int, float, np.ndarray], None]] = None,
    vectorized: bool = False,
) -> SolveReport:
    """Minimize `cost` over the box with differential evolution.

    Every population slot starts as a uniform draw at cost +inf.  Each
    generation's `npop` trials, one per slot, are those draws at
    generation 0, later built against the generation-start population
    from the next npop * (d + 2) uniforms of its generator, drawn up to a
    window of generations at a time (`_draw_window`).  They are clipped to
    the box, passed to the constraint, and its feasible rows are evaluated
    as one block; a trial takes its slot only if it is strictly cheaper,
    so the best-cost history never rises.
    This is `de_lockstep` with the one seed `settings.seed`: a stack of one
    run, whose report is built when it stops.

    `constrain(block, generation)` gets the (npop, d) trials, row i in
    slot i, and returns at least two numpy arrays: the (npop, d) float
    block to cost, every row inside the box, and the (npop,) boolean mask
    `feasible`; generation 0 is the initial population.  The DE takes
    both as they are: it neither clips nor converts them.  Whatever the
    constraint returns after the mask is data for the cost, passed on
    unchanged.  Without a constraint every trial is feasible.
    By default `cost(params)` takes one vector and returns a float; with
    `vectorized=True` `cost(block, *data)` gets the (m, d) array
    `block[feasible]` and the constraint's data, and returns m costs.  The
    per-vector form takes no data: a constraint that returns some needs
    the block form, or the call raises TypeError.  Out-of-box trials are
    always clipped, never rejected.

    An infeasible trial (False in `feasible`) costs +inf and is never
    evaluated; a NaN cost counts in `evaluations`.  Neither is cheaper
    than +inf, so neither takes a slot: a generation of infeasible trials
    leaves the population unchanged, an initial draw found infeasible or
    NaN keeps its slot, clipped but unrepaired, at +inf, and NaN never
    becomes the best cost.  If no initial member is feasible,
    InfeasibleConstrain is raised.
    """
    block_cost = cost if vectorized else lambda block: [cost(row) for row in block]
    (report,) = de_lockstep(
        block_cost, bounds, settings, [settings.seed], constrain, termination,
        trace_hook=trace_hook,
    )
    return report
