import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ouq.de as de_mod
from ouq import Bounds, ChangeOverGeneration, DESettings, de_solve
from ouq.de import ValueBelow, _draw_window, _trials, de_lockstep
from ouq.errors import InfeasibleConstrain


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def sphere_block(block):
    return np.sum(block**2, axis=1)


class TestSettings:
    def test_npop_floor(self):
        with pytest.raises(ValueError):
            DESettings(npop=3)

    @pytest.mark.parametrize("key", ["npop", "max_generations"])
    @pytest.mark.parametrize(
        "value", [8.0, 8.5, True, np.float64(8.0)], ids=["float", "fraction", "bool", "np_float"]
    )
    def test_counts_are_integers(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            DESettings(**{key: value})

    @pytest.mark.parametrize(
        "value", [None, -1, 2.5, True, np.float64(3.0)],
        ids=["none", "negative", "fraction", "bool", "np_float"],
    )
    def test_seed_is_a_nonnegative_integer(self, value):
        # None would draw from OS entropy; -1 and 2.5 fail only at the first draw
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            DESettings(seed=value)

    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_generations_are_integers(self, value):
        with pytest.raises(ValueError, match="generations must be an integer"):
            ChangeOverGeneration(1e-4, value)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(-5.0, 5.0), (0.0, math.inf)], "finite"), ([(-5.0, 5.0), (math.nan, 1.0)], "finite"),
            ([(-5.0, 5.0), (1.0, 0.0)], "lower <= upper"), ([], "at least one dimension"),
        ],
        ids=["inf_upper", "nan_lower", "reversed", "empty"],
    )
    def test_bounds_are_finite_and_ordered(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            Bounds.from_pairs(pairs)

    def test_numpy_integer_counts_run_as_ints(self):
        bounds = Bounds.from_pairs([(-5.0, 5.0)] * 2)
        reports = [
            de_solve(sphere, bounds, DESettings(npop=npop, max_generations=gens, seed=seed),
                     termination=ChangeOverGeneration(1e-4, window))
            for npop, gens, window, seed in [
                (8, 60, 2, 3), (np.int64(8), np.int32(60), np.int64(2), np.uint8(3))]
        ]
        assert [(r.opt_cost, r.generations_run, r.evaluations) for r in reports[1:]] == [
            (reports[0].opt_cost, reports[0].generations_run, reports[0].evaluations)]


def window_trials(rng, pop, best, settings, generations):
    """One run's trials at each generation of a window from generation 1 of
    a run of at most `generations`, as de_lockstep builds them from a
    one-run stack: (W, npop, d)."""
    settings = replace(settings, max_generations=generations)
    pairs, keep = _draw_window([rng], 1, *pop.shape, settings)
    return np.array([
        _trials(pop[None], best[None], pairs[:, j], keep[:, j]) for j in range(pairs.shape[1])
    ])


def one_run(rng, pop, best, settings):
    """The trials of one run from a window of one generation."""
    return window_trials(rng, pop, best, settings, 1)[0]


def build_trials(settings, pop, best, seed=0):
    pop, best = np.asarray(pop, dtype=float), np.asarray(best, dtype=float)
    return one_run(np.random.default_rng(seed), pop, best, settings)


class TestMutate:
    def make(self):
        return DESettings(npop=10)

    def test_zero_scaling_standard(self, monkeypatch):
        monkeypatch.setattr(de_mod, "SCALING_FACTOR", 1e-300)
        settings = self.make()
        best = np.array([1.0, 2.0, 3.0])
        pop = 9.0 + np.arange(10.0)[:, None] + np.zeros(3)
        trials = build_trials(settings, pop, best)
        # every mutated coordinate carries best's value, the rest the target's
        for trial, target in zip(trials, pop):
            for t, b, g in zip(trial, best, target):
                assert t == pytest.approx(b, abs=1e-12) or t == g

    def test_equal_candidates_give_best(self):
        settings = self.make()
        best = np.array([1.0, 2.0])
        c = np.array([4.0, -3.0])
        trials = build_trials(settings, np.tile(c, (10, 1)), best, seed=1)
        for trial in trials:
            for t, b, g in zip(trial, best, c):
                assert t == b or t == g

    def test_standard_mutates_at_least_one_coordinate(self, monkeypatch):
        monkeypatch.setattr(de_mod, "CROSS_PROBABILITY", 0.0)
        settings = self.make()
        best = np.array([10.0, 10.0, 10.0])
        pop = np.zeros((10, 3))
        for seed in range(20):
            trials = build_trials(settings, pop, best, seed=seed)
            assert np.all(np.sum(trials != pop, axis=1) == 1)


@st.composite
def generation_cases(draw):
    npop = draw(st.integers(4, 50))
    d = draw(st.integers(1, 14))
    cr = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return DESettings(npop=npop), d, cr, draw(st.integers(0, 2**32))


def indexed(npop, d):
    """A population whose row i is 2**i in every coordinate, and best 0.5: with
    F = 1 a donor coordinate is 0.5 + 2**c1 - 2**c2, never a target's value."""
    return np.repeat(2.0 ** np.arange(npop), d).reshape(npop, d), np.full(d, 0.5)


def candidates(donor):
    """The rows (c1, c2) of a donor value 0.5 + 2**c1 - 2**c2 of `indexed`."""
    diff = int(donor - 0.5)
    m = abs(diff)
    hi, lo = m.bit_length(), (m & -m).bit_length() - 1
    assert diff != 0 and donor - 0.5 == diff and m == 2**hi - 2**lo
    return (hi, lo) if diff > 0 else (lo, hi)


class _Spy:
    """A generator that records every block of uniforms it hands out."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, []

    def random(self, *, out):
        self.rng.random(out=out)
        self.drawn.append(out.copy())


class _Fixed:
    """A generator whose every row of uniforms is `row` (a scalar fills it)."""

    def __init__(self, row):
        self.row = row

    def random(self, *, out):
        out[...] = self.row


def best1exp(u, pop, best):
    """One run's Best1Exp trials from one generation's (npop, d + 2) block of
    uniforms u, each slot from its own row: the candidates from u0 and u1,
    the crossover start from u2 and its length from u3.. (`_draw_window`)."""
    npop, d = pop.shape
    a = 1 + (u[:, 0] * (npop - 1)).astype(int)
    b = 1 + (u[:, 1] * (npop - 2)).astype(int)
    b += b >= a
    slots = np.arange(npop)
    donors = best + de_mod.SCALING_FACTOR * (pop[(slots + a) % npop] - pop[(slots + b) % npop])
    start = (u[:, 2] * d).astype(int)
    run = 1 + np.logical_and.accumulate(u[:, 3:] < de_mod.CROSS_PROBABILITY, axis=1).sum(axis=1)
    return np.where((np.arange(d) - start[:, None]) % d < run[:, None], donors, pop)


@st.composite
def window_cases(draw):
    """Lockstep runs whose windows span 1 to 7 generations while every run
    is live (longer once some have left), a value_below target that ends
    them at different generations, and max_generations of 1 to 40."""
    npop, d = draw(st.integers(4, 50)), draw(st.integers(1, 14))
    settings = DESettings(npop=npop, max_generations=draw(st.integers(1, 40)))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=4))
    budget = draw(st.integers(1, 7)) * len(seeds) * npop * (d + 2)
    return settings, d, seeds, draw(st.floats(0.0, 4.0)) * d, budget


class TestTrials:
    """_trials draws Best1Exp choices with the distributions of DE/best/1/exp."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=generation_cases())
    def test_trials_are_best1exp(self, case):
        de, d, cr, seed = case
        pop, best = indexed(de.npop, d)
        with patch.multiple(de_mod, CROSS_PROBABILITY=cr, SCALING_FACTOR=1.0):
            drawn = window_trials(np.random.default_rng(seed), pop, best, de, 3)
        for trials in drawn:
            for slot, (trial, target) in enumerate(zip(trials, pop)):
                mutated = trial != target
                # one cyclic run: at most one mutated coordinate follows an unmutated one
                assert 1 <= mutated.sum() and np.sum(mutated & ~np.roll(mutated, 1)) <= 1
                if cr == 1.0:
                    assert mutated.all()
                if cr == 0.0:
                    assert mutated.sum() == 1
                assert np.all(trial[mutated] == trial[mutated][0])
                c1, c2 = candidates(trial[mutated][0])
                assert len({slot, c1, c2}) == 3 and max(c1, c2) < de.npop

    def test_every_pair_and_start_occurs(self, monkeypatch):
        monkeypatch.setattr(de_mod, "CROSS_PROBABILITY", 0.0)
        monkeypatch.setattr(de_mod, "SCALING_FACTOR", 1.0)
        de = DESettings(npop=4)
        pop, best = indexed(4, 3)
        seen = [set() for _ in range(4)]
        for seed in range(100):
            for trials in window_trials(np.random.default_rng(seed), pop, best, de, 2):
                for slot, (trial, target) in enumerate(zip(trials, pop)):
                    (start,) = np.flatnonzero(trial != target)
                    seen[slot].add((candidates(trial[start]), start))
        for slot, pairs in enumerate(seen):
            others = [row for row in range(4) if row != slot]
            assert pairs == {
                ((i, j), k) for i in others for j in others if i != j for k in range(3)}

    def test_one_window_reads_w_times_npop_times_d_plus_2_words(self):
        # generations 2 to 4 of a 4-generation run
        de, d, w = DESettings(npop=7, max_generations=4), 5, 3
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        spy = _Spy(rng)
        rng.uniform(size=(7, d))
        twin.uniform(size=(7, d))
        _draw_window([spy], 2, 7, d, de)
        words = twin.bit_generator.random_raw(w * 7 * (d + 2))
        assert len(spy.drawn) == 1
        assert np.array_equal(spy.drawn[0], ((words >> 11) * 2**-53).reshape(w, 7, d + 2))
        assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(case=window_cases())
    def test_lockstep_trials_equal_one_generation_draws(self, case):
        # each run's trials, replayed alone with one (npop, d + 2) draw per
        # generation of a twin generator, across window boundaries and runs
        # that leave mid-window
        de, d, seeds, target, budget = case
        npop, bounds, blocks = de.npop, Bounds.from_pairs([(-5.0, 5.0)] * d), []

        def record(block, generation):
            blocks.append(block.copy())
            return block, np.ones(len(block), dtype=bool)

        with patch.object(de_mod, "WINDOW_UNIFORMS", budget):
            runs = de_lockstep(sphere_block, bounds, de, seeds, record, ValueBelow(target))
        for k, (seed, run) in enumerate(zip(seeds, runs)):
            twin = np.random.default_rng(seed)
            pop = bounds.lower + (bounds.upper - bounds.lower) * twin.random((npop, d))
            costs = np.full(npop, math.inf)
            for generation in range(run.generations_run + 1):
                if generation:
                    u = twin.random((npop, d + 2))
                    trials = bounds.clip(best1exp(u, pop, pop[np.argmin(costs)]))
                else:
                    trials = bounds.clip(pop)
                row = npop * sum(r.generations_run >= generation for r in runs[:k])
                assert np.array_equal(blocks[generation][row:row + npop], trials)
                trial_costs = sphere_block(trials)
                better = trial_costs < costs
                pop[better], costs[better] = trials[better], trial_costs[better]
            assert run.opt_cost == costs.min()

    # u just below 1 takes the two rows before the slot and mutates the last
    # coordinate only; u = 0 takes the two rows after it and mutates all
    @pytest.mark.parametrize("u, offsets", [(1 - 2**-53, (-1, -2)), (0.0, (1, 2))])
    def test_extreme_uniforms_keep_indices_in_range(self, monkeypatch, u, offsets):
        monkeypatch.setattr(de_mod, "SCALING_FACTOR", 1.0)
        for npop in range(4, 51):
            for d in (1, 2, 13):
                pop, best = indexed(npop, d)
                trials = one_run(_Fixed(u), pop, best, DESettings(npop=npop))
                for slot, (trial, target) in enumerate(zip(trials, pop)):
                    mutated = np.flatnonzero(trial != target).tolist()
                    assert mutated == ([d - 1] if u else list(range(d)))
                    assert candidates(trial[d - 1]) == tuple((slot + o) % npop for o in offsets)


    def test_run_ends_at_the_first_uniform_not_below_cr(self):
        pop, best = indexed(4, 5)
        u = [0.0, 0.0, 0.0, 0.1, 0.95, 0.1, 0.1]  # start 0, then one continuation
        trials = one_run(_Fixed(u), pop, best, DESettings(npop=4))
        assert [np.flatnonzero(t != p).tolist() for t, p in zip(trials, pop)] == [[0, 1]] * 4


class TestTermination:
    def test_change_over_generation_constant_history(self):
        rule = ChangeOverGeneration(1e-4, 10)
        assert rule.met([1.0] * 11) is True

    def test_change_over_generation_short_history(self):
        rule = ChangeOverGeneration(1e-4, 10)
        assert rule.met([1.0] * 5) is False

    def test_value_below(self):
        assert ValueBelow(1.0).met([5.0, 2.0, 0.81]) is True
        assert ValueBelow(1.0).met([5.0, 1.2]) is False

    def test_value_below_takes_any_finite_target(self):
        assert ValueBelow(-0.3).met([-0.1, -0.31]) is True
        assert ValueBelow(-0.3).met([-0.1, -0.29]) is False
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ValueBelow(bad)


class TestDeSolve:
    def test_sphere_3d(self):
        report = de_solve(
            sphere,
            Bounds.from_pairs([(-5.0, 5.0)] * 3),
            DESettings(npop=40, seed=2, max_generations=500),
        )
        assert report.opt_cost <= 1e-6

    def test_1d_quadratic(self):
        report = de_solve(
            lambda x: (x[0] - 2.0) ** 2,
            Bounds.from_pairs([(0.0, 5.0)]),
            DESettings(npop=10, seed=3, max_generations=200),
        )
        assert report.opt_params[0] == pytest.approx(2.0, abs=1e-4)

    def test_constraint_projection_applied_before_evaluation(self):
        def pin_first(block, generation):
            block = block.copy()
            block[:, 0] = 1.0
            return block, np.ones(len(block), dtype=bool)

        report = de_solve(
            sphere,
            Bounds.from_pairs([(-5.0, 5.0)] * 2),
            DESettings(npop=10, seed=4, max_generations=50),
            constrain=pin_first,
        )
        assert report.opt_params[0] == 1.0

    def test_every_cost_input_is_in_bounds(self, monkeypatch):
        monkeypatch.setattr(de_mod, "SCALING_FACTOR", 2.5)
        bounds = Bounds.from_pairs([(-1.0, 2.0), (0.5, 3.0)])
        seen = []

        def recording_cost(x):
            seen.append(x.copy())
            return sphere(x)

        de_solve(
            recording_cost, bounds,
            DESettings(npop=8, seed=5, max_generations=30),
        )
        assert seen
        for x in seen:
            assert np.all(x >= bounds.lower) and np.all(x <= bounds.upper)

    def test_best_history_monotone(self):
        report = de_solve(
            sphere,
            Bounds.from_pairs([(-5.0, 5.0)] * 4),
            DESettings(npop=12, seed=6, max_generations=100),
        )
        costs = [rec.best_cost for rec in report.trace]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_determinism(self):
        def run():
            return de_solve(
                sphere,
                Bounds.from_pairs([(-5.0, 5.0)] * 3),
                DESettings(npop=15, seed=7, max_generations=80),
            )

        a, b = run(), run()
        assert a.opt_cost == b.opt_cost
        assert np.array_equal(a.opt_params, b.opt_params)
        assert a.evaluations == b.evaluations
        assert [r.best_cost for r in a.trace] == [r.best_cost for r in b.trace]

    def test_trace_length_and_report_consistency(self):
        report = de_solve(
            sphere,
            Bounds.from_pairs([(-5.0, 5.0)] * 2),
            DESettings(npop=8, seed=8, max_generations=25),
        )
        assert len(report.trace) == report.generations_run
        assert report.opt_cost == pytest.approx(sphere(report.opt_params), abs=1e-15)

    def test_termination_rule_reported(self):
        report = de_solve(
            sphere,
            Bounds.from_pairs([(-5.0, 5.0)] * 2),
            DESettings(npop=10, seed=9, max_generations=500),
            termination=ChangeOverGeneration(1e-10, 10),
        )
        assert report.terminated_by == "change_over_generation"
        assert report.generations_run < 500

    def test_value_below_at_initialization(self):
        # any point of the box already satisfies the target
        report = de_solve(
            lambda x: 0.0,
            Bounds.from_pairs([(0.0, 1.0)]),
            DESettings(npop=5, seed=10, max_generations=50),
            termination=ValueBelow(0.5),
        )
        assert report.generations_run == 0
        assert report.terminated_by == "value_below"

    def test_constraint_data_needs_a_block_cost(self):
        # the per-vector cost takes one argument, so the data is never dropped
        def with_data(block, generation):
            return block, np.ones(len(block), dtype=bool), block

        with pytest.raises(TypeError):
            de_solve(sphere, Bounds.from_pairs([(-1.0, 1.0)] * 2), DESettings(npop=4), with_data)

    def test_trace_hook_invoked_per_generation(self):
        calls = []
        de_solve(
            sphere,
            Bounds.from_pairs([(-1.0, 1.0)] * 2),
            DESettings(npop=6, seed=12, max_generations=10),
            trace_hook=lambda g, c, p: calls.append(g),
        )
        assert calls == list(range(1, 11))


class TestInfeasibleTrials:
    """A trial that constrain marks infeasible is never committed."""

    def test_rejected_vectors_never_enter_population_or_trace(self):
        # the unconstrained minimum (3, 0) lies in the rejected half x0 > 1
        rejected, evaluated = [], []

        def right_half_infeasible(block, generation):
            feasible = block[:, 0] <= 1.0
            rejected.extend(block[~feasible])
            return block, feasible

        def recording_cost(x):
            evaluated.append(x.copy())
            return float((x[0] - 3.0) ** 2 + x[1] ** 2)

        report = de_solve(
            recording_cost,
            Bounds.from_pairs([(-5.0, 5.0)] * 2),
            DESettings(npop=10, seed=14, max_generations=60),
            constrain=right_half_infeasible,
        )
        assert len(rejected) > 100
        assert report.evaluations == len(evaluated)
        assert all(x[0] <= 1.0 for x in evaluated)
        assert all(rec.best_params[0] <= 1.0 for rec in report.trace)
        assert report.opt_params == pytest.approx([1.0, 0.0], abs=1e-2)

    def test_all_infeasible_generation_leaves_population_unchanged(self):
        def generation_3_infeasible(block, generation):
            return block, np.full(len(block), generation != 3)

        report = de_solve(
            sphere,
            Bounds.from_pairs([(-5.0, 5.0)] * 2),
            DESettings(npop=10, seed=14, max_generations=20),
            constrain=generation_3_infeasible,
        )
        assert report.generations_run == 20
        assert report.evaluations == 10 * 20
        before, during = report.trace[1], report.trace[2]
        assert during.generation == 3
        assert during.best_cost == before.best_cost
        assert np.array_equal(during.best_params, before.best_params)
        assert report.trace[-1].best_cost < during.best_cost

    def test_vectorized_matches_one_row_at_a_time(self):
        # a per-vector cost and a block cost give one trajectory
        def reject_right_half(block, generation):
            assert block.shape == (10, 2)  # one run: its npop trials
            return block, block[:, 0] <= 1.0

        args = (Bounds.from_pairs([(-5.0, 5.0)] * 2), DESettings(npop=10, seed=13, max_generations=60))
        rows = de_solve(sphere, *args, constrain=reject_right_half)
        block = de_solve(sphere_block, *args, constrain=reject_right_half, vectorized=True)
        assert block.evaluations == rows.evaluations
        assert (block.opt_cost, block.generations_run, block.terminated_by) == (
            rows.opt_cost, rows.generations_run, rows.terminated_by)
        assert np.array_equal(block.opt_params, rows.opt_params)
        assert [(r.generation, r.best_cost, r.best_params.tolist()) for r in block.trace] == [
            (r.generation, r.best_cost, r.best_params.tolist()) for r in rows.trace
        ]

    def test_all_infeasible_initial_population_raises(self):
        def initial_infeasible(block, generation):
            return block, np.full(len(block), generation != 0)

        with pytest.raises(InfeasibleConstrain, match="initial population"):
            de_solve(
                sphere,
                Bounds.from_pairs([(-5.0, 5.0)] * 2),
                DESettings(npop=6, seed=15, max_generations=10),
                constrain=initial_infeasible,
            )

    def test_nan_initial_cost_never_becomes_best(self):
        # seed 2 draws initial members with x0 > 4; their NaN costs are
        # counted but, not cheaper than +inf, never take a slot
        def nan_right_of_4(x):
            return math.nan if x[0] > 4.0 else sphere(x)

        report = de_solve(
            nan_right_of_4,
            Bounds.from_pairs([(-5.0, 5.0)] * 2),
            DESettings(npop=10, seed=2, max_generations=50),
        )
        assert math.isfinite(report.opt_cost)
        assert all(math.isfinite(rec.best_cost) for rec in report.trace)
        assert report.evaluations == 10 * 51


class TestLockstep:
    """Runs in lockstep give, run by run, what de_solve gives with the same seed."""

    BOUNDS = Bounds.from_pairs([(-5.0, 5.0)] * 3)
    SETTINGS = DESettings(npop=8, seed=0, max_generations=40)
    SEEDS = [4, 17, 4, 99]

    @staticmethod
    def left_half(block, generation):
        # the third array has one row per feasible row, for the cost
        feasible = block[:, 0] <= 1.0
        return block, feasible, -block[feasible]

    def test_each_run_matches_de_solve(self):
        # value_below ends the runs at different generations, so the stacked
        # trials of later generations come from fewer runs; the cost gets the
        # constraint's third array with exactly the rows of block[feasible]
        rule, sizes = ValueBelow(0.5), []

        def cost(rows, negated):
            assert np.array_equal(-negated, rows)
            sizes.append(len(rows))
            return sphere_block(rows)

        runs = de_lockstep(cost, self.BOUNDS, self.SETTINGS, self.SEEDS, self.left_half, rule)
        assert len({r.generations_run for r in runs}) > 1
        assert any(size % self.SETTINGS.npop for size in sizes)  # some rows were infeasible
        for seed, run in zip(self.SEEDS, runs):
            alone = de_solve(
                cost, self.BOUNDS, replace(self.SETTINGS, seed=seed), self.left_half, rule,
                vectorized=True,
            )
            assert (run.opt_cost, run.generations_run, run.evaluations, run.terminated_by) == (
                alone.opt_cost, alone.generations_run, alone.evaluations, alone.terminated_by)
            assert np.array_equal(run.opt_params, alone.opt_params)
            assert [(r.generation, r.best_cost, r.best_params.tolist()) for r in run.trace] == [
                (r.generation, r.best_cost, r.best_params.tolist()) for r in alone.trace
            ]

    def test_rows_come_npop_per_run_in_seed_order(self):
        # row r of every block is slot r % npop of run r // npop, as in the
        # block the run's own de_solve passes to constrain
        def recorder(blocks):
            def record(block, generation):
                blocks.append((generation, block.copy()))
                return block, np.ones(len(block), dtype=bool)
            return record

        npop, shared = self.SETTINGS.npop, []
        de_lockstep(sphere_block, self.BOUNDS, self.SETTINGS, self.SEEDS, recorder(shared))
        assert [g for g, _ in shared] == list(range(41))
        for k, seed in enumerate(self.SEEDS):
            alone = []
            de_solve(
                sphere_block, self.BOUNDS, replace(self.SETTINGS, seed=seed), recorder(alone),
                vectorized=True,
            )
            for (_, block), (_, own) in zip(shared, alone, strict=True):
                assert np.array_equal(block[k * npop:(k + 1) * npop], own)

    def test_infeasible_run_raises(self):
        # one run with no feasible initial member fails the whole lockstep,
        # before any run's trace or trace_hook sees a generation
        npop, hooked = self.SETTINGS.npop, []

        def third_run_infeasible_at_start(block, generation):
            return block, (np.arange(len(block)) // npop != 2) | (generation != 0)

        with pytest.raises(InfeasibleConstrain, match="entire initial population"):
            de_lockstep(
                sphere_block, self.BOUNDS, self.SETTINGS, [1, 2, 3, 4],
                third_run_infeasible_at_start, trace_hook=lambda *args: hooked.append(args),
            )
        assert hooked == []

    def test_no_seeds_no_runs(self):
        assert de_lockstep(sphere_block, self.BOUNDS, self.SETTINGS, []) == []
