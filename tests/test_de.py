import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouq import Bounds, ChangeOverGeneration, DESettings, de_solve
from ouq.de import Strategy, ValueBelow, _TrialBuilder, de_lockstep, termination_met
from ouq.errors import InfeasibleConstrain, InnerLoopFailed


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def sphere_block(block):
    return np.sum(block**2, axis=1)


class TestSettings:
    def test_npop_floor(self):
        with pytest.raises(ValueError):
            DESettings(npop=3)

    def test_cross_probability_domain(self):
        with pytest.raises(ValueError):
            DESettings(cross_probability=1.5)


def per_slot_trials(pop, best, settings, rng):
    """The per-slot Best1Exp path that _TrialBuilder replaces: the oracle."""
    npop, d = pop.shape
    slots = np.arange(npop)
    f, cr = settings.scaling_factor, settings.cross_probability
    trials = np.empty_like(pop)
    for slot in range(npop):
        c1, c2 = rng.choice(slots[slots != slot], size=2, replace=False)
        c1, c2 = pop[c1], pop[c2]
        if settings.strategy is Strategy.BEST1EXP_PAPER_SNIPPET:
            trials[slot] = best.copy() if rng.random() >= cr else best + f * (c1 - c2)
            continue
        trial = pop[slot].copy()
        i = int(rng.integers(d))
        mutated = 0
        while True:
            trial[i] = best[i] + f * (c1[i] - c2[i])
            mutated += 1
            i = (i + 1) % d
            if mutated >= d or rng.random() >= cr:
                break
        trials[slot] = trial
    return trials


def build_trials(settings, pop, best, seed=0):
    builder = _TrialBuilder(np.random.default_rng(seed), settings)
    return builder(np.asarray(pop, dtype=float), np.asarray(best, dtype=float))


class TestMutate:
    def make(self, **kw):
        return DESettings(npop=10, **kw)

    def test_zero_scaling_standard(self):
        settings = self.make(scaling_factor=1e-300, strategy=Strategy.BEST1EXP_STANDARD)
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

    def test_paper_snippet_whole_vector(self):
        settings = self.make(
            strategy=Strategy.BEST1EXP_PAPER_SNIPPET, cross_probability=0.9, scaling_factor=0.9
        )
        best = np.array([1.0, 1.0])
        pop = np.arange(10.0)[:, None] * np.array([1.0, 2.0])
        trials = build_trials(settings, pop, best)
        mutated = 0
        for slot, trial in enumerate(trials):
            if np.array_equal(trial, best):
                continue
            # best + F*(c1 - c2) over the whole vector, from two other slots
            others = [i for i in range(10) if i != slot]
            assert any(
                np.array_equal(trial, best + 0.9 * (pop[i] - pop[j]))
                for i in others for j in others if i != j
            )
            mutated += 1
        assert mutated > 0

    def test_paper_snippet_no_mutation_branch(self):
        settings = self.make(strategy=Strategy.BEST1EXP_PAPER_SNIPPET, cross_probability=0.0)
        best = np.array([1.0, 2.0])
        pop = np.arange(20.0).reshape(10, 2)
        trials = build_trials(settings, pop, best, seed=3)
        assert all(np.array_equal(trial, best) for trial in trials)

    def test_standard_mutates_at_least_one_coordinate(self):
        settings = self.make(cross_probability=0.0)
        best = np.array([10.0, 10.0, 10.0])
        pop = np.zeros((10, 3))
        for seed in range(20):
            trials = build_trials(settings, pop, best, seed=seed)
            assert np.all(np.sum(trials != pop, axis=1) == 1)

    def test_dimension_mismatch(self):
        settings = self.make()
        with pytest.raises(ValueError, match="vector lengths differ"):
            build_trials(settings, np.zeros((10, 2)), np.zeros(3))


@st.composite
def generation_cases(draw):
    npop = draw(st.integers(4, 50))
    d = draw(st.integers(1, 14))
    settings = DESettings(
        npop=npop,
        cross_probability=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        scaling_factor=draw(st.floats(0.1, 2.0)),
        strategy=draw(st.sampled_from(list(Strategy))),
    )
    return settings, d, draw(st.integers(0, 5)), draw(st.integers(0, 2**32))


class TestTrialBuilder:
    """_TrialBuilder reads raw PCG64 words exactly as the per-slot numpy calls."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=generation_cases())
    def test_matches_per_slot_path(self, case):
        de, d, draws_before, seed = case
        oracle_rng, builder_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (oracle_rng, builder_rng):
            rng.uniform(size=3)
            for _ in range(draws_before):  # one 32-bit draw each: leaves a half pending when odd
                rng.integers(7)
        assert oracle_rng.bit_generator.state["has_uint32"] == draws_before % 2
        builder = _TrialBuilder(builder_rng, de)
        pop = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=(de.npop, d))
        for generation in range(3):
            best = pop[generation % de.npop]
            expected = per_slot_trials(pop, best, de, oracle_rng)
            assert np.array_equal(builder(pop, best), expected)
            pop = expected
        # the stream continues where the per-slot path left it
        state = oracle_rng.bit_generator.state
        assert builder._half == (state["uinteger"] if state["has_uint32"] else None)
        word = builder._words[0] if builder._words else int(builder_rng.bit_generator.random_raw())
        assert oracle_rng.random() == (word >> 11) * 2**-53

    def test_lemire_rejection_takes_the_next_half_word(self):
        # npop 39: the first candidate draw has 37 values, whose rejection
        # threshold is 2**32 % 37 = 7, so a low half of 0 is rejected and the
        # high half 3 * 2**30 gives (3 * 2**30 * 37) >> 32 = 27; the second
        # draw (38 values) takes the low half 2**31 + 12345 of the next word,
        # giving 19, and its high half 2**31 draws 1 in [0, 1]: no swap; the
        # other slots of slot 0 are rows 1..38, so the candidates are rows 28, 20
        settings = DESettings(npop=39, strategy=Strategy.BEST1EXP_PAPER_SNIPPET)
        rng = np.random.default_rng(0)
        builder = _TrialBuilder(rng, settings)
        filler = rng.bit_generator.random_raw(200).tolist()
        builder._words = [3 << 62, (1 << 63) | (1 << 31) + 12345] + filler
        a, b, _, keep = builder._draw(39, 1)
        assert (a[0], b[0]) == (28, 20)
        # slot 0's random() took the third word, as the next slot starts after it
        assert keep[0] == ((filler[0] >> 11) * 2**-53 >= settings.cross_probability)


class TestTermination:
    def test_change_over_generation_constant_history(self):
        rule = ChangeOverGeneration(1e-4, 10)
        assert termination_met(rule, [1.0] * 11) is True

    def test_change_over_generation_short_history(self):
        rule = ChangeOverGeneration(1e-4, 10)
        assert termination_met(rule, [1.0] * 5) is False

    def test_value_below(self):
        assert termination_met(ValueBelow(1.0), [5.0, 2.0, 0.81]) is True
        assert termination_met(ValueBelow(1.0), [5.0, 1.2]) is False

    def test_value_below_takes_any_finite_target(self):
        assert termination_met(ValueBelow(-0.3), [-0.1, -0.31]) is True
        assert termination_met(ValueBelow(-0.3), [-0.1, -0.29]) is False
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
        def pin_first(v, generation, slot):
            v = v.copy()
            v[0] = 1.0
            return v

        report = de_solve(
            sphere,
            Bounds.from_pairs([(-5.0, 5.0)] * 2),
            DESettings(npop=10, seed=4, max_generations=50),
            constrain=pin_first,
        )
        assert report.opt_params[0] == 1.0

    def test_every_cost_input_is_in_bounds(self):
        bounds = Bounds.from_pairs([(-1.0, 2.0), (0.5, 3.0)])
        seen = []

        def recording_cost(x):
            seen.append(x.copy())
            return sphere(x)

        de_solve(
            recording_cost, bounds,
            DESettings(npop=8, seed=5, scaling_factor=2.5, max_generations=30),
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

    def test_initial_member_seeds_population(self):
        start = np.array([0.25])
        report = de_solve(
            lambda x: abs(x[0] - 0.25),
            Bounds.from_pairs([(0.0, 1.0)]),
            DESettings(npop=5, seed=11, max_generations=50),
            initial=start,
            termination=ValueBelow(0.0),
        )
        assert report.generations_run == 0
        assert report.opt_cost == 0.0

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
    """A trial whose constrain raises ConstraintViolation is never committed."""

    def test_rejected_vectors_never_enter_population_or_trace(self):
        # the unconstrained minimum (3, 0) lies in the rejected half x0 > 1
        rejected, evaluated = [], []

        def right_half_infeasible(v, generation, slot):
            if v[0] > 1.0:
                rejected.append(v.copy())
                raise InnerLoopFailed("x0 > 1")
            return v

        def recording_cost(x):
            evaluated.append(x.copy())
            return float((x[0] - 3.0) ** 2 + x[1] ** 2)

        report = de_solve(
            recording_cost,
            Bounds.from_pairs([(-5.0, 5.0)] * 2),
            DESettings(npop=10, seed=13, max_generations=60),
            constrain=right_half_infeasible,
        )
        assert len(rejected) > 100
        assert report.evaluations == len(evaluated)
        assert all(x[0] <= 1.0 for x in evaluated)
        assert all(rec.best_params[0] <= 1.0 for rec in report.trace)
        assert report.opt_params == pytest.approx([1.0, 0.0], abs=1e-2)

    def test_all_infeasible_generation_leaves_population_unchanged(self):
        def generation_3_infeasible(v, generation, slot):
            if generation == 3:
                raise InnerLoopFailed("generation 3")
            return v

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
        def reject_right_half(v, generation, slot):
            if v[0] > 1.0:
                raise InnerLoopFailed("x0 > 1")
            return v

        def reject_right_half_block(block, generation, slots):
            assert slots.tolist() == list(range(10))
            return block, block[:, 0] <= 1.0

        args = (Bounds.from_pairs([(-5.0, 5.0)] * 2), DESettings(npop=10, seed=13, max_generations=60))
        rows = de_solve(sphere, *args, constrain=reject_right_half)
        block = de_solve(sphere_block, *args, constrain=reject_right_half_block, vectorized=True)
        assert block.evaluations == rows.evaluations
        assert (block.opt_cost, block.generations_run, block.terminated_by) == (
            rows.opt_cost, rows.generations_run, rows.terminated_by)
        assert np.array_equal(block.opt_params, rows.opt_params)
        assert [(r.generation, r.best_cost, r.best_params.tolist()) for r in block.trace] == [
            (r.generation, r.best_cost, r.best_params.tolist()) for r in rows.trace
        ]

    def test_all_infeasible_initial_population_raises(self):
        def initial_infeasible(v, generation, slot):
            if generation == 0:
                raise InnerLoopFailed("initial population")
            return v

        with pytest.raises(InfeasibleConstrain, match="initial population"):
            de_solve(
                sphere,
                Bounds.from_pairs([(-5.0, 5.0)] * 2),
                DESettings(npop=6, seed=15, max_generations=10),
                constrain=initial_infeasible,
            )


class TestLockstep:
    """Runs in lockstep give, run by run, what de_solve gives with the same seed."""

    BOUNDS = Bounds.from_pairs([(-5.0, 5.0)] * 3)
    SETTINGS = DESettings(npop=8, seed=0, max_generations=40)
    SEEDS = [4, 17, 4, 99]

    @staticmethod
    def left_half(block, generation, slots):
        return block, block[:, 0] <= 1.0

    def test_each_run_matches_de_solve(self):
        # value_below ends the runs at different generations
        rule = ValueBelow(0.5)
        runs = de_lockstep(
            sphere_block, self.BOUNDS, self.SETTINGS, self.SEEDS, self.left_half, rule
        )
        assert len({r.generations_run for r in runs}) > 1
        for seed, run in zip(self.SEEDS, runs):
            alone = de_solve(
                sphere_block, self.BOUNDS, replace(self.SETTINGS, seed=seed), self.left_half,
                rule, vectorized=True,
            )
            assert (run.opt_cost, run.generations_run, run.evaluations, run.terminated_by) == (
                alone.opt_cost, alone.generations_run, alone.evaluations, alone.terminated_by)
            assert np.array_equal(run.opt_params, alone.opt_params)
            assert [(r.generation, r.best_cost, r.best_params.tolist()) for r in run.trace] == [
                (r.generation, r.best_cost, r.best_params.tolist()) for r in alone.trace
            ]

    def test_infeasible_run_fails_alone(self):
        npop = self.SETTINGS.npop

        def second_run_infeasible_at_start(block, generation, slots):
            feasible = np.ones(len(block), dtype=bool)
            if generation == 0:
                feasible[npop:2 * npop] = False
            return block, feasible

        initial = np.zeros((3, 3))
        runs = de_lockstep(
            sphere_block, self.BOUNDS, self.SETTINGS, [1, 2, 3],
            second_run_infeasible_at_start, initial=initial,
        )
        assert isinstance(runs[1], InfeasibleConstrain)
        assert "entire initial population" in str(runs[1])
        for seed, run in [(1, runs[0]), (3, runs[2])]:
            alone = de_solve(
                sphere_block, self.BOUNDS, replace(self.SETTINGS, seed=seed),
                initial=initial[0], vectorized=True,
            )
            assert (run.generations_run, run.evaluations) == (40, alone.evaluations)
            assert np.array_equal(run.opt_params, alone.opt_params)

    def test_no_seeds_no_runs(self):
        assert de_lockstep(sphere_block, self.BOUNDS, self.SETTINGS, []) == []

    def test_initial_count_must_match(self):
        with pytest.raises(ValueError, match="2 initial vectors for 1 runs"):
            de_lockstep(sphere_block, self.BOUNDS, self.SETTINGS, [0], initial=np.zeros((2, 3)))
