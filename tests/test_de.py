import numpy as np
import pytest

from ouq import (
    Bounds,
    ChangeOverGeneration,
    DESettings,
    InfeasibleConstrain,
    InnerLoopFailed,
    Strategy,
    ValueBelow,
    de_solve,
    mutate_best1exp,
    termination_met,
)


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


class TestSettings:
    def test_npop_floor(self):
        with pytest.raises(ValueError):
            DESettings(npop=3)

    def test_cross_probability_domain(self):
        with pytest.raises(ValueError):
            DESettings(cross_probability=1.5)


class TestMutate:
    def make(self, **kw):
        return DESettings(npop=10, **kw)

    def test_zero_scaling_standard(self):
        settings = self.make(scaling_factor=1e-300, strategy=Strategy.BEST1EXP_STANDARD)
        best = np.array([1.0, 2.0, 3.0])
        target = np.array([9.0, 9.0, 9.0])
        rng = np.random.default_rng(0)
        trial = mutate_best1exp(best, np.array([5.0, 5.0, 5.0]), np.array([1.0, 1.0, 1.0]), target, settings, rng)
        # every mutated coordinate carries best's value, the rest target's
        for t, b, g in zip(trial, best, target):
            assert t == pytest.approx(b, abs=1e-12) or t == g

    def test_equal_candidates_give_best(self):
        settings = self.make()
        best = np.array([1.0, 2.0])
        c = np.array([4.0, -3.0])
        rng = np.random.default_rng(1)
        trial = mutate_best1exp(best, c, c, np.array([7.0, 7.0]), settings, rng)
        for t, b in zip(trial, best):
            assert t == b or t == 7.0

    def test_paper_snippet_whole_vector(self):
        settings = self.make(
            strategy=Strategy.BEST1EXP_PAPER_SNIPPET, cross_probability=0.9, scaling_factor=0.9
        )
        rng = np.random.default_rng(0)
        assert rng.random() < 0.9  # the first draw of seed 0 takes the mutation branch
        rng = np.random.default_rng(0)
        trial = mutate_best1exp(
            np.array([1.0, 1.0]),
            np.array([2.0, 0.0]),
            np.array([0.0, 0.0]),
            np.array([5.0, 5.0]),
            settings,
            rng,
        )
        assert trial == pytest.approx([2.8, 1.0])

    def test_paper_snippet_no_mutation_branch(self):
        settings = self.make(strategy=Strategy.BEST1EXP_PAPER_SNIPPET, cross_probability=0.0)
        best = np.array([1.0, 2.0])
        trial = mutate_best1exp(
            best, np.array([9.0, 9.0]), np.array([0.0, 0.0]), np.array([5.0, 5.0]),
            settings, np.random.default_rng(3),
        )
        assert np.array_equal(trial, best)

    def test_standard_mutates_at_least_one_coordinate(self):
        settings = self.make(cross_probability=0.0)
        best = np.array([10.0, 10.0, 10.0])
        target = np.zeros(3)
        for seed in range(20):
            trial = mutate_best1exp(
                best, np.zeros(3), np.zeros(3), target, settings, np.random.default_rng(seed)
            )
            assert np.sum(trial != target) == 1

    def test_dimension_mismatch(self):
        settings = self.make()
        with pytest.raises(ValueError, match="vector lengths differ"):
            mutate_best1exp(
                np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3), settings,
                np.random.default_rng(0),
            )


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
            assert bounds.contains(x)

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

        def sphere_block(block):
            return np.sum(block**2, axis=1)

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
