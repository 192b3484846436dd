import math
from dataclasses import replace

import numpy as np
import pytest

import ouq.solver as solver_mod
from ouq import (
    ChangeOverGeneration,
    DESettings,
    MeanConstraint,
    OUQProblem,
    ParamLayout,
    ballistic_limit,
    event_probability,
    expectation,
    flatten,
    normalize,
    ouq_solve,
    pack,
    perforation_area,
    unflatten,
    unpack,
)
from ouq.de import ValueBelow
from ouq.errors import InfeasibleConstrain, InnerLoopFailed, ZeroMassMeasure
from ouq.solver import build_bounds, constrain_params, cost_block, impose_expectation

PAPER_LAYOUT = ParamLayout(
    (2, 2, 2), ((1.524, 2.667), (0.0, math.pi / 6), (2.1, 2.8))
)


def paper_problem(seed=0, band=(5.5, 7.5), outer_max=500):
    return OUQProblem(
        response=perforation_area,
        layout=PAPER_LAYOUT,
        constraint=MeanConstraint.from_band(*band),
        outer=DESettings(npop=40, seed=seed, max_generations=outer_max),
        inner=DESettings(npop=20, seed=seed),
        outer_termination=ChangeOverGeneration(1e-4, 10),
    )


def toy_problem(response, npts=(2,), bounds=((0.0, 10.0),), band=(4.5, 5.5), seed=0, inner=None):
    return OUQProblem(
        response=response,
        layout=ParamLayout(npts, bounds),
        constraint=MeanConstraint.from_band(*band),
        outer=DESettings(npop=10, seed=seed, max_generations=100),
        inner=inner or DESettings(npop=10, seed=seed),
        outer_termination=ChangeOverGeneration(1e-6, 10),
    )


class TestMeanConstraint:
    def test_band_form(self):
        c = MeanConstraint.from_band(5.5, 7.5)
        assert c.m == pytest.approx(6.5)
        assert c.d == pytest.approx(1.0)
        assert c.band == pytest.approx((5.5, 7.5))

    def test_center_deviation_form(self):
        assert MeanConstraint(m=6.5, d=1.0).band == pytest.approx((5.5, 7.5))

    def test_rejects_empty_band(self):
        with pytest.raises(ValueError):
            MeanConstraint(m=1.0, d=0.0)


NAN = float("nan")


class TestNaNRejected:
    """Each type's range rule fails NaN, so a NaN setting never reaches a solve."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DESettings(scaling_factor=NAN),
            lambda: DESettings(cross_probability=NAN),
            lambda: ChangeOverGeneration(tolerance=NAN),
            lambda: ValueBelow(NAN),
            lambda: MeanConstraint(6.5, NAN),
            lambda: MeanConstraint(NAN, 1.0),
            lambda: MeanConstraint.from_band(NAN, 7.5),
            lambda: replace(paper_problem(), failure_tolerance=NAN),
        ],
        ids=[
            "scaling_factor", "cross_probability", "change_tolerance", "value_below_tolerance",
            "mean_d", "mean_m", "band_m1", "failure_tolerance",
        ],
    )
    def test_nan_rejected(self, build):
        with pytest.raises(ValueError, match="nan"):
            build()


class TestOuterValueBelow:
    """The outer cost is -P <= 0, so an outer value_below target must be negative."""

    @pytest.mark.parametrize("target", [0.0, 0.5])
    def test_nonnegative_target_rejected(self, target):
        with pytest.raises(ValueError, match="outer cost is -P"):
            replace(paper_problem(), outer_termination=ValueBelow(target))

    def test_negative_target_accepted(self):
        problem = replace(paper_problem(), outer_termination=ValueBelow(-0.3))
        assert problem.outer_termination.tolerance == -0.3


class TestBuildBounds:
    def test_paper_box(self):
        b = build_bounds(PAPER_LAYOUT)
        assert len(b) == 12
        # weights first, then positions, per factor
        assert b.lower.tolist() == [0, 0, 1.524, 1.524, 0, 0, 0, 0, 0, 0, 2.1, 2.1]
        assert b.upper.tolist() == pytest.approx(
            [1, 1, 2.667, 2.667, 1, 1, math.pi / 6, math.pi / 6, 1, 1, 2.8, 2.8]
        )


class TestOuqCost:
    def test_all_atoms_fail(self):
        problem = paper_problem()
        # thick oblique plate at low speed: every atom is below its ballistic limit
        params = [0.5, 0.5, 2.65, 2.667, 0.5, 0.5, 0.52, 0.5236, 0.5, 0.5, 2.1, 2.15]
        assert cost_block(np.array([params]), problem)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_no_atom_fails(self):
        problem = paper_problem()
        # thin plate, max speed: every atom perforates
        params = [0.5, 0.5, 1.524, 1.53, 1.0, 0.0, 0.0, 0.1, 0.5, 0.5, 2.79, 2.8]
        assert cost_block(np.array([params]), problem)[0] == 0.0

    def test_paper_maximizer(self):
        problem = paper_problem()
        params = [0.621, 0.379, 1.524, 2.667, 1.0, 0.0, 0.0, 0.1, 1.0, 0.0, 2.2885, 2.8]
        assert cost_block(np.array([params]), problem)[0] == pytest.approx(-0.379, abs=1e-12)


class TestConstrainParams:
    def test_idempotent_when_feasible(self):
        problem = paper_problem()
        # thin-plate weight 0.63 puts the expectation at ~5.578, inside the band
        params = np.array(
            [0.63, 0.37, 1.524, 2.667, 1.0, 0.0, 0.0, 0.1, 1.0, 0.0, 2.2885, 2.8]
        )
        out = constrain_params(params, problem)
        assert np.array_equal(out, params)

    def test_normalization_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            solver_mod,
            "impose_expectation",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(AssertionError),
        )
        problem = paper_problem()
        params = np.array(
            [1.26, 0.74, 1.524, 2.667, 2.0, 0.0, 0.0, 0.1, 1.0, 0.0, 2.2885, 2.8]
        )
        out = constrain_params(params, problem)
        assert calls == []
        assert out[:2] == pytest.approx([0.63, 0.37])
        assert out[4:6] == pytest.approx([1.0, 0.0])
        assert out[2:4].tolist() == [1.524, 2.667]  # positions untouched

    def test_output_is_fixed_point_without_inner_loop(self, monkeypatch):
        problem = paper_problem(seed=5)
        rng = np.random.default_rng(99)
        bounds = build_bounds(problem.layout)
        for trial in range(20):
            params = rng.uniform(bounds.lower, bounds.upper)
            try:
                repaired = constrain_params(params, problem, inner_seed=trial)
            except (ZeroMassMeasure, InnerLoopFailed):
                continue
            calls = []
            real = solver_mod.impose_expectation
            monkeypatch.setattr(
                solver_mod,
                "impose_expectation",
                lambda *a, **k: calls.append(1) or real(*a, **k),
            )
            again = constrain_params(repaired, problem)
            monkeypatch.setattr(solver_mod, "impose_expectation", real)
            assert calls == []  # band already satisfied: no inner loop
            assert again == pytest.approx(repaired, abs=1e-12)

    def test_zero_mass_rejected(self):
        problem = paper_problem()
        params = np.zeros(12)
        params[2:4] = 2.0
        params[10:12] = 2.5
        with pytest.raises(ZeroMassMeasure):
            constrain_params(params, problem)


class TestImposeExpectation:
    def test_returns_immediately_when_in_band(self):
        problem = paper_problem()
        params = np.array(
            [0.63, 0.37, 1.524, 2.667, 1.0, 0.0, 0.0, 0.1, 1.0, 0.0, 2.2885, 2.8]
        )
        e0 = expectation(unflatten(params, problem.layout), perforation_area)
        assert 5.5 <= e0 <= 7.5
        out = impose_expectation(params, problem, seed=1)
        e1 = expectation(unflatten(out, problem.layout), perforation_area)
        cost0 = (e0 - 6.5) ** 2
        cost1 = (e1 - 6.5) ** 2
        assert cost1 <= cost0 + 1e-12

    def test_paper_setup_reaches_band(self):
        problem = paper_problem(seed=3)
        rng = np.random.default_rng(17)
        bounds = build_bounds(problem.layout)
        for k in range(5):
            raw = unflatten(rng.uniform(bounds.lower, bounds.upper), problem.layout)
            params = flatten(pack([normalize(f) for f in unpack(raw)]))
            out = impose_expectation(params, problem, seed=k)
            assert 5.5 <= expectation(unflatten(out, problem.layout), perforation_area) <= 7.5

    def test_1d_toy(self):
        problem = toy_problem(lambda x: x, band=(4.5, 5.5), seed=2)
        out = impose_expectation(np.array([0.5, 0.5, 0.5, 1.0]), problem, seed=7)
        assert 4.5 <= unflatten(out, problem.layout).factors[0].mean() <= 5.5

    def test_unreachable_band_fails(self):
        problem = toy_problem(
            lambda x: x,
            band=(99.0, 101.0),
            seed=2,
            inner=DESettings(npop=10, seed=2, max_generations=5),
        )
        with pytest.raises(InnerLoopFailed):
            impose_expectation(np.array([0.5, 0.5, 4.0, 6.0]), problem, seed=1)


class TestRepairSemantics:
    """Pins what the nested repair returns on the reference problem."""

    # thin plate at top speed: expectation ~9.35, above the band
    HIGH = np.array([0.5, 0.5, 1.524, 1.53, 1.0, 0.0, 0.0, 0.1, 0.5, 0.5, 2.79, 2.8])
    # thick oblique plate at low speed: expectation below the band
    LOW = np.array([0.5, 0.5, 2.65, 2.667, 0.5, 0.5, 0.52, 0.5236, 0.5, 0.5, 2.1, 2.15])

    def test_out_of_band_trial_is_replaced_at_generation_0(self, de_reports):
        problem = paper_problem(seed=0)
        assert expectation(unflatten(self.HIGH, problem.layout), perforation_area) > 7.5
        out = impose_expectation(self.HIGH, problem, seed=0)
        assert [r.generations_run for r in de_reports] == [0]
        assert 5.5 <= expectation(unflatten(out, problem.layout), perforation_area) <= 7.5
        assert not np.array_equal(out, self.HIGH)

    def test_result_does_not_depend_on_the_trial(self, de_reports):
        # the initial member nearest m wins, and the trial (slot 0) is not it
        problem = paper_problem(seed=0)
        assert expectation(unflatten(self.LOW, problem.layout), perforation_area) < 5.5
        out_high = impose_expectation(self.HIGH, problem, seed=3)
        out_low = impose_expectation(self.LOW, problem, seed=3)
        assert [r.generations_run for r in de_reports] == [0, 0]
        assert np.array_equal(out_high, out_low)


class TestOuqSolve:
    def test_zero_response_gives_certain_failure(self):
        problem = toy_problem(
            lambda x: 0.0, band=(-0.5, 0.5), npts=(2,), bounds=((0.0, 1.0),)
        )
        result = ouq_solve(problem)
        assert result.probability_bound == pytest.approx(1.0, abs=1e-9)

    def test_positive_response_gives_zero_bound(self):
        problem = toy_problem(
            lambda x: x + 5.0, band=(5.0, 6.0), npts=(2,), bounds=((0.0, 1.0),)
        )
        result = ouq_solve(problem)
        assert result.probability_bound == 0.0

    def test_never_feasible_band_raises(self):
        # no trial can be repaired into [99, 101] within 5 inner generations
        problem = toy_problem(
            lambda x: x,
            band=(99.0, 101.0),
            seed=2,
            inner=DESettings(npop=10, seed=2, max_generations=5),
        )
        with pytest.raises(InfeasibleConstrain):
            ouq_solve(problem)

    def test_bound_matches_maximizer_probability(self):
        problem = paper_problem(seed=0, outer_max=60)
        result = ouq_solve(problem)
        pred = problem.failure_predicate()
        assert result.probability_bound == pytest.approx(
            event_probability(result.maximizer, pred), abs=1e-12
        )
        assert 0.0 <= result.probability_bound <= 1.0
        assert 5.5 - 1e-6 <= result.expectation_at_maximizer <= 7.5 + 1e-6

    def test_determinism(self):
        a = ouq_solve(paper_problem(seed=1, outer_max=25))
        b = ouq_solve(paper_problem(seed=1, outer_max=25))
        assert a.probability_bound == b.probability_bound
        assert np.array_equal(a.report.opt_params, b.report.opt_params)
        assert a.report.evaluations == b.report.evaluations
