import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
from ouq.de import Strategy, ValueBelow, de_solve
from ouq.errors import InfeasibleConstrain, InnerLoopFailed, ZeroMassMeasure
from ouq.measures import expectation_block, normalize_block
from ouq.solver import (
    InnerCounts,
    build_bounds,
    constrain_params,
    cost_block,
    impose_expectation,
    repair_block,
)

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

    def test_normalization_only(self, de_reports):
        problem = paper_problem()
        params = np.array(
            [1.26, 0.74, 1.524, 2.667, 2.0, 0.0, 0.0, 0.1, 1.0, 0.0, 2.2885, 2.8]
        )
        out = constrain_params(params, problem)
        assert de_reports == []  # no nested run started
        assert out[:2] == pytest.approx([0.63, 0.37])
        assert out[4:6] == pytest.approx([1.0, 0.0])
        assert out[2:4].tolist() == [1.524, 2.667]  # positions untouched

    def test_output_is_fixed_point_without_inner_loop(self, de_reports):
        problem = paper_problem(seed=5)
        rng = np.random.default_rng(99)
        bounds = build_bounds(problem.layout)
        repaired_by_inner_loop = 0
        for trial in range(20):
            params = rng.uniform(bounds.lower, bounds.upper)
            de_reports.clear()
            try:
                repaired = constrain_params(params, problem, inner_seed=trial)
            except (ZeroMassMeasure, InnerLoopFailed):
                continue
            repaired_by_inner_loop += len(de_reports)
            de_reports.clear()
            again = constrain_params(repaired, problem)
            assert de_reports == []  # band already satisfied: no inner loop
            assert again == pytest.approx(repaired, abs=1e-12)
        assert repaired_by_inner_loop > 0  # some trials did go through the inner loop

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
        out, failures = impose_expectation(params[None, :], problem, [1])
        assert failures == {}
        e1 = expectation(unflatten(out[0], problem.layout), perforation_area)
        cost0 = (e0 - 6.5) ** 2
        cost1 = (e1 - 6.5) ** 2
        assert cost1 <= cost0 + 1e-12

    def test_paper_setup_reaches_band(self, de_reports):
        problem = paper_problem(seed=3)
        rng = np.random.default_rng(17)
        bounds = build_bounds(problem.layout)
        rows = []
        for k in range(5):
            raw = unflatten(rng.uniform(bounds.lower, bounds.upper), problem.layout)
            rows.append(flatten(pack([normalize(f) for f in unpack(raw)])))
        out, failures = impose_expectation(np.array(rows), problem, range(5))
        assert failures == {}
        assert len(de_reports) == 5  # one nested run per row
        for row in out:
            assert 5.5 <= expectation(unflatten(row, problem.layout), perforation_area) <= 7.5

    def test_1d_toy(self, de_reports):
        problem = toy_problem(lambda x: x, band=(4.5, 5.5), seed=2)
        out, failures = impose_expectation(np.array([[0.5, 0.5, 0.5, 1.0]]), problem, [7])
        assert failures == {}
        assert [r.terminated_by for r in de_reports] == ["value_below"]
        assert 4.5 <= unflatten(out[0], problem.layout).factors[0].mean() <= 5.5

    def test_unreachable_band_fails(self, de_reports):
        problem = toy_problem(
            lambda x: x,
            band=(99.0, 101.0),
            seed=2,
            inner=DESettings(npop=10, seed=2, max_generations=5),
        )
        params = np.array([[0.5, 0.5, 4.0, 6.0]])
        out, failures = impose_expectation(params, problem, [1])
        assert list(failures) == [0]
        assert isinstance(failures[0], InnerLoopFailed)
        assert [r.generations_run for r in de_reports] == [5]
        assert np.array_equal(out, params)  # a failed row comes back unchanged


def per_row_impose(params, problem, seed):
    """The nested repair as one de_solve per row, which the lockstep
    impose_expectation replaces: the oracle.  Returns (vector, report, failure)."""
    con = problem.constraint
    layout = problem.layout

    def inner_cost(block):
        return (expectation_block(block, layout, problem.response) - con.m) ** 2

    def renormalize_weights(block, generation, slots):
        return normalize_block(block, layout)

    try:
        report = de_solve(
            inner_cost,
            build_bounds(layout),
            replace(problem.inner, seed=seed),
            constrain=renormalize_weights,
            termination=ValueBelow(con.d**2),
            initial=params,
            vectorized=True,
        )
    except InfeasibleConstrain as exc:
        return params, None, f"inner population was entirely degenerate: {exc}"
    if report.opt_cost > con.d**2:
        return params, report, (
            f"inner loop exhausted {problem.inner.max_generations} generations at "
            f"cost {report.opt_cost:.6g} > d^2 = {con.d ** 2:.6g}"
        )
    return report.opt_params, report, None


RESPONSES = [
    lambda *xs: sum(xs),
    lambda *xs: xs[0] ** 2 - 0.5 * np.tanh(xs[-1]),
]


@st.composite
def lockstep_cases(draw):
    """A small problem and a block of normalized rows, some with an all-zero factor."""
    npts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    lows = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(npts), max_size=len(npts)))
    widths = draw(st.lists(st.floats(0.5, 5.0), min_size=len(npts), max_size=len(npts)))
    bounds = tuple((lo, lo + w) for lo, w in zip(lows, widths))
    response = draw(st.sampled_from(RESPONSES))
    # the band is centred on a response value, or far above every one
    at = [lo + draw(st.floats(0.0, 1.0)) * w for lo, w in zip(lows, widths)]
    m = float(response(*at)) + draw(st.sampled_from([0.0, 0.0, 0.0, 100.0]))
    d = draw(st.sampled_from([0.01, 0.1, 0.5, 2.0]))
    inner = DESettings(
        npop=draw(st.integers(4, 8)),
        cross_probability=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        scaling_factor=draw(st.sampled_from([0.5, 0.9])),
        strategy=draw(st.sampled_from(list(Strategy))),
        max_generations=draw(st.integers(1, 8)),
    )
    problem = OUQProblem(
        response=response,
        layout=ParamLayout(npts, bounds),
        constraint=MeanConstraint(m, d),
        inner=inner,
    )
    k = draw(st.sampled_from([4, 6, 1, 3, 5, 2]))
    box = build_bounds(problem.layout)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    block, _ = normalize_block(rng.uniform(box.lower, box.upper, size=(k, len(box))), problem.layout)
    for row in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        ws, _ = problem.layout.factor_slices()[0]
        block[row, ws] = 0.0
    seeds = draw(st.lists(st.integers(0, 2**63), min_size=k, max_size=k))
    return problem, block, seeds


def toy_case(band, max_generations, zero_rows=(), k=4):
    """Rows of toy_problem (x on [0, 10], two points) for the oracle test."""
    problem = toy_problem(
        lambda x: x, band=band, inner=DESettings(npop=6, max_generations=max_generations)
    )
    rng = np.random.default_rng(5)
    block = np.column_stack([np.full(k, 0.5), np.full(k, 0.5), rng.uniform(0, 10, (k, 2))])
    block[list(zero_rows), :2] = 0.0
    return problem, block, list(range(10, 10 + k))


UNREACHABLE = toy_case((99.0, 101.0), 5)
EXHAUSTED = toy_case((6.9, 7.1), 3)
ZERO_WEIGHT_ROW = toy_case((6.0, 8.0), 4, zero_rows=[1])


class TestLockstepOracle:
    @settings(
        max_examples=120, deadline=None, database=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=lockstep_cases())
    @example(case=UNREACHABLE)
    @example(case=EXHAUSTED)
    @example(case=ZERO_WEIGHT_ROW)
    def test_matches_one_de_solve_per_row(self, de_reports, case):
        problem, block, seeds = case
        de_reports.clear()
        counts = InnerCounts()
        out, failures = impose_expectation(block, problem, seeds, counts)
        assert len(de_reports) == len(block)
        for row, (params, seed, run) in enumerate(zip(block, seeds, de_reports)):
            want, report, failure = per_row_impose(params, problem, seed)
            assert np.array_equal(out[row], want)
            assert (str(failures[row]) if row in failures else None) == failure
            if report is None:
                assert isinstance(run, InfeasibleConstrain)
                continue
            assert (run.generations_run, run.evaluations) == (
                report.generations_run, report.evaluations)
        assert all(isinstance(exc, InnerLoopFailed) for exc in failures.values())
        reports = [r for r in de_reports if not isinstance(r, InfeasibleConstrain)]
        assert counts == InnerCounts(
            len(block),
            sum(r.generations_run for r in reports),
            sum(r.evaluations for r in reports),
        )

    @pytest.mark.parametrize(
        "case, failed_rows, generations",
        [
            (UNREACHABLE, {0, 1, 2, 3}, [5, 5, 5, 5]),
            # row 1 stops at generation 0 and row 2 leaves the lockstep at generation 2
            (EXHAUSTED, {0, 3}, [3, 0, 2, 3]),
            (ZERO_WEIGHT_ROW, set(), [0, 0, 1, 0]),
        ],
        ids=["unreachable", "exhausted", "zero_weight_row"],
    )
    def test_explicit_cases(self, de_reports, case, failed_rows, generations):
        # the @example cases above show what they are named for
        problem, block, seeds = case
        _, failures = impose_expectation(block, problem, seeds)
        assert set(failures) == failed_rows
        assert [r.generations_run for r in de_reports] == generations
        if case is ZERO_WEIGHT_ROW:
            # slot 0 of row 1's run cannot be normalized, so it is never evaluated
            assert de_reports[1].evaluations == problem.inner.npop - 1

    def test_degenerate_run_fails_its_row_only(self, monkeypatch, de_reports):
        problem, block, seeds = ZERO_WEIGHT_ROW
        npop = problem.inner.npop
        calls = []

        def reject_run_1_at_start(rows, layout, tol=0.0):
            out, nonzero = normalize_block(rows, layout, tol)
            if not calls:  # the initial populations of all runs
                nonzero[npop:2 * npop] = False
            calls.append(len(rows))
            return out, nonzero

        monkeypatch.setattr(solver_mod, "normalize_block", reject_run_1_at_start)
        counts = InnerCounts()
        out, failures = impose_expectation(block, problem, seeds, counts)
        assert calls[0] == 4 * npop
        assert {row: str(exc) for row, exc in failures.items()} == {
            1: "inner population was entirely degenerate: "
            "constrain rejected the entire initial population"
        }
        assert isinstance(de_reports[1], InfeasibleConstrain)
        assert np.array_equal(out[1], block[1])
        others = [de_reports[row] for row in (0, 2, 3)]
        assert counts == InnerCounts(
            4, sum(r.generations_run for r in others), sum(r.evaluations for r in others)
        )


class TestRepairBlock:
    def test_out_of_band_rows_go_through_one_lockstep(self, de_reports):
        problem, rows, seeds = EXHAUSTED
        in_band = [0.5, 0.5, 6.0, 8.0]
        zero_mass = [0.0, 0.0, 6.0, 8.0]
        block = np.vstack([in_band, zero_mass, rows])
        counts = InnerCounts()
        out, failures = repair_block(block, problem, lambda row: seeds[row - 2], counts)
        assert len(de_reports) == len(rows)  # the in-band and zero-mass rows start no run
        want, inner_failures = impose_expectation(rows, problem, seeds)
        assert np.array_equal(out, np.vstack([in_band, zero_mass, want]))
        assert isinstance(failures.pop(1), ZeroMassMeasure)
        assert {row: str(exc) for row, exc in failures.items()} == {
            row + 2: str(exc) for row, exc in inner_failures.items()
        }
        assert counts == InnerCounts(4, 3 + 0 + 2 + 3, sum(r.evaluations for r in de_reports[:4]))


class TestRepairSemantics:
    """Pins what the nested repair returns on the reference problem."""

    # thin plate at top speed: expectation ~9.35, above the band
    HIGH = np.array([0.5, 0.5, 1.524, 1.53, 1.0, 0.0, 0.0, 0.1, 0.5, 0.5, 2.79, 2.8])
    # thick oblique plate at low speed: expectation below the band
    LOW = np.array([0.5, 0.5, 2.65, 2.667, 0.5, 0.5, 0.52, 0.5236, 0.5, 0.5, 2.1, 2.15])

    def test_out_of_band_trial_is_replaced_at_generation_0(self, de_reports):
        problem = paper_problem(seed=0)
        assert expectation(unflatten(self.HIGH, problem.layout), perforation_area) > 7.5
        out, failures = impose_expectation(self.HIGH[None, :], problem, [0])
        assert failures == {}
        assert [r.generations_run for r in de_reports] == [0]
        assert 5.5 <= expectation(unflatten(out[0], problem.layout), perforation_area) <= 7.5
        assert not np.array_equal(out[0], self.HIGH)

    def test_result_does_not_depend_on_the_trial(self, de_reports):
        # the initial member nearest m wins, and the trial (slot 0) is not it
        problem = paper_problem(seed=0)
        assert expectation(unflatten(self.LOW, problem.layout), perforation_area) < 5.5
        out, failures = impose_expectation(np.stack([self.HIGH, self.LOW]), problem, [3, 3])
        assert failures == {}
        assert [r.generations_run for r in de_reports] == [0, 0]
        assert np.array_equal(out[0], out[1])


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
