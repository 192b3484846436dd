import ast
import hashlib
import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ouq.measures as measures_mod
import ouq.solver as solver_mod
from ouq import (
    ChangeOverGeneration,
    DESettings,
    FeasibilityAudit,
    MeanConstraint,
    OUQProblem,
    ParamLayout,
    ballistic_limit,
    de_solve,
    event_probability,
    expectation,
    ouq_solve,
    perforation_area,
    unflatten,
)
from ouq.config import build_problem, load_config
from ouq.de import ValueBelow, de_lockstep
from ouq.errors import DomainError, InfeasibleConstrain
from ouq.measures import (
    atom_values,
    conditional_expectations_block,
    expectation_block,
    expectation_of_values,
    normalize_block,
)
from ouq.solver import (
    BAND_NUDGE,
    InnerCounts,
    _derive_inner_seed,
    build_bounds,
    constrain_params,
    cost_block,
    impose_expectation,
    shift_weights,
)

PAPER_CONFIG = Path(__file__).resolve().parents[1] / "paper.config"
PAPER_LAYOUT = ParamLayout(
    (2, 2, 2), ((1.524, 2.667), (0.0, math.pi / 6), (2.1, 2.8))
)


def paper_problem(seed=0, band=(5.5, 7.5), outer_max=500):
    return OUQProblem(
        response=perforation_area,
        layout=PAPER_LAYOUT,
        constraint=MeanConstraint(*band),
        outer=DESettings(npop=40, seed=seed, max_generations=outer_max),
        inner=DESettings(npop=20, seed=seed),
        outer_termination=ChangeOverGeneration(1e-4, 10),
    )


# the weight move leaves no row of a uniform paper.config block in this band,
# so generation 0 goes to the fallback
FALLBACK_BAND = (9.44, 9.48)


def paper_closed_form(band):
    """The best bound of the reference problem: thin-plate mass carries the
    lower mean bound, the rest sits on the thick plate at its ballistic limit."""
    return 1.0 - band[0] / perforation_area(1.524, 0.0, ballistic_limit(2.667, 0.0))


def toy_problem(response, npts=(2,), bounds=((0.0, 10.0),), band=(4.5, 5.5), seed=0, inner=None):
    return OUQProblem(
        response=response,
        layout=ParamLayout(npts, bounds),
        constraint=MeanConstraint(*band),
        outer=DESettings(npop=10, seed=seed, max_generations=100),
        inner=inner or DESettings(npop=10, seed=seed),
        outer_termination=ChangeOverGeneration(1e-6, 10),
    )


class TestMeanConstraint:
    def test_band_form(self):
        c = MeanConstraint(5.5, 7.5)
        assert c.m == pytest.approx(6.5)
        assert c.d == pytest.approx(1.0)
        assert c.band == pytest.approx((5.5, 7.5))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        places=st.integers(1, 4),
        ends=st.lists(st.integers(-10**5, 10**5), min_size=2, max_size=2, unique=True),
    )
    def test_band_keeps_its_edges(self, places, ends):
        # decimal edges, which m - d and m + d can miss by an ulp
        m1, m2 = (k / 10**places for k in sorted(ends))
        c = MeanConstraint(m1, m2)
        assert c.band == (m1, m2) and MeanConstraint.from_band(m1, m2) == c
        assert (c.m, c.d) == ((m1 + m2) / 2.0, (m2 - m1) / 2.0)

    def test_rejects_empty_band(self):
        with pytest.raises(ValueError):
            MeanConstraint(1.0, 1.0)


NAN = float("nan")


class TestNaNRejected:
    """Each type's range rule fails NaN, so a NaN setting never reaches a solve."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ChangeOverGeneration(tolerance=NAN),
            lambda: ValueBelow(NAN),
            lambda: MeanConstraint(NAN, 7.5),
            lambda: MeanConstraint(5.5, NAN),
            lambda: replace(paper_problem(), failure_tolerance=NAN),
        ],
        ids=[
            "change_tolerance", "value_below_tolerance", "band_m1", "band_m2", "failure_tolerance",
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


def costed(block, problem):
    """cost_block of a block, from its atom values."""
    return cost_block(block, atom_values(block, problem.layout, problem.response), problem)


class TestOuqCost:
    def test_all_atoms_fail(self):
        problem = paper_problem()
        # thick oblique plate at low speed: every atom is below its ballistic limit
        params = [0.5, 0.5, 2.65, 2.667, 0.5, 0.5, 0.52, 0.5236, 0.5, 0.5, 2.1, 2.15]
        assert costed(np.array([params]), problem)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_no_atom_fails(self):
        problem = paper_problem()
        # thin plate, max speed: every atom perforates
        params = [0.5, 0.5, 1.524, 1.53, 1.0, 0.0, 0.0, 0.1, 0.5, 0.5, 2.79, 2.8]
        assert costed(np.array([params]), problem)[0] == 0.0

    def test_paper_maximizer(self):
        problem = paper_problem()
        params = [0.621, 0.379, 1.524, 2.667, 1.0, 0.0, 0.0, 0.1, 1.0, 0.0, 2.2885, 2.8]
        assert costed(np.array([params]), problem)[0] == pytest.approx(-0.379, abs=1e-12)


class TestConstrainParams:
    """The constraint `ouq_solve` hands the outer DE: one generation's block."""

    def test_idempotent_when_feasible(self, de_reports):
        problem = paper_problem()
        # thin-plate weight 0.63 puts the expectation at ~5.578, inside the band
        params = np.array(
            [0.63, 0.37, 1.524, 2.667, 1.0, 0.0, 0.0, 0.1, 1.0, 0.0, 2.2885, 2.8]
        )
        out, feasible, _ = constrain_params(params[None, :], 0, problem, InnerCounts())
        assert feasible.tolist() == [True] and de_reports == []
        assert np.array_equal(out[0], params)

    def test_normalization_only(self, de_reports):
        problem = paper_problem()
        params = np.array(
            [1.26, 0.74, 1.524, 2.667, 2.0, 0.0, 0.0, 0.1, 1.0, 0.0, 2.2885, 2.8]
        )
        out, feasible, _ = constrain_params(params[None, :], 0, problem, InnerCounts())
        assert feasible.tolist() == [True]
        assert de_reports == []  # no nested run started
        assert out[0, :2] == pytest.approx([0.63, 0.37])
        assert out[0, 4:6] == pytest.approx([1.0, 0.0])
        assert out[0, 2:4].tolist() == [1.524, 2.667]  # positions untouched

    def test_output_is_fixed_point_without_inner_loop(self, de_reports):
        problem = paper_problem(seed=5, band=FALLBACK_BAND)
        rng = np.random.default_rng(99)
        bounds = build_bounds(problem.layout)
        block = rng.uniform(bounds.lower, bounds.upper, size=(20, len(bounds)))
        repaired, feasible, _ = constrain_params(block, 0, problem, InnerCounts())
        assert len(de_reports) == 20  # every trial went through the inner loop
        de_reports.clear()
        again, still, _ = constrain_params(repaired[feasible], 0, problem, InnerCounts())
        assert de_reports == []  # band already satisfied: no inner loop
        assert still.all() and again == pytest.approx(repaired[feasible], abs=1e-12)

    def test_zero_mass_rejected(self, de_reports):
        # a zero-mass row is infeasible from generation 1 on; an initial
        # population with no feasible row gets the fallback's draws
        problem = paper_problem()
        params = np.zeros(12)
        params[2:4] = 2.0
        params[10:12] = 2.5
        counts = InnerCounts()
        _, feasible, _ = constrain_params(params[None, :], 1, problem, counts)
        assert feasible.tolist() == [False] and de_reports == [] and counts == InnerCounts()
        out, feasible, _ = constrain_params(params[None, :], 0, problem, InnerCounts())
        want = impose_expectation(problem, [_derive_inner_seed(0, 0)], InnerCounts())
        assert feasible.tolist() == [True] and np.array_equal(out[0], want[0])

    def test_unreachable_band_rejected(self, de_reports):
        problem = toy_problem(
            lambda x: x,
            band=(99.0, 101.0),
            seed=2,
            inner=DESettings(npop=10, seed=2, max_generations=5),
        )
        counts = InnerCounts()
        out, feasible, _ = constrain_params(np.array([[0.5, 0.5, 4.0, 6.0]]), 0, problem, counts)
        assert feasible.tolist() == [False] and counts.failures == 1
        assert len(de_reports) == 1
        assert out[0].tolist() == [0.5, 0.5, 4.0, 6.0]  # comes back as it went in


class TestImposeExpectation:
    def test_returns_immediately_when_in_band(self, de_reports):
        # on the reference problem a member of the uniform initial population
        # already lies in the band: the draw is that member
        problem = paper_problem()
        counts = InnerCounts()
        best = impose_expectation(problem, [1], counts)
        assert best.shape == (1, 12)
        assert [r.generations_run for r in de_reports] == [0]
        assert counts == InnerCounts(runs=1, evaluations=problem.inner.npop)
        assert 5.5 <= expectation(unflatten(best[0], problem.layout), perforation_area) <= 7.5

    def test_paper_setup_reaches_band(self, de_reports):
        problem = paper_problem(seed=3, band=(6.4, 6.6))
        best = impose_expectation(problem, range(5), InnerCounts())
        assert best.shape == (5, 12)
        assert len(de_reports) == 5  # one nested run per seed
        for row in best:
            assert 6.4 <= expectation(unflatten(row, problem.layout), perforation_area) <= 6.6
            assert all(abs(f.mass() - 1.0) <= 1e-15 for f in unflatten(row, problem.layout).factors)

    def test_1d_toy(self, de_reports):
        problem = toy_problem(lambda x: x, band=(4.5, 5.5), seed=2)
        best = impose_expectation(problem, [7], InnerCounts())
        assert best.shape == (1, 4)
        assert [r.terminated_by for r in de_reports] == ["value_below"]
        assert 4.5 <= unflatten(best[0], problem.layout).factors[0].mean() <= 5.5

    def test_unreachable_band_fails(self, de_reports):
        problem = toy_problem(
            lambda x: x,
            band=(99.0, 101.0),
            seed=2,
            inner=DESettings(npop=10, seed=2, max_generations=5),
        )
        best = impose_expectation(problem, [1], InnerCounts())
        assert best.shape == (1, 4)
        assert [r.generations_run for r in de_reports] == [5]
        assert de_reports[0].opt_cost > problem.constraint.d**2
        # the run's best vector comes back; the caller's band test fails it
        assert not in_band(expectation_block(best, problem.layout, problem.response), problem)[0]


def per_row_impose(problem, seed):
    """The fallback as one single-run de_lockstep per seed, which the
    lockstep of all seeds in impose_expectation replaces: the oracle.
    Returns (vector, report, whether the vector's E passes the band test of
    constrain_params)."""
    con = problem.constraint
    layout = problem.layout

    def inner_cost(block):
        return (expectation_block(block, layout, problem.response) - con.m) ** 2

    def renormalize_weights(block, generation):
        return normalize_block(block, layout)

    (report,) = de_lockstep(
        inner_cost,
        build_bounds(layout),
        problem.inner,
        [seed],
        constrain=renormalize_weights,
        termination=ValueBelow(con.d**2),
    )
    e = expectation_block(report.opt_params[None, :], layout, problem.response)
    return report.opt_params, report, bool(in_band(e, problem)[0])


RESPONSES = [
    lambda *xs: sum(xs),
    lambda *xs: xs[0] ** 2 - 0.5 * np.tanh(xs[-1]),
]


@st.composite
def lockstep_cases(draw):
    """A small problem and the seeds of its fallback runs."""
    npts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    lows = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(npts), max_size=len(npts)))
    widths = draw(st.lists(st.floats(0.5, 5.0), min_size=len(npts), max_size=len(npts)))
    bounds = tuple((lo, lo + w) for lo, w in zip(lows, widths))
    response = draw(st.sampled_from(RESPONSES))
    # the band holds a response value, or lies far above every one
    at = [lo + draw(st.floats(0.0, 1.0)) * w for lo, w in zip(lows, widths)]
    value = float(response(*at)) + draw(st.sampled_from([0.0, 0.0, 0.0, 100.0]))
    below, above = (draw(st.sampled_from([0.01, 0.1, 0.5, 2.0])) for _ in range(2))
    inner = DESettings(npop=draw(st.integers(4, 8)), max_generations=draw(st.integers(1, 8)))
    problem = OUQProblem(
        response=response,
        layout=ParamLayout(npts, bounds),
        constraint=MeanConstraint(value - below, value + above),
        inner=inner,
    )
    k = draw(st.sampled_from([4, 6, 1, 3, 5, 2]))
    return problem, draw(st.lists(st.integers(0, 2**63), min_size=k, max_size=k))


def toy_case(band, max_generations, k=4):
    """toy_problem (x on [0, 10], two points) and k seeds for the oracle test."""
    problem = toy_problem(
        lambda x: x, band=band, inner=DESettings(npop=6, max_generations=max_generations)
    )
    return problem, list(range(10, 10 + k))


UNREACHABLE = toy_case((99.0, 101.0), 5)
EXHAUSTED = toy_case((7.0, 7.2), 4, k=8)
WIDE = toy_case((6.0, 8.0), 4)


class TestLockstepOracle:
    @settings(
        max_examples=120, deadline=None, database=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=lockstep_cases())
    @example(case=UNREACHABLE)
    @example(case=EXHAUSTED)
    def test_matches_one_de_solve_per_row(self, de_reports, case):
        problem, seeds = case
        de_reports.clear()
        counts = InnerCounts()
        best = impose_expectation(problem, seeds, counts)
        assert len(de_reports) == len(seeds)
        wanted, reached = [], []
        for seed, run in zip(seeds, de_reports):
            want, report, want_reached = per_row_impose(problem, seed)
            wanted.append(want)
            reached.append(want_reached)
            assert (run.generations_run, run.evaluations) == (
                report.generations_run, report.evaluations)
        assert np.array_equal(best, np.reshape(wanted, (len(seeds), problem.layout.param_length)))
        # the lockstep's block of vectors takes the band test as each alone
        e = expectation_block(best, problem.layout, problem.response)
        assert in_band(e, problem).tolist() == reached
        assert counts == InnerCounts(
            len(seeds),
            sum(r.generations_run for r in de_reports),
            sum(r.evaluations for r in de_reports),
        )

    @pytest.mark.parametrize(
        "case, failed_rows, generations",
        [
            (UNREACHABLE, {0, 1, 2, 3}, [5, 5, 5, 5]),
            # rows 0 and 1 stop at generation 0, row 7 leaves the lockstep at
            # generation 2, and rows 4 and 5 reach the band at the last one
            (EXHAUSTED, {2, 3, 6}, [0, 0, 4, 4, 4, 4, 4, 2]),
        ],
        ids=["unreachable", "exhausted"],
    )
    def test_explicit_cases(self, de_reports, case, failed_rows, generations):
        # the @example cases above show what they are named for
        problem, seeds = case
        best = impose_expectation(problem, seeds, InnerCounts())
        e = expectation_block(best, problem.layout, problem.response)
        assert set(np.flatnonzero(~in_band(e, problem)).tolist()) == failed_rows
        assert [r.generations_run for r in de_reports] == generations

    def test_run_that_cannot_start_fails_the_solve(self, monkeypatch, de_reports):
        # the outer generation 0 is all zero-mass rows, so the fallback runs;
        # a nested run whose initial members are all degenerate then stops
        # the whole lockstep, and ouq_solve with it, before any generation
        problem, _ = WIDE
        outer, inner = problem.outer.npop, problem.inner.npop
        calls, stuck_runs = [], []

        def degenerate_at_start(rows, layout):
            out, nonzero = normalize_block(rows, layout)
            if len(calls) == 0:  # the outer generation 0
                nonzero[:] = False
            elif len(calls) == 1:  # the nested runs' initial populations
                for run in stuck_runs:
                    nonzero[run * inner:(run + 1) * inner] = False
            calls.append(len(rows))
            return out, nonzero

        monkeypatch.setattr(solver_mod, "normalize_block", degenerate_at_start)
        # with every nested run started, the fallback repairs generation 0
        assert ouq_solve(problem).inner.runs == len(de_reports) == outer
        calls.clear()
        de_reports.clear()
        stuck_runs.append(1)
        generations = []
        with pytest.raises(InfeasibleConstrain, match="entire initial population"):
            ouq_solve(problem, trace_hook=lambda generation, *_: generations.append(generation))
        assert calls == [outer, outer * inner]
        assert de_reports == [] and generations == []


class TestRepairBlock:
    def test_near_unit_masses_are_renormalized(self, de_reports):
        # a mass slack of 1e-12 is a factor the outer DE could climb into
        problem = paper_problem()
        raw = np.array([0.63, 0.37 + 1e-12, 1.524, 2.667, 1.0, 0.0, 0.0, 0.1, 1.0, 0.0, 2.2885, 2.8])
        out, feasible, _ = constrain_params(raw[None, :], 1, problem, InnerCounts())
        assert feasible.tolist() == [True] and de_reports == []
        assert np.array_equal(out[0, :2], raw[:2] / math.fsum(raw[:2]))
        assert abs(math.fsum(out[0, :2]) - 1.0) <= 2.0**-52
        assert np.array_equal(out[0, 2:], raw[2:])  # mass-1 factors keep their bits


class TestRepairSemantics:
    """Pins what the fallback gives a trial on the reference problem."""

    # thin plate at top speed: expectation ~9.35, above the band
    HIGH = np.array([0.5, 0.5, 1.524, 1.53, 1.0, 0.0, 0.0, 0.1, 0.5, 0.5, 2.79, 2.8])
    # thick oblique plate at low speed: expectation below the band
    LOW = np.array([0.5, 0.5, 2.65, 2.667, 0.5, 0.5, 0.52, 0.5236, 0.5, 0.5, 2.1, 2.15])

    def test_out_of_band_trial_is_replaced_at_generation_0(self, de_reports):
        problem = paper_problem(seed=0)
        assert expectation(unflatten(self.HIGH, problem.layout), perforation_area) > 7.5
        out, feasible, _ = constrain_params(self.HIGH[None, :], 0, problem, InnerCounts())
        assert feasible.tolist() == [True]
        assert [r.generations_run for r in de_reports] == [0]
        assert 5.5 <= expectation(unflatten(out[0], problem.layout), perforation_area) <= 7.5
        assert not np.array_equal(out[0], self.HIGH)

    def test_result_does_not_depend_on_the_trial(self, de_reports):
        # the fallback is a draw that depends on its seed only: the same row
        # of the initial population gets the same draw
        problem = paper_problem(seed=0)
        assert expectation(unflatten(self.LOW, problem.layout), perforation_area) < 5.5
        high, low = (
            constrain_params(trial[None, :], 0, problem, InnerCounts())[0][0]
            for trial in (self.HIGH, self.LOW)
        )
        assert [r.generations_run for r in de_reports] == [0, 0]
        assert np.array_equal(high, low)
        best = impose_expectation(problem, [_derive_inner_seed(0, 0)], InnerCounts())
        assert np.array_equal(high, best[0])


@st.composite
def shift_cases(draw):
    """A problem whose band lies among the expectations of a block of
    normalized rows, so that some rows lie below it and some above."""
    npts = draw(st.sampled_from([(1,), (2,), (3, 1, 2), (2, 2, 2)]))
    lows = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(npts), max_size=len(npts)))
    widths = draw(st.lists(st.floats(0.5, 5.0), min_size=len(npts), max_size=len(npts)))
    layout = ParamLayout(npts, tuple((lo, lo + w) for lo, w in zip(lows, widths)))
    response = draw(st.sampled_from(RESPONSES))
    box = build_bounds(layout)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    block, _ = normalize_block(rng.uniform(box.lower, box.upper, size=(8, len(box))), layout)
    e = expectation_block(block, layout, response)
    q = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2)))
    lo, hi = np.quantile(e, q)
    problem = OUQProblem(
        response=response,
        layout=layout,
        constraint=MeanConstraint(lo, max(hi, lo + 1e-3)),
    )
    return problem, block, rng


def in_band(e, problem):
    lo, hi = problem.constraint.band
    return (lo <= e) & (e <= hi)


class TestShiftWeights:
    """The exact weight move that repairs out-of-band rows before the fallback."""

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(case=shift_cases())
    def test_move(self, case):
        problem, block, rng = case
        layout = problem.layout
        e = expectation_block(block, layout, problem.response)
        rows = block[~in_band(e, problem)]
        values = atom_values(rows, layout, problem.response)
        moved = shift_weights(rows, values, e[~in_band(e, problem)], problem)
        slices = layout.factor_slices()
        moved_e = expectation_block(moved, layout, problem.response)
        for row, out, e_out in zip(rows, moved, moved_e):
            for ws, xs in slices:
                assert np.array_equal(out[xs], row[xs])  # positions bit-unchanged
                assert (out[ws] >= 0.0).all()
                assert math.fsum(out[ws]) == pytest.approx(1.0, abs=1e-12)
            changed = [k for k, (ws, _) in enumerate(slices) if not np.array_equal(out[ws], row[ws])]
            assert len(changed) <= 1  # one factor moves
            if changed:
                assert in_band(e_out, problem)
            # every in-band weight vector of any one factor moves at least as far
            l1 = np.abs(out - row).sum()
            for ws, _ in slices:
                n = ws.stop - ws.start
                samples = np.vstack([np.eye(n), rng.dirichlet(np.full(n, 0.3), size=64)])
                tries = np.repeat(row[None, :], len(samples), axis=0)
                tries[:, ws] = samples
                feasible = in_band(expectation_block(tries, layout, problem.response), problem)
                if not changed:
                    assert not feasible.any()
                    continue
                assert (l1 <= np.abs(samples - row[ws]).sum(axis=1)[feasible] + 1e-6).all()

    def test_moved_weight_stays_in_the_box(self):
        # the whole mass goes to x = 1; unclipped, the normalized weights
        # (0.59, 0.5) / 1.09 would sum to 1 + 2**-52 there, above the box
        problem = toy_problem(lambda x: x, bounds=((0.0, 1.0),),
                              band=(0.9999999990000001, 1.9999999990000001))
        out, feasible, _ = constrain_params(np.array([[0.59, 0.5, 0.0, 1.0]]), 1, problem, InnerCounts())
        assert out.tolist() == [[0.0, 1.0, 0.0, 1.0]] and feasible.tolist() == [True]

    def test_repair_depends_on_the_trial(self, de_reports):
        # the opposite of TestRepairSemantics, where the nested DE maps two
        # trials to one measure: the weight move keeps each trial's positions
        problem = paper_problem(seed=0)
        trials = np.array([
            # thin and thick plate at top speed: expectation ~7.76, above the band
            [0.5, 0.5, 1.524, 2.667, 1.0, 0.0, 0.0, 0.1, 0.5, 0.5, 2.79, 2.8],
            # the same plates at low speed: expectation ~4.27, below the band
            [0.5, 0.5, 1.524, 2.667, 0.5, 0.5, 0.0, 0.1, 0.5, 0.5, 2.1, 2.15],
        ])
        out, feasible, _ = constrain_params(trials, 1, problem, InnerCounts())
        assert feasible.tolist() == [True, True] and de_reports == []
        assert not np.array_equal(out[0], out[1])
        for row, trial in zip(out, trials):
            for ws, xs in problem.layout.factor_slices():
                assert np.array_equal(row[xs], trial[xs])
        assert in_band(expectation_block(out, problem.layout, perforation_area), problem).all()


def per_factor_shift(block, values, expect, problem):
    """The reference for shift_weights: the same move computed one factor at
    a time, each on its own n_k points, without padding."""
    layout = problem.layout
    lo, hi = problem.constraint.band
    nudge = BAND_NUDGE * (hi - lo)
    up = expect < lo
    sign = np.where(up, 1.0, -1.0)[:, None]
    need = np.where(up, lo + nudge - expect, expect - (hi - nudge))[:, None]
    out = np.array(block, dtype=float)
    every = np.arange(len(block))
    padded = conditional_expectations_block(block, layout, values)
    l1s, moves = [], []
    for (ws, _), g in zip(layout.factor_slices(), padded):
        h = sign * g[:, : ws.stop - ws.start]
        dest = np.argmax(h, axis=1)
        gap = h[every, dest][:, None] - h
        order = np.argsort(-gap, axis=1, kind="stable")
        gap = np.take_along_axis(gap, order, axis=1)
        w = np.take_along_axis(block[:, ws], order, axis=1)
        gain = w * gap
        before = np.cumsum(gain, axis=1) - gain
        with np.errstate(divide="ignore", invalid="ignore"):
            take = np.where(gap > 0.0, np.clip((need - before) / gap, 0.0, w), 0.0)
        moved = take.sum(axis=1)
        weights = block[:, ws].copy()
        np.put_along_axis(weights, order, w - take, axis=1)
        weights[every, dest] = np.minimum(weights[every, dest] + moved, 1.0)
        l1s.append(np.where(gain.sum(axis=1) >= need[:, 0], 2.0 * moved, np.inf))
        moves.append(weights)
    l1s = np.stack(l1s)
    choice = np.where(np.isfinite(l1s).any(axis=0), np.argmin(l1s, axis=0), -1)
    for k, ((ws, _), weights) in enumerate(zip(layout.factor_slices(), moves)):
        out[choice == k, ws] = weights[choice == k]
    return out


@st.composite
def stacked_cases(draw):
    """Normalized rows on 1-3 axes of 1-4 points, some weights zero and the
    positions on a coarse grid (so that g ties), and a band between the
    rows' expectations: the out-of-band rows and their atom values."""
    npts = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    layout = ParamLayout(npts, ((0.0, 4.0),) * len(npts))
    response = draw(st.sampled_from(RESPONSES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    raw = np.empty((16, layout.param_length))
    for ws, xs in layout.factor_slices():
        n = ws.stop - ws.start
        nonzero = rng.uniform(size=(16, n)) < 0.7
        nonzero[np.arange(16), rng.integers(0, n, size=16)] = True  # no zero-mass factor
        raw[:, ws] = rng.uniform(size=(16, n)) * nonzero
        raw[:, xs] = rng.integers(0, 5, size=(16, n))
    block, _ = normalize_block(raw, layout)
    e = expectation_block(block, layout, response)
    lo, hi = np.quantile(e, sorted(draw(st.lists(st.floats(0.1, 0.9), min_size=2, max_size=2))))
    band = MeanConstraint(lo, max(hi, lo + 1e-3))
    problem = OUQProblem(response=response, layout=layout, constraint=band)
    rows = block[~in_band(e, problem)]
    return problem, rows, atom_values(rows, layout, response), e[~in_band(e, problem)]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=stacked_cases())
def test_stacked_move_equals_per_factor_move(case):
    problem, rows, values, e = case
    assert np.array_equal(
        shift_weights(rows, values, e, problem), per_factor_shift(rows, values, e, problem)
    )


@st.composite
def protocol_cases(draw):
    """1-3 points on each of 1-3 axes, a block of 6 trials inside the box
    of `build_bounds` as the DE clips them (uniforms of 0 and 1 included),
    a generation and a band.  The band lies among the rows' expectations,
    or, when `beyond`, above every atom value of every row, where no weight
    move reaches; at generation 0 that sends every row to the fallback."""
    npts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    lows = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(npts), max_size=len(npts)))
    widths = draw(st.lists(st.floats(0.5, 5.0), min_size=len(npts), max_size=len(npts)))
    layout = ParamLayout(npts, tuple((lo, lo + w) for lo, w in zip(lows, widths)))
    response = draw(st.sampled_from(RESPONSES))
    box = build_bounds(layout)
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=6 * len(box), max_size=6 * len(box)))
    block = box.clip(box.lower + (box.upper - box.lower) * np.reshape(u, (6, len(box))))
    beyond = draw(st.booleans())
    if beyond:
        lo = atom_values(block, layout, response).max() + draw(st.floats(1e-6, 1.0))
    else:
        e = expectation_block(normalize_block(block, layout)[0], layout, response)
        lo = np.quantile(e, draw(st.floats(0.0, 1.0)))
    band = MeanConstraint(lo, lo + draw(st.floats(1e-3, 2.0)))
    problem = OUQProblem(
        response=response,
        layout=layout,
        constraint=band,
        outer=DESettings(npop=6, seed=draw(st.integers(0, 2**16))),
        inner=DESettings(npop=4, max_generations=3),
    )
    return problem, block, draw(st.integers(0, 2)), beyond


def assert_protocol(out, feasible, box, m):
    """The constraint protocol of `de_lockstep`: an (m, d) float array with
    every row inside the box, and an (m,) boolean mask."""
    assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (m, len(box))
    assert ((box.lower <= out) & (out <= box.upper)).all()
    assert type(feasible) is np.ndarray and feasible.dtype == bool and feasible.shape == (m,)


class TestConstraintProtocol:
    """Both constraints the solver hands `de_lockstep` keep its protocol,
    which the DE relies on: it neither clips nor converts what they return."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=protocol_cases())
    # a subnormal gap in the weight move, whose quotient overflows
    @example(case=(
        OUQProblem(
            response=lambda x: x,
            layout=ParamLayout((3,), ((0.0, 1.0),)),
            constraint=MeanConstraint(1.0, 2.0),
        ),
        np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 5e-324]]),
        1,
        False,
    ))
    def test_constrain_params(self, case):
        problem, block, generation, beyond = case
        counts = InnerCounts()
        out, feasible, _ = constrain_params(block, generation, problem, counts)
        assert_protocol(out, feasible, build_bounds(problem.layout), len(block))
        if beyond and generation == 0:
            assert counts.runs == len(block)  # the fallback ran

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=protocol_cases())
    def test_normalize_block(self, case):
        # impose_expectation's constraint
        problem, block, _, _ = case
        out, feasible = normalize_block(block, problem.layout)
        assert_protocol(out, feasible, build_bounds(problem.layout), len(block))


def counted(problem):
    """The problem with its response wrapped in a recorder of the shape of
    each call's first coordinate, () for a scalar call."""
    calls = []

    def response(*xs):
        calls.append(np.shape(xs[0]))
        return problem.response(*xs)

    return replace(problem, response=response), calls


class TestOneResponsePass:
    """The repair calls the response once, at the normalized rows' atoms:
    for E, for the g of the weight move and for E of the moved rows.  It
    returns those values for the feasible rows, and the cost reads them, so
    a solve calls the response once per outer generation outside the
    fallback's nested runs, plus once for the fallback's vectors if it
    runs.  Every array call of the response goes through `atom_values`,
    and the audit shares the cost's values."""

    def test_weight_move_rows(self, de_reports):
        problem, calls = counted(paper_problem())
        block = np.array([
            [0.5, 0.5, 1.524, 2.667, 1.0, 0.0, 0.0, 0.1, 0.5, 0.5, 2.79, 2.8],  # above the band
            [0.5, 0.5, 1.524, 2.667, 0.5, 0.5, 0.0, 0.1, 0.5, 0.5, 2.1, 2.15],  # below it
            [0.5, 0.5, 1.524, 2.667, 0.5, 0.5, 0.0, 0.1, 0.5, 0.5, 2.5, 2.6],  # in it
        ])
        counts = InnerCounts()
        _, feasible, _ = constrain_params(block, 1, problem, counts)
        assert feasible.all() and de_reports == [] and counts.repair_rows == 2
        assert calls == [(3, 8)]  # 3 rows of 8 atoms

    def test_zero_mass_rows(self, de_reports):
        # the pass covers every normalized row, since a zero-mass row's
        # positions lie in the box too; such a row is never costed, but a
        # non-finite value at its atoms raises as at any other row's
        problem, calls = counted(paper_problem())
        block = np.array([
            [0.5, 0.5, 1.524, 2.667, 1.0, 0.0, 0.0, 0.1, 0.5, 0.5, 2.79, 2.8],  # above the band
            [0.5, 0.5, 1.524, 2.667, 0.5, 0.5, 0.0, 0.1, 0.5, 0.5, 2.1, 2.15],  # below it
            [0.0, 0.0, 1.6, 2.0, 0.5, 0.5, 0.0, 0.1, 0.5, 0.5, 2.5, 2.6],  # zero mass
            [0.5, 0.5, 1.524, 2.667, 0.5, 0.5, 0.0, 0.1, 0.5, 0.5, 2.5, 2.6],  # in the band
        ])
        out, feasible, values = constrain_params(block, 1, problem, InnerCounts())
        assert feasible.tolist() == [True, True, False, True] and de_reports == []
        assert calls == [(4, 8)]  # 4 rows of 8 atoms
        assert np.array_equal(values, atom_values(out[feasible], problem.layout, perforation_area))

        def nan_at_zero_mass_row(h, theta, v):  # its thicknesses occur in no other row
            return np.where(np.isin(h, (1.6, 2.0)), np.nan, perforation_area(h, theta, v))

        with pytest.raises(DomainError):
            constrain_params(block, 1, replace(problem, response=nan_at_zero_mass_row), InnerCounts())

    @pytest.mark.parametrize(
        "response",
        [lambda x: 0.0, lambda x: np.broadcast_to(0.0, np.shape(x))],
        ids=["scalar", "read_only_array"],
    )
    def test_constant_response_with_fallback_rows(self, de_reports, response):
        # the values are copied out of what the response returns, so the
        # fallback's draw can write its values over its rows
        problem = toy_problem(response, band=(-0.5, 0.5), npts=(2,), bounds=((0.0, 1.0),))
        block = np.array([[0.0, 0.0, 0.2, 0.8], [0.0, 0.0, 0.3, 0.9]])  # zero mass: no feasible row
        _, feasible, values = constrain_params(block, 0, problem, InnerCounts())
        assert feasible.tolist() == [True, True] and len(de_reports) == 2
        assert np.array_equal(values, np.zeros((2, 2)))

    def test_fallback_rows(self, monkeypatch):
        # a row the weight move cannot repair costs no further response call:
        # from generation 1 on constrain_params never calls the fallback
        problem, calls = counted(sum_problem())
        fallback_calls = []
        monkeypatch.setattr(solver_mod, "impose_expectation", lambda *args: fallback_calls.append(args))
        block = np.stack([TestFallback.IN_BAND, TestFallback.MOVABLE, TestFallback.STUCK])
        _, feasible, _ = constrain_params(block, 1, problem, InnerCounts())
        assert feasible.tolist() == [True, True, False]
        assert fallback_calls == [] and calls == [(3, 4)]  # 3 rows of 4 atoms

    @pytest.mark.parametrize("generation", [0, 1])
    def test_values_are_those_of_the_feasible_rows(self, de_reports, generation):
        # generation 1: moved, unmoved, stuck and zero-mass rows; generation 0:
        # a stuck and a zero-mass row, no feasible row, so both are drawn
        problem = sum_problem()
        if generation == 0:
            block, want = np.stack([TestFallback.STUCK, np.zeros(8)]), [True, True]
        else:
            block = np.stack([TestFallback.STUCK, TestFallback.IN_BAND, np.zeros(8), TestFallback.MOVABLE])
            want = [False, True, False, True]
        out, feasible, values = constrain_params(block, generation, problem, InnerCounts())
        assert np.array_equal(values, atom_values(out[feasible], problem.layout, problem.response))
        assert feasible.tolist() == want and len(de_reports) == 2 * (generation == 0)

    @staticmethod
    def solve_array_calls(audit=None, band=None):
        """Short paper.config solve, on its own band or on `band`: the
        result and the response's array calls, each as the set of the
        functions it was made inside, of `atom_values`,
        `impose_expectation` and `cost_block`."""
        open_calls, calls = [], []

        def inside(name, real):
            def wrapped(*args, **kwargs):
                open_calls.append(name)
                try:
                    return real(*args, **kwargs)
                finally:
                    open_calls.pop()
            return wrapped

        def response(*xs):
            if isinstance(xs[0], np.ndarray):
                calls.append(set(open_calls))
            return perforation_area(*xs)

        problem = build_problem(load_config(PAPER_CONFIG), 0)
        problem = replace(problem, response=response, outer=replace(problem.outer, max_generations=5))
        if band is not None:
            problem = replace(problem, constraint=MeanConstraint(*band))
        with pytest.MonkeyPatch.context() as patch:
            atom_values = inside("atom_values", measures_mod.atom_values)
            patch.setattr(measures_mod, "atom_values", atom_values)
            patch.setattr(solver_mod, "atom_values", atom_values)
            for name in ("impose_expectation", "cost_block"):
                patch.setattr(solver_mod, name, inside(name, getattr(solver_mod, name)))
            result = ouq_solve(problem, audit=audit)
        return calls, result

    def test_solve_calls_the_response_on_arrays_only_in_atom_values(self):
        for band in (None, FALLBACK_BAND):
            calls, _ = self.solve_array_calls(band=band)
            assert calls and all("atom_values" in inside for inside in calls)

    def test_one_call_per_generation(self):
        calls, result = self.solve_array_calls(band=FALLBACK_BAND)
        assert not any("cost_block" in inside for inside in calls)
        outer = [inside for inside in calls if "impose_expectation" not in inside]
        assert result.inner.runs == 40  # one nested run per row
        assert result.report.generations_run == 5
        # one pass per generation, and one for the fallback's vectors
        assert len(outer) == result.report.generations_run + 2

    def test_audit_adds_no_response_call(self):
        audit = FeasibilityAudit()
        with_audit, _ = self.solve_array_calls(audit)
        assert audit.evaluations > 0
        assert len(with_audit) == len(self.solve_array_calls()[0])


def sum_problem():
    """x + y on [0, 10]^2 with band [14, 16]: a row whose points all lie
    below 7 cannot reach the band by moving weight within one factor."""
    return toy_problem(
        lambda x, y: x + y, npts=(2, 2), bounds=((0.0, 10.0), (0.0, 10.0)), band=(14.0, 16.0)
    )


class TestFallback:
    STUCK = np.array([0.5, 0.5, 1.0, 2.0, 0.5, 0.5, 1.0, 2.0])  # E = 3
    MOVABLE = np.array([0.5, 0.5, 6.0, 7.0, 0.5, 0.5, 1.0, 9.5])  # E = 11.75; y = 9.5 reaches 14
    IN_BAND = np.array([0.5, 0.5, 7.0, 8.0, 0.5, 0.5, 7.0, 8.0])  # E = 15

    def test_stuck_row_beside_a_feasible_row_stays_infeasible(self, de_reports):
        # DE keeps an infeasible initial slot at +inf and later trials fill it
        problem = sum_problem()
        block = np.stack([self.IN_BAND, self.MOVABLE, self.STUCK])
        counts = InnerCounts()
        out, feasible, _ = constrain_params(block, 0, problem, counts)
        assert feasible.tolist() == [True, True, False]
        assert de_reports == [] and counts == InnerCounts(repair_rows=2)
        assert np.array_equal(out[2], self.STUCK)  # normalized, not moved

    def test_draw_outside_the_band_is_infeasible(self, de_reports):
        # E lies an ulp below the band, yet its inner cost (E - m)^2 rounds to
        # d^2, so every nested run stops at generation 0; its draw takes the
        # band test of the weight-moved rows and fails it
        problem = OUQProblem(
            response=lambda x: 0.22199999999999998 + 0.0 * x,
            layout=ParamLayout((1,), ((0.0, 1.0),)),
            constraint=MeanConstraint.from_band(0.222, 2.739),
            outer=DESettings(npop=4, seed=0, max_generations=3),
            inner=DESettings(npop=4, seed=0, max_generations=3),
        )
        with pytest.raises(InfeasibleConstrain):
            ouq_solve(problem, audit=FeasibilityAudit())
        assert [r.generations_run for r in de_reports] == [0] * 4

    @pytest.mark.parametrize("band", [(5.5, 7.5), (6.4, 6.6)], ids=["reference", "narrow_band"])
    def test_paper_seeds_start_no_nested_run(self, de_reports, band):
        # generation 0 of every seed has a feasible row after the weight move
        for seed in range(10):
            result = ouq_solve(paper_problem(seed=seed, band=band))
            assert result.inner == InnerCounts(repair_rows=result.inner.repair_rows)
            assert result.inner.repair_rows > 0 and de_reports == []

    def test_inner_seeds_only_for_fallback_rows(self, monkeypatch):
        # in ouq_solve the fallback runs once, at generation 0, when the weight
        # move leaves no row feasible: one lockstep, one inner seed per row,
        # derived from the row, and all of it before generation 0 is costed;
        # constrain_params is looked up on the module for every generation
        events, generations, lockstep_seeds = [], [], []
        real_impose, real_constrain = solver_mod.impose_expectation, solver_mod.constrain_params
        real_lockstep, real_cost = solver_mod.de_lockstep, solver_mod.cost_block

        def impose(problem, seeds, counts):
            events.append(("fallback", list(seeds)))
            return real_impose(problem, seeds, counts)

        def lockstep(cost, bounds, settings, seeds, *args, **kwargs):
            lockstep_seeds.append(len(seeds))
            return real_lockstep(cost, bounds, settings, seeds, *args, **kwargs)

        def constrain(block, generation, problem, counts):
            generations.append(generation)
            if generation == 0:
                # the weight move's verdict: at generation 1 no fallback runs
                _, feasible, _ = real_constrain(block, 1, problem, InnerCounts())
                events.append(("repair", feasible))
            return real_constrain(block, generation, problem, counts)

        def cost(*args, **kwargs):
            events.append(("cost", None))
            return real_cost(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "impose_expectation", impose)
        monkeypatch.setattr(solver_mod, "de_lockstep", lockstep)
        monkeypatch.setattr(solver_mod, "constrain_params", constrain)
        monkeypatch.setattr(solver_mod, "cost_block", cost)
        result = ouq_solve(paper_problem(seed=0, band=FALLBACK_BAND))
        kinds = [kind for kind, _ in events]
        assert kinds[:3] == ["repair", "fallback", "cost"] and kinds.count("fallback") == 1
        assert not events[0][1].any()
        assert events[1][1] == [_derive_inner_seed(0, row) for row in range(40)]
        assert lockstep_seeds == [40] and result.inner.runs == 40
        assert generations == list(range(result.report.generations_run + 1))

    @pytest.mark.parametrize("edge", [4.5, 5.5])
    @pytest.mark.parametrize("offset", [-1e-12, -1e-15, 0.0, 1e-15, 1e-12])
    def test_band_edge(self, de_reports, edge, offset):
        problem = toy_problem(lambda x: x)
        row = np.array([[0.5, 0.5, edge - 2.0 + offset, edge + 2.0]])
        e = expectation_block(row, problem.layout, problem.response)[0]
        assert abs(e - (edge + offset / 2.0)) <= 1e-14
        out, feasible, _ = constrain_params(row, 1, problem, InnerCounts())
        assert feasible.tolist() == [True] and de_reports == []
        assert in_band(expectation_block(out, problem.layout, problem.response), problem)[0]


class TestFallbackOnlyForTheInitialPopulation:
    """From generation 1 on, a trial the weight move cannot repair is
    infeasible: the nested DE repairs only the initial population."""

    def test_no_inner_seed_no_fallback(self, de_reports):
        # from generation 1 on no inner seed is derived and no nested run starts:
        # a row the weight move cannot repair comes back normalized, unchanged,
        # infeasible
        stuck = TestFallback.STUCK * [2, 2, 1, 1, 2, 2, 1, 1]  # mass 2 per factor
        block = np.stack([TestFallback.IN_BAND, TestFallback.MOVABLE, np.zeros(8), stuck])
        problem = sum_problem()
        counts = InnerCounts()
        out, feasible, _ = constrain_params(block, 1, problem, counts)
        assert feasible.tolist() == [True, True, False, False] and de_reports == []
        assert np.array_equal(out[0], TestFallback.IN_BAND)
        assert np.array_equal(out[1, :4], TestFallback.MOVABLE[:4])  # only y's weights move
        assert np.array_equal(out[1, 6:], TestFallback.MOVABLE[6:])
        assert in_band(expectation_block(out[:2], problem.layout, problem.response), problem).all()
        assert np.array_equal(out[3], TestFallback.STUCK)  # normalized, not moved
        assert counts == InnerCounts(repair_rows=2)

    @pytest.mark.parametrize("band", [(9.44, 9.48), (0.01, 0.2), (6.4, 6.6)])
    def test_extreme_bands_solve(self, band):
        # the weight move alone leaves no feasible initial member on some of
        # these seeds; the generation-0 fallback finds them, and every row
        # the outer DE costs, the fallback's too, is normalized and in band
        for seed in range(5):
            audit = FeasibilityAudit()
            result = ouq_solve(paper_problem(seed=seed, band=band), audit=audit)
            assert band[0] - 1e-6 <= result.expectation_at_maximizer <= band[1] + 1e-6
            assert audit.evaluations > 0
            assert audit.mass_violations == audit.band_violations == 0


class TestPerSeedQuality:
    """One-run solves of paper.config, seed by seed: best-of-10 would hide a
    seed that ends in a local optimum.

    Misses over seeds 0-199 depend on numpy's CPU dispatch: `reference`
    misses seed 84 under AVX512, 113 under X86_V3 and both under X86_V2;
    `narrow_band` misses none under AVX512 and seed 127 under X86_V3 and
    X86_V2.  The bounds hold on all three."""

    @pytest.mark.parametrize(
        "band, allowed", [((5.5, 7.5), 2), ((6.4, 6.6), 1)], ids=["reference", "narrow_band"]
    )
    def test_one_run_solves_reach_the_closed_form(self, band, allowed):
        closed_form = paper_closed_form(band)
        config = load_config(PAPER_CONFIG)
        misses = []
        for seed in range(200):
            problem = replace(build_problem(config, seed), constraint=MeanConstraint(*band))
            result = ouq_solve(problem)
            assert result.inner.runs == 0, seed  # no nested run on paper.config
            assert result.probability_bound <= closed_form + 1e-12, seed
            if abs(result.probability_bound - closed_form) > 0.01:
                misses.append((seed, result.probability_bound))
        assert len(misses) <= allowed, misses


BANDS = pytest.mark.parametrize(
    "band", [(5.5, 7.5), (6.4, 6.6)], ids=["reference", "narrow_band"]
)


@BANDS
@pytest.mark.parametrize("npts", [(3, 3, 3), (4, 4, 4)], ids=["3x3x3", "4x4x4"])
def test_three_points_per_axis_do_not_beat_two(band, npts):
    # with one moment constraint two points per marginal suffice
    # (Owhadi et al. 2013), so more may not find a higher bound
    layout = ParamLayout(npts, PAPER_LAYOUT.bounds_per_dim)
    for seed in range(3):
        result = ouq_solve(replace(paper_problem(seed=seed, band=band), layout=layout))
        assert result.probability_bound <= paper_closed_form(band) + 1e-12


@BANDS
def test_two_points_on_thickness_alone_reach_the_closed_form(band):
    # the maximizer needs two points on thickness only: obliquity 0 and one
    # speed, the thick plate's ballistic limit, serve both of its atoms.
    # Every seed is within 0.01 of the closed form under AVX512, X86_V3 and
    # X86_V2, and the best within 1e-5
    layout = ParamLayout((2, 1, 1), PAPER_LAYOUT.bounds_per_dim)
    closed_form = paper_closed_form(band)
    bounds = [
        ouq_solve(replace(paper_problem(seed=seed, band=band), layout=layout)).probability_bound
        for seed in range(40)
    ]
    assert [seed for seed, bound in enumerate(bounds) if not closed_form - 0.01 <= bound] == []
    assert closed_form - 1e-5 <= max(bounds) <= closed_form + 1e-12


def centred_band(width):
    return (6.5 - width / 2, 6.5 + width / 2)


class Run(NamedTuple):
    """One outer solve of the paper problem, with its model calls counted."""

    atoms: int  # at which the response was called
    bound: Optional[float]  # None if no initial trial was feasible
    feasible: int  # trials, the ones the DE costed
    trials: int  # npop per generation, generation 0 included


def atom_count(calls):
    return sum(math.prod(shape) for shape in calls)


def repaired(problem):
    """The solve with the repair, `ouq_solve`."""
    problem, calls = counted(problem)
    result = ouq_solve(problem)
    report = result.report
    trials = problem.outer.npop * (report.generations_run + 1)
    return Run(atom_count(calls), result.probability_bound, report.evaluations, trials)


def filtered(problem):
    """The solve with filtering in place of the repair: every trial is
    normalized, and one whose E lies outside the band is infeasible."""
    problem, calls = counted(problem)
    layout, (lo, hi) = problem.layout, problem.constraint.band

    def constrain(block, generation):
        out, feasible = normalize_block(block, layout)
        values = atom_values(out, layout, problem.response)
        e = expectation_of_values(out, layout, values)
        feasible &= (lo <= e) & (e <= hi)
        return out, feasible, values[feasible]

    try:
        report = de_solve(
            lambda block, values: cost_block(block, values, problem),
            build_bounds(layout),
            problem.outer,
            constrain,
            problem.outer_termination,
            vectorized=True,
        )
    except InfeasibleConstrain:
        return Run(atom_count(calls), None, 0, problem.outer.npop)
    trials = problem.outer.npop * (report.generations_run + 1)
    return Run(atom_count(calls), -report.opt_cost, report.evaluations, trials)


class TestRepairAgainstFiltering:
    """arXiv:1202.1055: constraints imposed on a discrete set keep the model
    evaluations from blowing up, where filtering, which invalidates the
    trials outside the constraints, breaks down.  Seeds 0-39 of the paper
    problem, bands centred on 6.5; README's table of six widths comes from
    `PYTHONPATH=src python tests/test_solver.py`.

    Under AVX512, X86_V3 and X86_V2 the repair is within 4.3e-3 of the
    closed form on every seed at widths 2, 0.02 and 2e-5, and its atoms per
    solve fall from 9 952-10 384 at width 2 to 8 376-8 448 at 2e-5.  The
    filter cannot start on 39 of the 40 seeds at width 0.02 on all three."""

    def test_the_repair_hits_every_seed_with_no_more_calls(self):
        atoms = {}
        for width in (2.0, 0.02, 2e-5):
            band = centred_band(width)
            closed_form = paper_closed_form(band)
            runs = [repaired(paper_problem(seed=seed, band=band)) for seed in range(40)]
            for seed, run in enumerate(runs):
                assert closed_form - 0.01 <= run.bound <= closed_form + 1e-12, (width, seed)
            atoms[width] = sum(run.atoms for run in runs)
        assert atoms[2e-5] <= atoms[2.0], atoms

    def test_the_filter_cannot_start_in_a_narrow_band(self):
        runs = [filtered(paper_problem(seed=seed, band=centred_band(0.02))) for seed in range(40)]
        assert sum(run.bound is None for run in runs) >= 39


def markov_problem(c, band, npts, seed, tol=0.0, generations=None):
    """f = max(0, x - c) y (1 + z) on [0, 1]^3, so sup f = 2(1 - c).  The best
    bound on P(f <= tol) under E f >= m1 is the Markov-type (sup - m1)/(sup - tol)
    (Owhadi et al. 2013), attained by x in {c + tol/2, 1}, y = z = 1.  With
    `generations` the outer DE runs exactly that many, with no termination rule."""
    return OUQProblem(
        response=lambda x, y, z: np.maximum(0.0, x - c) * y * (1.0 + z),
        layout=ParamLayout(npts, ((0.0, 1.0),) * 3),
        constraint=MeanConstraint(*band),
        failure_tolerance=tol,
        outer=DESettings(npop=40, seed=seed, max_generations=generations or 3000),
        inner=DESettings(npop=20, seed=seed),
        outer_termination=None if generations else ChangeOverGeneration(1e-4, 10),
    )


@st.composite
def markov_cases(draw):
    """(c, band, layout with at least 2 points on x, seed) of markov_problem."""
    c = draw(st.floats(0.0, 0.8))
    sup = 2.0 * (1.0 - c)
    m1 = draw(st.floats(0.05, 0.9)) * sup
    m2 = m1 + draw(st.floats(0.01, 0.5)) * (sup - m1)
    npts = (draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return c, (m1, m2), npts, draw(st.integers(0, 2**16))


MARKOV_PINS = (
    (319, 12035, 640, 1594, 44670, 8791, 0),
    0.3076688642118099,
    "fb449a32e16553adaaf583fd74cf8dd146f7436eda641081ec191155ca86ac29",
)


class TestMarkovOracle:
    """A second closed form, beside the reference problem's 0.3788."""

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(case=markov_cases())
    def test_zero_tolerance_reaches_the_optimum(self, case):
        c, band, npts, seed = case
        sup = 2.0 * (1.0 - c)
        optimum = (sup - band[0]) / sup
        bound = ouq_solve(markov_problem(c, band, npts, seed)).probability_bound
        assert optimum - 1e-6 <= bound <= optimum + 1e-12

    @pytest.mark.parametrize("seed", [0, 2])
    def test_positive_tolerance_never_beats_the_optimum(self, seed):
        # a factor mass left at 1 + 1e-9 let these seeds end 1e-9 above it
        problem = markov_problem(0.3, (0.5, 0.7), (2, 2, 2), seed, tol=0.05, generations=300)
        result = ouq_solve(problem)
        assert result.probability_bound <= (1.4 - 0.5) / (1.4 - 0.05) + 1e-12
        assert max(abs(f.mass() - 1.0) for f in result.maximizer.factors) <= 1e-15

    def test_solves_pinned_on_every_cpu(self):
        # the Markov response uses only max, -, * and +, so unlike the paper's
        # surrogate its bits, and those of the whole solve, do not depend on
        # numpy's CPU dispatch: one set of values holds on every target.  On
        # band [1.0, 1.1] some solves start the fallback and some do not.
        # Pinned: the counts summed over the 20 solves (generations /
        # evaluations / inner runs / inner generations / inner evaluations /
        # repair_rows / inner failures), the best bound, and a digest of
        # every solve's counts, bound and trace rows.
        totals, best, sha = np.zeros(7, dtype=int), 0.0, hashlib.sha256()
        for npts in [(2, 2, 2), (3, 2, 1)]:
            for tol in (0.0, 0.1):
                for seed in range(5):
                    result = ouq_solve(markov_problem(0.3, (1.0, 1.1), npts, seed, tol=tol))
                    report, inner = result.report, result.inner
                    counts = (
                        report.generations_run, report.evaluations, inner.runs,
                        inner.generations, inner.evaluations, inner.repair_rows, inner.failures,
                    )
                    totals += counts
                    best = max(best, result.probability_bound)
                    sha.update(repr((npts, tol, seed, counts, result.probability_bound)).encode())
                    for rec in report.trace:
                        sha.update(np.append(rec.best_cost, rec.best_params).tobytes())
        assert tuple(totals.tolist()) == MARKOV_PINS[0]
        assert best == MARKOV_PINS[1]
        assert sha.hexdigest() == MARKOV_PINS[2]


MATRIX_PRODUCTS = {"matmul", "dot", "einsum", "linalg"}


def test_src_makes_no_matrix_product():
    # a BLAS kernel rounds as the CPU it picks, so a product would tie the
    # pins to the OpenBLAS core type; only attributes of np and numpy count,
    # since other receivers are the package's own objects
    found = []
    for path in sorted(Path(solver_mod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in MATRIX_PRODUCTS
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                found.append((path.name, node.lineno, node.attr))
    assert found == []


def scaled(problem, factor):
    """The problem with the response, the band and failure_tolerance times `factor`."""
    response, con = problem.response, problem.constraint
    return replace(
        problem,
        response=lambda *xs: factor * response(*xs),
        constraint=MeanConstraint(factor * con.lower, factor * con.upper),
        failure_tolerance=factor * problem.failure_tolerance,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: paper_problem(seed=seed),
        lambda seed: paper_problem(seed=seed, band=(6.4, 6.6)),
        lambda seed: markov_problem(0.3, (0.5, 0.7), (2, 2, 2), seed, tol=0.05),
    ],
    ids=["reference", "narrow_band", "markov"],
)
def test_power_of_two_scaling_is_exact(make):
    # times a power of two every response value, expectation, band edge and
    # squared inner cost is exact, so the solve takes the same path bit by bit
    for seed in range(3):
        problem = make(seed)
        want = ouq_solve(problem)
        for factor in (2.0, 0.25):
            got = ouq_solve(scaled(problem, factor))
            assert np.array_equal(got.report.opt_params, want.report.opt_params)
            assert got.probability_bound == want.probability_bound
            assert got.report.evaluations == want.report.evaluations
            assert got.inner == want.inner


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
        failure = lambda *xs: abs(problem.response(*xs)) <= problem.failure_tolerance
        assert result.probability_bound == pytest.approx(
            event_probability(result.maximizer, failure), abs=1e-12
        )
        assert 0.0 <= result.probability_bound <= 1.0
        assert 5.5 - 1e-6 <= result.expectation_at_maximizer <= 7.5 + 1e-6

    def test_determinism(self):
        a = ouq_solve(paper_problem(seed=1, outer_max=25))
        b = ouq_solve(paper_problem(seed=1, outer_max=25))
        assert a.probability_bound == b.probability_bound
        assert np.array_equal(a.report.opt_params, b.report.opt_params)
        assert a.report.evaluations == b.report.evaluations

    def test_numpy_integer_points_per_axis_solve_as_ints(self):
        problem = paper_problem(seed=1, outer_max=25)
        layout = ParamLayout(
            tuple(map(np.int64, PAPER_LAYOUT.npts_per_dim)), PAPER_LAYOUT.bounds_per_dim
        )
        a, b = ouq_solve(problem), ouq_solve(replace(problem, layout=layout))
        assert a.probability_bound == b.probability_bound
        assert np.array_equal(a.report.opt_params, b.report.opt_params)

    def test_kernels_never_hash_the_layout(self, monkeypatch):
        # the kernels' index plans are keyed by points per axis, a tuple of
        # ints; the layout's dataclass hash runs in Python on every call
        hashed = []
        monkeypatch.setattr(ParamLayout, "__hash__", lambda self: hashed.append(self) or 0)
        problem = build_problem(load_config(PAPER_CONFIG), 0)
        result = ouq_solve(replace(problem, outer=replace(problem.outer, max_generations=5)))
        assert result.report.generations_run == 5 and hashed == []


if __name__ == "__main__":
    # README's table of repair against filtering, seeds 0-39 per width
    print("| band width | repair: atoms per solve | hits | feasible trials "
          "| filter: atoms per solve | hits | cannot start | feasible trials |")
    print("|---|---|---|---|---|---|---|---|")
    for width in ("2", "0.2", "0.02", "2e-3", "2e-4", "2e-5"):
        band = centred_band(float(width))
        closed_form = paper_closed_form(band)
        cells = [width]
        for solve in (repaired, filtered):
            runs = [solve(paper_problem(seed=seed, band=band)) for seed in range(40)]
            hits = sum(r.bound is not None and abs(r.bound - closed_form) <= 0.01 for r in runs)
            cells += [f"{sum(r.atoms for r in runs) / len(runs):,.0f}", f"{hits}/{len(runs)}"]
            if solve is filtered:
                cells.append(f"{sum(r.bound is None for r in runs)}/{len(runs)}")
            share = sum(r.feasible for r in runs) / sum(r.trials for r in runs)
            cells.append(f"{share:.1%}")
        print("| " + " | ".join(cells) + " |")
