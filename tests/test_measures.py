import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouq import (
    DiscreteMeasure,
    ParamLayout,
    ballistic_limit,
    event_probability,
    expectation,
    flatten,
    normalize,
    pack,
    perforation_area,
    set_mean,
    set_range,
    unflatten,
    unpack,
)
from ouq.errors import DomainError, ZeroMassMeasure
from ouq.measures import (
    SupportPoint,
    atom_values,
    conditional_expectations_block,
    expectation_block,
    expectation_of_values,
    factor_masses,
    layout_plan,
    normalize_block,
)


def dm(weights, positions, lower=-10.0, upper=10.0):
    return DiscreteMeasure.from_arrays(weights, positions, lower, upper)


def brute_force_expectation(p, f):
    """Independent oracle: explicit recursion over factor points."""

    def rec(i, w, xs):
        if i == len(p.factors):
            return w * f(*xs)
        total = 0.0
        for sp in p.factors[i].points:
            total += rec(i + 1, w * sp.weight, xs + [sp.position])
        return total

    return rec(0, 1.0, [])


def brute_force_probability(p, predicate):
    def rec(i, w, xs):
        if i == len(p.factors):
            return w if predicate(*xs) else 0.0
        total = 0.0
        for sp in p.factors[i].points:
            total += rec(i + 1, w * sp.weight, xs + [sp.position])
        return total

    return rec(0, 1.0, [])


def random_measure(rng, max_pts=4, lo=-2.0, hi=3.0, normalized=False):
    n = int(rng.integers(1, max_pts + 1))
    w = rng.uniform(0.05, 1.0, n)
    if normalized:
        w = w / w.sum()
    x = rng.uniform(lo, hi, n)
    return dm(w, x, lo, hi)


class TestSupportPoint:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            SupportPoint(-0.1, 0.0)

    def test_rejects_non_finite_position(self):
        with pytest.raises(ValueError):
            SupportPoint(1.0, math.inf)


class TestDiscreteMeasure:
    def test_derived_quantities(self):
        m = dm([0.25, 0.75], [0.0, 4.0])
        assert m.npts() == 2
        assert m.mass() == pytest.approx(1.0, abs=1e-15)
        assert m.mean() == pytest.approx(3.0, abs=1e-12)
        assert m.range() == pytest.approx(4.0, abs=1e-15)

    def test_requires_points(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((), 0.0, 1.0)

    def test_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            dm([1.0], [0.5], lower=1.0, upper=1.0)

    def test_mean_of_zero_mass_measure(self):
        with pytest.raises(ZeroMassMeasure):
            dm([0.0, 0.0], [0.0, 1.0]).mean()


class TestNormalize:
    def test_uniform_rescale(self):
        m = normalize(dm([2.0, 2.0], [0.0, 1.0]))
        assert m.weights() == pytest.approx([0.5, 0.5])
        assert m.coords() == (0.0, 1.0)

    def test_identity_case(self):
        m = normalize(dm([1.0], [3.0]))
        assert m.weights() == (1.0,)
        assert m.coords() == (3.0,)

    def test_mean_preserved(self):
        before = dm([0.2, 0.6], [-1.0, 1.0])
        assert before.mean() == pytest.approx(0.5, abs=1e-12)
        after = normalize(before)
        assert after.weights() == pytest.approx([0.25, 0.75])
        assert after.mean() == pytest.approx(0.5, abs=1e-12)

    def test_zero_mass(self):
        with pytest.raises(ZeroMassMeasure):
            normalize(dm([0.0, 0.0], [0.0, 1.0]))


class TestSetMean:
    def test_uniform_translation(self):
        m = set_mean(dm([0.25, 0.75], [0.0, 4.0]), 2.0)
        assert m.coords() == pytest.approx([-1.0, 3.0])
        assert m.weights() == (0.25, 0.75)
        assert m.range() == pytest.approx(4.0)

    def test_identity(self):
        before = dm([0.3, 0.7], [1.0, 2.0])
        after = set_mean(before, before.mean())
        assert after.coords() == pytest.approx(before.coords(), abs=1e-15)

    def test_offset_applied_to_all_points(self):
        m = set_mean(dm([0.5, 0.5], [1.0, 3.0]), 5.0)
        assert m.coords() == pytest.approx([4.0, 6.0])

    def test_may_leave_bounds_unclipped(self):
        m = set_mean(dm([1.0], [9.0], lower=0.0, upper=10.0), 20.0)
        assert m.coords() == (20.0,)


class TestSetRange:
    def test_scale_about_mean(self):
        m = set_range(dm([0.5, 0.5], [0.0, 2.0]), 4.0)
        assert m.coords() == pytest.approx([-1.0, 3.0])
        assert m.mean() == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        before = dm([0.5, 0.5], [0.0, 2.0])
        assert set_range(before, before.range()) is before

    def test_zero_range_noop(self):
        m = set_range(dm([1.0, 1.0], [5.0, 5.0]), 0.0)
        assert m.coords() == (5.0, 5.0)

    def test_degenerate_range(self):
        with pytest.raises(ValueError, match="point mass"):
            set_range(dm([1.0, 1.0], [5.0, 5.0]), 1.0)


class TestPackUnpack:
    def test_single_factor(self):
        m = dm([1.0], [0.0])
        p = pack([m])
        assert len(p.factors) == 1

    def test_order_preserved(self):
        ms = [dm([1.0], [float(i)]) for i in range(3)]
        p = pack(ms)
        assert unpack(p) == ms

    def test_round_trip(self):
        p = pack([dm([0.3, 0.7], [1.0, 2.0]), dm([1.0], [5.0])])
        assert pack(unpack(p)) == p

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one factor"):
            pack([])


class TestFlattenUnflatten:
    def test_layout_definition(self):
        p = pack([dm([0.3, 0.7], [1.0, 2.0]), dm([1.0], [5.0])])
        assert flatten(p).tolist() == [0.3, 0.7, 1.0, 2.0, 1.0, 5.0]

    def test_single_dirac(self):
        assert flatten(pack([dm([1.0], [3.0])])).tolist() == [1.0, 3.0]

    def test_unflatten_two_factor(self):
        layout = ParamLayout((2, 1), ((-10.0, 10.0), (-10.0, 10.0)))
        p = unflatten([0.3, 0.7, 1.0, 2.0, 1.0, 5.0], layout)
        assert p.factors[0].weights() == (0.3, 0.7)
        assert p.factors[0].coords() == (1.0, 2.0)
        assert p.factors[1].coords() == (5.0,)

    def test_paper_layout_length(self):
        layout = ParamLayout(
            (2, 2, 2), ((1.524, 2.667), (0.0, math.pi / 6), (2.1, 2.8))
        )
        assert layout.param_length == 12

    @pytest.mark.parametrize(
        "n", [2.5, 2.0, True, 0], ids=["fraction", "float", "bool", "zero"]
    )
    def test_points_per_axis_are_positive_integers(self, n):
        # 2.5 would fail only in the solve, and True would run as one point
        with pytest.raises(ValueError, match=r"npts_per_dim\[1\] must be an integer >= 1"):
            ParamLayout((2, n), ((0.0, 1.0), (0.0, 1.0)))

    def test_layout_needs_an_axis(self):
        # an empty layout would fail only in the solve's kernels
        with pytest.raises(ValueError, match="at least one axis"):
            ParamLayout((), ())

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), (1.0, 0.0)],
        ids=["inf_upper", "inf_lower", "nan_lower", "nan_upper", "lower_above_upper"],
    )
    def test_axis_bounds_are_finite_and_ordered(self, lo, hi):
        # an infinite bound would fail only later, in Bounds.from_pairs
        with pytest.raises(ValueError, match=r"bounds_per_dim\[1\]: need finite lower < upper"):
            ParamLayout((2, 2), ((0.0, 1.0), (lo, hi)))

    def test_length_mismatch(self):
        layout = ParamLayout(
            (2, 2, 2), ((1.524, 2.667), (0.0, math.pi / 6), (2.1, 2.8))
        )
        with pytest.raises(ValueError, match="expected 12 parameters"):
            unflatten(list(range(11)), layout)

    def test_round_trip(self):
        p = pack([dm([0.3, 0.7], [1.0, 2.0]), dm([1.0], [5.0])])
        assert unflatten(flatten(p), p.layout()) == p


class TestExpectation:
    def test_single_atom_product(self):
        p = pack([dm([1.0], [1.5]), dm([1.0], [-2.0]), dm([1.0], [0.5])])
        f = lambda a, b, c: a * b + c
        assert expectation(p, f) == pytest.approx(f(1.5, -2.0, 0.5), abs=1e-15)

    def test_additive_function_sums_marginal_means(self):
        rng = np.random.default_rng(7)
        factors = [random_measure(rng, max_pts=2, normalized=True) for _ in range(3)]
        p = pack(factors)
        got = expectation(p, lambda x, y, z: x + y + z)
        want = sum(f.mean() for f in factors)
        assert got == pytest.approx(want, abs=1e-12)
        # and against the 8-term brute-force enumeration
        assert got == pytest.approx(
            brute_force_expectation(p, lambda x, y, z: x + y + z), abs=1e-12
        )

    def test_paper_maximizer_hits_lower_mean_bound(self):
        v = 2.2885
        p = pack(
            [
                dm([0.621, 0.379], [1.524, 2.667], 1.524, 2.667),
                dm([1.0], [0.0], 0.0, math.pi / 6),
                dm([1.0], [v], 2.1, 2.8),
            ]
        )
        want = 0.621 * perforation_area(1.524, 0.0, v)  # 0.379 atom sits at H = 0
        got = expectation(p, perforation_area)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(5.5, abs=0.01)

    @pytest.mark.parametrize("integral", [expectation, event_probability])
    def test_rejects_unnormalized_factor(self, integral):
        p = pack([dm([2.0], [0.0])])
        with pytest.raises(ValueError, match="normalize before integrating"):
            integral(p, lambda x: x > 0.0)


class TestEventProbability:
    def test_always_true(self):
        p = pack([dm([0.5, 0.5], [0.0, 1.0]), dm([1.0], [2.0])])
        assert event_probability(p, lambda *xs: True) == pytest.approx(1.0, abs=1e-12)

    def test_always_false(self):
        p = pack([dm([0.5, 0.5], [0.0, 1.0])])
        assert event_probability(p, lambda *xs: False) == 0.0

    def test_paper_maximizer_non_perforation_mass(self):
        v = 2.2885  # below the ballistic limit of the thick plate
        assert v < ballistic_limit(2.667, 0.0)
        p = pack(
            [
                dm([0.621, 0.379], [1.524, 2.667], 1.524, 2.667),
                dm([1.0], [0.0], 0.0, math.pi / 6),
                dm([1.0], [v], 2.1, 2.8),
            ]
        )
        got = event_probability(p, lambda h, t, s: perforation_area(h, t, s) == 0.0)
        assert got == pytest.approx(0.379, abs=1e-12)


class TestRandomizedProperties:
    N_CASES = 300  # the full 1000-case sweep runs in the acceptance suite

    def test_round_trips(self):
        rng = np.random.default_rng(42)
        for _ in range(self.N_CASES):
            ndim = int(rng.integers(1, 5))
            p = pack([random_measure(rng) for _ in range(ndim)])
            assert unflatten(flatten(p), p.layout()) == p
            assert pack(unpack(p)) == p

    def test_normalize_preserves_mean_and_range(self):
        rng = np.random.default_rng(43)
        for _ in range(self.N_CASES):
            m = random_measure(rng)
            n = normalize(m)
            assert abs(n.mass() - 1.0) <= 1e-12
            assert n.mean() == pytest.approx(m.mean(), rel=1e-12, abs=1e-12)
            assert n.range() == pytest.approx(m.range(), rel=1e-12)

    def test_set_mean_preserves_mass_and_range(self):
        rng = np.random.default_rng(44)
        for _ in range(self.N_CASES):
            m = random_measure(rng)
            target = float(rng.uniform(-5, 5))
            s = set_mean(m, target)
            assert s.mean() == pytest.approx(target, abs=1e-12)
            assert s.mass() == m.mass()
            assert s.range() == pytest.approx(m.range(), abs=1e-12)

    def test_set_range_preserves_mass_and_mean(self):
        rng = np.random.default_rng(45)
        for _ in range(self.N_CASES):
            m = random_measure(rng, max_pts=4)
            if m.range() == 0.0:
                continue
            target = float(rng.uniform(0.1, 8.0))
            s = set_range(m, target)
            assert s.range() == pytest.approx(target, rel=1e-12)
            assert s.mass() == m.mass()
            assert s.mean() == pytest.approx(m.mean(), rel=1e-12, abs=1e-12)

    def test_integration_matches_brute_force(self):
        rng = np.random.default_rng(46)
        f = lambda *xs: math.sin(sum(xs)) + math.prod(xs)
        pred = lambda *xs: sum(xs) > 0.5
        for _ in range(self.N_CASES):
            ndim = int(rng.integers(1, 5))
            p = pack([random_measure(rng, normalized=True) for _ in range(ndim)])
            assert expectation(p, f) == pytest.approx(
                brute_force_expectation(p, f), abs=1e-12
            )
            assert event_probability(p, pred) == pytest.approx(
                brute_force_probability(p, pred), abs=1e-12
            )

    def test_probability_in_unit_interval_and_monotone(self):
        rng = np.random.default_rng(47)
        a = lambda *xs: sum(xs) > 1.0
        b = lambda *xs: xs[0] < 0.0
        for _ in range(self.N_CASES):
            ndim = int(rng.integers(1, 4))
            p = pack([random_measure(rng, normalized=True) for _ in range(ndim)])
            pa = event_probability(p, a)
            pab = event_probability(p, lambda *xs: a(*xs) or b(*xs))
            assert -1e-9 <= pa <= 1.0 + 1e-9
            assert pa <= pab + 1e-12


@given(
    weights=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=5),
    positions=st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=5),
    target=st.floats(-100.0, 100.0),
)
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
def test_set_mean_hits_target_hypothesis(weights, positions, target):
    m = dm(weights, positions[: len(weights)], lower=-100.0, upper=100.0)
    assert set_mean(m, target).mean() == pytest.approx(target, abs=1e-9)


# Block kernels against the per-measure functions, which are the reference.
# `poly` uses only + and *, which numpy rounds exactly as Python does, so its
# block expectation must be bit-equal; `smooth` goes through numpy's
# transcendental functions, whose array and scalar forms may differ in the
# last bit.


def poly(*xs):
    return functools.reduce(lambda acc, x: acc * x + 0.5 * x, xs, 1.25)


def smooth(*xs):
    return np.tanh(xs[0]) + np.exp(-xs[-1] * xs[-1])


def below_line(*xs):
    return xs[0] + 2.0 * xs[-1] > 0.5


@st.composite
def unnormalized_blocks(draw):
    npts = draw(st.sampled_from([(2, 2, 2), (3, 1, 2), (1,), (3, 3, 2)]))
    layout = ParamLayout(npts, tuple((-5.0, 5.0) for _ in npts))
    weight = st.floats(1e-3, 1.0)
    position = st.floats(-5.0, 5.0)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = []
        for n in npts:
            row += draw(st.lists(weight, min_size=n, max_size=n))
            row += draw(st.lists(position, min_size=n, max_size=n))
        rows.append(row)
    return layout, np.array(rows)


@given(unnormalized_blocks())
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
def test_block_kernels_match_per_measure_functions(case):
    layout, raw = case
    products = [pack([normalize(f) for f in unpack(unflatten(row, layout))]) for row in raw]
    block, feasible = normalize_block(raw, layout)
    assert feasible.all()
    assert np.array_equal(block, np.array([flatten(p) for p in products]))
    assert factor_masses(raw, layout).tolist() == [
        [f.mass() for f in unpack(unflatten(row, layout))] for row in raw
    ]
    assert expectation_block(block, layout, poly).tolist() == [
        expectation(p, poly) for p in products
    ]
    assert expectation_block(block, layout, below_line).tolist() == [
        event_probability(p, below_line) for p in products
    ]
    assert expectation_block(block, layout, smooth) == pytest.approx(
        [expectation(p, smooth) for p in products], rel=1e-12, abs=1e-12
    )
    # g_kj is E[poly] with factor k replaced by a Dirac mass at its point j;
    # the factors with fewer points than the largest are padded with zeros
    npts = layout.npts_per_dim
    padded = conditional_expectations_block(block, layout, atom_values(block, layout, poly))
    assert padded.shape == (len(npts), len(raw), max(npts))
    for k, n in enumerate(npts):
        g = padded[k, :, :n]
        assert (padded[k, :, n:] == 0.0).all()
        want = [
            [
                expectation(pack(p.factors[:k] + (dm([1.0], [x]),) + p.factors[k + 1:]), poly)
                for x in p.factors[k].coords()
            ]
            for p in products
        ]
        assert np.allclose(g, want, rtol=1e-12, atol=1e-12)


class TestBlockKernels:
    LAYOUT = ParamLayout((2, 1), ((0.0, 4.0), (0.0, 4.0)))
    BLOCK = np.array([[0.25, 0.75, 1.0, 3.0, 1.0, 2.0], [0.5, 0.5, 0.0, 4.0, 1.0, 1.0]])

    def test_atoms_in_coords_order(self):
        def seen(x, y):
            seen.args = (x.copy(), y.copy())
            return x + 10.0 * y

        expectation_block(self.BLOCK, self.LAYOUT, seen)
        assert seen.args[0].tolist() == [[1.0, 3.0], [0.0, 4.0]]
        assert seen.args[1].tolist() == [[2.0, 2.0], [1.0, 1.0]]

    def test_non_finite_response_raises(self):
        def nan_above_two(x, y):
            return np.where(x > 2.0, np.nan, x)

        with pytest.raises(DomainError, match=r"nan at \(3.0, 2.0\)"):
            expectation_block(self.BLOCK, self.LAYOUT, nan_above_two)

    def test_zero_mass_row_is_infeasible(self):
        raw = self.BLOCK.copy()
        raw[1, :2] = 0.0
        out, feasible = normalize_block(raw, self.LAYOUT)
        assert feasible.tolist() == [True, False]
        assert np.array_equal(out[0], self.BLOCK[0])

    def test_atoms_are_added_in_order(self):
        # nine atoms of weight 1: numpy's pairwise sum of these values is 5.0,
        # expectation()'s sum in atom order 6.0
        layout = ParamLayout((3, 3), ((0.0, 1.0), (0.0, 1.0)))
        block = np.array([[1.0, 1.0, 1.0, 0.0, 0.5, 1.0] * 2])
        values = np.array([[1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
        assert expectation_of_values(block, layout, values).tolist() == [6.0]

    @pytest.mark.parametrize("npts", [(2, 2, 2), (3, 3, 2), (3, 3, 3), (4, 2, 3)])
    def test_conditional_expectations_add_in_atom_order(self, npts):
        # g_kj term by term in Python floats: per atom whose factor-k point is
        # j, in atom order, the other factors' weights multiplied in factor
        # order, times the atom's value, the terms added left to right.  A
        # matrix product may add them in another order, which depends on the
        # BLAS kernel
        layout = ParamLayout(npts, ((0.0, 1.0),) * len(npts))
        rng = np.random.default_rng(len(npts) * sum(npts))
        block = rng.random((40, layout.param_length))
        values = 10.0 * rng.random((40, math.prod(npts)))
        weights = [block[:, ws].tolist() for ws, _ in layout.factor_slices()]
        atoms = list(itertools.product(*map(range, npts)))
        want = [[[0.0] * max(npts) for _ in block] for _ in npts]  # 0.0 past n_k
        for k in range(len(npts)):
            for row, value in enumerate(values.tolist()):
                for a, atom in enumerate(atoms):
                    others = [weights[i][row][x] for i, x in enumerate(atom) if i != k]
                    # 0.0 + t is t for the nonnegative terms here
                    want[k][row][atom[k]] += math.prod(others) * value[a]
        assert conditional_expectations_block(block, layout, values).tolist() == want


class TestLayoutPlan:
    def test_keyed_by_points_per_axis(self):
        a = ParamLayout((2, 1), ((0.0, 4.0), (0.0, 4.0)))
        b = ParamLayout((2, 1), ((-1.0, 1.0), (2.0, 3.0)))
        assert layout_plan(a.npts_per_dim) is layout_plan(b.npts_per_dim)

    def test_arrays_are_read_only(self):
        plan = layout_plan((3, 1, 2))
        arrays = [a for a in plan if isinstance(a, np.ndarray)]
        assert len(arrays) == 9
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
