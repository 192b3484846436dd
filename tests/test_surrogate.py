import math

import numpy as np
import pytest

from ouq import ballistic_limit, perforation_area
from ouq.errors import DomainError
from ouq.surrogate import DEFAULT_PARAMS, MM_PER_MIL, SurrogateParams, mils_to_mm

# The reference configuration's axis box.
BOX_H = (1.524, 2.667)  # mm
BOX_THETA = (0.0, math.pi / 6)  # rad
BOX_V = (2.1, 2.8)  # km/s


class TestBallisticLimit:
    def test_thick_plate_normal_impact(self):
        assert ballistic_limit(2.667, 0.0) == pytest.approx(2.2885, abs=0.0005)

    def test_thin_plate_normal_impact(self):
        # direct evaluation of 0.5794 * 1.524**1.4004
        assert ballistic_limit(1.524, 0.0) == pytest.approx(
            0.5794 * 1.524**1.4004, abs=1e-12
        )
        assert ballistic_limit(1.524, 0.0) == pytest.approx(1.0453, abs=0.0005)

    def test_oblique_impact_raises_limit(self):
        for h in (1.524, 2.0, 2.667):
            assert ballistic_limit(h, math.pi / 6) > ballistic_limit(h, 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ballistic_limit(0.0, 0.0)
        with pytest.raises(DomainError):
            ballistic_limit(2.0, math.pi / 2)

    @pytest.mark.parametrize(
        "h, theta, message",
        [
            (0.0, 0.0, "plate thickness must be positive, got 0.0"),
            (-1.0, 0.0, "plate thickness must be positive, got -1.0"),
            (math.nan, 0.0, "plate thickness must be positive, got nan"),
            # thickness is tested first
            (0.0, math.pi / 2, "plate thickness must be positive, got 0.0"),
            (2.0, -0.1, r"obliquity must lie in \[0, pi/2\), got -0.1"),
            (2.0, math.pi / 2, r"obliquity must lie in \[0, pi/2\), got 1.5707963267948966"),
            (2.0, math.nan, r"obliquity must lie in \[0, pi/2\), got nan"),
        ],
        ids=["zero", "negative", "nan_thickness", "both", "below_0", "pi_over_2", "nan_obliquity"],
    )
    def test_domain_error_messages(self, h, theta, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            ballistic_limit(h, theta)


class TestPerforationArea:
    def test_zero_exactly_at_ballistic_limit(self):
        for h, theta in [(1.524, 0.0), (2.667, 0.0), (2.0, 0.3)]:
            v_bl = ballistic_limit(h, theta)
            assert perforation_area(h, theta, v_bl) == 0.0

    def test_thin_plate_at_thick_plate_limit(self):
        assert perforation_area(1.524, 0.0, 2.2885) == pytest.approx(8.854, abs=0.001)

    def test_thick_plate_fast_impact(self):
        assert perforation_area(2.667, 0.0, 2.8) == pytest.approx(6.20, abs=0.005)

    def test_consistent_with_paper_weight_split(self):
        # the 5.5 mm^2 lower mean bound divided by the thin-plate area at the
        # thick-plate ballistic limit reproduces the reported 0.621 weight
        area = perforation_area(1.524, 0.0, ballistic_limit(2.667, 0.0))
        assert 5.5 / area == pytest.approx(0.621, abs=0.002)

    def test_zero_iff_below_limit(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            h = rng.uniform(*BOX_H)
            theta = rng.uniform(*BOX_THETA)
            v = rng.uniform(*BOX_V)
            area = perforation_area(h, theta, v)
            if v <= ballistic_limit(h, theta):
                assert area == 0.0
            else:
                assert area > 0.0

    def test_monotone_in_speed(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            h = rng.uniform(*BOX_H)
            theta = rng.uniform(*BOX_THETA)
            v1, v2 = sorted(rng.uniform(BOX_V[0], BOX_V[1], size=2))
            assert perforation_area(h, theta, v1) <= perforation_area(h, theta, v2)

    def test_continuous_at_ballistic_limit(self):
        v_bl = ballistic_limit(2.0, 0.1)
        assert perforation_area(2.0, 0.1, v_bl * (1 + 1e-9)) < 1e-2

    def test_negative_speed_rejected(self):
        with pytest.raises(DomainError):
            perforation_area(2.0, 0.0, -0.1)


class TestPerforationAreaArrays:
    """The array form against the scalar one, which is the reference."""

    @staticmethod
    def box_points(seed, n=2000):
        rng = np.random.default_rng(seed)
        return (rng.uniform(*BOX_H, n), rng.uniform(*BOX_THETA, n), rng.uniform(*BOX_V, n))

    def test_matches_scalar(self):
        h, theta, v = self.box_points(21)
        area = perforation_area(h, theta, v)
        for hi, ti, vi, ai in zip(h.tolist(), theta.tolist(), v.tolist(), area.tolist()):
            # pow and tanh may differ from math's in the last bit; near the
            # ballistic limit tanh(v/v_bl - 1)^m magnifies that by about
            # m / (v/v_bl - 1), so the tolerance grows there
            excess = vi / ballistic_limit(hi, ti) - 1.0
            rel = 1e-13 * max(1.0, 0.01 / excess) if excess > 0.0 else 0.0
            assert ai == pytest.approx(perforation_area(hi, ti, vi), rel=rel, abs=0.0)

    def test_zero_at_or_below_ballistic_limit(self):
        h, theta, v = self.box_points(22)
        P = DEFAULT_PARAMS
        # the limit as the array form computes it
        v_bl = P.H0 * (h / np.cos(theta) ** P.n) ** P.s
        below = v_bl * np.random.default_rng(23).uniform(0.0, 1.0, h.size)
        assert np.all(perforation_area(h, theta, v_bl) == 0.0)
        assert np.all(perforation_area(h, theta, below) == 0.0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((0, 0.0), "thickness"),
            ((1, math.pi / 2), "obliquity"),
            ((2, -0.1), "speed"),
            ((0, math.nan), "thickness"),
            ((2, math.nan), "speed"),
        ],
        ids=["thickness", "obliquity", "speed", "nan_thickness", "nan_speed"],
    )
    def test_domain_errors(self, bad, message):
        coords = [np.array([2.0, 2.0, 2.0]), np.array([0.1, 0.1, 0.1]), np.array([2.5, 2.5, 2.5])]
        axis, value = bad
        coords[axis][1] = value
        with pytest.raises(DomainError, match=message):
            perforation_area(*coords)
        with pytest.raises(DomainError, match=message):
            perforation_area(*(float(c[1]) for c in coords))


class TestUnits:
    def test_paper_range_endpoints(self):
        assert mils_to_mm(60.0) == pytest.approx(1.524, abs=1e-12)
        assert mils_to_mm(105.0) == pytest.approx(2.667, abs=1e-12)

    def test_zero(self):
        assert mils_to_mm(0.0) == 0.0

    def test_inverse(self):
        for x in (0.5, 1.524, 2.667, 100.0):
            assert mils_to_mm(x) / MM_PER_MIL == pytest.approx(x, rel=1e-15)


class TestParams:
    def test_defaults_are_the_reference_fit(self):
        p = SurrogateParams()
        assert (p.H0, p.s, p.n) == (0.5794, 1.4004, 0.4482)
        assert (p.K, p.p, p.u, p.m_exp, p.Dp) == (10.3936, 0.4757, 1.0275, 0.4682, 1.778)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SurrogateParams(K=-1.0)
