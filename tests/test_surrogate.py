import math

import numpy as np
import pytest

from ouq import (
    DomainError,
    SurrogateParams,
    ballistic_limit,
    mils_to_mm,
    mm_to_mils,
    perforation_area,
)

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


class TestUnits:
    def test_paper_range_endpoints(self):
        assert mils_to_mm(60.0) == pytest.approx(1.524, abs=1e-12)
        assert mils_to_mm(105.0) == pytest.approx(2.667, abs=1e-12)

    def test_zero(self):
        assert mils_to_mm(0.0) == 0.0
        assert mm_to_mils(0.0) == 0.0

    def test_inverse(self):
        for x in (0.5, 1.524, 2.667, 100.0):
            assert mm_to_mils(mils_to_mm(x)) == pytest.approx(x, rel=1e-15)


class TestParams:
    def test_defaults_are_the_reference_fit(self):
        p = SurrogateParams()
        assert (p.H0, p.s, p.n) == (0.5794, 1.4004, 0.4482)
        assert (p.K, p.p, p.u, p.m_exp, p.Dp) == (10.3936, 0.4757, 1.0275, 0.4682, 1.778)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SurrogateParams(K=-1.0)

    def test_alternate_fit_is_used(self):
        default = perforation_area(2.0, 0.0, 2.5)
        doubled = perforation_area(2.0, 0.0, 2.5, SurrogateParams(K=2 * 10.3936))
        assert doubled == pytest.approx(2 * default, rel=1e-12)
