"""Hypervelocity-impact perforation-area surrogate and ballistic limit.

A steel sphere (diameter Dp) strikes a steel plate of thickness h (mm) at
speed v (km/s) and obliquity theta (rad, from the plate normal).  The
perforation area in mm^2 is

    area = K * (h/Dp)^p * cos(theta)^u * max(0, tanh(v/v_bl - 1))^m

with ballistic limit velocity v_bl = H0 * (h / cos(theta)^n)^s, the speed
below which no perforation occurs.  The clamp is applied before the
fractional power, so the area is exactly 0.0 for v <= v_bl.

All lengths are millimetres internally; mils are converted only at the
CLI boundary (1 mil = 0.0254 mm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError

MM_PER_MIL = 0.0254


@dataclass(frozen=True)
class SurrogateParams:
    """Fitted constants of the surrogate (least-squares fit to 56 shots)."""

    H0: float = 0.5794  # km/s
    s: float = 1.4004
    n: float = 0.4482
    K: float = 10.3936  # mm^2
    p: float = 0.4757
    u: float = 1.0275
    m_exp: float = 0.4682
    Dp: float = 1.778  # mm, projectile diameter

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{f.name} must be finite and positive, got {v}")


DEFAULT_PARAMS = SurrogateParams()


def _check_domain(h: float, theta: float):
    if h <= 0.0:
        raise DomainError(f"plate thickness must be positive, got {h}")
    if not 0.0 <= theta < math.pi / 2:
        raise DomainError(f"obliquity must lie in [0, pi/2), got {theta}")


def ballistic_limit(h: float, theta: float, params: SurrogateParams = DEFAULT_PARAMS) -> float:
    """Speed (km/s) below which a plate of thickness h (mm) is not perforated."""
    _check_domain(h, theta)
    return params.H0 * (h / math.cos(theta) ** params.n) ** params.s


def perforation_area(
    h: float, theta: float, v: float, params: SurrogateParams = DEFAULT_PARAMS
) -> float:
    """Perforation area (mm^2); exactly 0.0 at or below the ballistic limit."""
    _check_domain(h, theta)
    if v < 0.0:
        raise DomainError(f"impact speed must be nonnegative, got {v}")
    v_bl = params.H0 * (h / math.cos(theta) ** params.n) ** params.s
    t = math.tanh(v / v_bl - 1.0)
    if t <= 0.0:
        # clamp before the fractional power: a negative base would be NaN
        return 0.0
    return (
        params.K
        * (h / params.Dp) ** params.p
        * math.cos(theta) ** params.u
        * t ** params.m_exp
    )


def mils_to_mm(x: float) -> float:
    return x * MM_PER_MIL


def mm_to_mils(x: float) -> float:
    return x / MM_PER_MIL
