"""Hypervelocity-impact perforation-area surrogate and ballistic limit.

A steel sphere (diameter Dp) strikes a steel plate of thickness h (mm) at
speed v (km/s) and obliquity theta (rad, from the plate normal).  The
perforation area in mm^2 is

    area = K * (h/Dp)^p * cos(theta)^u * max(0, tanh(v/v_bl - 1))^m

with ballistic limit velocity v_bl = H0 * (h / cos(theta)^n)^s, the speed
below which no perforation occurs.  The clamp is applied before the
fractional power, so the area is exactly 0.0 for v <= v_bl.

`perforation_area` also works elementwise on equal-shape float arrays, the
form the solver's block kernels call; `ballistic_limit` stays scalar.  Both
read the one fit `DEFAULT_PARAMS`: other constants make another response,
registered under its own name with `ouq.registry.register_response`.

All lengths are millimetres internally; mils are converted only at the
CLI boundary (1 mil = 0.0254 mm).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import DomainError

MM_PER_MIL = 0.0254

# module-level names keep the scalar path of perforation_area cheap
_ndarray = np.ndarray
_HALF_PI = math.pi / 2


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
_H0, _S, _N, _K, _P, _U, _M_EXP, _DP = astuple(DEFAULT_PARAMS)


def _raise_domain_error(h: float, theta: float, v: float = 0.0):
    """Raise the DomainError of a point known to lie outside the domain; v
    defaults to a valid speed, for ballistic_limit's (h, theta)."""
    # comparisons are written so that NaN fails them
    if not h > 0.0:
        raise DomainError(f"plate thickness must be positive, got {h}")
    if not 0.0 <= theta < _HALF_PI:
        raise DomainError(f"obliquity must lie in [0, pi/2), got {theta}")
    raise DomainError(f"impact speed must be nonnegative, got {v}")


def ballistic_limit(h: float, theta: float) -> float:
    """Speed (km/s) below which a plate of thickness h (mm) is not perforated."""
    # the domain test is inlined, as in perforation_area's scalar path
    if not h > 0.0 or not 0.0 <= theta < _HALF_PI:
        _raise_domain_error(h, theta)
    return _H0 * (h / math.cos(theta) ** _N) ** _S


def perforation_area(h: float, theta: float, v: float) -> float:
    """Perforation area (mm^2); exactly 0.0 at or below the ballistic limit.

    Given arrays h, theta and v, returns the array of areas.
    """
    if isinstance(h, _ndarray):
        return _perforation_area_array(h, theta, v)
    # the domain test is inlined: this scalar path is the pointwise hot path
    if not h > 0.0 or not 0.0 <= theta < _HALF_PI or not v >= 0.0:
        _raise_domain_error(h, theta, v)
    cos = math.cos(theta)
    v_bl = _H0 * (h / cos ** _N) ** _S
    t = math.tanh(v / v_bl - 1.0)
    if t <= 0.0:
        # clamp before the fractional power: a negative base would be NaN
        return 0.0
    return _K * (h / _DP) ** _P * cos ** _U * t ** _M_EXP


def _perforation_area_array(h, theta, v) -> np.ndarray:
    """perforation_area on arrays, with the scalar formula's order of operations.
    np.tanh and np.power are not math.tanh and **, so it agrees to about 1e-12
    relative, not bit for bit; within a few ulps of the ballistic limit, where
    the area goes as t**0.468, the two differ by up to about 1e-6 mm^2."""
    outside = ~((h > 0.0) & (0.0 <= theta) & (theta < _HALF_PI) & (v >= 0.0))
    if outside.any():
        i = tuple(np.argwhere(outside)[0])
        _raise_domain_error(*(float(a[i]) for a in np.broadcast_arrays(h, theta, v)))
    cos = np.cos(theta)
    v_bl = _H0 * (h / cos ** _N) ** _S
    t = np.tanh(v / v_bl - 1.0)
    perforated = t > 0.0
    # clamp before the fractional power: a negative base would be NaN
    t = np.where(perforated, t, 1.0)
    area = _K * (h / _DP) ** _P * cos ** _U * t ** _M_EXP
    return np.where(perforated, area, 0.0)


def mils_to_mm(x: float) -> float:
    return x * MM_PER_MIL
