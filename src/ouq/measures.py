"""Discrete measures, product measures, and the parameter-vector codec.

A discrete measure is a convex combination of weighted Dirac masses on one
input axis; a product measure tensorizes one such measure per axis.  These
are plain value types: every operation returns a new object, so they are
safe to share across threads.

The flatten/unflatten pair converts between measure objects and the flat
parameter vectors an optimizer manipulates.  The layout is, per factor:
first the weights, then the positions, i.e. for two points per axis in 3D

    [w_x1, w_x2, x1, x2, w_y1, w_y2, y1, y2, w_z1, w_z2, z1, z2]
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ZeroMassMeasure

# Tolerances: algebraic identities hold to 1e-12; expectations demand
# factor masses within 1e-9 of 1.
ALGEBRA_TOL = 1e-12
MASS_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class SupportPoint:
    """One weighted Dirac mass: nonnegative weight at a finite position."""

    weight: float
    position: float

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError(f"weight must be finite and >= 0, got {self.weight}")
        if not math.isfinite(self.position):
            raise ValueError(f"position must be finite, got {self.position}")


@dataclass(frozen=True, slots=True)
class DiscreteMeasure:
    """Ordered support points on one axis, with the axis box [lower, upper].

    Weights are stored unnormalized; callers normalize on demand.  Positions
    may temporarily leave the axis box (e.g. after a mean shift) -- bound
    enforcement belongs to the optimizer, not the measure algebra.
    """

    points: tuple[SupportPoint, ...]
    lower: float
    upper: float

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("a discrete measure needs at least one support point")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("axis bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")

    @classmethod
    def from_arrays(cls, weights, positions, lower, upper):
        if len(weights) != len(positions):
            raise ValueError("weights and positions differ in length")
        pts = tuple(SupportPoint(float(w), float(p)) for w, p in zip(weights, positions))
        return cls(pts, float(lower), float(upper))

    def npts(self) -> int:
        return len(self.points)

    def weights(self) -> tuple[float, ...]:
        return tuple(sp.weight for sp in self.points)

    def coords(self) -> tuple[float, ...]:
        return tuple(sp.position for sp in self.points)

    def mass(self) -> float:
        return math.fsum(sp.weight for sp in self.points)

    def mean(self) -> float:
        """Mass-weighted mean (sum w*p) / (sum w); undefined at zero mass."""
        m = self.mass()
        if m <= 0.0:
            raise ZeroMassMeasure("mean is undefined for a zero-mass measure")
        return math.fsum(sp.weight * sp.position for sp in self.points) / m

    def range(self) -> float:
        xs = self.coords()
        return max(xs) - min(xs)


@dataclass(frozen=True, slots=True)
class ProductMeasure:
    """Tensor product of independent 1D discrete measures, one per axis."""

    factors: tuple[DiscreteMeasure, ...]

    def __post_init__(self):
        if len(self.factors) == 0:
            raise ValueError("a product measure needs at least one factor")

    @property
    def dimension(self) -> int:
        return len(self.factors)

    def npts(self) -> int:
        return math.prod(f.npts() for f in self.factors)

    def weights(self) -> list[float]:
        """Atom masses, enumerated lexicographically by factor then point index."""
        out = []
        for combo in itertools.product(*(f.points for f in self.factors)):
            w = 1.0
            for sp in combo:
                w *= sp.weight
            out.append(w)
        return out

    def coords(self) -> list[tuple[float, ...]]:
        """Atom positions, in the same enumeration order as weights()."""
        return [
            tuple(sp.position for sp in combo)
            for combo in itertools.product(*(f.points for f in self.factors))
        ]

    def layout(self) -> "ParamLayout":
        return ParamLayout(
            npts_per_dim=tuple(f.npts() for f in self.factors),
            bounds_per_dim=tuple((f.lower, f.upper) for f in self.factors),
        )


@dataclass(frozen=True, slots=True)
class ParamLayout:
    """Fixes the flatten/unflatten contract: points per axis and axis boxes."""

    npts_per_dim: tuple[int, ...]
    bounds_per_dim: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.npts_per_dim) != len(self.bounds_per_dim):
            raise ValueError("npts_per_dim and bounds_per_dim differ in length")
        if any(n < 1 for n in self.npts_per_dim):
            raise ValueError("every axis needs at least one support point")
        for lo, hi in self.bounds_per_dim:
            if not lo < hi:
                raise ValueError(f"need lower < upper, got [{lo}, {hi}]")

    @property
    def dimension(self) -> int:
        return len(self.npts_per_dim)

    @property
    def param_length(self) -> int:
        return 2 * sum(self.npts_per_dim)


def normalize(m: DiscreteMeasure) -> DiscreteMeasure:
    """Rescale weights so the total mass is 1; positions are untouched."""
    total = m.mass()
    if total <= 0.0:
        raise ZeroMassMeasure("cannot normalize a measure with zero total mass")
    pts = tuple(SupportPoint(sp.weight / total, sp.position) for sp in m.points)
    return DiscreteMeasure(pts, m.lower, m.upper)


def set_mean(m: DiscreteMeasure, target: float) -> DiscreteMeasure:
    """Translate all positions by one offset so the mean equals target.

    Weights, mass and range are unchanged.  The result is returned
    unclipped: positions may leave [lower, upper].
    """
    offset = target - m.mean()
    pts = tuple(SupportPoint(sp.weight, sp.position + offset) for sp in m.points)
    return DiscreteMeasure(pts, m.lower, m.upper)


def set_range(m: DiscreteMeasure, target: float) -> DiscreteMeasure:
    """Rescale positions affinely about the mean so max-min equals target.

    Scaling about the weighted mean is the unique affine map that changes
    the range while preserving both mean and mass.
    """
    if target < 0.0:
        raise ValueError("target range must be nonnegative")
    current = m.range()
    if target == current:
        return m
    if current == 0.0:
        raise ValueError("cannot expand a point mass by scaling")
    center = m.mean()
    scale = target / current
    pts = tuple(
        SupportPoint(sp.weight, center + scale * (sp.position - center)) for sp in m.points
    )
    return DiscreteMeasure(pts, m.lower, m.upper)


def pack(ms: Sequence[DiscreteMeasure]) -> ProductMeasure:
    """Form the product measure of the given 1D factors, in order."""
    if len(ms) == 0:
        raise ValueError("pack needs at least one factor")
    return ProductMeasure(tuple(ms))


def unpack(p: ProductMeasure) -> list[DiscreteMeasure]:
    """Split a product measure into its 1D factors; inverse of pack."""
    return list(p.factors)


def flatten(p: ProductMeasure) -> np.ndarray:
    """Map a product measure to a flat parameter vector (weights then positions per factor)."""
    out = []
    for f in p.factors:
        out.extend(f.weights())
        out.extend(f.coords())
    return np.asarray(out, dtype=float)


def unflatten(params, layout: ParamLayout) -> ProductMeasure:
    """Rebuild a product measure from a flat parameter vector; inverse of flatten."""
    params = np.asarray(params, dtype=float)
    if params.ndim != 1 or params.size != layout.param_length:
        raise ValueError(
            f"expected {layout.param_length} parameters for layout "
            f"{layout.npts_per_dim}, got {params.size}"
        )
    if not np.all(np.isfinite(params)):
        raise ValueError("parameter vector contains non-finite values")
    factors = []
    i = 0
    for n, (lo, hi) in zip(layout.npts_per_dim, layout.bounds_per_dim):
        ws = params[i : i + n]
        xs = params[i + n : i + 2 * n]
        i += 2 * n
        factors.append(DiscreteMeasure.from_arrays(ws, xs, lo, hi))
    return ProductMeasure(tuple(factors))


def _check_normalized(p: ProductMeasure):
    for k, f in enumerate(p.factors):
        if abs(f.mass() - 1.0) > MASS_TOL:
            raise ValueError(
                f"factor {k} has mass {f.mass():.12g}; normalize before integrating"
            )


def expectation(p: ProductMeasure, f: Callable[..., float]) -> float:
    """Expected value of f under the product measure.

    Sums (prod_i w_i) * f(positions) over all atoms, in the fixed
    lexicographic enumeration order of coords().  Every factor must carry
    mass 1 within 1e-9.
    """
    _check_normalized(p)
    total = 0.0
    for combo in itertools.product(*(fac.points for fac in p.factors)):
        w = 1.0
        for sp in combo:
            w *= sp.weight
        total += w * f(*(sp.position for sp in combo))
    return total


def event_probability(p: ProductMeasure, predicate: Callable[..., bool]) -> float:
    """Probability of the event {predicate holds} under the product measure."""
    _check_normalized(p)
    total = 0.0
    for combo in itertools.product(*(fac.points for fac in p.factors)):
        if predicate(*(sp.position for sp in combo)):
            w = 1.0
            for sp in combo:
                w *= sp.weight
            total += w
    return total
