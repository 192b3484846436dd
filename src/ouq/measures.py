"""Discrete measures, product measures, and the parameter-vector codec.

A discrete measure is a convex combination of weighted Dirac masses on one
input axis; a product measure tensorizes one such measure per axis.  These
are plain value types: every operation returns a new object, so they are
safe to share across threads.

The flatten/unflatten pair converts between measure objects and the flat
parameter vectors an optimizer manipulates.  The layout is, per factor:
first the weights, then the positions, i.e. for two points per axis in 3D

    [w_x1, w_x2, x1, x2, w_y1, w_y2, y1, y2, w_z1, w_z2, z1, z2]

The block kernels (`factor_masses`, `normalize_block`, `expectation_block`,
`event_probability_block`) work on an (m, param_length) block of such
vectors at once, without building measure objects, and repeat the
arithmetic of their per-measure counterparts operation for operation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ZeroMassMeasure

# Expectations demand factor masses within 1e-9 of 1.
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
        if not all(n >= 1 for n in self.npts_per_dim):
            raise ValueError(f"npts_per_dim must be >= 1 per axis, got {self.npts_per_dim}")
        for i, (lo, hi) in enumerate(self.bounds_per_dim):
            if not lo < hi:
                raise ValueError(f"bounds_per_dim[{i}]: need lower < upper, got [{lo}, {hi}]")

    @property
    def param_length(self) -> int:
        return 2 * sum(self.npts_per_dim)

    def factor_slices(self) -> list[tuple[slice, slice]]:
        """Per factor, the slices of its weights and of its positions in a flat vector."""
        out, i = [], 0
        for n in self.npts_per_dim:
            out.append((slice(i, i + n), slice(i + n, i + 2 * n)))
            i += 2 * n
        return out


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
    factors = [
        DiscreteMeasure.from_arrays(params[ws], params[xs], lo, hi)
        for (ws, xs), (lo, hi) in zip(layout.factor_slices(), layout.bounds_per_dim)
    ]
    return ProductMeasure(tuple(factors))


def _check_normalized(p: ProductMeasure):
    for k, f in enumerate(p.factors):
        if abs(f.mass() - 1.0) > MASS_TOL:
            raise ValueError(
                f"factor {k} has mass {f.mass():.12g}; normalize before integrating"
            )


def expectation(p: ProductMeasure, f: Callable[..., float]) -> float:
    """Expected value of f under the product measure.

    Sums (prod_i w_i) * f(positions) over all atoms, enumerated
    lexicographically by factor, then point index.  Every factor must carry
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


def factor_masses(block: np.ndarray, layout: ParamLayout) -> np.ndarray:
    """(m, dimension) total weight of each factor of each row of a block.

    Each entry equals DiscreteMeasure.mass(), the correctly rounded sum of
    the factor's weights.
    """
    cols = []
    for ws, _ in layout.factor_slices():
        w = block[:, ws]
        if w.shape[1] <= 2:
            # one addition is already correctly rounded, as math.fsum is
            cols.append(w.sum(axis=1))
        else:
            cols.append(np.array([math.fsum(row) for row in w.tolist()]))
    return np.stack(cols, axis=1)


def normalize_block(
    block: np.ndarray, layout: ParamLayout, tol: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Rescale to mass 1 every factor whose mass is off 1 by more than tol.

    Works row by row on a block of flat vectors, dividing the weights by
    the factor mass as normalize() does; positions are untouched.  Returns
    the rescaled copy and a mask that is False for rows with a zero-mass
    factor, which cannot be normalized.
    """
    out = np.array(block, dtype=float)
    masses = factor_masses(out, layout)
    nonzero = masses > 0.0
    for k, (ws, _) in enumerate(layout.factor_slices()):
        rows = nonzero[:, k] & (np.abs(masses[:, k] - 1.0) > tol)
        out[rows, ws] = out[rows, ws] / masses[rows, k, None]
    return out, nonzero.all(axis=1)


@functools.lru_cache(maxsize=16)
def _atom_columns(layout: ParamLayout) -> tuple[np.ndarray, np.ndarray]:
    """Block columns of every atom's weights and positions, one row per factor.

    Atoms are enumerated in expectation()'s order: lexicographically by
    factor, then point index.
    """
    combos = np.array(list(itertools.product(*map(range, layout.npts_per_dim)))).T
    starts = np.array([ws.start for ws, _ in layout.factor_slices()])[:, None]
    w_cols = combos + starts
    x_cols = w_cols + np.array(layout.npts_per_dim)[:, None]
    w_cols.setflags(write=False)
    x_cols.setflags(write=False)
    return w_cols, x_cols


def _atoms(block: np.ndarray, layout: ParamLayout) -> tuple[np.ndarray, list[np.ndarray]]:
    """(m, A) atom weights and one (m, A) array of atom positions per axis."""
    w_cols, x_cols = _atom_columns(layout)
    weights = block[:, w_cols[0]]
    for cols in w_cols[1:]:
        weights = weights * block[:, cols]  # factor order, as the scalar loop
    return weights, [block[:, cols] for cols in x_cols]


def _sum_atoms(terms: np.ndarray) -> np.ndarray:
    """Row sums of an (m, A) array, adding the atoms one at a time in order."""
    total = np.zeros(terms.shape[0])
    for column in terms.T:
        total += column
    return total


def expectation_block(block: np.ndarray, layout: ParamLayout, f: Callable) -> np.ndarray:
    """E[f] under the measure of every row of an (m, param_length) block.

    The response is called once, on (m, A) arrays holding the positions of
    all atoms of all rows, so it must work elementwise on float arrays.
    Weights are multiplied and terms added in the order expectation() uses;
    where the response returns what it returns for the same floats one at a
    time, the result is bit-equal to expectation(unflatten(row)).  Factor
    masses are not checked: the rows must already be normalized.  Raises
    DomainError if any response value is non-finite.
    """
    weights, positions = _atoms(block, layout)
    values = np.broadcast_to(np.asarray(f(*positions), dtype=float), weights.shape)
    if not np.isfinite(values).all():
        row, atom = np.argwhere(~np.isfinite(values))[0]
        at = tuple(float(x[row, atom]) for x in positions)
        raise DomainError(f"response is {values[row, atom]} at {at}")
    return _sum_atoms(weights * values)


def event_probability_block(
    block: np.ndarray, layout: ParamLayout, predicate: Callable
) -> np.ndarray:
    """Probability of {predicate holds} under the measure of every row of a block.

    The predicate is called once on (m, A) position arrays and must return
    a boolean array; otherwise as expectation_block.
    """
    weights, positions = _atoms(block, layout)
    return _sum_atoms(np.where(predicate(*positions), weights, 0.0))
