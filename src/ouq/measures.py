"""Discrete measures, product measures, and the parameter-vector codec.

A discrete measure is a convex combination of weighted Dirac masses on one
input axis; a product measure tensorizes one such measure per axis.  These
are plain value types: every operation returns a new object, so they are
safe to share across threads.

The flatten/unflatten pair converts between measure objects and the flat
parameter vectors an optimizer manipulates.  The layout is, per factor:
first the weights, then the positions, i.e. for two points per axis in 3D

    [w_x1, w_x2, x1, x2, w_y1, w_y2, y1, y2, w_z1, w_z2, z1, z2]

The block kernels (`factor_masses`, `normalize_block`, `atom_values`,
`expectation_of_values`, `expectation_block`,
`conditional_expectations_block`) work on an (m, param_length) block of
such vectors at once, without building measure objects, and repeat the
arithmetic of their per-measure counterparts operation for operation.
`atom_values` makes the one array call of the response; a probability is
the expectation of an indicator of those values.  The kernels, and the
solver's weight move, read their block columns from one cached plan
(`layout_plan`), keyed by the points per axis.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .de import _check_count
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
        if not self.npts_per_dim:
            raise ValueError("a layout needs at least one axis")
        if len(self.npts_per_dim) != len(self.bounds_per_dim):
            raise ValueError("npts_per_dim and bounds_per_dim differ in length")
        for i, n in enumerate(self.npts_per_dim):
            _check_count(f"npts_per_dim[{i}]", n, 1)
        for i, (lo, hi) in enumerate(self.bounds_per_dim):
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"bounds_per_dim[{i}]: need finite lower < upper, got [{lo}, {hi}]")

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
    """P(predicate holds) under the product measure: E of its indicator."""
    return expectation(p, lambda *xs: 1.0 if predicate(*xs) else 0.0)


class LayoutPlan(NamedTuple):
    """The read-only block columns of the flat vectors of one layout (`layout_plan`).

    Atoms are enumerated in expectation()'s order: lexicographically by
    factor, then point index.
    """

    segments: np.ndarray  # `np.add.reduceat` starts of each factor's weights and positions
    wide: tuple[tuple[int, slice], ...]  # factors of more than two points, with their weights
    weight_cols: np.ndarray  # the block column of every weight
    weight_factor: np.ndarray  # and its factor
    atom_weights: np.ndarray  # (dimension, A) columns of every atom's weights
    atom_positions: np.ndarray  # (dimension, A) columns of every atom's positions
    # g's terms (`conditional_expectations_block`): slot s of (factor k, point j)
    # holds the s-th atom, in atom order, whose factor-k point is j
    slot_columns: np.ndarray  # (dimension, L, dimension, n_max) its columns of [block | values]
    slot_mask: np.ndarray | None  # (L, dimension, n_max, 1) 0.0 where it holds none, or None
    shift_cols: np.ndarray  # (dimension, n_max) each factor's weights, then its first position
    real: np.ndarray | None  # (dimension, 1, n_max) mask of shift_cols' real points, or None


@functools.lru_cache(maxsize=16)
def layout_plan(npts_per_dim: tuple[int, ...]) -> LayoutPlan:
    """Every index array the block kernels and the weight move read, for the
    layouts with `npts_per_dim` points per axis; the axis boxes move no
    column, so they are not part of the key."""
    n = np.array(npts_per_dim)
    starts = 2 * (np.cumsum(n) - n)
    wide = tuple((k, slice(starts[k], starts[k] + n[k])) for k in np.flatnonzero(n > 2).tolist())
    j = np.arange(n.max())
    real = j < n[:, None]
    # past a factor's points, its first position: `shift_weights` gives that
    # padding zero gap and zero take, so it writes the column back as read
    shift_cols = starts[:, None] + np.where(real, j, n[:, None])
    combos = np.array(list(itertools.product(*map(range, npts_per_dim)))).T
    atom_weights = combos + starts[:, None]
    # a slot past the A / n_k atoms of a point, or of a point past n_k, holds
    # atom 0 and is masked
    slot_atoms = np.zeros((combos.shape[1] // n.min(), n.size, n.max()), dtype=np.intp)
    slot_mask = np.zeros(slot_atoms.shape + (1,))
    for k, n_k in enumerate(npts_per_dim):
        atoms = np.argsort(combos[k], kind="stable").reshape(n_k, -1).T  # (A / n_k, n_k)
        slot_atoms[: len(atoms), k, :n_k] = atoms
        slot_mask[: len(atoms), k, :n_k] = 1.0
    # per slot, the other factors' weights in factor order, then the value
    others = [np.delete(atom_weights, k, axis=0)[:, slot_atoms[:, k]] for k in range(n.size)]
    slot_columns = np.concatenate([np.stack(others, axis=2), slot_atoms[None] + 2 * n.sum()])
    plan = LayoutPlan(
        segments=np.ravel([starts, starts + n], order="F"),
        wide=wide,
        weight_cols=shift_cols[real],
        weight_factor=np.nonzero(real)[0],
        atom_weights=atom_weights,
        atom_positions=atom_weights + n[:, None],
        slot_columns=slot_columns,
        slot_mask=None if slot_mask.all() else slot_mask,
        shift_cols=shift_cols,
        real=None if real.all() else real[:, None, :],
    )
    for a in plan:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return plan


def factor_masses(block: np.ndarray, layout: ParamLayout) -> np.ndarray:
    """(m, dimension) total weight of each factor of each row of a block.

    Each entry equals DiscreteMeasure.mass(), the correctly rounded sum of
    the factor's weights.
    """
    plan = layout_plan(layout.npts_per_dim)
    # per factor, the sum of its weights and then of its positions; one
    # addition is already correctly rounded, as math.fsum is, and + 0.0
    # gives a sum of negative zeros fsum's sign
    masses = np.add.reduceat(block, plan.segments, axis=1)[:, ::2] + 0.0
    for k, ws in plan.wide:
        masses[:, k] = [math.fsum(row) for row in block[:, ws].tolist()]
    return masses


def normalize_block(block: np.ndarray, layout: ParamLayout) -> tuple[np.ndarray, np.ndarray]:
    """Rescale every factor of every row of a block to mass 1.

    Divides all weight columns at once, each by its factor's mass, as
    normalize() does; dividing by a mass of exactly 1 is exact, so such
    factors keep their bits.  Zero-mass factors and positions are left as
    they are.  Returns the rescaled copy and a mask that is False for rows
    with a zero-mass factor.
    """
    out = np.array(block, dtype=float)
    masses = factor_masses(out, layout)
    nonzero = masses > 0.0
    plan = layout_plan(layout.npts_per_dim)
    out[:, plan.weight_cols] /= np.where(nonzero, masses, 1.0)[:, plan.weight_factor]
    return out, nonzero.all(axis=1)


def atom_values(block: np.ndarray, layout: ParamLayout, f: Callable) -> np.ndarray:
    """(m, A) response values at every atom of every row of a block.

    The response is called once, on (m, A) arrays holding the positions of
    all atoms of all rows, so it must work elementwise on float arrays.
    Raises DomainError if any value is non-finite.  The result is a new
    array, a constant response broadcast into it, so the caller may write
    to it.
    """
    positions = [block[:, cols] for cols in layout_plan(layout.npts_per_dim).atom_positions]
    values = np.array(f(*positions), dtype=float)
    if values.shape != positions[0].shape:
        values = np.broadcast_to(values, positions[0].shape).copy()
    if not np.isfinite(values).all():
        row, atom = np.argwhere(~np.isfinite(values))[0]
        at = tuple(float(x[row, atom]) for x in positions)
        raise DomainError(f"response is {values[row, atom]} at {at}")
    return values


def expectation_of_values(block: np.ndarray, layout: ParamLayout, values: np.ndarray) -> np.ndarray:
    """The expectation of (m, A) atom values under the measure of every row of a block.

    Weights are multiplied and terms added in the order expectation() uses.
    Factor masses are not checked: the rows must already be normalized.
    """
    weights = np.multiply.reduce(block[:, layout_plan(layout.npts_per_dim).atom_weights], axis=1)
    # accumulate adds the atoms left to right (np.sum adds 8 or more
    # pairwise); + 0.0 gives a sum of negative zeros the sign of one
    # started from 0.0
    return np.add.accumulate(weights * values, axis=1)[:, -1] + 0.0


def expectation_block(block: np.ndarray, layout: ParamLayout, f: Callable) -> np.ndarray:
    """E[f] under the measure of every row of a block: `atom_values`, then
    `expectation_of_values`.  Where f gives the same floats on arrays as one
    at a time, the result is bit-equal to expectation(unflatten(row))."""
    return expectation_of_values(block, layout, atom_values(block, layout, f))


def conditional_expectations_block(
    block: np.ndarray, layout: ParamLayout, values: np.ndarray
) -> np.ndarray:
    """(dimension, m, n_max) g_kj = E[f | x_k = x_kj] from the (m, A) atom
    values of f (`atom_values`); zero past the n_k points of factor k.

    g_kj sums f over the atoms whose factor-k point is j, each weighted by
    the product of its other factors' weights, so E[f] = sum_j w_kj g_kj
    for every k: E is affine in each factor's weights.
    """
    plan = layout_plan(layout.npts_per_dim)
    # each term is its atom's other factors' weights multiplied in factor
    # order, as expectation_of_values multiplies them, times its value; the
    # rows go last, so every array below is (..., m)
    factors = np.concatenate((block.T, values.T)).take(plan.slot_columns, axis=0)
    terms = factors[0]
    for f in factors[1:]:
        terms *= f
    if plan.slot_mask is not None:
        terms *= plan.slot_mask  # a slot without an atom adds an exact zero
    # g_kj adds its terms left to right, in atom order: with ufuncs only, no
    # BLAS kernel picks the order of the sums
    g = terms[0]
    for term in terms[1:]:
        g += term
    return np.ascontiguousarray(g.transpose(0, 2, 1))
