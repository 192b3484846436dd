"""Run configuration: YAML schema, validation, and unit handling.

Schema (all keys shown; unknown keys are rejected):

    response: sphir-perforation          # registry name
    npts_per_dim: [2, 2, 2]
    bounds_per_dim:                      # per axis, either a bare pair or
      - {lower: 1.524, upper: 2.667, unit: mm}   # a tagged mapping
      - [0.0, 0.5235987755982988]
      - {lower: 2.1, upper: 2.8, unit: km_s}
    mean_band: [5.5, 7.5]                # or {m: 6.5, d: 1.0}
    failure_tolerance: 0.0
    outer: {npop, cross_probability, scaling_factor, strategy, max_generations}
    inner: {npop, cross_probability, scaling_factor, strategy, max_generations}
    outer_termination:                   # optional; omitted, the outer DE runs
      rule: change_over_generation       # to outer.max_generations
      tolerance: 1.0e-4
      generations: 10
    # or: outer_termination: {rule: value_below, tolerance: ...}
    seed: 0
    runs: 10
    output_dir: out

Each DE's generation cap is its own `max_generations` (default 1000).
Every number must be finite.  The response must be registered, take one
coordinate per axis, be defined and finite at every corner of the axis
box, and give the same corner values when called once on arrays.
Length units mils and angle unit deg are converted at this boundary
(1 mil = 0.0254 mm); mm, rad and km_s are native and pass through.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .de import ChangeOverGeneration, DESettings, Strategy, TerminationRule, ValueBelow
from .errors import ConfigError, DomainError
from .registry import check_arity, get_response
from .surrogate import mils_to_mm

_UNIT_CONVERSIONS = {
    "mm": lambda x: x,
    "rad": lambda x: x,
    "km_s": lambda x: x,
    "mils": mils_to_mm,
    "deg": math.radians,
}


@dataclass(frozen=True)
class RunConfig:
    response: str
    npts_per_dim: tuple[int, ...]
    bounds_per_dim: tuple[tuple[float, float], ...]
    mean_band: tuple[float, float]
    outer: DESettings
    inner: DESettings
    outer_termination: TerminationRule | None = None
    failure_tolerance: float = 0.0
    seed: int = 0
    runs: int = 1
    output_dir: str = "out"


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: set[str], where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _as_int(value, where: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    return value


def _parse_bounds_entry(entry, where: str) -> tuple[float, float]:
    if isinstance(entry, dict):
        _reject_unknown(entry, {"lower", "upper", "unit"}, where)
        if "lower" not in entry or "upper" not in entry:
            raise ConfigError(f"{where} needs 'lower' and 'upper'")
        unit = entry.get("unit", "mm")
        if unit not in _UNIT_CONVERSIONS:
            raise ConfigError(
                f"{where}: unknown unit {unit!r}; known: {', '.join(sorted(_UNIT_CONVERSIONS))}"
            )
        conv = _UNIT_CONVERSIONS[unit]
        lo = conv(_as_float(entry["lower"], f"{where}.lower"))
        hi = conv(_as_float(entry["upper"], f"{where}.upper"))
    elif isinstance(entry, (list, tuple)) and len(entry) == 2:
        lo = _as_float(entry[0], f"{where}[0]")
        hi = _as_float(entry[1], f"{where}[1]")
    else:
        raise ConfigError(f"{where} must be a [lower, upper] pair or a tagged mapping")
    if not lo < hi:
        raise ConfigError(f"{where}: need lower < upper, got [{lo}, {hi}]")
    return (lo, hi)


def _parse_mean_band(value) -> tuple[float, float]:
    if isinstance(value, dict):
        _reject_unknown(value, {"m", "d"}, "mean_band")
        if "m" not in value or "d" not in value:
            raise ConfigError("mean_band mapping needs 'm' and 'd'")
        m = _as_float(value["m"], "mean_band.m")
        d = _as_float(value["d"], "mean_band.d")
        if d <= 0:
            raise ConfigError("mean_band.d must be positive")
        return (m - d, m + d)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        m1 = _as_float(value[0], "mean_band[0]")
        m2 = _as_float(value[1], "mean_band[1]")
        if not m1 < m2:
            raise ConfigError(f"mean_band: need m1 < m2, got [{m1}, {m2}]")
        return (m1, m2)
    raise ConfigError("mean_band must be [m1, m2] or {m: ..., d: ...}")


_DE_KEYS = {"npop", "cross_probability", "scaling_factor", "strategy", "max_generations"}


def _parse_de_settings(value, where: str, seed: int) -> DESettings:
    value = _require_mapping(value, where)
    _reject_unknown(value, _DE_KEYS, where)
    kwargs = {"seed": seed}
    if "npop" in value:
        kwargs["npop"] = _as_int(value["npop"], f"{where}.npop", minimum=4)
    if "cross_probability" in value:
        kwargs["cross_probability"] = _as_float(value["cross_probability"], f"{where}.cross_probability")
    if "scaling_factor" in value:
        kwargs["scaling_factor"] = _as_float(value["scaling_factor"], f"{where}.scaling_factor")
    if "strategy" in value:
        try:
            kwargs["strategy"] = Strategy(value["strategy"])
        except ValueError:
            raise ConfigError(
                f"{where}.strategy must be one of: "
                + ", ".join(s.value for s in Strategy)
            )
    if "max_generations" in value:
        kwargs["max_generations"] = _as_int(value["max_generations"], f"{where}.max_generations")
    try:
        return DESettings(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


def _parse_termination(value) -> TerminationRule:
    value = _require_mapping(value, "outer_termination")
    rule = value.get("rule")
    try:
        if rule == "change_over_generation":
            _reject_unknown(value, {"rule", "tolerance", "generations"}, "outer_termination")
            return ChangeOverGeneration(
                tolerance=_as_float(value.get("tolerance", 1e-4), "outer_termination.tolerance"),
                generations=_as_int(value.get("generations", 10), "outer_termination.generations"),
            )
        if rule == "value_below":
            _reject_unknown(value, {"rule", "tolerance"}, "outer_termination")
            return ValueBelow(tolerance=_as_float(value.get("tolerance"), "outer_termination.tolerance"))
    except ValueError as exc:
        raise ConfigError(f"outer_termination: {exc}")
    raise ConfigError(
        "outer_termination.rule must be one of: change_over_generation, value_below"
    )


_TOP_KEYS = {
    "response",
    "npts_per_dim",
    "bounds_per_dim",
    "mean_band",
    "failure_tolerance",
    "outer",
    "inner",
    "outer_termination",
    "seed",
    "runs",
    "output_dir",
}

_REQUIRED_KEYS = {
    "response",
    "npts_per_dim",
    "bounds_per_dim",
    "mean_band",
    "outer",
    "inner",
    "seed",
}


def _check_response(name: str, bounds: tuple[tuple[float, float], ...]):
    """Resolve the response and evaluate it at every corner of the axis box.

    The surrogate's domain is itself a box, so a box whose corners all lie
    in it lies in it entirely.  Every corner value must be finite, and one
    more call on the stacked corner arrays must give the same values, since
    the solver evaluates the response elementwise on arrays.
    """
    entry = get_response(name)
    check_arity(entry, len(bounds))
    corners = list(itertools.product(*bounds))
    values = []
    for corner in corners:
        try:
            values.append(float(entry.func(*corner)))
        except DomainError as exc:
            raise ConfigError(f"bounds_per_dim leave the domain of {name!r}: {exc}")
        if not math.isfinite(values[-1]):
            raise ConfigError(f"{name!r} is {values[-1]} at the box corner {corner}")
    try:
        stacked = entry.func(*(np.array(axis) for axis in zip(*corners)))
        same = np.allclose(np.asarray(stacked, dtype=float), values, rtol=1e-12, atol=0.0)
    except (TypeError, ValueError, ArithmeticError, DomainError) as exc:
        raise ConfigError(f"{name!r} does not work elementwise on arrays: {exc!r}")
    if not same:
        raise ConfigError(
            f"{name!r} on arrays of the box corners gives {stacked!r}, "
            f"not the values {values} it gives one corner at a time"
        )


def load_config(path) -> RunConfig:
    """Parse and fully validate a run configuration file."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}")
    raw = _require_mapping(raw, str(path))
    _reject_unknown(raw, _TOP_KEYS, str(path))
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ConfigError(f"{path}: missing required key(s): {', '.join(sorted(missing))}")

    if not isinstance(raw["response"], str):
        raise ConfigError("response must be a string")
    npts_raw = raw["npts_per_dim"]
    if not isinstance(npts_raw, list) or not npts_raw:
        raise ConfigError("npts_per_dim must be a nonempty list")
    npts = tuple(_as_int(n, "npts_per_dim entry") for n in npts_raw)

    bounds_raw = raw["bounds_per_dim"]
    if not isinstance(bounds_raw, list) or len(bounds_raw) != len(npts):
        raise ConfigError("bounds_per_dim must list one [lower, upper] pair per axis")
    bounds = tuple(
        _parse_bounds_entry(entry, f"bounds_per_dim[{i}]")
        for i, entry in enumerate(bounds_raw)
    )
    _check_response(raw["response"], bounds)

    seed = _as_int(raw["seed"], "seed", minimum=0)
    failure_tolerance = _as_float(raw.get("failure_tolerance", 0.0), "failure_tolerance")
    if failure_tolerance < 0:
        raise ConfigError("failure_tolerance must be nonnegative")

    return RunConfig(
        response=raw["response"],
        npts_per_dim=npts,
        bounds_per_dim=bounds,
        mean_band=_parse_mean_band(raw["mean_band"]),
        failure_tolerance=failure_tolerance,
        outer=_parse_de_settings(raw["outer"], "outer", seed),
        inner=_parse_de_settings(raw["inner"], "inner", seed),
        outer_termination=(
            _parse_termination(raw["outer_termination"])
            if "outer_termination" in raw
            else None
        ),
        seed=seed,
        runs=_as_int(raw.get("runs", 1), "runs"),
        output_dir=str(raw.get("output_dir", "out")),
    )


def apply_overrides(
    config: RunConfig, seed=None, runs=None, output_dir=None
) -> RunConfig:
    """Return `config` with the given command-line overrides, checked by the
    same rules as the file's `seed` and `runs` keys."""
    changes = {}
    if seed is not None:
        changes["seed"] = _as_int(seed, "--seed", minimum=0)
    if runs is not None:
        changes["runs"] = _as_int(runs, "--runs")
    if output_dir is not None:
        changes["output_dir"] = str(output_dir)
    return replace(config, **changes)
