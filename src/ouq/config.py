"""Run configuration: YAML parsing, units, and building the problem.

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

This module only parses: the YAML shape, key sets, value types,
finiteness, units and strategy names.  Range rules (points per axis,
lower < upper, the mean band, npop, generation caps, tolerances,
failure_tolerance) and defaults belong to the types the values build
(`ParamLayout`, `MeanConstraint`, `OUQProblem`, `DESettings`, the
termination rules), so a file and a library caller are held to the same
rules.  `load_config` builds the problem once and reports a type's
ValueError as a ConfigError under the key it came from.

The rules no type owns are checked here: `seed` >= 0, `runs` >= 1, a
non-empty `output_dir`, and the response probe: the response must be
registered, take one coordinate per axis, be defined and finite at every
corner of the axis box, and give the same corner values when called once
on arrays.  Length units mils and angle unit deg are converted at this
boundary (1 mil = 0.0254 mm); mm, rad and km_s are native and pass through.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import yaml

from .de import ChangeOverGeneration, DESettings, Strategy, TerminationRule, ValueBelow
from .errors import ConfigError, DomainError
from .measures import ParamLayout
from .registry import check_arity, get_response
from .solver import MeanConstraint, OUQProblem
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
    seed: int
    outer_termination: TerminationRule | None = None
    failure_tolerance: float = 0.0
    runs: int = 1
    output_dir: str = "out"


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: set[str], where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}")


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string, got {value!r}")
    return value


def _as_strategy(value, where: str) -> Strategy:
    try:
        return Strategy(value)
    except ValueError:
        raise ConfigError(f"{where} must be one of: " + ", ".join(s.value for s in Strategy))


def _as_list(value, where: str, item) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return tuple(item(entry, f"{where}[{i}]") for i, entry in enumerate(value))


_AS_TYPE = {int: _as_int, float: _as_float, Strategy: _as_strategy}


def _build(cls, value, where: str, fixed: tuple[str, ...] = ()):
    """`cls` built from a mapping with one key per field not in `fixed`.

    The values' types are checked here; their ranges and the defaults of
    left-out keys are `cls`'s own.
    """
    value = _require_mapping(value, where)
    settable = [f for f in fields(cls) if f.name not in fixed]
    _reject_unknown(value, {f.name for f in settable}, where)
    missing = [f.name for f in settable if f.default is MISSING and f.name not in value]
    if missing:
        raise ConfigError(f"{where} needs {', '.join(missing)}")
    types = get_type_hints(cls)
    return cls(**{k: _AS_TYPE[types[k]](v, f"{where}.{k}") for k, v in value.items()})


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
        return (
            conv(_as_float(entry["lower"], f"{where}.lower")),
            conv(_as_float(entry["upper"], f"{where}.upper")),
        )
    if isinstance(entry, list) and len(entry) == 2:
        return (_as_float(entry[0], f"{where}[0]"), _as_float(entry[1], f"{where}[1]"))
    raise ConfigError(f"{where} must be a [lower, upper] pair or a tagged mapping")


def _parse_mean_band(value, where: str) -> tuple[float, float]:
    if isinstance(value, dict):
        return _build(MeanConstraint, value, where).band
    if isinstance(value, list) and len(value) == 2:
        return (_as_float(value[0], f"{where}[0]"), _as_float(value[1], f"{where}[1]"))
    raise ConfigError(f"{where} must be [m1, m2] or {{m: ..., d: ...}}")


def _parse_termination(value, where: str) -> TerminationRule:
    value = dict(_require_mapping(value, where))
    name = value.pop("rule", None)
    for rule in (ChangeOverGeneration, ValueBelow):
        if name == rule.name:
            return _build(rule, value, where)
    raise ConfigError(f"{where}.rule must be one of: change_over_generation, value_below")


def _parse_de_settings(value, where: str) -> DESettings:
    # the seed is not a file key: build_problem sets it per run
    return _build(DESettings, value, where, fixed=("seed",))


# One parser per RunConfig field, called as parser(value, key).
_PARSERS = {
    "response": _as_str,
    "npts_per_dim": lambda value, where: _as_list(value, where, _as_int),
    "bounds_per_dim": lambda value, where: _as_list(value, where, _parse_bounds_entry),
    "mean_band": _parse_mean_band,
    "outer": _parse_de_settings,
    "inner": _parse_de_settings,
    "seed": lambda value, where: _as_int(value, where, minimum=0),
    "outer_termination": _parse_termination,
    "failure_tolerance": _as_float,
    "runs": lambda value, where: _as_int(value, where, minimum=1),
    "output_dir": _as_str,
}


def build_problem(config: RunConfig, seed: int) -> OUQProblem:
    """The OUQ problem of a run configuration, with both DEs seeded by `seed`."""
    return OUQProblem(
        response=get_response(config.response).func,
        layout=ParamLayout(config.npts_per_dim, config.bounds_per_dim),
        constraint=MeanConstraint.from_band(*config.mean_band),
        failure_tolerance=config.failure_tolerance,
        outer=replace(config.outer, seed=seed),
        inner=replace(config.inner, seed=seed),
        outer_termination=config.outer_termination,
    )


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
    """Parse a run configuration file, build its problem once and probe its response.

    Any ValueError, whether a type's range rule or an undecodable file,
    becomes a ConfigError prefixed with the key being parsed, or with the
    path once the parsed values are being built into the problem.
    """
    key = str(path)
    try:
        raw = _require_mapping(yaml.safe_load(Path(path).read_text(encoding="utf-8")), key)
        _reject_unknown(raw, {f.name for f in fields(RunConfig)}, key)
        missing = [f.name for f in fields(RunConfig) if f.default is MISSING and f.name not in raw]
        if missing:
            raise ConfigError(f"{path}: missing required key(s): {', '.join(missing)}")
        values = {}
        for key in (f.name for f in fields(RunConfig) if f.name in raw):
            values[key] = _PARSERS[key](raw[key], key)
        key = str(path)
        config = RunConfig(**values)
        build_problem(config, config.seed)
        _check_response(config.response, config.bounds_per_dim)
    except (ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return config


def apply_overrides(
    config: RunConfig, seed=None, runs=None, output_dir=None
) -> RunConfig:
    """Return `config` with the given command-line overrides, each checked
    by the parser of the file key it replaces."""
    flags = {"seed": seed, "runs": runs, "output_dir": output_dir}
    return replace(config, **{
        key: _PARSERS[key](value, "--" + key.replace("_", "-"))
        for key, value in flags.items()
        if value is not None
    })
