"""Run configuration: YAML parsing, units, and building the problem.

Schema (all keys shown; unknown keys are rejected):

    response: sphir-perforation          # registry name
    npts_per_dim: [2, 2, 2]
    bounds_per_dim:                      # per axis, either a bare pair or
      - {lower: 1.524, upper: 2.667, unit: mm}   # a tagged mapping
      - [0.0, 0.5235987755982988]
      - {lower: 2.1, upper: 2.8, unit: km_s}
    mean_band: [5.5, 7.5]                # edges [m1, m2] of the band of E
    failure_tolerance: 0.0
    outer: {npop, max_generations}
    inner: {npop, max_generations}
    outer_termination:                   # optional; omitted, the outer DE runs
      rule: change_over_generation       # to outer.max_generations
      tolerance: 1.0e-4
      generations: 10
    # or: outer_termination: {rule: value_below, tolerance: -0.3}  # cost -P
    seed: 0
    runs: 10
    output_dir: out

This module only parses: the YAML shape, key sets, value types,
finiteness and units.  `_build` turns the file, and each mapping in it
that stands for a type, into that type, picking each field's parser from
the field's type.  Range rules (seed and runs, points per axis, lower < upper,
the mean band, npop, generation caps, tolerances, failure_tolerance) and
defaults belong to the types the values build (`RunConfig`, `ParamLayout`,
`MeanConstraint`, `OUQProblem`, `DESettings`, the termination rules), so a
file, a command-line flag and a library caller are held to the same rules.
A type's ValueError is reported as a ConfigError under the key or flag it
came from, and every error of a file names its path once.

The rules no type owns are checked here: the string shape (`response` and
`output_dir` are non-empty strings) and the response probe: the response
must be registered, take one coordinate per axis, be defined and finite at
every corner of the axis box, and give the same corner values, within 1e-6
of the largest, when called once on arrays.  Length unit mils and angle
unit deg are converted here and nowhere else (1 mil = 0.0254 mm, in
`_UNIT_CONVERSIONS`); mm, rad and km_s are native and pass through.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import yaml

from .de import ChangeOverGeneration, DESettings, TerminationRule, ValueBelow, _check_count
from .errors import ConfigError, DomainError
from .measures import ParamLayout
from .registry import check_arity, get_response
from .solver import MeanConstraint, OUQProblem

_UNIT_CONVERSIONS = {
    "mm": lambda x: x,
    "rad": lambda x: x,
    "km_s": lambda x: x,
    "mils": lambda x: x * 0.0254,
    "deg": math.radians,
}
_type_hints = functools.cache(get_type_hints)  # per class; the classes do not change


# The safe loader, rejecting a key repeated in one mapping at any depth.  libyaml's
# parser, where PyYAML has it, parses paper.config about 8x faster.
class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    def construct_mapping(self, node, deep=False):
        keys = set()  # a key that is not a scalar is unhashable, which the base rejects
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in keys:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark)
                keys.add(key)
        return super().construct_mapping(node, deep)


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

    def __post_init__(self):
        _check_count("seed", self.seed, 0)
        _check_count("runs", self.runs, 1)


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: set[str], where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where} has unknown key(s): {', '.join(sorted(map(str, unknown)))}")


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string, got {value!r}")
    return value


def _as_list(value, where: str, item) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return tuple(item(entry, f"{where}[{i}]") for i, entry in enumerate(value))


def _as_pair(value, where: str, form: str) -> tuple[float, float]:
    if isinstance(value, list) and len(value) == 2:
        return (_as_float(value[0], f"{where}[0]"), _as_float(value[1], f"{where}[1]"))
    raise ConfigError(f"{where} must be {form}, got {value!r}")


def _build(cls, value, where: str, fixed: tuple[str, ...] = ()):
    """`cls` built from a mapping with one key per constructor field not in `fixed`.

    The values' types are checked here, by the parser of each field's type;
    their ranges and the defaults of left-out keys are `cls`'s own, and a
    ValueError of `cls` is reported under `where`.
    """
    value = _require_mapping(value, where)
    settable = [f for f in fields(cls) if f.name not in fixed]
    _reject_unknown(value, {f.name for f in settable}, where)
    missing = [f.name for f in settable if f.default is MISSING and f.name not in value]
    if missing:
        raise ConfigError(f"{where} needs {', '.join(missing)}")
    types = _type_hints(cls)
    values = {k: _AS_TYPE[types[k]](v, f"{where}: {k}") for k, v in value.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_bounds_entry(entry, where: str) -> tuple[float, float]:
    if isinstance(entry, dict):
        _reject_unknown(entry, {"lower", "upper", "unit"}, where)
        if "lower" not in entry or "upper" not in entry:
            raise ConfigError(f"{where} needs 'lower' and 'upper'")
        unit = entry.get("unit", "mm")
        conv = _UNIT_CONVERSIONS.get(unit) if isinstance(unit, str) else None
        if conv is None:
            raise ConfigError(
                f"{where}.unit: unknown unit {unit!r}; known: {', '.join(sorted(_UNIT_CONVERSIONS))}"
            )
        return (
            conv(_as_float(entry["lower"], f"{where}.lower")),
            conv(_as_float(entry["upper"], f"{where}.upper")),
        )
    return _as_pair(entry, where, "a [lower, upper] pair or a tagged mapping")


def _parse_termination(value, where: str) -> TerminationRule:
    value = dict(_require_mapping(value, where))
    name = value.pop("rule", None)
    for rule in (ChangeOverGeneration, ValueBelow):
        if name == rule.name:
            return _build(rule, value, where)
    raise ConfigError(f"{where}.rule must be one of: change_over_generation, value_below")


# One parser per field type, called as parser(value, where).
_AS_TYPE = {
    int: _as_int,
    float: _as_float,
    str: _as_str,
    tuple[int, ...]: functools.partial(_as_list, item=_as_int),
    tuple[tuple[float, float], ...]: functools.partial(_as_list, item=_parse_bounds_entry),
    tuple[float, float]: functools.partial(_as_pair, form="an [m1, m2] pair"),
    # the seed is not a file key: build_problem sets the outer one per run
    DESettings: functools.partial(_build, DESettings, fixed=("seed",)),
    TerminationRule | None: _parse_termination,
}


def build_problem(config: RunConfig, seed: int) -> OUQProblem:
    """The OUQ problem of a run configuration, with the outer DE seeded by
    `seed`; the fallback's nested runs derive their seeds from it."""
    return OUQProblem(
        response=get_response(config.response).func,
        layout=ParamLayout(config.npts_per_dim, config.bounds_per_dim),
        constraint=MeanConstraint(*config.mean_band),
        failure_tolerance=config.failure_tolerance,
        outer=replace(config.outer, seed=seed),
        inner=config.inner,
        outer_termination=config.outer_termination,
    )


def _check_response(name: str, bounds: tuple[tuple[float, float], ...]):
    """Resolve the response and evaluate it at every corner of the axis box.

    The surrogate's domain is itself a box, so a box whose corners all lie
    in it lies in it entirely.  Every corner value must be finite, and one
    more call on the stacked corner arrays must give the same values, within
    1e-6 of the largest of them, since the solver evaluates the response
    elementwise on arrays.
    """
    entry = get_response(name)
    check_arity(entry, len(bounds))
    corners = list(itertools.product(*bounds))
    values = []
    for corner in corners:
        try:
            values.append(float(entry.func(*corner)))
        except (DomainError, ArithmeticError) as exc:
            raise ConfigError(f"bounds_per_dim leave the domain of {name!r} at {corner}: {exc}")
        if not math.isfinite(values[-1]):
            raise ConfigError(f"{name!r} is {values[-1]} at the box corner {corner}")
    try:
        stacked = entry.func(*(np.array(axis) for axis in zip(*corners)))
        # within a millionth of the largest corner value: next to the ballistic
        # limit the area goes as t**0.468, so an ulp of t moves it by ~1e-6 mm^2
        atol = 1e-6 * max(map(abs, values))
        same = np.allclose(np.asarray(stacked, dtype=float), values, rtol=0.0, atol=atol)
    except (TypeError, ValueError, ArithmeticError, DomainError) as exc:
        raise ConfigError(f"{name!r} does not work elementwise on arrays: {exc!r}")
    if not same:
        raise ConfigError(
            f"{name!r} on arrays of the box corners gives {stacked!r}, "
            f"not the values {values} it gives one corner at a time"
        )


def load_config(path) -> RunConfig:
    """Parse a run configuration file, build its problem once and probe its
    response; every error is a ConfigError whose message starts with the path."""
    try:
        doc = yaml.load(Path(path).read_text("utf-8"), _Loader)
    except (ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    config = _build(RunConfig, doc, str(path))
    try:
        build_problem(config, config.seed)
        _check_response(config.response, config.bounds_per_dim)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config


def apply_overrides(
    config: RunConfig, seed=None, runs=None, output_dir=None
) -> RunConfig:
    """Return `config` with the given command-line overrides, each checked by the
    parser and the rule of the file key it replaces, as `--flag: <key> ...`."""
    types = _type_hints(RunConfig)
    for key, value in {"seed": seed, "runs": runs, "output_dir": output_dir}.items():
        if value is not None:
            flag = "--" + key.replace("_", "-")
            try:
                config = replace(config, **{key: _AS_TYPE[types[key]](value, key)})
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{flag}: {exc}") from exc
    return config
