"""Named registry of response functions usable from configs and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ConfigError
from .surrogate import ballistic_limit, perforation_area


@dataclass(frozen=True)
class ResponseEntry:
    name: str
    func: Callable[..., float]
    arity: int
    # Optional companion: the threshold speed relevant to the response,
    # evaluated on all coordinates but the last (speed) one.
    limit_func: Optional[Callable[..., float]] = None


_REGISTRY: dict[str, ResponseEntry] = {}


def register_response(
    name: str,
    func: Callable[..., float],
    arity: int,
    limit_func: Optional[Callable[..., float]] = None,
):
    _REGISTRY[name] = ResponseEntry(name, func, arity, limit_func)


def get_response(name: str) -> ResponseEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigError(f"no response named {name!r}; known: {known}")


def check_arity(entry: ResponseEntry, ncoords: int):
    if ncoords != entry.arity:
        raise ConfigError(
            f"{entry.name} takes {entry.arity} coordinates, got {ncoords}"
        )


register_response(
    "sphir-perforation",
    perforation_area,
    arity=3,
    limit_func=ballistic_limit,
)
