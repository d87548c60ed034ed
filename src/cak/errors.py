"""Exception types and enumeration size caps."""

from __future__ import annotations

import os

DEFAULT_MAX_INTERVENTIONS = 10_000_000
DEFAULT_MAX_CONTEXTS = 1_000_000

ENV_MAX_INTERVENTIONS = "CAK_MAX_INTERVENTIONS"
ENV_MAX_CONTEXTS = "CAK_MAX_CONTEXTS"


class CakError(Exception):
    """Base class for all library errors."""


class InputError(CakError):
    """Malformed or ill-typed input (maps to CLI exit code 2)."""


class ParseError(InputError):
    """Unparseable expression or document."""


class EvaluationError(CakError):
    """An equation produced a value outside its variable's domain, or a
    lookup table has no entry for the supplied argument tuple."""


class CyclicModelError(CakError):
    """The static dependency graph of a model contains a cycle."""

    def __init__(self, path: tuple[str, ...]):
        self.path = path
        super().__init__("cycle: " + " -> ".join(path))


class SizeCapExceeded(InputError):
    """A requested enumeration exceeds the configured size cap."""

    def __init__(self, what: str, size: int, limit: int):
        self.what = what
        self.size = size
        self.limit = limit
        super().__init__(f"{what} has {size} elements, exceeding the cap of {limit}")


def _cap_from_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise InputError(f"{name} must be positive, got {value}")
    return value


def interventions_cap() -> int:
    """Effective cap on intervention-space enumerations."""
    return _cap_from_env(ENV_MAX_INTERVENTIONS, DEFAULT_MAX_INTERVENTIONS)


def contexts_cap() -> int:
    """Effective cap on context/state-space enumerations."""
    return _cap_from_env(ENV_MAX_CONTEXTS, DEFAULT_MAX_CONTEXTS)
