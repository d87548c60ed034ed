"""Maps between the state, context, and distribution spaces of two models."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InputError
from .expr import Expr, compile_expr, variables
from .model import Assignment, Signature, enumerate_states


def _shared(mapping) -> Assignment:
    # Assignments are immutable, so a table shares them instead of copying.
    return mapping if isinstance(mapping, Assignment) else Assignment(mapping)


@dataclass(frozen=True)
class StateMap:
    """Total map from low endogenous states to high endogenous states.

    Backed either by an explicit table or by one expression per high
    variable over the low endogenous variables. Expression-backed maps
    carry the high variable declarations so they can be applied without
    further context.
    """

    entries: tuple[tuple[Assignment, Assignment], ...] | None = None
    exprs: tuple[tuple[str, Expr], ...] | None = None

    def __post_init__(self):
        if (self.entries is None) == (self.exprs is None):
            raise InputError("a state map is backed by exactly one of a table or expressions")
        if self.entries is not None:
            canon = tuple(sorted((_shared(a), _shared(b)) for a, b in self.entries))
            if len({a for a, _ in canon}) != len(canon):
                raise InputError("duplicate state-map entry")
            object.__setattr__(self, "entries", canon)
        else:
            object.__setattr__(self, "exprs", tuple(self.exprs))

    @staticmethod
    def from_table(pairs: Iterable[tuple[Assignment, Assignment]]) -> "StateMap":
        return StateMap(entries=tuple(pairs))

    @staticmethod
    def from_exprs(exprs: Mapping[str, Expr]) -> "StateMap":
        return StateMap(exprs=tuple(exprs.items()))

    @staticmethod
    def identity(signature: Signature) -> "StateMap":
        from .expr import Var

        return StateMap.from_exprs({d.name: Var(d.name) for d in signature.endogenous})

    @cached_property
    def _lookup(self) -> dict[Assignment, Assignment] | None:
        return dict(self.entries) if self.entries is not None else None

    @cached_property
    def _compiled(self):
        if self.exprs is None:
            return None
        return sorted(
            ((name, compile_expr(e)) for name, e in self.exprs), key=lambda p: p[0]
        )

    def apply(self, state: Assignment) -> Assignment:
        if self._lookup is not None:
            try:
                return self._lookup[state]
            except KeyError:
                raise InputError(f"state map is undefined on {state!r}") from None
        env = state._dict  # read-only use by the compiled closures
        return Assignment._from_sorted_items(
            tuple((name, fn(env)) for name, fn in self._compiled)
        )

    def referenced(self) -> frozenset[str]:
        """Low variables the map reads (table maps read all keys' variables)."""
        if self.exprs is not None:
            out: frozenset[str] = frozenset()
            for _, e in self.exprs:
                out |= variables(e)
            return out
        first = self.entries[0][0] if self.entries else Assignment()
        return frozenset(first)


def materialize_state_map(tau: StateMap, low: Signature, high: Signature, cap: int | None = None) -> dict[Assignment, Assignment]:
    """Explicit table of `tau` over the full low state space.

    Verifies totality and that outputs are well-typed high states.
    """
    states = enumerate_states(low, cap)
    high_names = set(high.endo_names)
    table: dict[Assignment, Assignment] = {}
    for s in states:
        image = tau.apply(s)
        if set(image) != high_names:
            raise InputError(
                f"state map sends {s!r} to {image!r}, which does not assign exactly the high endogenous variables"
            )
        for name, value in image.items_sorted:
            if value not in high.domains[name]:
                raise InputError(
                    f"state map sends {s!r} to out-of-domain value {name}={value}"
                )
        table[s] = image
    return table


@dataclass(frozen=True)
class ContextMap:
    """Total map from low contexts to high contexts, as an explicit table."""

    entries: tuple[tuple[Assignment, Assignment], ...]

    def __post_init__(self):
        canon = tuple(sorted((Assignment(a), Assignment(b)) for a, b in self.entries))
        if len({a for a, _ in canon}) != len(canon):
            raise InputError("duplicate context-map entry")
        object.__setattr__(self, "entries", canon)

    @staticmethod
    def from_table(pairs: Iterable[tuple[Assignment, Assignment]]) -> "ContextMap":
        return ContextMap(tuple(pairs))

    @cached_property
    def table(self) -> dict[Assignment, Assignment]:
        return dict(self.entries)

    def apply(self, context: Assignment) -> Assignment:
        try:
            return self.table[context]
        except KeyError:
            raise InputError(f"context map is undefined on {context!r}") from None

    def image(self) -> tuple[Assignment, ...]:
        seen: dict[Assignment, None] = {}
        for _, dst in self.entries:
            seen.setdefault(dst)
        return tuple(seen)


def compose_state_maps(
    first: StateMap,
    second: StateMap,
    low: Signature,
    mid: Signature,
    cap: int | None = None,
) -> StateMap:
    """Table computing second(first(s)) over the full low state space."""
    inner = materialize_state_map(first, low, mid, cap)
    return StateMap.from_table(tuple((s, second.apply(v)) for s, v in inner.items()))


def compose_intervention_maps(first, second):
    """Table computing second(first(i)) over first's domain."""
    from .interventions import InterventionMap

    return InterventionMap.from_pairs(
        tuple((src, second.apply(dst)) for src, dst in first.entries)
    )
