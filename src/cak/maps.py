"""Maps between the state, context, and distribution spaces of two models."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, product
from operator import attrgetter, itemgetter, lt
from typing import Callable, ClassVar, Iterable, Mapping

from .errors import InputError
from .expr import Expr, Var, _tuple_kernel, variables
from .model import Assignment, Signature, _enumerate_total, _shared, _to_name_order, enumerate_states


@dataclass(frozen=True)
class FiniteMap:
    """A finite table from assignments to assignments.

    Entries are sorted into a canonical order and share the `Assignment`s
    they are given. A key may appear once; `apply` is defined exactly on
    the keys. Subclasses name the kind of map in their error messages.
    Entries that arrive in canonical order are kept as they are.
    """

    kind: ClassVar[str] = "finite map"
    entries: tuple[tuple[Assignment, Assignment], ...]

    def __post_init__(self):
        canon = tuple(self.entries.items() if isinstance(self.entries, Mapping) else self.entries)
        if not _in_canonical_order(canon):
            # Sorted by the keys' name-sorted items, the order Assignments
            # compare in, so equal keys end up next to each other. The
            # positions are sorted, keyed by a C-level lookup of the items.
            pairs = [(_shared(a), _shared(b)) for a, b in canon]
            items = [key._items for key, _ in pairs]
            canon = tuple(map(pairs.__getitem__, sorted(range(len(pairs)), key=items.__getitem__)))
            for (key, _), (before, _) in zip(canon[1:], canon):
                if key._items == before._items:
                    raise InputError(f"duplicate {self.kind} entry for {key!r}")
        object.__setattr__(self, "entries", canon)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Assignment, Assignment]]):
        return cls(tuple(pairs))

    from_table = from_pairs

    @classmethod
    def identity(cls, keys: Iterable[Assignment]):
        return cls(tuple((k, k) for k in keys))

    @cached_property
    def _lookup(self) -> dict[tuple, Assignment]:
        # Keyed by the keys' name-sorted items, which hash and compare
        # without a Python-level call per lookup.
        return {key._items: value for key, value in self.entries}

    def apply(self, key: Assignment) -> Assignment:
        try:
            return self._lookup[key._items]
        except KeyError:
            raise InputError(f"{self.kind} is undefined on {key!r}") from None

    def image(self) -> tuple[Assignment, ...]:
        """The distinct values, in entry order."""
        return tuple(dict.fromkeys(dst for _, dst in self.entries))


def _in_canonical_order(entries: tuple) -> bool:
    """Whether `entries` are (key, value) tuples of Assignments whose keys'
    name-sorted items strictly increase: the canonical form, free of
    duplicates. Every pass is C-level, with no Python call per entry."""
    if not {*map(type, entries)} <= {tuple} or not {*map(len, entries)} <= {2}:
        return False
    keys = list(map(itemgetter(0), entries))
    if not {*map(type, chain(keys, map(itemgetter(1), entries)))} <= {Assignment}:
        return False
    items = list(map(attrgetter("_items"), keys))
    return all(map(lt, items, islice(items, 1, None)))


class ContextMap(FiniteMap):
    """Total map from low contexts to high contexts."""

    kind = "context map"


class InterventionMap(FiniteMap):
    """Map from low-level to high-level interventions."""

    kind = "intervention map"


@dataclass(frozen=True)
class StateMap(FiniteMap):
    """Total map from low endogenous states to high endogenous states.

    Backed either by an explicit table or by one expression per high
    variable over the low endogenous variables. Expression-backed maps
    carry the high variable declarations so they can be applied without
    further context.
    """

    kind = "state map"
    entries: tuple[tuple[Assignment, Assignment], ...] | None = None
    exprs: tuple[tuple[str, Expr], ...] | None = None

    def __post_init__(self):
        if (self.entries is None) == (self.exprs is None):
            raise InputError("a state map is backed by exactly one of a table or expressions")
        if self.entries is not None:
            super().__post_init__()
        else:
            object.__setattr__(self, "exprs", tuple(self.exprs.items() if isinstance(self.exprs, Mapping) else self.exprs))
            names = [name for name, _ in self.exprs]
            if len(set(names)) != len(names):
                twice = next(name for name in names if names.count(name) > 1)
                raise InputError(f"state map has more than one expression for {twice}")

    @staticmethod
    def from_exprs(exprs: Mapping[str, Expr]) -> "StateMap":
        return StateMap(exprs=exprs)

    @staticmethod
    def identity(signature: Signature) -> "StateMap":
        return StateMap.from_exprs({d.name: Var(d.name) for d in signature.endogenous})

    @cached_property
    def _names(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, _ in self.exprs))

    @cached_property
    def _kernels(self) -> dict[frozenset[str], Callable]:
        return {}

    def _kernel(self, keys: frozenset[str]) -> Callable[[tuple], tuple]:
        """Generated `tau(state_values) -> image_values` for states with
        the key set `keys`, both in name order, as `Assignment._values`."""
        kernel = self._kernels.get(keys)
        if kernel is None:
            exprs = tuple(e for _, e in sorted(self.exprs, key=lambda p: p[0]))
            kernel = self._kernels[keys] = _tuple_kernel(exprs, tuple(sorted(keys)))
        return kernel

    @cached_property
    def _interned(self) -> dict[tuple, Assignment]:
        return {}

    def _image(self, values: tuple) -> Assignment:
        """The image with these values, in name order: one object per
        distinct image, so equal images are found by identity."""
        image = self._interned.get(values)
        if image is None:
            image = self._interned[values] = Assignment._from_sorted_items(tuple(zip(self._names, values)), values)
        return image

    @cached_property
    def _images(self) -> dict[tuple, Assignment]:
        # Images by the state's items, as in `_lookup`. A table holds all
        # of its own; expressions keep the image of each distinct state
        # applied to. A failed evaluation is not kept.
        return self._lookup if self.exprs is None else {}

    def apply(self, state: Assignment) -> Assignment:
        image = self._images.get(state._items)
        if image is None:
            if self.exprs is None:
                # Named directly: super() costs more than the lookup.
                return FiniteMap.apply(self, state)  # raises: not in the table
            image = self._images[state._items] = self._image(self._kernel(state._keys)(state._values))
        return image

    def image(self) -> tuple[Assignment, ...]:
        if self.exprs is not None:
            raise InputError("an expression-backed state map's image depends on the low states: tabulate it")
        return super().image()

    @cached_property
    def _reads(self) -> frozenset[str]:
        # A table map reads its keys' variables.
        if self.exprs is not None:
            return frozenset().union(*[variables(e) for _, e in self.exprs])
        return frozenset(self.entries[0][0] if self.entries else ())


def check_reads(tau: StateMap, low: Signature) -> None:
    """Raise InputError when `tau` reads a variable that is not low
    endogenous."""
    unknown = sorted(tau._reads - low.endo_keyset)
    if unknown:
        raise InputError(f"state map reads variables that are not low endogenous: {unknown}")


def _problem(image: Assignment, high: Signature) -> str | None:
    """Why `image` is not a high state, or None when it is one."""
    if image._keys != high.endo_keyset:
        return f"{image!r}, which does not assign exactly the high endogenous variables"
    bad = [f"{name}={value}" for name, value in image._items if not (type(value) is int and value in high.domains[name])]
    return f"out-of-domain value {bad[0]}" if bad else None


def tabulate(tau: StateMap, low: Signature, high: Signature) -> dict[tuple[int, ...], Assignment]:
    """`tau`'s image of every low state, keyed by the state's values in
    declaration order, in enumeration order, with the checks and errors of
    applying tau to each state in turn and checking its image. The values
    go through tau's kernel, and each distinct image is built and checked
    once, naming the first state sent to it. Equal images are one object:
    for expressions, the object that `apply` returns."""
    check_reads(tau, low)
    states = _enumerate_total(low.endogenous, low.endo_keyset, "endogenous state space")  # checks the cap; lazy
    keys = list(product(*(d.domain for d in low.endogenous)))
    if tau.exprs is None:  # a table holds its images
        found = map(tau.apply, states)
    else:
        found = map(tau._kernel(low.endo_keyset), map(_to_name_order(list(low.endo_names)), keys))
    outs, images = [], {}
    try:
        outs.extend(found)
    finally:  # on an error, the images before it are checked first
        for out in dict.fromkeys(outs):
            image = images[out] = out if tau.exprs is None else tau._image(out)
            problem = _problem(image, high)
            if problem is not None:
                state = Assignment(zip(low.endo_names, keys[outs.index(out)]))
                raise InputError(f"state map sends {state!r} to {problem}")
    return dict(zip(keys, map(images.__getitem__, outs)))


def materialize_state_map(tau: StateMap, low: Signature, high: Signature) -> dict[Assignment, Assignment]:
    """Explicit table of `tau` over the full low state space, with the
    checks and errors of `tabulate`."""
    return dict(zip(enumerate_states(low), tabulate(tau, low, high).values()))


def compose_state_maps(first: StateMap, second: StateMap, low: Signature, mid: Signature) -> StateMap:
    """Table computing second(first(s)) over the full low state space."""
    inner = materialize_state_map(first, low, mid)
    return StateMap.from_table(tuple((s, second.apply(v)) for s, v in inner.items()))


def compose_intervention_maps(
    first: InterventionMap, second: InterventionMap
) -> InterventionMap:
    """Table computing second(first(i)) over first's domain."""
    return InterventionMap.from_pairs(
        tuple((src, second.apply(dst)) for src, dst in first.entries)
    )
