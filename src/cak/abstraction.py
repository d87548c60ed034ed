"""The induced intervention map and the abstraction hierarchy.

A state map tau induces a partial map on interventions: a low intervention
is sent to the unique high intervention whose restriction set has exactly
the same tau-image as the low restriction set, when such a high
intervention exists. The hierarchy of checks built on top of it is, from
weakest to strongest: tau-abstraction (surjective tau, a surjective
compatible context map, and matching induced intervention sets), strong
abstraction (every high intervention is induced), and constructive
abstraction (tau additionally factors over a partition of the low
variables, one cell per high variable plus an optional marginalized
remainder).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product, repeat
from math import prod
from operator import attrgetter, is_not, or_
from typing import Iterable, Sequence

from .errors import InputError
from .interventions import enumerate_interventions, intervention_options, interventions_from, resolve_interventions
from .maps import InterventionMap, StateMap, tabulate
from .model import Assignment, CausalModel, VariableDecl, _check_space, _supports, check_intervention, enumerate_states
from .report import CheckReport
from .transform import _find_compatible, _image_ids


def _product(decls: Sequence[VariableDecl], partial: Assignment) -> Iterable[tuple[int, ...]]:
    return product(
        *(((partial[d.name],) if d.name in partial else d.domain) for d in decls)
    )


def rst(decls: Sequence[VariableDecl], partial: Assignment) -> list[Assignment]:
    """All total states over `decls` that agree with `partial`, in
    declaration-order lexicographic order, under the contexts cap."""
    names = [d.name for d in decls]
    unknown = [v for v in partial if v not in names]
    if unknown:
        raise InputError(f"assignment mentions variables outside the set: {unknown}")
    for d in decls:
        if d.name in partial and partial[d.name] not in d.domain:
            raise InputError(f"{d.name}={partial[d.name]} is outside the declared domain")
    _check_space([d.domain for d in decls if d.name not in partial], "restriction set")
    return [Assignment(zip(names, combo)) for combo in _product(decls, partial)]


def _mask(ids: Iterable[int], width: int) -> int:
    """The int whose set bits are `ids`, all below `width`, built in time
    linear in `width` (ORing one bit at a time is quadratic)."""
    digits = bytearray(b"0") * width
    for k in ids:
        digits[k] = 49  # ord("1")
    return int(digits[::-1], 2)


class _TauTable:
    """tau materialized once for a whole check.

    `by_values` maps each low state's value tuple, in declaration order
    (what restriction-set products yield), to its image, in the low
    states' enumeration order, from `tabulate`: equal images are one
    object. The layers that apply tau apply the caller's map.

    `ids` numbers the distinct images in order of first appearance. The
    profile pass reads it, and for the induced map a set of images is an
    int mask no wider than the low state space, whatever the size of the
    high one. `value_masks` holds, for each high variable with more than
    one value, its domain size, the value of each image in id order, and
    the mask of the images that take each value some image takes; a
    variable whose whole domain is one value is constant in every
    restriction set, and leaving it out keeps the candidate minimal and
    the empty intervention's image empty.
    """

    def __init__(self, m_low: CausalModel, m_high: CausalModel, tau: StateMap):
        self.low, self.high, self.tau = m_low.signature, m_high.signature, tau
        self.by_values = tabulate(tau, self.low, self.high)
        self.ids = _image_ids(self.by_values)
        self.value_masks = []
        for d in self.high.endogenous:
            if len(d.domain) > 1:
                values = [image[d.name] for image in self.ids]
                taking: dict[int, list[int]] = {}
                for k, v in enumerate(values):
                    taking.setdefault(v, []).append(k)
                masks = {v: _mask(at, len(self.ids)) for v, at in taking.items()}
                self.value_masks.append((d.name, len(d.domain), values, masks))
        self._images: dict[int, Assignment | None] = {}  # decoded masks

    def _image(self, mask: int) -> Assignment | None:
        """The high intervention whose restriction set is the set of
        images in `mask`, or None.

        Any such intervention fixes exactly the variables on which every
        image in `mask` takes one value (up to one-value domains), so the
        candidate is unique. That value is the lowest image's, and the
        images agree on it exactly when the mask of its takers holds
        `mask`. Every image in `mask` agrees with the candidate, so `mask`
        is a subset of its restriction set, and equal to it exactly when
        the sizes match.
        """
        if mask not in self._images:
            first = (mask & -mask).bit_length() - 1  # the lowest image's id
            fixed: dict[str, int] = {}
            size = 1
            for name, n, values, masks in self.value_masks:
                v = values[first]
                if mask & masks[v] == mask:
                    fixed[name] = v
                else:
                    size *= n
            self._images[mask] = Assignment(fixed) if mask and mask.bit_count() == size else None
        return self._images[mask]

    def induced(self, intervention: Assignment) -> Assignment | None:
        """Image of one low intervention under the induced map, or None:
        the mask of the images over its restriction set, decoded."""
        images = {self.by_values[t] for t in _product(self.low.endogenous, intervention)}
        return self._image(_mask(map(self.ids.__getitem__, images), len(self.ids)))

    def _lattice(self) -> list[int]:
        """The image mask of every low intervention, in
        `enumerate_interventions` order, filled bottom-up. The caller has
        checked the intervention cap.

        It starts from the total states' bits. One variable at a time, from
        the last declared to the first, each block of its value slots gains
        an unset slot in front, the OR of the value slots.
        """
        masks = [1 << self.ids[image] for image in self.by_values.values()]
        inner = 1  # slots per value of the current variable
        for d in reversed(self.low.endogenous):
            block = len(d.domain) * inner
            filled: list[int] = []
            for start in range(0, len(masks), block):
                values = masks[start : start + block]
                unset = values[:inner]
                for k in range(inner, block, inner):
                    unset = list(map(or_, unset, values[k : k + inner]))
                filled += unset
                filled += values
            masks = filled
            inner += block
        return masks

    def induced_sets(self) -> tuple[list[tuple[Assignment, Assignment]], tuple[Assignment, ...]]:
        """Every low intervention with a defined image, paired with it, and
        the image set, both in deterministic order. Only these
        interventions and their images are built."""
        names, options = intervention_options(self.low)
        masks = self._lattice()
        images = {m: self._image(m) for m in set(masks)}
        found = list(map(images.__getitem__, masks))
        # EMPTY is falsy, so definedness is `is not None`.
        lows = interventions_from(names, compress(product(*options), map(is_not, found, repeat(None))))
        defined = list(zip(lows, [img for img in found if img is not None]))
        return defined, tuple(dict.fromkeys([img for _, img in defined]))


def derive_omega_tau(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    intervention: Assignment,
) -> Assignment | None:
    """Image of one low intervention under the induced map, or None."""
    check_intervention(m_low, intervention)
    return _TauTable(m_low, m_high, tau).induced(intervention)


def compute_induced_sets(
    m_low: CausalModel, m_high: CausalModel, tau: StateMap
) -> tuple[tuple[Assignment, ...], tuple[Assignment, ...], InterventionMap]:
    """The set of low interventions with a defined induced image, the image
    set, and the explicit induced map, all in deterministic order."""
    defined, images = _TauTable(m_low, m_high, tau).induced_sets()
    return tuple(i for i, _ in defined), images, InterventionMap.from_pairs(defined)


def check_tau_abstraction(m_low: CausalModel, m_high: CausalModel, tau: StateMap) -> CheckReport:
    """The three-part abstraction check between the models' allowed sets
    I_L and I_H:

    (a) tau is surjective onto the high state space;
    (b) a surjective context map compatible with tau exists, taking the
        intervention map to be the induced one restricted to I_L;
    (c) I_H equals the induced image of I_L as a set.

    Every intervention in I_L must have a defined induced image;
    otherwise the check fails at (c) naming the offending intervention.
    The report identifies the first failing part. An explicit allowed set
    must be well-typed for its model. To check other sets, restrict the
    models with `with_allowed`.
    """
    low_list = resolve_interventions(m_low)
    high_list = resolve_interventions(m_high)
    table = _TauTable(m_low, m_high, tau)
    pairs = []
    for i in low_list:
        img = table.induced(i)
        if img is None:
            return CheckReport(
                False,
                detail="(c) an allowed low intervention has no induced image",
                counterexample={"intervention": i},
            )
        pairs.append((i, img))
    return _tau_abstraction(m_low, m_high, table, pairs, high_list)


def _tau_abstraction(
    m_low: CausalModel,
    m_high: CausalModel,
    table: _TauTable,
    pairs: list[tuple[Assignment, Assignment]],
    high_list: Sequence[Assignment],
) -> CheckReport:
    """Parts (a) to (c) of check_tau_abstraction over the low interventions
    of `pairs`, each paired with its induced image: the low allowed set,
    or for the strong check the induced set."""
    # tau's distinct images are high states, so they are all of them
    # exactly when there are as many: the states are enumerated, under the
    # cap, only to name the first one missed.
    if len(table.ids) < prod([len(d.domain) for d in table.high.endogenous]):
        unreached = next(state for state in enumerate_states(m_high) if state not in table.ids)
        return CheckReport(
            False,
            detail="(a) tau is not surjective",
            counterexample={"unreached_high_state": unreached},
        )

    i_low, images = [i for i, _ in pairs], [img for _, img in pairs]
    inner = _find_compatible(m_low, m_high, table.tau, table.ids, i_low, images, require_surjective=True)
    if not inner.verdict:
        return CheckReport(
            False,
            detail="(b) no surjective compatible context map: " + inner.detail,
            counterexample=inner.counterexample,
        )

    induced_image = set(images)
    high_set = set(high_list)
    if induced_image != high_set:
        missing = [h for h in high_list if h not in induced_image]
        extra = [h for h in induced_image if h not in high_set]
        return CheckReport(
            False,
            detail="(c) the high intervention set differs from the induced image",
            counterexample={"missing_from_image": tuple(missing), "not_allowed_high": tuple(sorted(extra))},
        )
    return CheckReport(
        True,
        detail="tau-abstraction holds",
        witness={"tau_u": inner.witness, "omega_tau": InterventionMap.from_pairs(pairs)},
    )


def check_strong_abstraction(m_low: CausalModel, m_high: CausalModel, tau: StateMap) -> CheckReport:
    """Strong abstraction: every high intervention is induced, and the
    tau-abstraction check holds between the induced sets."""
    return _strong(m_low, m_high, _TauTable(m_low, m_high, tau))


def _strong(m_low: CausalModel, m_high: CausalModel, table: _TauTable) -> CheckReport:
    """check_strong_abstraction on a table its caller already built."""
    defined, i_high_tau = table.induced_sets()
    # The images are distinct high interventions, so they are all of them
    # exactly when there are as many: the space is enumerated, under the
    # cap, only to name the missing ones.
    _, options = intervention_options(m_high)
    if len(i_high_tau) < prod(map(len, options)):
        induced = set(i_high_tau)
        missing = [h for h in enumerate_interventions(m_high) if h not in induced]
        first_single = next((h for h in missing if len(h) == 1), None)
        named = first_single if first_single is not None else missing[0]
        return CheckReport(
            False,
            detail=f"high intervention {dict(named)} is not induced by any low intervention",
            counterexample={
                "missing_high_interventions": tuple(missing),
                "first_missing_single": first_single,
            },
        )
    inner = _tau_abstraction(m_low, m_high, table, defined, i_high_tau)
    if not inner.verdict:
        return CheckReport(
            False,
            detail="induced sets cover everything but the tau-abstraction check fails: "
            + inner.detail,
            counterexample=inner.counterexample,
        )
    return CheckReport(True, detail="strong tau-abstraction holds", witness=inner.witness)


# ---------------------------------------------------------------------------
# Constructive abstraction

@dataclass(frozen=True)
class Partition:
    """Disjoint cells of low variables, one per high variable in high
    declaration order, plus an optional marginalized remainder."""

    cells: tuple[tuple[str, tuple[str, ...]], ...]
    marginal: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "cells", tuple((h, tuple(vs)) for h, vs in self.cells)
        )
        object.__setattr__(self, "marginal", tuple(self.marginal))


@dataclass(frozen=True)
class ComponentMaps:
    """Per-cell value maps: for each high variable, a table from the cell's
    value tuples (in cell order) to a high value."""

    maps: tuple[tuple[str, tuple[tuple[tuple[int, ...], int], ...]], ...]

    @staticmethod
    def from_tables(tables: dict[str, dict[tuple[int, ...], int]]) -> "ComponentMaps":
        return ComponentMaps(
            tuple(
                (h, tuple(sorted(tbl.items()))) for h, tbl in tables.items()
            )
        )


def _check_partition_shape(
    partition: Partition, m_low: CausalModel, m_high: CausalModel
) -> None:
    low_vars = set(m_low.signature.endo_names)
    high_vars = list(m_high.signature.endo_names)
    cell_highs = [h for h, _ in partition.cells]
    if sorted(cell_highs) != sorted(high_vars):
        raise InputError(
            f"partition cells must be keyed by exactly the high endogenous variables {high_vars}"
        )
    seen: set[str] = set()
    for h, vs in partition.cells:
        if not vs:
            raise InputError(f"cell for {h} is empty")
        for v in vs:
            if v not in low_vars:
                raise InputError(f"cell for {h} contains unknown low variable {v}")
            if v in seen:
                raise InputError(f"low variable {v} appears in more than one cell")
            seen.add(v)
    for v in partition.marginal:
        if v not in low_vars:
            raise InputError(f"marginal cell contains unknown low variable {v}")
        if v in seen:
            raise InputError(f"low variable {v} appears in both a cell and the marginal")
        seen.add(v)
    if seen != low_vars:
        raise InputError(
            f"partition does not cover the low variables: missing {sorted(low_vars - seen)}"
        )


def derive_component_maps(m_low: CausalModel, m_high: CausalModel, tau: StateMap, partition: Partition):
    """Project tau onto each cell of the partition, which must be well
    formed. Returns (ComponentMaps, None) when tau's component for each
    high variable depends only on that variable's cell, else (None,
    counterexample) with two low states exhibiting the dependence on a
    variable outside the cell."""
    _check_partition_shape(partition, m_low, m_high)
    return _components(_TauTable(m_low, m_high, tau), partition)


def _components(table: _TauTable, partition: Partition):
    """derive_component_maps on a table its caller already built, reading
    the low states in enumeration order."""
    names = table.low.endo_names
    position = {n: k for k, n in enumerate(names)}
    cells = [(h, cell, [position[v] for v in cell]) for h, cell in partition.cells]
    tables: dict[str, dict[tuple[int, ...], int]] = {h: {} for h, _ in partition.cells}
    first_state: dict[tuple[str, tuple[int, ...]], tuple[int, ...]] = {}
    for values, image in table.by_values.items():
        for high_var, cell, picks in cells:
            key = tuple([values[k] for k in picks])
            value = image[high_var]
            tbl = tables[high_var]
            if key not in tbl:
                tbl[key] = value
                first_state[(high_var, key)] = values
            elif tbl[key] != value:
                return None, {
                    "high_var": high_var,
                    "cell": cell,
                    "states": tuple(
                        Assignment(zip(names, t)) for t in (first_state[(high_var, key)], values)
                    ),
                    "values": (tbl[key], value),
                }
    return ComponentMaps.from_tables(tables), None


def check_constructive(
    m_low: CausalModel, m_high: CausalModel, tau: StateMap, partition: Partition
) -> CheckReport:
    """Constructive abstraction: tau factors through the partition as the
    concatenation of per-cell maps, its projections onto the cells, and
    the strong abstraction check holds."""
    _check_partition_shape(partition, m_low, m_high)
    table = _TauTable(m_low, m_high, tau)
    comps, failure = _components(table, partition)
    if comps is None:
        return CheckReport(
            False,
            detail=f"tau does not factor through the partition (component {failure['high_var']})",
            counterexample=failure,
        )
    strong = _strong(m_low, m_high, table)
    if not strong.verdict:
        return CheckReport(
            False,
            detail="tau factors but is not a strong abstraction: " + strong.detail,
            counterexample=strong.counterexample,
        )
    return CheckReport(
        True,
        detail="constructive abstraction holds",
        witness={"partition": partition, "components": comps, **strong.witness},
    )


def search_constructive_partition(m_low: CausalModel, m_high: CausalModel, tau: StateMap):
    """Find a partition and component maps certifying constructiveness, or
    None.

    tau factors over disjoint cells exactly when the per-component semantic
    supports are pairwise disjoint, so the canonical candidate assigns each
    high variable its support and marginalizes the rest. A constant
    component (empty support) rules out every partition: the high
    intervention that sets it to a value tau never gives it, or to its
    only value, is induced by no low intervention, so the strong check
    fails whatever the cells. The candidate is well formed by
    construction, and its component maps are the projections of tau, so
    what remains is the strong check. The caps bound it as they bound
    every check: tau's table the contexts cap, the strong check the
    intervention cap.
    """
    low_names = m_low.signature.endo_names
    table = _TauTable(m_low, m_high, tau)
    images = map(attrgetter("_values"), table.by_values.values())
    reads = _supports(dict(zip(table.by_values, images)))
    supports = dict(zip(sorted(table.high.endo_names), reads))  # images' values are in name order
    used: set[int] = set()
    cells = []
    for d in table.high.endogenous:
        support = supports[d.name]
        if not support or used & support:
            return None
        used |= support
        cells.append((d.name, tuple(low_names[k] for k in sorted(support))))
    partition = Partition(tuple(cells), tuple(v for k, v in enumerate(low_names) if k not in used))
    comps, failure = _components(table, partition)
    if comps is None:
        raise AssertionError(f"disjoint supports must factor, got {failure}")
    if not _strong(m_low, m_high, table).verdict:
        return None
    return partition, comps
