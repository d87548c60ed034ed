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

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, SizeCapExceeded
from .interventions import enumerate_interventions, resolve_interventions
from .maps import InterventionMap, StateMap, materialize_state_map
from .model import Assignment, CausalModel, VariableDecl, check_intervention, enumerate_states
from .report import CheckReport
from .transform import find_compatible_tau_u


def _product(decls: Sequence[VariableDecl], partial: Assignment) -> Iterable[tuple[int, ...]]:
    return itertools.product(
        *(((partial[d.name],) if d.name in partial else d.domain) for d in decls)
    )


def rst(decls: Sequence[VariableDecl], partial: Assignment) -> list[Assignment]:
    """All total states over `decls` that agree with `partial`, in
    declaration-order lexicographic order."""
    names = [d.name for d in decls]
    unknown = [v for v in partial if v not in names]
    if unknown:
        raise InputError(f"assignment mentions variables outside the set: {unknown}")
    for d in decls:
        if d.name in partial and partial[d.name] not in d.domain:
            raise InputError(f"{d.name}={partial[d.name]} is outside the declared domain")
    return [Assignment(zip(names, combo)) for combo in _product(decls, partial)]


class _TauTable:
    """tau materialized once for a whole check.

    `by_values` maps each low state's value tuple, in declaration order
    (what restriction-set products yield), to its image. The layers that
    apply tau apply the caller's map: once materialized, it answers from
    its own table or its cache of images.
    """

    def __init__(self, m_low: CausalModel, m_high: CausalModel, tau: StateMap, cap: int | None):
        self.low, self.high, self.tau = m_low.signature, m_high.signature, tau
        names = self.low.endo_names
        self.by_values = {
            tuple(state[n] for n in names): image
            for state, image in materialize_state_map(tau, self.low, self.high, cap).items()
        }

    def induced(self, intervention: Assignment) -> Assignment | None:
        """Image of one low intervention under the induced map, or None.

        The tau-image S of the low restriction set fixes some high
        coordinates; any valid high intervention must set exactly those (up
        to variables with one-value domains, which are dropped), so the
        candidate is unique and it remains to verify that S is exactly the
        candidate's restriction set.
        """
        images = {self.by_values[t] for t in _product(self.low.endogenous, intervention)}

        # A variable whose whole domain is a single value is constant in
        # every restriction set; leaving it out keeps the candidate minimal
        # and the empty intervention's image empty.
        fixed: dict[str, int] = {}
        size = 1
        for d in self.high.endogenous:
            if len(d.domain) == 1:
                continue
            values = {state[d.name] for state in images}
            if len(values) == 1:
                fixed[d.name] = next(iter(values))
            else:
                size *= len(d.domain)
        # Every image agrees with the candidate on its fixed coordinates and
        # lies in the high domains, so S is a subset of Rst(candidate) and
        # equal to it exactly when the sizes match.
        return Assignment(fixed) if size == len(images) else None

    def induced_sets(
        self, cap: int | None
    ) -> tuple[list[tuple[Assignment, Assignment]], tuple[Assignment, ...]]:
        """Every low intervention with a defined image, paired with it, and
        the image set, both in deterministic order."""
        defined: list[tuple[Assignment, Assignment]] = []
        image_order: dict[Assignment, None] = {}
        for i in enumerate_interventions(self.low, cap):
            img = self.induced(i)
            if img is not None:
                defined.append((i, img))
                image_order.setdefault(img)
        return defined, tuple(image_order)


def derive_omega_tau(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    intervention: Assignment,
    cap: int | None = None,
) -> Assignment | None:
    """Image of one low intervention under the induced map, or None."""
    check_intervention(m_low, intervention)
    return _TauTable(m_low, m_high, tau, cap).induced(intervention)


def compute_induced_sets(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    cap: int | None = None,
) -> tuple[tuple[Assignment, ...], tuple[Assignment, ...], InterventionMap]:
    """The set of low interventions with a defined induced image, the image
    set, and the explicit induced map, all in deterministic order."""
    defined, images = _TauTable(m_low, m_high, tau, cap).induced_sets(cap)
    return tuple(i for i, _ in defined), images, InterventionMap.from_pairs(defined)


def check_tau_abstraction(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    i_low: Iterable[Assignment] | None = None,
    i_high: Iterable[Assignment] | None = None,
    cap: int | None = None,
) -> CheckReport:
    """The three-part abstraction check for the given intervention sets
    (defaulting to the models' allowed sets):

    (a) tau is surjective onto the high state space;
    (b) a surjective context map compatible with tau exists, taking the
        intervention map to be the induced one restricted to `i_low`;
    (c) `i_high` equals the induced image of `i_low` as a set.

    Every intervention in `i_low` must have a defined induced image;
    otherwise the check fails at (c) naming the offending intervention.
    The report identifies the first failing part. Explicitly given
    interventions must be well-typed for their model.
    """
    low_list = resolve_interventions(m_low, i_low, cap)
    high_list = resolve_interventions(m_high, i_high, cap)
    table = _TauTable(m_low, m_high, tau, cap)
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
    return _tau_abstraction(m_low, m_high, table, pairs, high_list, cap)


def _tau_abstraction(
    m_low: CausalModel,
    m_high: CausalModel,
    table: _TauTable,
    pairs: list[tuple[Assignment, Assignment]],
    high_list: Sequence[Assignment],
    cap: int | None,
) -> CheckReport:
    """Parts (a) to (c) of check_tau_abstraction, given every low
    intervention paired with its induced image."""
    omega_tau = InterventionMap.from_pairs(pairs)
    image = set(table.by_values.values())
    for state in enumerate_states(m_high, cap):
        if state not in image:
            return CheckReport(
                False,
                detail="(a) tau is not surjective",
                counterexample={"unreached_high_state": state},
            )

    inner = find_compatible_tau_u(
        m_low,
        m_high,
        table.tau,
        omega_tau,
        i_low=[i for i, _ in pairs],
        require_surjective=True,
        cap=cap,
    )
    if not inner.verdict:
        return CheckReport(
            False,
            detail="(b) no surjective compatible context map: " + inner.detail,
            counterexample=inner.counterexample,
        )

    induced_image = {img for _, img in pairs}
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
        witness={"tau_u": inner.witness, "omega_tau": omega_tau},
    )


def check_strong_abstraction(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    cap: int | None = None,
) -> CheckReport:
    """Strong abstraction: every high intervention is induced, and the
    tau-abstraction check holds between the induced sets."""
    return _strong(m_low, m_high, _TauTable(m_low, m_high, tau, cap), cap)


def _strong(
    m_low: CausalModel, m_high: CausalModel, table: _TauTable, cap: int | None
) -> CheckReport:
    """check_strong_abstraction on a table its caller already built."""
    defined, i_high_tau = table.induced_sets(cap)
    all_high = enumerate_interventions(m_high, cap)
    induced = set(i_high_tau)
    missing = [h for h in all_high if h not in induced]
    if missing:
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
    inner = _tau_abstraction(m_low, m_high, table, defined, i_high_tau, cap)
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

    def table(self, high_var: str) -> dict[tuple[int, ...], int]:
        for h, entries in self.maps:
            if h == high_var:
                return dict(entries)
        raise InputError(f"no component map for {high_var}")

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


def derive_component_maps(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    partition: Partition,
    cap: int | None = None,
):
    """Project tau onto each cell. Returns (ComponentMaps, None) when tau's
    component for each high variable depends only on that variable's cell,
    else (None, counterexample) with two low states exhibiting the
    dependence on a variable outside the cell."""
    low_sig = m_low.signature
    states = enumerate_states(low_sig, cap)
    tables: dict[str, dict[tuple[int, ...], int]] = {h: {} for h, _ in partition.cells}
    first_state: dict[tuple[str, tuple[int, ...]], Assignment] = {}
    for state in states:
        image = tau.apply(state)
        for high_var, cell in partition.cells:
            key = tuple(state[v] for v in cell)
            value = image[high_var]
            tbl = tables[high_var]
            if key not in tbl:
                tbl[key] = value
                first_state[(high_var, key)] = state
            elif tbl[key] != value:
                return None, {
                    "high_var": high_var,
                    "cell": cell,
                    "states": (first_state[(high_var, key)], state),
                    "values": (tbl[key], value),
                }
    return ComponentMaps.from_tables(tables), None


def check_constructive(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    partition: Partition,
    comps: ComponentMaps | None = None,
    cap: int | None = None,
) -> CheckReport:
    """Constructive abstraction: tau factors through the partition as the
    concatenation of per-cell maps, and the strong abstraction check holds.
    When `comps` is omitted the per-cell maps are derived by projection."""
    _check_partition_shape(partition, m_low, m_high)
    table = _TauTable(m_low, m_high, tau, cap)
    derived, failure = derive_component_maps(m_low, m_high, table.tau, partition, cap)
    if derived is None:
        return CheckReport(
            False,
            detail=f"tau does not factor through the partition (component {failure['high_var']})",
            counterexample=failure,
        )
    if comps is not None:
        for high_var, cell in partition.cells:
            given = comps.table(high_var)
            if given != derived.table(high_var):
                mismatch = next(
                    k
                    for k in set(given) | set(derived.table(high_var))
                    if given.get(k) != derived.table(high_var).get(k)
                )
                return CheckReport(
                    False,
                    detail=f"supplied component map for {high_var} disagrees with tau",
                    counterexample={"high_var": high_var, "cell_values": mismatch},
                )
    strong = _strong(m_low, m_high, table, cap)
    if not strong.verdict:
        return CheckReport(
            False,
            detail="tau factors but is not a strong abstraction: " + strong.detail,
            counterexample=strong.counterexample,
        )
    return CheckReport(
        True,
        detail="constructive abstraction holds",
        witness={"partition": partition, "components": comps or derived, **strong.witness},
    )


def _semantic_supports(table: _TauTable) -> dict[str, set[str]]:
    """For each high variable, the low variables its tau-component actually
    reads: v is in the support when two low states differing only at v map
    to different values of that component."""
    high_names = table.high.endo_names
    supports: dict[str, set[str]] = {h: set() for h in high_names}
    for idx, var in enumerate(table.low.endo_names):
        buckets: dict[tuple, list[tuple[int, ...]]] = {}
        for t in table.by_values:
            buckets.setdefault(t[:idx] + t[idx + 1 :], []).append(t)
        for group in buckets.values():
            if len(group) < 2:
                continue
            for high_var in high_names:
                if var in supports[high_var]:
                    continue
                values = {table.by_values[t][high_var] for t in group}
                if len(values) > 1:
                    supports[high_var].add(var)
    return supports


def search_constructive_partition(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    max_low_vars: int = 10,
    cap: int | None = None,
):
    """Find a partition and component maps certifying constructiveness, or
    None.

    tau factors over disjoint cells exactly when the per-component semantic
    supports are pairwise disjoint, so the canonical candidate assigns each
    high variable its support (padded from the unused low variables when a
    component is constant, in declaration order) and marginalizes the rest.
    The candidate is well formed by construction, and its component maps
    are the projections of tau, so what remains is the strong check.
    """
    low_names = m_low.signature.endo_names
    if len(low_names) > max_low_vars:
        raise SizeCapExceeded("low variable set", len(low_names), max_low_vars)
    table = _TauTable(m_low, m_high, tau, cap)
    supports = _semantic_supports(table)
    used: set[str] = set()
    for high_var, support in supports.items():
        if used & support:
            return None
        used |= support
    unused = [v for v in low_names if v not in used]
    cells = []
    for d in m_high.signature.endogenous:
        support = supports[d.name]
        if not support:
            if not unused:
                return None
            support = {unused.pop(0)}
        cells.append((d.name, tuple(v for v in low_names if v in support)))
    partition = Partition(tuple(cells), tuple(unused))
    comps, failure = derive_component_maps(m_low, m_high, table.tau, partition, cap)
    if comps is None:
        raise AssertionError(f"disjoint supports must factor, got {failure}")
    if not _strong(m_low, m_high, table, cap).verdict:
        return None
    return partition, comps
