"""Intervention spaces, the natural partial order, and the admissibility of
intervention maps."""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .errors import InputError, SizeCapExceeded, interventions_cap
from .maps import InterventionMap
from .model import Assignment, CausalModel
from .report import CheckReport


def natural_leq(i1: Assignment, i2: Assignment) -> bool:
    """i1 precedes i2 when i2 extends i1 as a partial assignment."""
    return all(i2.get(var) == value for var, value in i1.items_sorted)


def natural_lt(i1: Assignment, i2: Assignment) -> bool:
    return len(i1) < len(i2) and natural_leq(i1, i2)


def intervention_options(model_or_sig) -> tuple[list[str], list[tuple[int | None, ...]]]:
    """The endogenous names and each variable's options in enumeration
    order: unset (None), then each domain value in declared order.

    The space's size is prod_X (|domain(X)| + 1); this refuses it above
    the configured cap, before anything is built over it.
    """
    sig = getattr(model_or_sig, "signature", model_or_sig)
    decls = sig.endogenous
    size = 1
    for d in decls:
        size *= len(d.domain) + 1
    limit = interventions_cap()
    if size > limit:
        raise SizeCapExceeded("intervention space", size, limit)
    return [d.name for d in decls], [(None, *d.domain) for d in decls]


def interventions_from(names: list[str], combos: Iterable[tuple[int | None, ...]]) -> list[Assignment]:
    """The interventions that `combos`, tuples of options over `names`,
    stand for. What the interventions that set the same positions share is
    built once for all of them, and each one's dict and hash on first use
    (`Assignment._partial`)."""
    return list(Assignment._partial(names, combos))


def enumerate_interventions(model_or_sig) -> list[Assignment]:
    """Every partial endogenous assignment, the empty one first.

    Order is deterministic: the product over variables in declaration
    order of their `intervention_options`.
    """
    names, options = intervention_options(model_or_sig)
    return interventions_from(names, product(*options))


def resolve_interventions(model: CausalModel) -> tuple[Assignment, ...]:
    """The model's allowed set: "all" enumerated, an explicit set checked
    against the model intervention by intervention (once per model)."""
    if isinstance(model.allowed_interventions, str):
        return tuple(enumerate_interventions(model))
    return model._checked_allowed


def check_omega(
    omega: InterventionMap,
    low_allowed: Iterable[Assignment],
    high_allowed: Iterable[Assignment],
) -> CheckReport:
    """Surjectivity onto `high_allowed` and order preservation on `low_allowed`.

    Order preservation is monotonicity over strictly comparable pairs:
    i1 < i2 in the natural order must give omega(i1) <= omega(i2). The
    image side cannot demand strictness, because a map induced by a state
    map may collapse comparable interventions onto one image. The map
    must be total on `low_allowed` and land inside `high_allowed`;
    violating either is an input error, not a verdict.

    The pairs i1 < i2 are found by lookup, not by comparing every pair:
    the low list is indexed by each intervention's name-sorted items, and
    each distinct i2 looks up its proper sub-assignments. They are grown
    one item of i2 at a time, in name order, and only while they start
    the items of some low intervention, so the work for i2 is at most
    |i2| times the fewer of 2^|i2| and the number of such starts, rather
    than n per i2. Only the pairs found have their images compared. A
    duplicate counts at each of its positions, and the violations come in
    the order of a double loop over the list, i1 outer.
    """
    low = list(low_allowed)
    high = list(high_allowed)
    high_set = set(high)
    images: dict[tuple, Assignment] = {}  # by the low intervention's items
    for i in low:
        img = omega.apply(i)
        if img not in high_set:
            raise InputError(f"omega maps {i!r} to {img!r}, outside the high intervention set")
        images[i._items] = img

    image = set(images.values())
    missing = [h for h in high if h not in image]
    positions: dict[tuple, list[int]] = {}
    for k, i in enumerate(low):
        positions.setdefault(i._items, []).append(k)
    prefixes = {items[:r] for items in positions for r in range(len(items) + 1)}
    bad: list[tuple[int, int]] = []
    for items, at in positions.items():
        # The sub-assignments of i2 that start some low intervention's
        # items, grown one item at a time in name order.
        below = [()]
        for item in items:
            below += [longer for sub in below if (longer := sub + (item,)) in prefixes]
        top = images[items]
        for sub in below:
            at_sub = positions.get(sub)
            if at_sub is not None and len(sub) < len(items) and not natural_leq(images[sub], top):
                bad.extend(product(at_sub, at))
    bad.sort()
    bad_pairs = [(low[k1], low[k2]) for k1, k2 in bad]
    surjective = not missing
    order_preserving = not bad_pairs
    verdict = surjective and order_preserving
    detail_bits = []
    if not surjective:
        detail_bits.append("not surjective")
    if not order_preserving:
        detail_bits.append("not order-preserving")
    counterexample = None
    if not verdict:
        counterexample = {
            "unreached": tuple(missing),
            "order_violations": tuple(bad_pairs),
        }
    return CheckReport(
        verdict,
        detail="; ".join(detail_bits) if detail_bits else "surjective and order-preserving",
        counterexample=counterexample,
    )
