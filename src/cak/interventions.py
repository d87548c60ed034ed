"""Intervention spaces, the natural partial order, and the admissibility of
intervention maps."""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import InputError, SizeCapExceeded, interventions_cap
from .maps import InterventionMap
from .model import Assignment, CausalModel, check_intervention
from .report import CheckReport


def natural_leq(i1: Assignment, i2: Assignment) -> bool:
    """i1 precedes i2 when i2 extends i1 as a partial assignment."""
    return all(i2.get(var) == value for var, value in i1.items_sorted)


def natural_lt(i1: Assignment, i2: Assignment) -> bool:
    return len(i1) < len(i2) and natural_leq(i1, i2)


def enumerate_interventions(model_or_sig, cap: int | None = None) -> list[Assignment]:
    """Every partial endogenous assignment, the empty one first.

    The count is prod_X (|domain(X)| + 1); enumeration refuses to start
    above the configured cap. Order is deterministic: the product over
    variables in declaration order of (unset, then each domain value in
    declared order).
    """
    sig = getattr(model_or_sig, "signature", model_or_sig)
    decls = sig.endogenous
    size = 1
    for d in decls:
        size *= len(d.domain) + 1
    limit = interventions_cap(cap)
    if size > limit:
        raise SizeCapExceeded("intervention space", size, limit)
    names = [d.name for d in decls]
    options = [(None, *d.domain) for d in decls]
    out = []
    for combo in itertools.product(*options):
        out.append(Assignment({n: v for n, v in zip(names, combo) if v is not None}))
    return out


def resolve_interventions(
    model: CausalModel,
    interventions: Iterable[Assignment] | None = None,
    cap: int | None = None,
) -> tuple[Assignment, ...]:
    """`interventions` when given, each checked against the model, else
    the model's allowed set, with "all" enumerated."""
    if interventions is not None:
        interventions = tuple(interventions)
        for i in interventions:
            check_intervention(model, i)
        return interventions
    if isinstance(model.allowed_interventions, str):
        return tuple(enumerate_interventions(model, cap))
    return model.allowed_interventions


def check_omega(
    omega: InterventionMap,
    i_low: Iterable[Assignment],
    i_high: Iterable[Assignment],
) -> CheckReport:
    """Surjectivity onto `i_high` and order preservation on `i_low`.

    Order preservation is monotonicity over strictly comparable pairs:
    i1 < i2 in the natural order must give omega(i1) <= omega(i2). The
    image side cannot demand strictness, because a map induced by a state
    map may collapse comparable interventions onto one image. The map
    must be total on `i_low` and land inside `i_high`; violating either is
    an input error, not a verdict.
    """
    low = list(i_low)
    high = list(i_high)
    high_set = set(high)
    for i in low:
        img = omega.apply(i)
        if img not in high_set:
            raise InputError(f"omega maps {i!r} to {img!r}, outside the high intervention set")

    image = {omega.apply(i) for i in low}
    missing = [h for h in high if h not in image]
    bad_pairs = []
    for i1 in low:
        for i2 in low:
            if natural_lt(i1, i2) and not natural_leq(omega.apply(i1), omega.apply(i2)):
                bad_pairs.append((i1, i2))
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
