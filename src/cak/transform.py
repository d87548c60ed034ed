"""Exact and distribution-free transformation checks between two models.

The distribution-free ("uniform") check is decided by a finite witness
search: a context map tau_u is *compatible* with the state map tau when
solving low and then abstracting agrees with abstracting the context and
then solving high, for every allowed low intervention. A compatible map
exists exactly when, for every low distribution, some high distribution
makes the transformation exact; the search below constructs one or
refutes all of them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InputError
from .interventions import check_omega, resolve_interventions
from .maps import (
    ContextMap,
    InterventionMap,
    StateMap,
    compose_intervention_maps,
    compose_state_maps,
)
from .model import Assignment, CausalModel, enumerate_contexts, solve_under
from .prob import RationalDist, check_distribution, interventional_dist, tau_pushforward
from .report import CheckReport


def check_exact(
    m_low: CausalModel,
    d_low: RationalDist,
    m_high: CausalModel,
    d_high: RationalDist,
    tau: StateMap,
    omega: InterventionMap,
    cap: int | None = None,
) -> CheckReport:
    """Whether, for every allowed low intervention i, the high
    interventional distribution under omega(i) equals the tau-pushforward
    of the low interventional distribution under i, with exact equality.

    omega must be total on the low allowed set, land in the high allowed
    set, and be surjective and order-preserving; violations are input
    errors.
    """
    i_low = resolve_interventions(m_low, cap=cap)
    i_high = resolve_interventions(m_high, cap=cap)
    check_distribution(m_low, d_low)
    check_distribution(m_high, d_high)
    gate = check_omega(omega, i_low, i_high)
    if not gate.verdict:
        raise InputError(f"omega is not admissible: {gate.detail}")
    # One high distribution per distinct omega-image.
    high_dists: dict[Assignment, RationalDist] = {}
    for i in i_low:
        image = omega.apply(i)
        high_dist = high_dists.get(image)
        if high_dist is None:
            high_dist = high_dists[image] = interventional_dist(m_high, d_high, image)
        pushed = tau_pushforward(tau, interventional_dist(m_low, d_low, i))
        if high_dist != pushed:
            for state in sorted(set(high_dist.support()) | set(pushed.support())):
                a, b = high_dist.mass(state), pushed.mass(state)
                if a != b:
                    return CheckReport(
                        False,
                        detail="interventional distributions differ",
                        counterexample={
                            "intervention": i,
                            "state": state,
                            "high_mass": a,
                            "pushed_low_mass": b,
                        },
                    )
    return CheckReport(True, detail=f"exact over {len(i_low)} interventions")


def check_compatible(
    tau_u: ContextMap,
    tau: StateMap,
    omega: InterventionMap,
    m_low: CausalModel,
    m_high: CausalModel,
    i_low: Iterable[Assignment] | None = None,
    cap: int | None = None,
) -> CheckReport:
    """Whether tau(solve_low(u, i)) == solve_high(tau_u(u), omega(i)) for
    every low context u and every intervention i in `i_low`."""
    interventions = resolve_interventions(m_low, i_low, cap)
    for u in enumerate_contexts(m_low, cap):
        for i in interventions:
            low_side = tau.apply(solve_under(m_low, u, i))
            high_side = solve_under(m_high, tau_u.apply(u), omega.apply(i))
            if low_side != high_side:
                return CheckReport(
                    False,
                    detail="abstract-then-solve disagrees with solve-then-abstract",
                    counterexample={
                        "context": u,
                        "intervention": i,
                        "abstracted_low_solution": low_side,
                        "high_solution": high_side,
                    },
                )
    return CheckReport(True, detail="compatible")


def _correspondents(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    omega: InterventionMap,
    interventions: Sequence[Assignment],
    cap: int | None,
):
    """The low and high contexts, and a function giving a low context's
    high contexts with an identical abstracted response profile, in
    enumeration order. Low profiles are computed only when asked for."""
    low_contexts = enumerate_contexts(m_low, cap)
    high_contexts = enumerate_contexts(m_high, cap)
    high_images = [omega.apply(i) for i in interventions]
    # Each high context is solved once per distinct image; the profile
    # repeats a solution wherever interventions share an image.
    distinct = {}
    slots = [distinct.setdefault(j, len(distinct)) for j in high_images]

    profile_to_high: dict[tuple, list[Assignment]] = {}
    for u_h in high_contexts:
        solved = [solve_under(m_high, u_h, j) for j in distinct]
        profile_to_high.setdefault(tuple([solved[k] for k in slots]), []).append(u_h)

    def candidates(u_l: Assignment) -> list[Assignment]:
        profile = tuple([tau.apply(solve_under(m_low, u_l, i)) for i in interventions])
        return profile_to_high.get(profile, [])

    return low_contexts, high_contexts, candidates


def _conflict_diagnosis(
    m_low: CausalModel,
    tau: StateMap,
    omega: InterventionMap,
    interventions: Sequence[Assignment],
    u_l: Assignment,
):
    """For a context with no correspondent, look for two interventions with
    the same high image but different required high solutions."""
    by_image: dict[Assignment, list[tuple[Assignment, Assignment]]] = {}
    for i in interventions:
        required = tau.apply(solve_under(m_low, u_l, i))
        by_image.setdefault(omega.apply(i), []).append((i, required))
    for group in by_image.values():
        targets = {req for _, req in group}
        if len(targets) > 1:
            (i1, r1), (i2, r2) = next(
                ((a, b) for a in group for b in group if a[1] != b[1])
            )
            return {
                "interventions": (i1, i2),
                "required_high_states": (r1, r2),
            }
    return None


def find_compatible_tau_u(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    omega: InterventionMap,
    i_low: Iterable[Assignment] | None = None,
    require_surjective: bool = False,
    cap: int | None = None,
) -> CheckReport:
    """Search for a context map compatible with `tau`.

    Each low context gets the first (enumeration-order) high context whose
    response profile under the omega-images matches its own abstracted
    profile; the search succeeds when every low context has at least one.
    With `require_surjective`, the assignment is additionally completed so
    that every high context is hit, via an exhaustive bipartite matching;
    the greedy choice is kept wherever the matching imposes nothing.
    The witness is the full table.
    """
    interventions = resolve_interventions(m_low, i_low, cap)
    low_contexts, high_contexts, candidates = _correspondents(
        m_low, m_high, tau, omega, interventions, cap
    )
    cands: list[list[Assignment]] = []
    for u_l in low_contexts:
        cands.append(candidates(u_l))
        if not cands[-1]:
            # The first context without a correspondent decides; the rest
            # are never solved.
            diagnosis = _conflict_diagnosis(m_low, tau, omega, interventions, u_l)
            ce = {"context": u_l}
            if diagnosis is not None:
                ce["conflict"] = diagnosis
            return CheckReport(
                False,
                detail=f"low context {dict(u_l)} has no corresponding high context",
                counterexample=ce,
            )

    chosen = dict(zip(low_contexts, [found[0] for found in cands]))
    if require_surjective:
        matched = _match_high_side(low_contexts, high_contexts, dict(zip(low_contexts, cands)))
        if matched is None:
            hit = set(chosen.values())
            unhit = [u_h for u_h in high_contexts if u_h not in hit]
            return CheckReport(
                False,
                detail="no surjective compatible context map exists",
                counterexample={"unreachable_high_contexts": tuple(unhit)},
            )
        chosen.update(matched)
    witness = ContextMap.from_table(tuple(chosen.items()))
    return CheckReport(
        True,
        detail="compatible context map found",
        witness=witness,
    )


def _match_high_side(
    low_contexts: Sequence[Assignment],
    high_contexts: Sequence[Assignment],
    cands: dict[Assignment, list[Assignment]],
):
    """Assign a distinct low context to every high context (edge when the
    high context is among the low one's correspondents). Returns the
    partial map low -> matched high, or None when no saturating matching
    exists."""
    candidates_of_high: dict[Assignment, list[Assignment]] = {
        u_h: [] for u_h in high_contexts
    }
    for u_l in low_contexts:
        for u_h in cands[u_l]:
            candidates_of_high[u_h].append(u_l)

    match_of_low: dict[Assignment, Assignment] = {}

    def augment(root: Assignment) -> bool:
        # Kuhn's augmenting-path search with an explicit stack, so a long
        # path cannot exhaust the interpreter's recursion limit. Frame k
        # scans the candidates of stack[k]'s high context in order; path[k]
        # is the low context that frame is trying to take.
        visited: set[Assignment] = set()
        stack = [(root, iter(candidates_of_high[root]))]
        path: list[Assignment] = []
        while stack:
            for u_l in stack[-1][1]:
                if u_l in visited:
                    continue
                visited.add(u_l)
                path.append(u_l)
                if u_l not in match_of_low:
                    for (u_h, _), taken in zip(stack, path):
                        match_of_low[taken] = u_h
                    return True
                u_h = match_of_low[u_l]
                stack.append((u_h, iter(candidates_of_high[u_h])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
        return False

    for u_h in high_contexts:
        if not augment(u_h):
            return None
    return match_of_low


def check_uniform(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    omega: InterventionMap,
    cap: int | None = None,
) -> CheckReport:
    """Distribution-free transformation check.

    Holds when for every low context distribution there is a high one
    making the transformation exact; decided by searching for a compatible
    context map (no surjectivity demanded). omega must be admissible
    between the two allowed sets.
    """
    i_low = resolve_interventions(m_low, cap=cap)
    i_high = resolve_interventions(m_high, cap=cap)
    gate = check_omega(omega, i_low, i_high)
    if not gate.verdict:
        raise InputError(f"omega is not admissible: {gate.detail}")
    return find_compatible_tau_u(
        m_low, m_high, tau, omega, i_low=i_low, require_surjective=False, cap=cap
    )


def compose_transformations(
    tau_low_mid: StateMap,
    omega_low_mid: InterventionMap,
    tau_mid_high: StateMap,
    omega_mid_high: InterventionMap,
    m_low: CausalModel,
    m_mid: CausalModel,
    cap: int | None = None,
) -> tuple[StateMap, InterventionMap]:
    """Compose two transformation legs into a single low-to-high pair of
    explicit tables (the low-to-mid maps are applied first)."""
    mid_domain = {src for src, _ in omega_mid_high.entries}
    for _, dst in omega_low_mid.entries:
        if dst not in mid_domain:
            raise InputError(
                f"intervention maps do not chain: {dst!r} is not in the second leg's domain"
            )
    tau = compose_state_maps(
        tau_low_mid, tau_mid_high, m_low.signature, m_mid.signature, cap
    )
    omega = compose_intervention_maps(omega_low_mid, omega_mid_high)
    return tau, omega
