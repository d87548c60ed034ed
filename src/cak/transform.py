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

from collections import defaultdict
from itertools import count, product, repeat
from math import prod
from operator import itemgetter
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
from .model import (
    Assignment,
    CausalModel,
    Signature,
    _to_name_order,
    check_intervention,
    enumerate_contexts,
    solve_under,
    state_of,
)
from .prob import RationalDist, check_distribution, interventional_dist, tau_pushforward
from .report import CheckReport


def _admissible(
    m_low: CausalModel, m_high: CausalModel, omega: InterventionMap, cap: int | None
) -> tuple[Assignment, ...]:
    """The low allowed set, once omega is admissible between the two
    models' allowed sets; an inadmissible omega is an input error."""
    i_low = resolve_interventions(m_low, cap=cap)
    gate = check_omega(omega, i_low, resolve_interventions(m_high, cap=cap))
    if not gate.verdict:
        raise InputError(f"omega is not admissible: {gate.detail}")
    return i_low


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
    check_distribution(m_low, d_low)
    check_distribution(m_high, d_high)
    i_low = _admissible(m_low, m_high, omega, cap)
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
    images = [omega.apply(i) for i in interventions]
    for j in dict.fromkeys(images):
        check_intervention(m_high, j)
    for u in enumerate_contexts(m_low, cap):
        for i, j in zip(interventions, images):
            low_side = tau.apply(solve_under(m_low, u, i))
            high_side = solve_under(m_high, tau_u.apply(u), j)
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


def _conflict_diagnosis(
    interventions: Sequence[Assignment],
    images: Sequence[Assignment],
    profile: Sequence[Assignment],
):
    """For a context with no correspondent, look for two interventions with
    the same high image but different required high solutions, reading the
    context's abstracted profile."""
    by_image: dict[Assignment, list[tuple[Assignment, Assignment]]] = {}
    for i, image, required in zip(interventions, images, profile):
        by_image.setdefault(image, []).append((i, required))
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
    The witness is the full table. The profile pass builds its columns by
    cone or by context, picked by their expected work; both give the same
    report.
    """
    interventions = resolve_interventions(m_low, i_low, cap)
    low_contexts = enumerate_contexts(m_low, cap)
    high_contexts = enumerate_contexts(m_high, cap)
    images = [omega.apply(i) for i in interventions]
    # Each high context is solved once per distinct image; the profile
    # repeats a solution wherever interventions share an image.
    slot_of: dict[Assignment, int] = {}
    slots = [slot_of.setdefault(j, len(slot_of)) for j in images]
    distinct = list(slot_of)
    for j in distinct:
        check_intervention(m_high, j)
    cands, miss = _profile_pass(m_low, m_high, tau, interventions, low_contexts, high_contexts, distinct, slots)
    if miss is not None:
        u_l, profile = miss
        diagnosis = _conflict_diagnosis(interventions, images, profile)
        ce = {"context": u_l}
        if diagnosis is not None:
            ce["conflict"] = diagnosis
        return CheckReport(
            False,
            detail=f"low context {dict(u_l)} has no corresponding high context",
            counterexample=ce,
        )

    chosen = {u_l: found[0] for u_l, found in cands.items()}
    if require_surjective:
        matched = _match_high_side(low_contexts, high_contexts, cands)
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


def _profile_pass(m_low, m_high, tau, interventions, low_contexts, high_contexts, distinct, slots):
    """The high profiles, then the low ones in enumeration order up to the
    first miss. Returns (cands, None), cands mapping each low context to
    its matching high contexts, or (None, (u_l, profile)) for the first
    low context without a match and its abstracted profile.

    A profile is a row of columns, one per distinct omega-image on the high
    side (repeated per `slots`, the image index of each intervention) and
    one per intervention on the low side. Every high state, and the
    tau-image of every low state, gets an int id from one dict, so int
    profiles match exactly when the profiles of states do.
    """
    by_cone = _columns_pay(m_low, m_high, interventions, distinct, len(low_contexts), len(high_contexts))
    ids: dict[Assignment, int] = defaultdict(count().__next__)  # a new key gets the next id
    profile_to_high: dict[tuple, list[Assignment]] = {}
    profiles = _rows(_columns(m_high, high_contexts, distinct, ids, by_cone))
    if len(slots) > 1:  # else a row is its profile
        profiles = map(itemgetter(*slots), profiles)
    for u_h, profile in zip(high_contexts, profiles):
        profile_to_high.setdefault(profile, []).append(u_h)

    cands: dict[Assignment, list[Assignment]] = {}
    low_columns = _columns(m_low, low_contexts, interventions, ids, by_cone, tau)
    for u_l, profile in zip(low_contexts, _rows(low_columns)):
        found = profile_to_high.get(profile)
        if found is None:
            # The first context without a correspondent decides; the rest
            # are never read.
            states = list(ids)
            return None, (u_l, tuple([states[k] for k in profile]))
        cands[u_l] = found
    return cands, None


def _rows(columns: list) -> Iterable[tuple]:
    return zip(*columns) if columns else repeat(())


def _columns(model, contexts, interventions, ids: dict, by_cone: bool, tau: StateMap | None = None):
    """One lazy column of ids per intervention: the id of the solution
    under it, or of its tau-image, at each context in `contexts`.

    By context, a column calls solve_under and tau.apply once per context.
    By cone, it calls the generated solver once per point of the
    intervention's cone, applies tau once per distinct state, and spreads
    the ids over the contexts through the cone's index column. A cone
    column that raises is built by context instead, and raises at its own
    first failing context; one that does not raise cannot fail at any
    context, since a solution depends only on its cone. Read row by row,
    the columns therefore raise the context-major first error.
    """
    sig = model.signature
    pick = _to_name_order(list(sig.exo_names))
    shapes: dict[tuple[str, ...], tuple[list[tuple], list[int]]] = {}
    known: dict[tuple, int] = {}  # state values -> image id
    out = []
    for i in interventions:
        if by_cone:
            cone = model.cone(i._keys)
            if cone not in shapes:
                shapes[cone] = _cone_shape(sig, cone, pick)
            points, index = shapes[cone]
            try:
                solved = list(map(model.solver(i._keys), points, repeat(i._values)))
                for values in solved:
                    if values not in known:
                        state = state_of(model, values)
                        known[values] = ids[state if tau is None else tau.apply(state)]
                out.append(map(list(map(known.__getitem__, solved)).__getitem__, index))
                continue
            except Exception:  # by context, it raises again if the pass reads that far
                pass
        solved = map(solve_under, repeat(model), contexts, repeat(i))
        out.append(map(ids.__getitem__, solved if tau is None else map(tau.apply, solved)))
    return out


def _columns_pay(
    m_low: CausalModel,
    m_high: CausalModel,
    interventions: Sequence[Assignment],
    distinct: Sequence[Assignment],
    n_low: int,
    n_high: int,
) -> bool:
    """Whether columns built by cone are expected to cost less than
    columns built by context, counting work in solves.

    A cone column (an intervention or a distinct image) solves at its cone
    points and costs about four solves more in lookups, which decides on
    small inputs. A column by context solves every context, but the pass
    stops at the first unmatched low context, halfway through on average,
    so the cones pay only below half the full work by context.
    """
    context_work = n_low * len(interventions) + n_high * len(distinct)
    fixed = 4 * (len(interventions) + len(distinct))
    if 2 * fixed > context_work:
        return False  # decided without computing a cone
    cone_work = _cone_work(m_low, interventions) + _cone_work(m_high, distinct)
    return 2 * (fixed + cone_work) <= context_work


def _cone_work(model: CausalModel, interventions: Sequence[Assignment]) -> int:
    """The number of cone points over `interventions`."""
    domains = model.signature.domains
    sizes: dict[frozenset[str], int] = {}
    for i in interventions:
        if i._keys not in sizes:
            sizes[i._keys] = prod([len(domains[n]) for n in model.cone(i._keys)])
    return sum([sizes[i._keys] for i in interventions])


def _cone_shape(sig: Signature, cone: tuple[str, ...], pick) -> tuple[list[tuple], list[int]]:
    """The cone's points and its index column.

    The points run over the cone's product in declaration-order
    lexicographic order, with the exogenous variables outside the cone at
    their first domain value; each is a context's values, put in name order
    by `pick`. The index column gives every context's point, in enumeration
    order. It is built from the last declared variable up by block
    replication: a variable outside the cone repeats the block, one inside
    it also shifts each copy.
    """
    choices = [d.domain if d.name in cone else d.domain[:1] for d in sig.exogenous]
    points = list(map(pick, product(*choices)))
    index, stride = [0], 1
    for d in reversed(sig.exogenous):
        n = len(d.domain)
        if d.name in cone:
            index = [k + shift for shift in range(0, n * stride, stride) for k in index]
            stride *= n
        else:
            index = index * n
    return points, index


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
    return find_compatible_tau_u(
        m_low, m_high, tau, omega, i_low=_admissible(m_low, m_high, omega, cap), cap=cap
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
