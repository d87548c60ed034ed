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

from itertools import chain, product, repeat, tee
from math import prod
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import InputError
from .interventions import check_omega, resolve_interventions
from .maps import (
    ContextMap,
    InterventionMap,
    StateMap,
    compose_intervention_maps,
    compose_state_maps,
    tabulate,
)
from .model import (
    Assignment,
    CausalModel,
    Signature,
    _to_name_order,
    check_context,
    check_intervention,
    enumerate_contexts,
    iter_contexts,
    solve_under,
    state_of,
)
from .prob import RationalDist, check_distribution, interventional_dist, tau_pushforward
from .report import CheckReport


def _admissible(m_low: CausalModel, m_high: CausalModel, omega: InterventionMap) -> tuple[Assignment, ...]:
    """The low allowed set, once omega is admissible between the two
    models' allowed sets; an inadmissible omega is an input error."""
    i_low = resolve_interventions(m_low)
    gate = check_omega(omega, i_low, resolve_interventions(m_high))
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
) -> CheckReport:
    """Whether, for every allowed low intervention i, the high
    interventional distribution under omega(i) equals the tau-pushforward
    of the low interventional distribution under i, with exact equality.

    omega must be total on the low allowed set, land in the high allowed
    set, and be surjective and order-preserving; violations are input
    errors. tau is tabulated first, so a tau-image of any low state that
    is not a high state is an input error.
    """
    check_distribution(m_low, d_low)
    check_distribution(m_high, d_high)
    tabulate(tau, m_low.signature, m_high.signature)
    i_low = _admissible(m_low, m_high, omega)
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
) -> CheckReport:
    """Whether tau(solve_low(u, i)) == solve_high(tau_u(u), omega(i)) for
    every low context u and every allowed low intervention i. tau is
    tabulated over the low states, and each distinct tau_u-image and
    omega-image checked against the models, first; a tau-image that is not
    a high state is an input error."""
    tabulate(tau, m_low.signature, m_high.signature)
    interventions = resolve_interventions(m_low)
    images = [omega.apply(i) for i in interventions]
    for j in dict.fromkeys(images):
        check_intervention(m_high, j)
    low_contexts = enumerate_contexts(m_low)
    high_contexts = [tau_u.apply(u) for u in low_contexts]
    for v in dict.fromkeys(high_contexts):
        check_context(m_high, v)
    for u, v in zip(low_contexts, high_contexts):
        for i, j in zip(interventions, images):
            low_side = tau.apply(solve_under(m_low, u, i))
            high_side = solve_under(m_high, v, j)
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
    require_surjective: bool = False,
) -> CheckReport:
    """Search for a context map compatible with `tau` over the low allowed
    set.

    Each low context gets the first (enumeration-order) high context whose
    response profile under the omega-images matches its own abstracted
    profile; the search succeeds when every low context has at least one.
    With `require_surjective`, the assignment is additionally completed so
    that every high context is hit, class by class of equal profiles; the
    greedy choice is kept wherever the completion imposes nothing.
    The witness is the full table. The profile pass builds its columns by
    cone or by context, picked by their expected work; both give the same
    report. omega is applied to every allowed intervention first, and tau
    is tabulated once the low context space is within the cap, so a
    tau-image of any low state that is not a high state is an input error.
    """
    interventions = resolve_interventions(m_low)
    images = [omega.apply(i) for i in interventions]
    return _find_compatible(m_low, m_high, tau, None, interventions, images, require_surjective)


def _find_compatible(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    ids: dict[Assignment, int] | None,
    interventions: Sequence[Assignment],
    images: Sequence[Assignment],
    require_surjective: bool = False,
) -> CheckReport:
    """find_compatible_tau_u over `interventions`, the low allowed set its
    caller has resolved, each with its high image at the same position in
    `images`. `ids` numbers the images of tau's checked table
    (`_image_ids`); None tabulates tau here, after the low context cap."""
    low_contexts = iter_contexts(m_low)  # checks the cap; builds nothing yet
    if ids is None:
        ids = _image_ids(tabulate(tau, m_low.signature, m_high.signature))
    high_contexts = enumerate_contexts(m_high)
    # Each high context is solved once per distinct image; the profile
    # repeats a solution wherever interventions share an image.
    slot_of: dict[Assignment, int] = {}
    slots = [slot_of.setdefault(j, len(slot_of)) for j in images]
    distinct = list(slot_of)
    for j in distinct:
        check_intervention(m_high, j)
    passed, miss = _profile_pass(m_low, m_high, tau, ids, interventions, low_contexts, high_contexts, distinct, slots)
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

    lows, founds = passed
    chosen = list(map(itemgetter(0), founds))
    if require_surjective:
        matched = _match_high_side(high_contexts, founds)
        if matched is None:
            hit = set(chosen)
            unhit = [u_h for u_h in high_contexts if u_h not in hit]
            return CheckReport(
                False,
                detail="no surjective compatible context map exists",
                counterexample={"unreachable_high_contexts": tuple(unhit)},
            )
        for pos, u_h in matched.items():
            chosen[pos] = u_h
    # In enumeration order, which is canonical unless the exogenous names
    # are declared out of name order or a domain out of value order.
    witness = ContextMap.from_table(tuple(zip(lows, chosen)))
    return CheckReport(
        True,
        detail="compatible context map found",
        witness=witness,
    )


def _image_ids(table: dict[tuple[int, ...], Assignment]) -> dict[Assignment, int]:
    """An id for each distinct image of `table`, a `tabulate` result, in
    order of first appearance. The table holds one object per distinct
    image, so this hashes each and compares none."""
    return {image: k for k, image in enumerate(dict.fromkeys(table.values()))}


def _profile_pass(m_low, m_high, tau, ids, interventions, low_contexts, high_contexts, distinct, slots):
    """The high profile classes, keyed as the low contexts are, then the
    low contexts in enumeration order up to the first miss. Returns
    ((lows, founds), None), the low contexts in enumeration order and at
    each position the list of its matching high contexts, or
    (None, (u_l, profile)) for the first low context without a match and
    its abstracted profile. No low context is hashed.

    `low_contexts` is an iterator over the low context space, read one
    context at a time: a miss at context k has built exactly k + 1 low
    contexts.

    A profile is a row of ids, one per distinct omega-image on the high
    side (repeated per `slots`, the image index of each intervention) and
    one per intervention on the low side. `ids` numbers tau's images, the
    objects of its checked table (`_image_ids`), which are the objects
    that an expression map's `apply` returns. The high side numbers the
    high model's states with the same ids, keyed by the objects that its
    solutions are, and gives a state outside tau's image -1, which no low
    profile holds. So int profiles match exactly when the profiles of
    states do, and an image is looked up by identity and checks nothing.

    Each context is read as the key of its profile class (see `_columns`):
    contexts with equal keys have equal profiles. Each high class's row is
    projected once into the low key space (`_projection`), and a class
    that leaves it, which no low context can match, is dropped. A low
    context is then matched by one lookup of its key, and all low contexts
    of a class share its list of high contexts. Only the first miss's
    diagnosis builds a full low profile.
    """
    by_cone = _columns_pay(m_low, m_high, interventions, distinct)
    high_ids = {state_of(m_high, image._values): k for image, k in ids.items()}
    high_rows, high_profile, _ = _columns(m_high, iter(high_contexts), distinct, high_ids, by_cone)
    high_classes: dict[tuple, list[Assignment]] = {}
    for u_h, key in high_rows:
        high_classes.setdefault(key, []).append(u_h)
    low_rows, low_profile, space = _columns(m_low, low_contexts, interventions, ids, by_cone, tau)
    low_key = _projection(*space, slots)
    classes: dict[tuple, list[Assignment]] = {}  # low class key -> its high contexts
    for key, found in high_classes.items():
        projected = low_key(high_profile(key))
        if projected is not None:
            classes[projected] = found

    lows: list[Assignment] = []
    founds: list[list[Assignment]] = []
    for u_l, key in low_rows:
        found = classes.get(key)
        if found is None:
            # The first context without a correspondent decides; the
            # rest are never read or built.
            images = list(ids)
            return None, (u_l, tuple([images[k] for k in low_profile(key)]))
        lows.append(u_l)
        founds.append(found)
    return (lows, founds), None


def _projection(groups, loose, slots):
    """The function from a high row, an id per distinct image, to the low
    class key of the contexts with its profile, or None if no low context
    can have it. `groups` and `loose` describe the low key space, as
    `_columns` returns them; `slots` gives each intervention's image.

    A cone group's entry is the fused id of the row's ids at the group's
    interventions; where the group's cone points never give that tuple of
    ids, no low context has the row's profile. A column by context's entry
    is the row's id at its intervention.
    """
    picks = [(_picker([slots[pos] for pos in positions]), fused) for positions, fused in groups]
    tail = _picker([slots[pos] for pos in loose])

    def low_key(row: tuple) -> tuple | None:
        key = []
        for pick, fused in picks:
            k = fused.get(pick(row))
            if k is None:
                return None
            key.append(k)
        return (*key, *tail(row))

    return low_key


def _picker(at: list[int]):
    """The function from a row to its entries at `at`, as a tuple."""
    return itemgetter(*at) if len(at) > 1 else lambda row: tuple([row[k] for k in at])


def _columns(
    model, contexts: Iterator[Assignment], interventions, ids: dict, by_cone: bool, tau: StateMap | None = None
):
    """The rows (context, class key) of `contexts` over `interventions`,
    the function that builds a class's profile from its key, and the key
    space. A profile holds the ids of the solutions under the
    interventions, or of their tau-images, in intervention order, each
    `ids.get(state, -1)`.

    Each column of the keys is an iterator, read on in step with the
    contexts, so the rows are lazy: reading a row builds its context and
    no later one. A key holds one fused id per distinct cone, in order of
    first appearance, then one id per column by context, in intervention
    order. The key space is (groups, loose): for each cone, the positions
    of its interventions and its dict from their tuple of ids to the
    fused id; and the positions of the columns by context.

    By context, a column calls solve_under and tau.apply once per context,
    on its own `tee` copy of the contexts. By cone, the cone, its points
    and the generated solver are resolved once per set of forced names,
    each intervention is solved with that solver once per point of its
    cone, and tau applied once per distinct state. The interventions with
    one cone share its points and its index column: at each point their
    ids are fused into one id, by a dict over id tuples, and the cone's
    column maps the index column to the fused ids. An intervention whose
    cone solve raises gets a column by context instead, which raises at
    its own first failing context; one that does not raise cannot fail at
    any context, since a solution depends only on its cone. Read row by
    row, the columns therefore raise the context-major first error. A
    solver that cannot be generated (a cyclic model) raises here, as it
    does at every solve of the model.
    """
    groups: dict[tuple[str, ...], list[tuple[int, list[int]]]] = {}  # cone -> (position, ids per point)
    loose = [] if by_cone else list(range(len(interventions)))
    shapes: dict[tuple[str, ...], tuple[list[tuple], list[int]]] = {}
    if by_cone:
        sig = model.signature
        pick = _to_name_order(list(sig.exo_names))
        known = _SolutionIds(model, ids, tau)
        by_names: dict[frozenset[str], list[int]] = {}
        for pos, i in enumerate(interventions):
            by_names.setdefault(i._keys, []).append(pos)
        for names, positions in by_names.items():
            cone = model.cone(names)
            if cone not in shapes:
                shapes[cone] = _cone_shape(sig, cone, pick)
            points, solve = shapes[cone][0], model.solver(names)
            for pos in positions:
                try:
                    at_points = list(map(known.__getitem__, map(solve, points, repeat(interventions[pos]._values))))
                except Exception:  # by context, it raises again if the pass reads that far
                    loose.append(pos)
                else:
                    groups.setdefault(cone, []).append((pos, at_points))
        loose.sort()
    columns, fused_groups = [], []
    for cone, group in groups.items():
        fused: dict[tuple, int] = {}
        at = [fused.setdefault(t, len(fused)) for t in zip(*[at_points for _, at_points in group])]
        columns.append(map(at.__getitem__, shapes[cone][1]))
        fused_groups.append(([pos for pos, _ in group], fused))
    contexts, *copies = tee(contexts, len(loose) + 1)
    for pos, copy in zip(loose, copies):
        solved = map(solve_under, repeat(model), copy, repeat(interventions[pos]))
        columns.append(map(ids.get, solved if tau is None else map(tau.apply, solved), repeat(-1)))
    rows = zip(contexts, zip(*columns) if columns else repeat(()))
    if not fused_groups:
        return rows, tuple, ([], loose)  # all by context: a key is its profile
    parts = [list(fused) for _, fused in fused_groups]  # fused id -> the group's ids
    order = [*chain.from_iterable(positions for positions, _ in fused_groups), *loose]
    to_interventions = _to_name_order(order)  # a row in `order` into intervention order
    n_fused = len(parts)

    def profile(key: tuple) -> tuple:
        return to_interventions([*chain.from_iterable(map(list.__getitem__, parts, key)), *key[n_fused:]])

    return rows, profile, (fused_groups, loose)


class _SolutionIds(dict):
    """Solution values -> the id of the state, or of its tau-image, each
    `ids.get(state, -1)`, filled in on the first read of the values."""

    __slots__ = ("model", "ids", "tau")

    def __init__(self, model: CausalModel, ids: dict, tau: StateMap | None):
        super().__init__()
        self.model, self.ids, self.tau = model, ids, tau

    def __missing__(self, values: tuple) -> int:
        state = state_of(self.model, values)
        k = self[values] = self.ids.get(state if self.tau is None else self.tau.apply(state), -1)
        return k


def _columns_pay(
    m_low: CausalModel,
    m_high: CausalModel,
    interventions: Sequence[Assignment],
    distinct: Sequence[Assignment],
) -> bool:
    """Whether columns built by cone are expected to cost less than
    columns built by context, counting work in solves.

    By cone, an intervention (or a distinct image) solves at its cone
    points and costs about four solves more in lookups and fusing, which
    decides on small inputs; the pass then reads one fused id per distinct
    cone at each context, which is not counted. A column by context solves
    every context, but the pass stops at the first unmatched low context,
    halfway through on average, so the cones pay only below half the full
    work by context.
    """
    context_work = _n_contexts(m_low) * len(interventions) + _n_contexts(m_high) * len(distinct)
    fixed = 4 * (len(interventions) + len(distinct))
    if 2 * fixed > context_work:
        return False  # decided without computing a cone
    cone_work = _cone_work(m_low, interventions) + _cone_work(m_high, distinct)
    return 2 * (fixed + cone_work) <= context_work


def _n_contexts(model: CausalModel) -> int:
    return prod([len(d.domain) for d in model.signature.exogenous])


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


def _match_high_side(high_contexts: Sequence[Assignment], founds: Sequence[list[Assignment]]):
    """Assign a distinct low context to every high context, each low one
    taking only its correspondents: the partial map low -> high, or None.
    `founds` gives the correspondents of each low context, which the map
    names by its position.

    The correspondents of a low context are its profile class, one shared
    list, so the graph is a disjoint union of complete blocks. A block
    with a low and b high contexts can be saturated exactly when a >= b
    (Hall's theorem); its first b low contexts, in position order,
    take its high contexts in reverse, as Kuhn's augmenting-path search
    over the high contexts in enumeration order does.
    """
    blocks: dict[int, tuple[list[Assignment], list[int]]] = {}  # by the class list's identity
    for u_l, found in enumerate(founds):
        blocks.setdefault(id(found), (found, []))[1].append(u_l)
    if sum([len(found) for found, _ in blocks.values()]) < len(high_contexts):
        return None  # a high context no low context reaches
    matched: dict[int, Assignment] = {}
    for found, lows in blocks.values():
        if len(lows) < len(found):
            return None
        matched.update(zip(lows, reversed(found)))
    return matched


def check_uniform(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    omega: InterventionMap,
) -> CheckReport:
    """Distribution-free transformation check.

    Holds when for every low context distribution there is a high one
    making the transformation exact; decided by searching for a compatible
    context map (no surjectivity demanded). omega must be admissible
    between the two allowed sets. tau is tabulated once the low context
    space is within the cap, so a tau-image of any low state that is not a
    high state is an input error.
    """
    i_low = _admissible(m_low, m_high, omega)
    return _find_compatible(m_low, m_high, tau, None, i_low, [omega.apply(i) for i in i_low])


def compose_transformations(
    tau_low_mid: StateMap,
    omega_low_mid: InterventionMap,
    tau_mid_high: StateMap,
    omega_mid_high: InterventionMap,
    m_low: CausalModel,
    m_mid: CausalModel,
) -> tuple[StateMap, InterventionMap]:
    """Compose two transformation legs into a single low-to-high pair of
    explicit tables (the low-to-mid maps are applied first)."""
    mid_domain = {src for src, _ in omega_mid_high.entries}
    for _, dst in omega_low_mid.entries:
        if dst not in mid_domain:
            raise InputError(
                f"intervention maps do not chain: {dst!r} is not in the second leg's domain"
            )
    tau = compose_state_maps(tau_low_mid, tau_mid_high, m_low.signature, m_mid.signature)
    omega = compose_intervention_maps(omega_low_mid, omega_mid_high)
    return tau, omega
