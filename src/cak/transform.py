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

from functools import cached_property
from itertools import chain, product, repeat, tee
from math import prod
from operator import itemgetter, mul
from typing import Iterator, Sequence

from .errors import InputError
from .expr import _tuple_kernel, variables
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
    _picker,
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
    Each distinct omega-image is checked against the high model before
    either.
    """
    interventions = resolve_interventions(m_low)
    images = [omega.apply(i) for i in interventions]
    for j in dict.fromkeys(images):
        check_intervention(m_high, j)
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
    `images`, a high intervention its caller has admitted: one of the
    checked high allowed set, or decoded from tau's table. `ids` numbers
    the images of tau's checked table (`_image_ids`); None tabulates tau
    here, after the low context cap."""
    low_contexts = iter_contexts(m_low)  # checks the cap; builds nothing yet
    if ids is None:
        ids = _image_ids(tabulate(tau, m_low.signature, m_high.signature))
    high_contexts = enumerate_contexts(m_high)
    # Each high context is solved once per distinct image; the profile
    # repeats a solution wherever interventions share an image.
    slot_of: dict[Assignment, int] = {}
    slots = [slot_of.setdefault(j, len(slot_of)) for j in images]
    distinct = list(slot_of)
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

    A profile holds, for each intervention on the low side and each
    distinct omega-image on the high side (repeated per `slots`, the image
    index of each intervention), the ids of the values of tau's
    components (`_components`). By context there is one component, the
    whole state, and its ids are those of tau's images, the objects of its
    checked table (`_image_ids`), which are the objects that an expression
    map's `apply` returns; the high side keys the same ids by the high
    model's own states. By cone each component numbers the distinct
    values that tau's images give its high variables, and both sides read
    them. A value that no image has gets the id None, which no low
    profile holds, since every low state's image is one of tau's.
    So int profiles match exactly when the profiles of states do, and an
    image is looked up by identity and checks nothing.

    Each context is read as the key of its profile class (see
    `_columns_by_cone`): contexts with equal keys have equal profiles.
    Each high class's row is projected once into the low key space
    (`_projection`), and a class that leaves it, which no low context can
    match, is dropped. A low context is then matched by one lookup of its
    key, and all low contexts of a class share its list of high contexts.
    Only the first miss's diagnosis builds a full low profile, from its
    component ids, solving nothing again.

    The columns go by cone when `_columns_pay` expects them to cost less
    and `validate` accepts both models: a cone solve evaluates only the
    equations that a component depends on, so on a model that `validate`
    rejects it could miss an error that solving by context raises. A
    model whose solves can raise therefore goes by context, and the rows,
    read context by context, raise the first error that solving context
    by context meets.
    """
    comps = _components(tau, m_low, m_high)
    low = _Side(m_low, interventions, [support for _, support in comps])
    high = _Side(m_high, distinct, [names for names, _ in comps])
    by_cone = _columns_pay(low, high) and m_low._valid and m_high._valid
    if by_cone:
        known, images = _component_ids(comps, ids, m_high)
        high_rows, high_profile, high_space = _columns_by_cone(high, iter(high_contexts), [k.get for k in known])
    else:
        high_ids = {state_of(m_high, image._values): k for image, k in ids.items()}
        high_rows, high_profile, high_space = _columns_by_context(m_high, iter(high_contexts), distinct, high_ids)
    high_classes: dict[tuple, list[Assignment]] = {}
    for u_h, key in high_rows:
        high_classes.setdefault(key, []).append(u_h)
    if by_cone:
        readers = [_Ids(k, evaluate).__getitem__ for k, evaluate in zip(known, _evaluators(comps, tau, m_low))]
        low_rows, low_profile, (groups, loose, cells) = _columns_by_cone(low, low_contexts, readers)
    else:
        low_rows, low_profile, (groups, loose, cells) = _columns_by_context(m_low, low_contexts, interventions, ids, tau)
    low_key = _projection(groups, loose, high_space[2], slots)
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
            row = low_profile(key)
            if not by_cone:  # one component, the whole state, whose ids are the images'
                images = {(k,): image for image, k in ids.items()}
            return None, (u_l, tuple([images[tuple([row[k] for k in cell])] for cell in cells]))
        lows.append(u_l)
        founds.append(found)
    return (lows, founds), None


def _components(tau: StateMap, m_low: CausalModel, m_high: CausalModel) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """tau's components, each as (its high variables, its support), both in
    name order. The high variables whose expressions read the same low
    variables (`expr.variables`) are one component, and those variables
    are its support; components come in the order of their first high
    variable's name. A table is one component over every low variable."""
    if tau.exprs is None:
        return [(m_high._endo_sorted, m_low._endo_sorted)]
    by_support: dict[frozenset[str], list[str]] = {}
    for name, expr in sorted(tau.exprs, key=itemgetter(0)):
        by_support.setdefault(variables(expr), []).append(name)
    return [(tuple(names), tuple(sorted(support))) for support, names in by_support.items()]


def _component_ids(comps, ids: dict[Assignment, int], m_high: CausalModel):
    """For each component, an id for each distinct value tuple of its high
    variables among tau's images, in order of first appearance; and tau's
    images by the tuple of their component ids."""
    names = m_high._endo_sorted
    picks = [_picker([names.index(n) for n in high]) for high, _ in comps]
    known: list[dict[tuple, int]] = [{} for _ in comps]
    images = {}
    for image in ids:
        images[tuple([k.setdefault(pick(image._values), len(k)) for pick, k in zip(picks, known)])] = image
    return known, images


def _evaluators(comps, tau: StateMap, m_low: CausalModel) -> list:
    """For each component, the function from the values of its support to
    the values of its high variables, all in name order."""
    if tau.exprs is None:
        return [lambda values: tau.apply(state_of(m_low, values))._values]
    exprs = dict(tau.exprs)
    return [_tuple_kernel(tuple([exprs[n] for n in high]), support) for high, support in comps]


class _Ids(dict):
    """Values -> an id, `known.get(evaluate(values))`, filled in on the
    first read of the values, so each distinct value is evaluated once."""

    __slots__ = ("known", "evaluate")

    def __init__(self, known: dict, evaluate):
        super().__init__()
        self.known, self.evaluate = known, evaluate

    def __missing__(self, values: tuple) -> int:
        k = self[values] = self.known.get(self.evaluate(values))
        return k


def _projection(groups, loose, high_cells, slots):
    """The function from a high row, a class's `profile`, to the low class
    key of the contexts with its profile, or None if no low context can
    have it. `groups` and `loose` describe the low key space, and
    `high_cells` the high rows, as the columns return them; `slots` gives
    each intervention's image.

    A cone group's entry is the fused id of its members' ids. A member's
    id is the row's id of its component under the image of each of its
    interventions. Interventions that force different values of variables
    that the component does not depend on share a member, as {T=1} and
    {T=2} share the value of a component read from X1 and X2 alone, so
    the row must give them all one id; where it does not, or where the
    group's cone points never give that tuple of ids, no low context has
    the row's profile. A column by context's entry is the row's id at its
    intervention's image.
    """
    picks, pairs = [], {}  # pairs of row positions that must hold one id
    for members, fused in groups:
        firsts = []
        for (c, _, _), positions in members.items():
            first, *rest = dict.fromkeys([high_cells[slots[pos]][c] for pos in positions])
            pairs.update(dict.fromkeys([(first, k) for k in rest]))
            firsts.append(first)
        picks.append((_picker(firsts), fused))
    tail = _picker([high_cells[slots[pos]][0] for pos in loose])
    same, other = _picker([a for a, _ in pairs]), _picker([b for _, b in pairs])

    def low_key(row: tuple) -> tuple | None:
        if same(row) != other(row):
            return None
        key = []
        for pick, fused in picks:
            k = fused.get(pick(row))
            if k is None:
                return None
            key.append(k)
        return (*key, *tail(row))

    return low_key


class _Side:
    """One side of the profile pass: a model, the interventions that its
    columns solve under (the low interventions, or the distinct high
    images) and, for each of tau's components, the variables that its
    values are read from: its support on the low side, its own high
    variables on the high side. Targets that are every endogenous
    variable are None, so that their solves share the model's solvers."""

    def __init__(self, model: CausalModel, interventions: Sequence[Assignment], targets: list[tuple[str, ...]]):
        self.model, self.interventions = model, interventions
        self.targets = [None if t == model._endo_sorted else t for t in targets]

    @cached_property
    def groups(self) -> dict[tuple[str, ...], dict[tuple, list[int]]]:
        """cone -> member -> the positions of its interventions.

        Under an intervention, a component's values depend only on the
        forced variables its targets read, through unforced equations, and
        on its cone (`CausalModel._reach`). A member is a component with the
        values of those forced variables, so interventions that force other
        variables, or force them to other values, share it. The members
        with one cone are one group, in order of first appearance.
        """
        by_names: dict[frozenset[str], list[int]] = {}
        for pos, i in enumerate(self.interventions):
            by_names.setdefault(i._keys, []).append(pos)
        groups: dict[tuple[str, ...], dict[tuple, list[int]]] = {}
        for names, positions in by_names.items():
            order = sorted(names)
            values = [self.interventions[pos]._values for pos in positions]
            for c, targets in enumerate(self.targets):
                read, cone = self.model._reach(names, targets)
                members = groups.setdefault(cone, {})
                if not read:  # one member for the whole pattern
                    members.setdefault((c, read, ()), []).extend(positions)
                    continue
                pick = _picker([order.index(n) for n in sorted(read)])
                for pos, member in zip(positions, zip(repeat(c), repeat(read), map(pick, values))):
                    at = members.get(member)
                    if at is None:
                        members[member] = [pos]
                    else:
                        at.append(pos)
        return groups

    @cached_property
    def cone_work(self) -> int:
        """The number of member solves at cone points."""
        domains = self.model.signature.domains
        return sum([len(members) * prod([len(domains[n]) for n in cone]) for cone, members in self.groups.items()])


def _columns_by_context(model, contexts: Iterator[Assignment], interventions, ids: dict, tau: StateMap | None = None):
    """The rows (context, class key) of `contexts` over `interventions`,
    the function that builds a class's row from its key, and the key space
    (groups, loose, cells), as `_columns_by_cone` gives them. A column
    calls solve_under, and tau.apply on the low side, once per context, on
    its own `tee` copy of the contexts, and holds the id of each solution
    or its tau-image, `ids.get(state)`. A key is its row: one id per
    column, in intervention order, each the whole state's one component."""
    contexts, *copies = tee(contexts, len(interventions) + 1)
    columns = []
    for i, copy in zip(interventions, copies):
        solved = map(solve_under, repeat(model), copy, repeat(i))
        columns.append(map(ids.get, solved if tau is None else map(tau.apply, solved)))
    rows = zip(contexts, zip(*columns) if columns else repeat(()))
    positions = list(range(len(interventions)))
    return rows, tuple, ([], positions, [(pos,) for pos in positions])


def _columns_by_cone(side: _Side, contexts: Iterator[Assignment], readers: list):
    """The rows (context, class key) of `contexts` over the side's
    interventions, the function that builds a class's row from its key,
    and the key space (groups, loose, cells).

    Each column of the keys is an iterator, read on in step with the
    contexts, so the rows are lazy: reading a row builds its context and
    no later one. There is one column per cone group (`_Side.groups`).
    Each member of a group is solved once per point of its cone, with the
    generated solver for its forced names and its component's targets,
    and `readers[c]` gives the id of component c's values. At each point
    the group's member ids are fused into one id, by a dict over id
    tuples, and the group's column is the fused ids spread over every
    context (`_spread`). A key holds one fused id per group, in order of
    first appearance.

    A row is the concatenation of the key's member ids, group by group;
    `cells` gives, for each intervention and each component, the position
    of its member's id in a row. The key space is (groups, [], cells):
    for each group its members, each with the positions of its
    interventions, and its dict from id tuples to fused ids.
    """
    sig = side.model.signature
    pick = _to_name_order(list(sig.exo_names))
    cells = [[0] * len(side.targets) for _ in side.interventions]
    columns, groups = [], []
    offset = 0
    for cone, members in side.groups.items():
        at_points = []
        for (c, read, forced), positions in members.items():
            for pos in positions:
                cells[pos][c] = offset + len(at_points)
            solve = side.model.solver(read, side.targets[c])
            points = _cone_points(sig, cone, pick)
            at_points.append(list(map(readers[c], map(solve, points, repeat(forced)))))
        # The id tuples are built twice rather than kept: a kept tuple per
        # point lengthens every garbage collection of the pass.
        fused = {t: k for k, t in enumerate(dict.fromkeys(zip(*at_points)))}
        columns.append(iter(_spread(list(map(fused.__getitem__, zip(*at_points))), sig, cone)))
        groups.append((members, fused))
        offset += len(members)
    rows = zip(contexts, zip(*columns) if columns else repeat(()))
    parts = [list(fused) for _, fused in groups]  # fused id -> the group's member ids

    def profile(key: tuple) -> tuple:
        return tuple(chain.from_iterable(map(list.__getitem__, parts, key)))

    return rows, profile, (groups, [], cells)


def _columns_pay(low: _Side, high: _Side) -> bool:
    """Whether columns built by cone are expected to cost less than
    columns built by context, counting work in solves.

    By cone, each member of a cone group solves at its cone's points
    (`_Side.cone_work`), and each intervention (or distinct image) costs
    about four solves more in lookups and fusing, which decides on small
    inputs; the pass then reads one fused id per group at each context,
    which is not counted. A column by context solves every context, but
    the pass stops at the first unmatched low context, halfway through on
    average, so the cones pay only below half the full work by context.
    """
    context_work = _n_contexts(low.model) * len(low.interventions) + _n_contexts(high.model) * len(high.interventions)
    fixed = 4 * (len(low.interventions) + len(high.interventions))
    if 2 * fixed > context_work:
        return False  # decided without computing a cone
    return 2 * (fixed + low.cone_work + high.cone_work) <= context_work


def _n_contexts(model: CausalModel) -> int:
    return prod([len(d.domain) for d in model.signature.exogenous])


def _cone_points(sig: Signature, cone: tuple[str, ...], pick) -> Iterator[tuple]:
    """The cone's points, lazily: its product in declaration-order
    lexicographic order, with the exogenous variables outside the cone at
    their first domain value, each a context's values put in name order by
    `pick`."""
    return map(pick, product(*[d.domain if d.name in cone else d.domain[:1] for d in sig.exogenous]))


def _spread(at: list, sig: Signature, cone: tuple[str, ...]) -> list:
    """The column that gives every context, in enumeration order, the entry
    of `at` at its point among `_cone_points`. Built from the last declared
    variable up: the list holds one block per assignment of the cone
    variables declared before the current one, so a variable in the cone
    only lengthens the blocks, and one outside it repeats each block, in
    C-level passes."""
    size = 1
    for d in reversed(sig.exogenous):
        n = len(d.domain)
        if d.name not in cone and n > 1:
            at = list(chain.from_iterable(map(mul, zip(*[iter(at)] * size), repeat(n))))
        size *= n
    return at


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
        block = blocks.get(id(found))
        if block is None:
            block = blocks[id(found)] = (found, [])
        block[1].append(u_l)
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
