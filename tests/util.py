"""Seeded random generators for models, maps, intervention setups and
distributions, the slow reference implementations that fast library paths
are checked against, and the empirical distribution probe.

All generators are deterministic functions of the supplied Random
instance, so failures reproduce from the seed alone.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from cak import (
    ALL,
    Assignment,
    CausalModel,
    CheckReport,
    ContextMap,
    EMPTY,
    InterventionMap,
    Partition,
    RationalDist,
    Signature,
    StateMap,
    VariableDecl,
    check_constructive,
    check_exact,
    derive_component_maps,
    derive_omega_tau,
    enumerate_contexts,
    enumerate_interventions,
    enumerate_states,
    rst,
    solve_under,
    tau_pushforward,
)
from cak.corpus import ExampleBundle
from cak.errors import EvaluationError, InputError, ParseError
from cak.expr import Binary, Ite, Lit, Table, Unary, Var
from cak.interventions import resolve_interventions
from cak.maps import check_image, check_reads
from cak.model import check_context, check_intervention

BINARY_OPS = ("+", "-", "*", "==", "<", "<=", "&&", "||")


def random_model(
    rng: random.Random,
    max_endo: int = 3,
    max_exo: int = 2,
    domain: tuple[int, ...] = (0, 1),
    allowed=ALL,
) -> CausalModel:
    """A random acyclic model: every equation is a random total table over
    at most two parents drawn from the exogenous variables and the
    previously declared endogenous ones."""
    n_exo = rng.randint(1, max_exo)
    n_endo = rng.randint(1, max_endo)
    exo = tuple(VariableDecl(f"U{i}", domain) for i in range(1, n_exo + 1))
    endo = tuple(VariableDecl(f"X{i}", domain) for i in range(1, n_endo + 1))
    equations = []
    for k, decl in enumerate(endo):
        pool = [d.name for d in exo] + [d.name for d in endo[:k]]
        n_parents = rng.randint(0, min(2, len(pool)))
        parents = rng.sample(pool, n_parents)
        if not parents:
            equations.append((decl.name, Lit(rng.choice(domain))))
            continue
        entries = {
            combo: rng.choice(domain)
            for combo in itertools.product(*(domain for _ in parents))
        }
        equations.append((decl.name, Table.from_mapping(tuple(parents), entries)))
    return CausalModel(Signature(exo, endo), tuple(equations), allowed)


def random_expr(
    rng: random.Random, names, depth: int = 3, values: tuple[int, ...] = (0, 1, 2)
):
    """A random expression over `names`, at most `depth` operators deep.

    Every node kind can be drawn: literals, variables, both unary and all
    eight binary operators, ite and tables. A table reads one to three of
    the names and covers a random nonempty subset of the `values`
    combinations, so it may have no entry for the values it is given, and
    a read may miss at any of its variables."""
    kind = rng.choice(("lit", "var") + (("unary", "binary", "ite", "table") if depth else ()))
    if kind == "lit":
        return Lit(rng.randint(-2, 3))
    if kind == "var":
        return Var(rng.choice(names))
    if kind == "unary":
        return Unary(rng.choice(("-", "!")), random_expr(rng, names, depth - 1, values))
    if kind == "binary":
        left, right = (random_expr(rng, names, depth - 1, values) for _ in range(2))
        return Binary(rng.choice(BINARY_OPS), left, right)
    if kind == "ite":
        return Ite(*(random_expr(rng, names, depth - 1, values) for _ in range(3)))
    cols = rng.sample(list(names), rng.randint(1, min(3, len(names))))
    keys = list(itertools.product(values, repeat=len(cols)))
    kept = rng.sample(keys, rng.randint(1, len(keys)))
    return Table.from_mapping(cols, {k: rng.choice(values) for k in kept})


def random_expr_model(rng: random.Random) -> CausalModel:
    """A random acyclic model whose equations are `random_expr`s over the
    exogenous and earlier endogenous variables. Domains are small and
    differ between variables, so equations often produce values outside
    them; now and then an equation reads the undeclared variable Z."""
    domains = ((0, 1), (0, 1, 2), (-1, 0, 1))
    exo = tuple(VariableDecl(f"U{i}", rng.choice(domains)) for i in range(1, rng.randint(1, 2) + 1))
    endo = tuple(VariableDecl(f"X{i}", rng.choice(domains)) for i in range(1, rng.randint(1, 3) + 1))
    equations = []
    for k, decl in enumerate(endo):
        pool = [d.name for d in exo + endo[:k]] + (["Z"] if rng.random() < 0.1 else [])
        equations.append((decl.name, random_expr(rng, pool, rng.randint(0, 3), (-1, 0, 1, 2))))
    return CausalModel(Signature(exo, endo), tuple(equations))


def random_intervention(rng: random.Random, model: CausalModel) -> Assignment:
    """A random partial setting of the endogenous variables, values not
    necessarily in their domains, sometimes also naming an exogenous or an
    undeclared variable."""
    names = list(model.signature.endo_names)
    chosen = rng.sample(names, rng.randint(0, len(names)))
    extra = rng.choice([[], [], [model.signature.exo_names[0]], ["Z"]])
    return Assignment({n: rng.randint(-1, 3) for n in chosen + extra})


def random_assignment_pairs(rng: random.Random) -> list[tuple[Assignment, Assignment]]:
    """Up to eight random (key, value) pairs of partial assignments over
    A, B, C with values 0..2, with distinct keys in random order. Every
    assignment is a fresh object, so equal values are distinct objects."""
    names = ("A", "B", "C")
    space = list(itertools.product(*((None, 0, 1, 2) for _ in names)))

    def fresh(combo) -> Assignment:
        return Assignment({n: v for n, v in zip(names, combo) if v is not None})

    keys = rng.sample(space, rng.randint(0, 8))
    return [(fresh(k), fresh(rng.choice(space))) for k in keys]


def random_state_map(rng: random.Random, low: CausalModel, high: CausalModel) -> StateMap:
    """A uniformly random total table from low states to high states."""
    high_states = enumerate_states(high)
    return StateMap.from_table(
        tuple((s, rng.choice(high_states)) for s in enumerate_states(low))
    )


def random_expr_state_map(rng: random.Random, low: CausalModel, high: CausalModel) -> StateMap:
    """One `random_expr` per high variable over the low endogenous
    variables, with tables over the values 0 and 1: images often fall
    outside the high domains, and a table may lack the entry a state
    needs."""
    names = list(low.signature.endo_names)
    return StateMap.from_exprs(
        {d.name: random_expr(rng, names, rng.randint(0, 2), (0, 1)) for d in high.signature.endogenous}
    )


def random_omega_setup(
    rng: random.Random, low: CausalModel, high: CausalModel
) -> tuple[tuple[Assignment, ...], tuple[Assignment, ...], InterventionMap]:
    """Random allowed-intervention sets with an admissible map between
    them: total, surjective onto the image, and monotone by construction
    (the low set is the empty intervention plus an antichain)."""
    low_fulls = [i for i in enumerate_interventions(low) if len(i) == len(low.signature.endo_names)]
    high_pool = enumerate_interventions(high)
    shape = rng.choice(("empty", "fulls", "empty+fulls", "singletons"))
    if shape == "empty":
        i_low = [EMPTY]
    elif shape == "fulls":
        i_low = rng.sample(low_fulls, rng.randint(1, min(4, len(low_fulls))))
    elif shape == "empty+fulls":
        i_low = [EMPTY] + rng.sample(low_fulls, rng.randint(1, min(3, len(low_fulls))))
    else:
        var = rng.choice(low.signature.endogenous)
        i_low = [EMPTY] + [Assignment({var.name: v}) for v in var.domain]
    pairs = []
    for i in i_low:
        if len(i) == 0:
            pairs.append((i, EMPTY))
        else:
            pairs.append((i, rng.choice(high_pool)))
    omega = InterventionMap.from_pairs(tuple(pairs))
    i_high = tuple(dict.fromkeys(img for _, img in pairs))
    return tuple(i_low), i_high, omega


def random_transformation_case(rng: random.Random, force_success: bool = False):
    """A (low model, high model, tau, omega) quadruple with admissible
    intervention structure baked into the models' allowed sets."""
    low = random_model(rng)
    if force_success:
        high = low
        tau = StateMap.identity(low.signature)
        i_low = tuple(enumerate_interventions(low))
        omega = InterventionMap.identity(i_low)
        return (
            low.with_allowed(i_low),
            high.with_allowed(i_low),
            tau,
            omega,
        )
    high = random_model(rng)
    tau = random_state_map(rng, low, high)
    i_low, i_high, omega = random_omega_setup(rng, low, high)
    return low.with_allowed(i_low), high.with_allowed(i_high), tau, omega


def random_uniform_chain(rng: random.Random, max_attempts: int = 2000):
    """Two chained transformation legs that both pass the distribution-free
    check, rejection-sampled. The mid model's allowed set is the image of
    the first leg's map, so the composite is admissible by construction.
    Returns (low, mid, high, tau1, omega1, tau2, omega2)."""
    from cak.errors import InputError
    from cak.transform import check_uniform

    for _ in range(max_attempts):
        low, mid, tau1, omega1 = random_transformation_case(rng)
        if not check_uniform(low, mid, tau1, omega1).verdict:
            continue
        high = random_model(rng)
        tau2 = random_state_map(rng, mid, high)
        high_pool = enumerate_interventions(high)
        pairs = tuple(
            (i, EMPTY if len(i) == 0 else rng.choice(high_pool))
            for i in mid.allowed_interventions
        )
        omega2 = InterventionMap.from_pairs(pairs)
        high = high.with_allowed(tuple(dict.fromkeys(img for _, img in pairs)))
        try:
            if not check_uniform(mid, high, tau2, omega2).verdict:
                continue
        except InputError:
            continue  # randomly drawn images broke monotonicity; redraw
        return low, mid, high, tau1, omega1, tau2, omega2
    raise AssertionError("could not sample a two-leg chain within the attempt budget")


def sample_rational_dist(
    space: Sequence[Assignment],
    rng: random.Random,
    max_denominator: int = 64,
    max_support: int = 8,
) -> RationalDist:
    """A pseudo-random exact-rational distribution with small support and a
    denominator bounded by `max_denominator`."""
    size = rng.randint(1, min(max_support, len(space)))
    support = rng.sample(list(space), size)
    # Weights are kept small so the normalizing sum bounds the denominator.
    bound = max(1, max_denominator // max(1, size))
    weights = [rng.randint(1, max(1, bound)) for _ in support]
    total = sum(weights)
    return RationalDist(tuple((k, Fraction(w, total)) for k, w in zip(support, weights)))


def uniform_distribution_probe(
    m_low: CausalModel,
    m_high: CausalModel,
    tau: StateMap,
    omega: InterventionMap,
    tau_u: ContextMap,
    n_samples: int = 50,
    seed: int = 0,
    max_denominator: int = 64,
) -> CheckReport:
    """Empirical cross-check of a compatible context map: for seeded
    pseudo-random low distributions, the pushforward through tau_u must
    make the transformation exact. Reports the first failure."""
    rng = random.Random(seed)
    space = enumerate_contexts(m_low)
    for k in range(n_samples):
        d_low = sample_rational_dist(space, rng, max_denominator)
        d_high = tau_pushforward(tau_u, d_low)
        report = check_exact(m_low, d_low, m_high, d_high, tau, omega)
        if not report.verdict:
            return CheckReport(
                False,
                detail=f"sample {k} violates exactness",
                counterexample={
                    "sample_index": k,
                    "low_distribution": d_low,
                    "exact_failure": report.counterexample,
                },
            )
    return CheckReport(True, detail=f"{n_samples} sampled distributions all exact")


def voting_natural_partition(bundle: ExampleBundle):
    """The intended partition for a voting bundle: one cell of voters per
    group sum, each ad to itself, and the vote total to the winner bit."""
    low_names = bundle.low.signature.endo_names
    cells = []
    for d in bundle.high.signature.endogenous:
        if d.name.startswith("G"):
            g = int(d.name[1:])
            n_groups = sum(1 for h in bundle.high.signature.endogenous if h.name.startswith("G"))
            voters = [v for v in low_names if v.startswith("X")]
            group_size = len(voters) // n_groups
            members = voters[(g - 1) * group_size : g * group_size]
            cells.append((d.name, tuple(members)))
        elif d.name == "W":
            cells.append((d.name, ("T",)))
        else:
            cells.append((d.name, (d.name,)))
    partition = Partition(tuple(cells), ())
    comps, failure = derive_component_maps(bundle.low, bundle.high, bundle.tau, partition)
    if comps is None:
        raise AssertionError(f"natural voting partition does not factor: {failure}")
    return partition, comps


def walk_omega_tau(low: CausalModel, high: CausalModel, tau: StateMap, intervention) -> Assignment | None:
    """The induced image by a walk over the low restriction set: the
    tau-images' values fix each high variable (but one-value ones) that
    takes one value among them, and the image is defined exactly when the
    images are as many as the candidate's restriction set holds."""
    images = {tau.apply(s) for s in rst(low.signature.endogenous, intervention)}
    fixed: dict[str, int] = {}
    size = 1
    for d in high.signature.endogenous:
        if len(d.domain) == 1:
            continue
        values = {state[d.name] for state in images}
        if len(values) == 1:
            fixed[d.name] = next(iter(values))
        else:
            size *= len(d.domain)
    return Assignment(fixed) if size == len(images) else None


def high_restriction_sets(high: CausalModel) -> dict[frozenset, list[Assignment]]:
    """Every high intervention, keyed by its restriction set."""
    out: dict[frozenset, list[Assignment]] = {}
    for cand in enumerate_interventions(high.signature):
        out.setdefault(frozenset(rst(high.signature.endogenous, cand)), []).append(cand)
    return out


def brute_force_omega_tau(low: CausalModel, high: CausalModel, tau: StateMap, intervention, high_sets=None):
    """derive_omega_tau, checked against the walk and against a search over
    every high intervention for one whose restriction set is exactly the
    tau-image of the low restriction set. Returns the library's answer.
    `high_sets` is `high_restriction_sets(high)`, when the caller has it."""
    result = derive_omega_tau(low, high, tau, intervention)
    walked = walk_omega_tau(low, high, tau, intervention)
    if result != walked:
        raise AssertionError(f"induced image {result!r} differs from the walk's {walked!r}")
    high_sig = high.signature
    images = frozenset(tau.apply(s) for s in rst(low.signature.endogenous, intervention))
    hits = (high_restriction_sets(high) if high_sets is None else high_sets).get(images, [])
    if (result is None) != (not hits):
        raise AssertionError(
            f"constant-coordinate candidate {result!r} disagrees with brute force {hits}"
        )
    # Candidates satisfying the set equation can differ only in variables
    # whose whole domain is one value; the returned image is the minimal
    # representative.
    if hits and result not in hits:
        raise AssertionError(f"canonical image {result!r} not among {hits}")
    for hit in hits:
        extra = set(hit) - set(result)
        if set(result) - set(hit) or any(len(high_sig.domains[v]) > 1 for v in extra):
            raise AssertionError(f"induced image is not unique: {hits}")
    return result


def reference_induced_sets(low: CausalModel, high: CausalModel, tau: StateMap):
    """The induced sets one low intervention at a time, in enumeration
    order, each image from `brute_force_omega_tau`: the defined
    (intervention, image) pairs and the images in order of first
    appearance."""
    high_sets = high_restriction_sets(high)
    defined = []
    for i in enumerate_interventions(low):
        image = brute_force_omega_tau(low, high, tau, i, high_sets)
        if image is not None:
            defined.append((i, image))
    return defined, tuple(dict.fromkeys(image for _, image in defined))


def reference_find_compatible_tau_u(m_low, m_high, tau, omega, require_surjective=False):
    """The full-pass form of transform.find_compatible_tau_u: every low
    context's matching high contexts are computed up front, with one solve
    per high context and intervention, and the first context without a
    match is diagnosed by solving it again."""
    return reference_find_compatible(m_low, m_high, tau, omega, resolve_interventions(m_low), require_surjective)


def reference_find_compatible(m_low, m_high, tau, omega, interventions, require_surjective=False):
    """reference_find_compatible_tau_u over a resolved low allowed set: the
    form of transform._find_compatible, which the checks call."""
    low_contexts = enumerate_contexts(m_low)
    high_contexts = enumerate_contexts(m_high)
    high_images = [omega.apply(i) for i in interventions]
    profile_to_high = {}
    for u_h in high_contexts:
        profile = tuple(solve_under(m_high, u_h, j) for j in high_images)
        profile_to_high.setdefault(profile, []).append(u_h)
    cands = {}
    for u_l in low_contexts:
        profile = tuple(reference_high_image(tau, solve_under(m_low, u_l, i), m_high) for i in interventions)
        cands[u_l] = profile_to_high.get(profile, [])
    for u_l in low_contexts:
        if cands[u_l]:
            continue
        ce = {"context": u_l}
        by_image = {}
        for i in interventions:
            required = tau.apply(solve_under(m_low, u_l, i))
            by_image.setdefault(omega.apply(i), []).append((i, required))
        conflicts = [(a, b) for group in by_image.values() for a in group for b in group if a[1] != b[1]]
        if conflicts:
            (i1, r1), (i2, r2) = conflicts[0]
            ce["conflict"] = {"interventions": (i1, i2), "required_high_states": (r1, r2)}
        return CheckReport(
            False,
            detail=f"low context {dict(u_l)} has no corresponding high context",
            counterexample=ce,
        )
    chosen = {u_l: found[0] for u_l, found in cands.items()}
    if require_surjective:
        matched = reference_match_high_side(low_contexts, high_contexts, cands)
        if matched is None:
            hit = set(chosen.values())
            return CheckReport(
                False,
                detail="no surjective compatible context map exists",
                counterexample={"unreachable_high_contexts": tuple(u for u in high_contexts if u not in hit)},
            )
        chosen.update(matched)
    return CheckReport(
        True,
        detail="compatible context map found",
        witness=ContextMap.from_table(reference_finite_map_entries(ContextMap.kind, chosen.items())),
    )


def reference_finite_map_entries(kind: str, entries) -> tuple[tuple[Assignment, Assignment], ...]:
    """The entries of a FiniteMap of `kind` by a plain sort: each key and
    value an Assignment, the given object when it is one, in order of the
    keys' name-sorted items; two equal keys are an InputError naming the
    key."""
    def shared(a):
        return a if isinstance(a, Assignment) else Assignment(a)

    pairs = sorted(((shared(a), shared(b)) for a, b in entries), key=lambda pair: pair[0].items_sorted)
    for (before, _), (key, _) in zip(pairs, pairs[1:]):
        if key == before:
            raise InputError(f"duplicate {kind} entry for {key!r}")
    return tuple(pairs)


def reference_high_image(tau: StateMap, state: Assignment, high: CausalModel) -> Assignment:
    """tau's image of the low state `state`, which must assign exactly the
    high endogenous variables, each a value of its domain; otherwise an
    InputError names `state` and, in name order, the first bad value."""
    image = tau.apply(state)
    sig = high.signature
    if set(image) != set(sig.endo_names):
        raise InputError(
            f"state map sends {state!r} to {image!r}, which does not assign exactly the high endogenous variables"
        )
    for name in sorted(image):
        if image[name] not in sig.domains[name]:
            raise InputError(f"state map sends {state!r} to out-of-domain value {name}={image[name]}")
    return image


def corrupt_one_table_entry(rng: random.Random, model: CausalModel) -> CausalModel:
    """`model` with one entry of one of its table equations changed to
    another value of that variable's domain."""
    tables = [(name, e) for name, e in model.equations if isinstance(e, Table)]
    name, table = rng.choice(tables)
    mapping = table.mapping()
    key = rng.choice(sorted(mapping))
    mapping[key] = rng.choice([v for v in model.signature.domains[name] if v != mapping[key]])
    equations = dict(model.equations)
    equations[name] = Table.from_mapping(table.vars, mapping)
    return CausalModel(model.signature, tuple(equations.items()), model.allowed_interventions)


def reference_match_high_side(low_contexts, high_contexts, cands):
    """The general form of transform._match_high_side: Kuhn's recursive
    augmenting-path search, trying candidates in list order. On the inputs
    the profile pass gives, the library's closed form per profile class
    must return the same matching."""
    candidates_of_high = {u_h: [] for u_h in high_contexts}
    for u_l in low_contexts:
        for u_h in cands[u_l]:
            candidates_of_high[u_h].append(u_l)

    match_of_low = {}
    match_of_high = {}

    def try_assign(u_h, visited):
        for u_l in candidates_of_high[u_h]:
            if u_l in visited:
                continue
            visited.add(u_l)
            if u_l not in match_of_low or try_assign(match_of_low[u_l], visited):
                match_of_low[u_l] = u_h
                match_of_high[u_h] = u_l
                return True
        return False

    for u_h in high_contexts:
        if not try_assign(u_h, set()):
            return None
    return match_of_low


def random_factoring_case(rng: random.Random) -> tuple[str, CausalModel, CausalModel, StateMap]:
    """A kind and a random low model with at most four endogenous
    variables, a high model and a tau that factors over disjoint cells:
    "identity", the identity onto the model itself; "marginal", the
    identity onto the model without its last variable, which no equation
    reads; "factoring", a random high model, with each high variable
    reading its own random non-empty cell through a random table and the
    low variables in no cell marginalized."""
    low = random_model(rng, max_endo=4)
    sig = low.signature
    kind = rng.choice(("identity", "marginal", "factoring", "factoring", "factoring"))
    if kind == "identity" or len(sig.endogenous) == 1:
        return "identity", low, low, StateMap.identity(sig)
    if kind == "marginal":
        high = CausalModel(Signature(sig.exogenous, sig.endogenous[:-1]), low.equations[:-1])
        return kind, low, high, StateMap.from_exprs({n: Var(n) for n in sig.endo_names[:-1]})
    names = sig.endo_names
    high = random_model(rng, max_endo=len(names))
    high_names, domains = high.signature.endo_names, high.signature.domains
    order = rng.sample(names, len(names))
    cells = [{v} for v in order[: len(high_names)]]
    for v in order[len(high_names) :]:
        k = rng.randint(0, len(cells))  # k == len(cells) marginalizes v
        if k < len(cells):
            cells[k].add(v)
    exprs = {}
    for h, cell in zip(high_names, cells):
        reads = tuple(v for v in names if v in cell)
        combos = itertools.product(*(sig.domains[v] for v in reads))
        exprs[h] = Table.from_mapping(reads, {c: rng.choice(domains[h]) for c in combos})
    return kind, low, high, StateMap.from_exprs(exprs)


def random_constant_component_case(rng: random.Random) -> tuple[str, CausalModel, CausalModel, StateMap]:
    """A `random_factoring_case` with one more high variable K, declared at
    a random place, whose equation and tau-component are one constant c.
    The kind is "one-value" when K's domain is (c,) and "multi-value" when
    it is (0, 1)."""
    _, low, high, tau = random_factoring_case(rng)
    c = rng.choice((0, 1))
    kind = rng.choice(("one-value", "multi-value"))
    sig = high.signature
    k = rng.randint(0, len(sig.endogenous))
    endo = (*sig.endogenous[:k], VariableDecl("K", (c,) if kind == "one-value" else (0, 1)), *sig.endogenous[k:])
    equations = (*high.equations[:k], ("K", Lit(c)), *high.equations[k:])
    high = CausalModel(Signature(sig.exogenous, endo), equations)
    return kind, low, high, StateMap.from_exprs({**dict(tau.exprs), "K": Lit(c)})


def brute_force_constructive_partition(m_low, m_high, tau) -> Partition | None:
    """The first partition that check_constructive accepts, or None: every
    way to put each low variable into one high variable's cell or into the
    marginal, with no cell empty, is tried in turn."""
    low_names, high_names = m_low.signature.endo_names, m_high.signature.endo_names
    for places in itertools.product(range(len(high_names) + 1), repeat=len(low_names)):
        cells = tuple(
            (h, tuple(v for v, p in zip(low_names, places) if p == k)) for k, h in enumerate(high_names)
        )
        if all(vs for _, vs in cells):
            marginal = tuple(v for v, p in zip(low_names, places) if p == len(high_names))
            if check_constructive(m_low, m_high, tau, Partition(cells, marginal)).verdict:
                return Partition(cells, marginal)
    return None


def _truth(x) -> bool:
    return x != 0


def _reference_compile(expr):
    """The closure compiler that the generated code replaced: one closure
    per node, each calling its children's closures."""
    if isinstance(expr, Lit):
        v = expr.value
        return lambda env: v
    if isinstance(expr, Var):
        name = expr.name
        return lambda env: env[name]
    if isinstance(expr, Unary):
        arg = _reference_compile(expr.arg)
        if expr.op == "-":
            return lambda env: -arg(env)
        if expr.op == "!":
            return lambda env: 0 if _truth(arg(env)) else 1
        raise ParseError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Binary):
        lf, rf = _reference_compile(expr.left), _reference_compile(expr.right)
        op = expr.op
        if op == "+":
            return lambda env: lf(env) + rf(env)
        if op == "-":
            return lambda env: lf(env) - rf(env)
        if op == "*":
            return lambda env: lf(env) * rf(env)
        if op == "==":
            return lambda env: 1 if lf(env) == rf(env) else 0
        if op == "<":
            return lambda env: 1 if lf(env) < rf(env) else 0
        if op == "<=":
            return lambda env: 1 if lf(env) <= rf(env) else 0
        if op == "&&":
            return lambda env: 1 if (_truth(lf(env)) and _truth(rf(env))) else 0
        if op == "||":
            return lambda env: 1 if (_truth(lf(env)) or _truth(rf(env))) else 0
        raise ParseError(f"unknown binary operator {op!r}")
    if isinstance(expr, Ite):
        cf = _reference_compile(expr.cond)
        tf = _reference_compile(expr.then)
        of = _reference_compile(expr.other)
        return lambda env: tf(env) if _truth(cf(env)) else of(env)
    if isinstance(expr, Table):
        names = expr.vars
        mapping = dict(expr.entries)

        def lookup(env):
            key = tuple(env[n] for n in names)
            try:
                return mapping[key]
            except KeyError:
                raise EvaluationError(f"table over {names} has no entry for {key}") from None

        return lookup
    raise TypeError(f"not an expression: {expr!r}")


def reference_eval(expr, env):
    """`expr`'s value in `env`, by the closure interpreter; the generated
    evaluator `cak.expr.compile_expr` must agree with it."""
    return _reference_compile(expr)(env)


def reference_tau_apply(tau: StateMap, state: Assignment) -> Assignment:
    """tau.apply by a scan of the table, or by the closure interpreter over
    the state's dict, one expression at a time in name order."""
    if tau.exprs is None:
        for key, image in tau.entries:
            if key == state:
                return image
        raise InputError(f"state map is undefined on {state!r}")
    ordered = sorted(tau.exprs, key=lambda pair: pair[0])
    env = dict(state)
    return Assignment({name: reference_eval(e, env) for name, e in ordered})


def reference_tau_table(tau: StateMap, low: Signature, high: Signature) -> dict[tuple[int, ...], Assignment]:
    """`_TauTable.by_values` by applying `reference_tau_apply` to each
    enumerated low state in turn and checking its image before the next."""
    check_reads(tau, low)
    table = {}
    for state in enumerate_states(low):
        table[tuple(state[n] for n in low.endo_names)] = image = reference_tau_apply(tau, state)
        check_image(tau, image, high, state)
    return table


def reference_solve_under(model: CausalModel, context: Assignment, intervention: Assignment) -> Assignment:
    """solve_under by the closure interpreter: equations in dependency
    order over one environment dict, intervened variables forced without a
    domain check, computed values checked against their domains."""
    if set(context) != set(model.signature.exo_names):
        check_context(model, context)
    solvers = {name: _reference_compile(expr) for name, expr in model.equations}
    env = dict(context)
    try:
        for name in model.order:
            if name in intervention:
                value = intervention[name]
            else:
                value = solvers[name](env)
                if value not in model.signature.domains[name]:
                    raise EvaluationError(
                        f"equation for {name} produced {value}, outside its domain"
                    )
            env[name] = value
    except KeyError:
        check_context(model, context)  # raises with a precise message
        raise
    return Assignment({n: env[n] for n in model.signature.endo_names})


def outcome(fn, *args):
    """What a call gives: ("value", result), or the exception's type and
    message."""
    try:
        return ("value", fn(*args))
    except (EvaluationError, InputError, KeyError, ParseError, TypeError) as exc:
        return (type(exc), str(exc))


def reference_interventional_dist(model: CausalModel, d: RationalDist, intervention: Assignment) -> RationalDist:
    """prob.interventional_dist with one reference solve and one Fraction
    addition per context of nonzero mass."""
    check_intervention(model, intervention)
    out: dict[Assignment, Fraction] = {}
    for context, p in d.entries:
        if p == 0:
            continue
        state = reference_solve_under(model, context, intervention)
        out[state] = out.get(state, Fraction(0)) + p
    return RationalDist(tuple(out.items()))


def reference_tau_pushforward(tau, d: RationalDist) -> RationalDist:
    """prob.tau_pushforward with one Fraction addition per entry."""
    out: dict[Assignment, Fraction] = {}
    for key, p in d.entries:
        image = tau.apply(key)
        out[image] = out.get(image, Fraction(0)) + p
    return RationalDist(tuple(out.items()))


def reference_equivalent(m1, d1, m2, d2) -> CheckReport:
    """prob.equivalent, with one reference solve per context and
    intervention and one Fraction addition per context of nonzero mass."""
    ilist = enumerate_interventions(m1)

    def profile_dist(model, d):
        out = {}
        for context, p in d.entries:
            if p == 0:
                continue
            profile = tuple(reference_solve_under(model, context, i) for i in ilist)
            out[profile] = out.get(profile, Fraction(0)) + p
        return out

    p1, p2 = profile_dist(m1, d1), profile_dist(m2, d2)
    if p1 == p2:
        return CheckReport(True, detail=f"equivalent over {len(ilist)} interventions")
    profile = next(q for q in sorted(set(p1) | set(p2)) if p1.get(q, 0) != p2.get(q, 0))
    return CheckReport(
        False,
        detail="response-profile masses differ",
        counterexample={
            "profile": profile,
            "interventions": tuple(ilist),
            "mass_left": p1.get(profile, Fraction(0)),
            "mass_right": p2.get(profile, Fraction(0)),
        },
    )
