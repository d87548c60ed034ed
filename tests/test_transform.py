import random

import pytest

from cak import (
    Assignment,
    EMPTY,
    EvaluationError,
    InputError,
    InterventionMap,
    RationalDist,
    SizeCapExceeded,
    StateMap,
    check_compatible,
    check_exact,
    check_uniform,
    compose_transformations,
    enumerate_contexts,
    enumerate_interventions,
    enumerate_states,
    find_compatible_tau_u,
    tau_pushforward,
)
from cak.corpus import (
    build_chain_vs_independent,
    build_gated_extension,
    build_linear_aggregate,
    build_unrelated_pair,
)
from cak import abstraction, interventions as interventions_module, model as model_module, transform
from cak.abstraction import check_strong_abstraction, check_tau_abstraction
from cak.corpus import all_bundles, build_voting, evaluate_bundle
from cak.errors import ENV_MAX_CONTEXTS
from cak.expr import Table, parse_expr
from cak.maps import ContextMap
from cak.model import ALL, Signature, VariableDecl, _to_name_order
from cak.serialize import dumps, report_to_obj
from cak.transform import _match_high_side

from . import util
from .test_model import CHAIN, model_of
from .util import (
    corrupt_one_table_entry,
    outcome,
    random_expr_model,
    random_model,
    random_state_map,
    reference_find_compatible,
    reference_find_compatible_tau_u,
    reference_match_high_side,
    sample_rational_dist,
    uniform_distribution_probe,
)


def _identity_setup(model):
    i_all = tuple(enumerate_interventions(model))
    return (
        model.with_allowed(i_all),
        StateMap.identity(model.signature),
        InterventionMap.identity(i_all),
    )


# ---------------------------------------------------------------------------
# exact transformations

def test_exact_identity_always_passes():
    m, tau, omega = _identity_setup(CHAIN)
    d = RationalDist.uniform(enumerate_contexts(m))
    assert check_exact(m, d, m, d, tau, omega).verdict


def test_exact_identity_on_random_models():
    from .util import random_model

    rng = random.Random(17)
    for _ in range(10):
        m, tau, omega = _identity_setup(random_model(rng))
        d = sample_rational_dist(enumerate_contexts(m), rng)
        assert check_exact(m, d, m, d, tau, omega).verdict


def test_exact_unrelated_pair_both_directions():
    fwd, rev = build_unrelated_pair()
    for b in (fwd, rev):
        report = check_exact(b.low, b.low_dist, b.high, b.high_dist, b.tau, b.omega)
        assert report.verdict


def test_exact_detects_mass_mismatch():
    fwd, _ = build_unrelated_pair()
    wrong = RationalDist.point(Assignment(BW=1))  # solves to the wrong state
    report = check_exact(fwd.low, fwd.low_dist, fwd.high, wrong, fwd.tau, fwd.omega)
    assert not report.verdict
    ce = report.counterexample
    assert ce["intervention"] == EMPTY
    assert ce["high_mass"] != ce["pushed_low_mass"]


def test_exact_requires_admissible_omega():
    m, tau, _ = _identity_setup(CHAIN)
    bad = InterventionMap.from_pairs(
        tuple((i, EMPTY) for i in enumerate_interventions(m))
    )
    d = RationalDist.uniform(enumerate_contexts(m))
    with pytest.raises(InputError):
        check_exact(m, d, m, d, tau, bad)  # not surjective onto the high set


def test_exact_linear_aggregate():
    b = build_linear_aggregate()
    assert check_exact(b.low, b.low_dist, b.high, b.high_dist, b.tau, b.omega).verdict


def test_exact_gated_extension_with_gate_always_on():
    # Any low distribution works once the high distribution never turns the
    # gate off, whatever the gate-off equations do.
    for seed in (None, 4):
        b = build_gated_extension(branch_seed=seed)
        d_low = RationalDist.uniform(enumerate_contexts(b.low))
        tau_u = ContextMap.from_table(
            tuple(
                (u, Assignment(UG=1, **{k: v for k, v in u.items_sorted}))
                for u in enumerate_contexts(b.low)
            )
        )
        d_high = tau_pushforward(tau_u, d_low)
        assert check_exact(b.low, d_low, b.high, d_high, b.tau, b.omega).verdict


# ---------------------------------------------------------------------------
# compatible context maps

def test_compatible_identity():
    m, tau, omega = _identity_setup(CHAIN)
    ident = ContextMap.from_table(tuple((u, u) for u in enumerate_contexts(m)))
    assert check_compatible(ident, tau, omega, m, m).verdict


def test_compatible_counterexample_fields():
    b = build_gated_extension()
    # A context map that opens the gate the embedding never uses.
    bad = ContextMap.from_table(
        tuple(
            (u, Assignment(UG=0, **{k: v for k, v in u.items_sorted}))
            for u in enumerate_contexts(b.low)
        )
    )
    report = check_compatible(bad, b.tau, b.omega, b.low, b.high)
    assert not report.verdict
    ce = report.counterexample
    assert set(ce) == {"context", "intervention", "abstracted_low_solution", "high_solution"}


def test_find_compatible_identity_gives_identity_table():
    # All three contexts are distinguishable here, so the greedy witness is
    # exactly the identity.
    from .test_model import THREE_BITS

    m, tau, omega = _identity_setup(THREE_BITS)
    report = find_compatible_tau_u(m, m, tau, omega)
    assert report.verdict
    for u in enumerate_contexts(m):
        assert report.witness.apply(u) == u


def test_find_compatible_collapses_indistinguishable_contexts():
    # U2 never matters in the chain, so both U2 values share a profile and
    # the witness picks the enumeration-first representative.
    m, tau, omega = _identity_setup(CHAIN)
    report = find_compatible_tau_u(m, m, tau, omega)
    assert report.verdict
    for u in enumerate_contexts(m):
        assert report.witness.apply(u) == Assignment(U1=u["U1"], U2=0)


def test_find_compatible_fails_for_unrelated_pair():
    for b in build_unrelated_pair():
        report = find_compatible_tau_u(b.low, b.high, b.tau, b.omega)
        assert not report.verdict
        assert "context" in report.counterexample


def test_conflict_diagnosis_names_colliding_interventions():
    # Two interventions with the same image but contradictory requirements.
    from cak.corpus import build_disjunctive_merge

    main, _ = build_disjunctive_merge()
    from cak.abstraction import compute_induced_sets

    i_low, _, omega_tau = compute_induced_sets(
        main.low.with_allowed("all"), main.high, main.tau
    )
    report = find_compatible_tau_u(main.low.with_allowed(i_low), main.high, main.tau, omega_tau)
    assert not report.verdict
    conflict = report.counterexample["conflict"]
    assert set(conflict["interventions"]) == {EMPTY, Assignment(X3=0)}


def test_surjective_completion_beats_greedy():
    # Both low contexts accept both high contexts; the greedy choice alone
    # would hit only one, the matching step spreads them out.
    low = model_of([("U", (0, 1))], [("X", (0,))], {"X": "0"}, allowed=(EMPTY,))
    high = model_of([("W", (0, 1))], [("Y", (0,))], {"Y": "0"}, allowed=(EMPTY,))
    tau = StateMap.identity(low.signature).__class__.from_table(
        ((Assignment(X=0), Assignment(Y=0)),)
    )
    omega = InterventionMap.identity((EMPTY,))
    greedy = find_compatible_tau_u(low, high, tau, omega, require_surjective=False)
    assert greedy.verdict
    assert len(set(greedy.witness.image())) == 1
    surjective = find_compatible_tau_u(low, high, tau, omega, require_surjective=True)
    assert surjective.verdict
    assert set(surjective.witness.image()) == set(enumerate_contexts(high))


def test_surjective_completion_impossible():
    low = model_of([("U", (0,))], [("X", (0,))], {"X": "0"}, allowed=(EMPTY,))
    high = model_of([("W", (0, 1))], [("Y", (0,))], {"Y": "0"}, allowed=(EMPTY,))
    tau = StateMap.from_table(((Assignment(X=0), Assignment(Y=0)),))
    omega = InterventionMap.identity((EMPTY,))
    report = find_compatible_tau_u(low, high, tau, omega, require_surjective=True)
    assert not report.verdict
    assert report.counterexample["unreachable_high_contexts"]


def test_matcher_pairs_a_3000_context_block_in_reverse():
    # One profile class of 3,000 high contexts shared by 3,000 low ones, a
    # size at which the recursive reference exceeds the recursion limit.
    n = 3000
    highs = [f"h{j}" for j in range(n)]
    lows = list(range(n))
    cands = dict.fromkeys(lows, highs)
    assert _match_high_side(highs, list(cands.values())) == dict(zip(lows, reversed(highs)))


def _block_shaped_case(rng: random.Random):
    """Inputs as the profile pass gives them: the high contexts, in
    enumeration order, cut into classes that keep that order, and each low
    context mapped to the one shared list of its class. The low contexts
    are their positions. A class may get no low context, or fewer low
    contexts than it has high ones."""
    highs = [f"h{j}" for j in range(rng.randint(1, 10))]
    classes: list[list[str]] = [[] for _ in range(rng.randint(1, len(highs)))]
    for u_h in highs:
        rng.choice(classes).append(u_h)
    classes = [c for c in classes if c]
    lows = list(range(rng.randint(1, 12)))
    weights = [rng.random() for _ in classes]
    cands = {u_l: rng.choices(classes, weights)[0] for u_l in lows}
    return lows, highs, classes, cands


def test_matcher_agrees_with_recursive_reference():
    rng = random.Random(7)
    seen = set()
    for _ in range(1000):
        lows, highs, classes, cands = _block_shaped_case(rng)
        got = _match_high_side(highs, list(cands.values()))
        assert got == reference_match_high_side(lows, highs, cands)
        sizes = [sum(found is c for found in cands.values()) for c in classes]
        if got is not None:
            seen.add("saturated, several blocks" if len(classes) > 1 else "saturated, one block")
        elif 0 in sizes:
            seen.add("a high context unreached")
        else:
            assert any(a < len(c) for a, c in zip(sizes, classes))
            seen.add("a block short of low contexts")
    assert seen == {
        "saturated, several blocks",
        "saturated, one block",
        "a high context unreached",
        "a block short of low contexts",
    }


@pytest.mark.parametrize("noise", [(0, 1), (0,)], ids=["two-per-class", "one-per-class"])
def test_surjective_completion_inside_a_multi_context_block_gives_the_reference_reports(monkeypatch, noise):
    # The high model's W is redundant: the contexts that differ only at W
    # share a profile, so each profile class holds two high contexts.
    # With two low contexts per class the completion pairs them in reverse;
    # with one it cannot cover the class.
    low = model_of([("U", (0, 1)), ("V", noise)], [("X", (0, 1))], {"X": "U"})
    high = model_of([("U", (0, 1)), ("W", (0, 1))], [("Y", (0, 1))], {"Y": "U"})
    tau = StateMap.from_exprs({"Y": parse_expr("X")})
    i_low = enumerate_interventions(low)
    omega = InterventionMap.from_pairs([(i, Assignment({"Y": v for v in i.values()})) for i in i_low])
    args = (low.with_allowed(i_low), high.with_allowed(enumerate_interventions(high)), tau, omega, True)
    got = [_report_bytes(outcome(find_compatible_tau_u, *args))]
    got.append(_report_bytes(outcome(check_tau_abstraction, low, high, tau)))
    monkeypatch.setattr(transform, "_find_compatible", reference_find_compatible)
    monkeypatch.setattr(abstraction, "_find_compatible", reference_find_compatible)
    expected = [_report_bytes(outcome(reference_find_compatible_tau_u, *args))]
    expected.append(_report_bytes(outcome(check_tau_abstraction, low, high, tau)))
    assert got == expected
    report = outcome(find_compatible_tau_u, *args)[1]
    if len(noise) == 2:
        assert report.verdict
        pairs = {(u["U"], u["V"]): v["W"] for u, v in report.witness.entries}
        assert pairs == {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}
    else:
        assert not report.verdict
        assert len(report.counterexample["unreachable_high_contexts"]) == 2


def _count_low_solves(monkeypatch, low):
    """Patch the profile pass's and the reference's solve_under to record
    which calls solve `low`; returns the record."""
    low_solves = []
    solve_under = transform.solve_under

    def counted(model, context, intervention):
        low_solves.append(model is low)
        return solve_under(model, context, intervention)

    monkeypatch.setattr(transform, "solve_under", counted)
    monkeypatch.setattr(util, "solve_under", counted)
    return low_solves


@pytest.mark.parametrize("seed", range(4))
def test_streamed_profile_pass_stops_at_the_first_unmatched_context(monkeypatch, seed):
    bundle = build_voting(4, 2, 1)
    high = corrupt_one_table_entry(random.Random(seed), bundle.high)
    low_solves = _count_low_solves(monkeypatch, bundle.low)
    checks = [
        lambda: check_uniform(bundle.low, high, bundle.tau, bundle.omega),
        lambda: check_tau_abstraction(bundle.low, high, bundle.tau),
    ]
    streamed = []
    for check in checks:
        streamed.append((check(), sum(low_solves)))
        low_solves.clear()
    monkeypatch.setattr(transform, "_find_compatible", reference_find_compatible)
    monkeypatch.setattr(abstraction, "_find_compatible", reference_find_compatible)
    for check, (report, solves) in zip(checks, streamed):
        reference = check()
        assert not report.verdict and report.counterexample["context"]
        assert dumps(report_to_obj(report, True)) == dumps(report_to_obj(reference, True))
        assert solves < sum(low_solves)
        low_solves.clear()


@pytest.mark.parametrize("seed", range(4))
def test_failing_pass_solves_each_low_context_up_to_the_first_miss_once(monkeypatch, seed):
    # k contexts match, the (k+1)-th does not: its diagnosis reads the
    # profile already computed instead of solving the context again.
    bundle = build_voting(4, 2, 1)
    high = corrupt_one_table_entry(random.Random(seed), bundle.high)
    low_solves = _count_low_solves(monkeypatch, bundle.low)
    report = check_uniform(bundle.low, high, bundle.tau, bundle.omega)
    assert not report.verdict
    k = enumerate_contexts(bundle.low).index(report.counterexample["context"])
    assert sum(low_solves) == (k + 1) * len(bundle.low.allowed_interventions)


# ---------------------------------------------------------------------------
# cone columns


def _with_cone_pass(monkeypatch, selected=True):
    """Select the cone columns, or not, whatever the sizes. Returns how
    each profile pass ended: "returned", or "raised"."""
    ends = []
    profile_pass = transform._profile_pass

    def recorded(*args):
        try:
            result = profile_pass(*args)
        except Exception:
            ends.append("raised")
            raise
        ends.append("returned")
        return result

    monkeypatch.setattr(transform, "_columns_pay", lambda *args: selected)
    monkeypatch.setattr(transform, "_profile_pass", recorded)
    return ends


def _passes_taken(monkeypatch):
    """Record how each profile pass builds its columns: "by cone" or "by
    context"."""
    taken = []
    columns_pay = transform._columns_pay

    def recorded(*args):
        pays = columns_pay(*args)
        taken.append("by cone" if pays else "by context")
        return pays

    monkeypatch.setattr(transform, "_columns_pay", recorded)
    return taken


def _report_bytes(result):
    kind, value = result
    return (kind, dumps(report_to_obj(value, True))) if kind == "value" else result


def _differential_case(rng: random.Random):
    """Two models, the low one allowing every intervention, with a state
    map and an intervention map: the identity on one model, the identity
    between a model and a copy with one table entry changed, or a random
    state map and a random image per intervention between two models."""
    low = random_model(rng, max_exo=3) if rng.random() < 0.5 else random_expr_model(rng)
    i_low = enumerate_interventions(low)
    shape = rng.choice(("identity", "corrupted", "random"))
    if shape == "random":
        high = random_model(rng, max_exo=3) if rng.random() < 0.5 else random_expr_model(rng)
        pool = enumerate_interventions(high)
        omega = InterventionMap.from_pairs([(i, rng.choice(pool)) for i in i_low])
        return low, high, random_state_map(rng, low, high), omega
    high = low
    if shape == "corrupted" and any(isinstance(e, Table) for _, e in low.equations):
        high = corrupt_one_table_entry(rng, low)
    return low, high, StateMap.identity(low.signature), InterventionMap.identity(i_low)


@pytest.mark.parametrize("seed", range(5))
def test_cone_pass_matches_the_reference(monkeypatch, seed):
    # Random expression models read the undeclared Z now and then, leave
    # their domains and have partial tables; validate then rejects them,
    # and the pass goes by context. Every case reports or raises as the
    # pass by context does, and as the reference does unless the reference,
    # which solves every low context before looking for a miss, raises at a
    # context past the first miss.
    rng = random.Random(seed)
    ends = []
    for _ in range(40):
        low, high, tau, omega = _differential_case(rng)
        args = (low, high, tau, omega, rng.random() < 0.5)
        reference = _report_bytes(outcome(reference_find_compatible_tau_u, *args))
        _with_cone_pass(monkeypatch, selected=False)
        by_context = _report_bytes(outcome(find_compatible_tau_u, *args))
        runs = _with_cone_pass(monkeypatch)
        got = _report_bytes(outcome(find_compatible_tau_u, *args))
        ends += runs
        assert got == by_context
        assert got == reference or (reference[0] != "value" and '"verdict": false' in got[1])
    assert set(ends) == {"returned", "raised"}


def test_cone_pass_matches_the_reference_on_the_corpus(monkeypatch):
    monkeypatch.setattr(transform, "_find_compatible", reference_find_compatible)
    monkeypatch.setattr(abstraction, "_find_compatible", reference_find_compatible)
    expected = [
        dumps(report_to_obj(r, True)) for b in all_bundles() for r in evaluate_bundle(b).values()
    ]
    monkeypatch.undo()
    ends = _with_cone_pass(monkeypatch)
    got = [dumps(report_to_obj(r, True)) for b in all_bundles() for r in evaluate_bundle(b).values()]
    assert got == expected
    assert ends and set(ends) == {"returned"}


def test_cone_pass_handles_one_value_domains_and_an_undeclared_name(monkeypatch):
    # Declared out of name order, with a one-value exogenous variable.
    low = model_of(
        [("U2", (0, 1)), ("U1", (5,)), ("U0", (0, 1, 2))],
        [("X1", (0, 1, 2)), ("X2", (0, 1)), ("X0", (7,))],
        {"X1": "U2 + U1 - 5", "X2": "X1 == U0", "X0": "7"},
    )
    broken = model_of([("U", (0, 1))], [("X", (0, 1))], {"X": "Z"})
    ends = _with_cone_pass(monkeypatch)
    for model in (low, broken):
        _, tau, omega = _identity_setup(model)
        args = (model.with_allowed(enumerate_interventions(model)), model, tau, omega, True)
        expected = outcome(reference_find_compatible_tau_u, *args)
        assert _report_bytes(outcome(find_compatible_tau_u, *args)) == _report_bytes(expected)
    assert ends == ["returned", "raised"]
    assert expected == (KeyError, "'Z'")


@pytest.mark.parametrize("seed", range(20))
def test_cone_shape_places_every_context_at_its_cone_point(seed):
    rng = random.Random(seed)
    names = rng.sample(["A", "B", "C", "D"], rng.randint(1, 4))
    decls = tuple(VariableDecl(n, tuple(rng.sample(range(-1, 4), rng.randint(1, 3)))) for n in names)
    sig = Signature(decls, ())
    cone = tuple(n for n in names if rng.random() < 0.5)
    points = list(transform._cone_points(sig, cone, _to_name_order(names)))
    index = transform._spread(list(range(len(points))), sig, cone)
    first = {d.name: d.domain[0] for d in decls}
    contexts = enumerate_contexts(sig)
    assert len(index) == len(contexts)
    assert sorted(set(index)) == list(range(len(points)))
    for u, k in zip(contexts, index):
        assert points[k] == Assignment({n: u[n] if n in cone else first[n] for n in names})._values


@pytest.mark.parametrize("shape", [(4, 2, 1), (6, 2, 1), (6, 3, 1)], ids=str)
def test_allowed_set_checks_on_voting_stay_streamed(monkeypatch, shape):
    # Three allowed interventions whose cones cover most contexts: the cone
    # columns would do two thirds of the full work by context.
    bundle = build_voting(*shape)
    taken = _passes_taken(monkeypatch)
    assert check_uniform(bundle.low, bundle.high, bundle.tau, bundle.omega).verdict
    assert check_tau_abstraction(bundle.low, bundle.high, bundle.tau).verdict
    assert taken == ["by context"] * 2


def test_the_uniform_check_compares_no_tau_image_by_value(monkeypatch):
    # The pass numbers tau's interned images, the objects that apply
    # returns, and keys the high side by the high model's own states, so
    # every id lookup is found by identity: this check called the
    # Python-level Assignment.__eq__ 690 times.
    bundle = build_voting(4, 2, 1)
    calls = []
    eq = Assignment.__eq__
    monkeypatch.setattr(Assignment, "__eq__", lambda a, b: (calls.append(1), eq(a, b))[1])
    assert check_uniform(bundle.low, bundle.high, bundle.tau, bundle.omega).verdict
    assert not calls


def _count_kernel_calls(monkeypatch):
    """Count every call of a generated solver that the patched factory
    makes from now on; returns the one-element count."""
    solves = [0]
    kernel = model_module._kernel

    def counting_kernel(*args):
        solve = kernel(*args)

        def counted(u, f):
            solves[0] += 1
            return solve(u, f)

        return counted

    monkeypatch.setattr(model_module, "_kernel", counting_kernel)
    return solves


def test_strong_check_on_voting_takes_the_cone_pass(monkeypatch):
    # Every solve runs a kernel the patched factory made, on fresh models:
    # 1,697 low and 633 high member points, where by context the pass
    # solves 512 contexts under 450 interventions and 162 under 144 images,
    # 253,728. Solving the whole state at each intervention's cone made
    # 9,600 low and 1,728 high solves, 11,328.
    solves = _count_kernel_calls(monkeypatch)
    bundle = build_voting(4, 2, 1)
    taken = _passes_taken(monkeypatch)
    assert check_strong_abstraction(bundle.low, bundle.high, bundle.tau).verdict
    assert taken == ["by cone"]
    assert solves[0] == 1_697 + 633


def test_a_model_that_validate_rejects_goes_by_context(monkeypatch):
    # X's table misses U = 2, so validate rejects the model, and the pass
    # goes by context even where the cone columns are selected: a cone
    # solve skips the equations its component does not read, so it could
    # miss an error. The high side, the same model, is read first: it
    # solves the 8 contexts before U = 2 under the 15 distinct images, and
    # the first image, the empty intervention, raises at U = 2: 8 * 15 + 1.
    # When a raising cone column fell back alone, the pass made 78 solves.
    model = model_of(
        [("U", (0, 1, 2)), ("V", (0, 1, 2, 3))],
        [("X", (0, 1)), ("Y", (0, 1, 2, 3))],
        {"X": "table(U)[(0) -> 0, (1) -> 1]", "Y": "V"},
    )
    solves = _count_kernel_calls(monkeypatch)
    _, tau, omega = _identity_setup(model)
    args = (model.with_allowed(enumerate_interventions(model)), model, tau, omega)
    ends = _with_cone_pass(monkeypatch)
    got = outcome(find_compatible_tau_u, *args)
    assert ends == ["raised"]
    assert solves[0] == 121
    assert got == outcome(reference_find_compatible_tau_u, *args)
    assert got == (EvaluationError, "table over ('U',) has no entry for (2,)")


def _record_columns(monkeypatch):
    """Record, for the "low" and the "high" side of each profile pass from
    now on, the number of columns, read from the key space as one per cone
    group and one per column by context, and every key the pass builds a
    profile from."""
    record = {"low": [], "high": []}

    def recording(columns, low):
        def recorded(*args):
            rows, profile, space = columns(*args)
            keys = []
            groups, loose, _ = space
            record["low" if low(*args) else "high"].append((len(groups) + len(loose), keys))

            def counted(key):
                keys.append(key)
                return profile(key)

            return rows, counted, space

        return recorded

    # By context, the low side applies tau. By cone, the low side's readers
    # evaluate tau's components, and the high side's take the values of
    # the high variables as they are.
    by_context, by_cone = transform._columns_by_context, transform._columns_by_cone
    monkeypatch.setattr(transform, "_columns_by_context", recording(by_context, lambda *args: len(args) > 4))
    monkeypatch.setattr(
        transform, "_columns_by_cone", recording(by_cone, lambda side, contexts, readers: isinstance(readers[0].__self__, transform._Ids))
    )
    return record


def _record_projections(monkeypatch):
    """Record, for each profile pass from now on, the low key that each
    high row it projects gets, None where the row leaves the low key
    space."""
    record = []
    projection = transform._projection

    def recorded(*args):
        low_key = projection(*args)
        keys = []
        record.append(keys)

        def counted(row):
            key = low_key(row)
            keys.append(key)
            return key

        return counted

    monkeypatch.setattr(transform, "_projection", recorded)
    return record


def test_the_strong_check_on_voting_matches_each_class_by_its_low_key(monkeypatch):
    # tau has four components, A1, G1, G2 and W, each read from its own
    # low variables. The 512 low contexts are keyed by one fused id per
    # distinct cone of a component under the 450 interventions, 8 ids where
    # a row by intervention has 450. The high side builds the row of each
    # class of its 162 contexts once, from keys of 8 ids for the 144
    # distinct images, and projects it once into the low key space. Every
    # low context then finds its class by its key, so the passing check
    # builds no low profile.
    bundle = build_voting(4, 2, 1)
    record = _record_columns(monkeypatch)
    projections = _record_projections(monkeypatch)
    passes = []
    profile_pass = transform._profile_pass

    def recorded(*args):
        result = profile_pass(*args)
        passes.append((args[4], args[7], result[0]))
        return result

    monkeypatch.setattr(transform, "_profile_pass", recorded)
    assert check_strong_abstraction(bundle.low, bundle.high, bundle.tau).verdict
    [(interventions, distinct, (lows, founds))] = passes
    [(low_width, low_keys)], [(high_width, high_keys)] = record["low"], record["high"]
    [projected] = projections
    comps = transform._components(bundle.tau, bundle.low, bundle.high)
    assert [high for high, _ in comps] == [("A1",), ("G1",), ("G2",), ("W",)]
    assert len(interventions) == 450
    assert low_width == len({bundle.low._reach(i._keys, low)[1] for i in interventions for _, low in comps}) == 8
    assert high_width == len({bundle.high._reach(j._keys, high)[1] for j in distinct for high, _ in comps}) == 8
    assert low_keys == []
    assert len(high_keys) == len(set(high_keys)) == 162
    assert len(projected) == len(set(projected)) == 162
    assert {len(key) for key in projected} == {8}
    assert lows == enumerate_contexts(bundle.low)
    assert len({id(found) for found in founds}) == 162 < len(founds) == 512


@pytest.mark.parametrize("check", ["find_compatible_tau_u", "check_tau_abstraction", "check_strong_abstraction"])
def test_a_high_class_outside_the_low_key_space_is_dropped(monkeypatch, check):
    # The high X3 table sends (U3, X2) = (0, 0) to 1. Under the three
    # interventions that force X2, a high context with U3 = 0 then gives
    # X3 = 1, 1, 2, a tuple that no point of the low cone gives, so its
    # class projects to no low key and is dropped before any low context
    # is read. The low context 0 misses, as in the reference.
    low, high = _three_cones(_SHIFT), _three_cones({**_SHIFT, (0, 0): 1})

    def run():
        tau, omega = StateMap.identity(low.signature), InterventionMap.identity(low.allowed_interventions)
        if check == "find_compatible_tau_u":
            return outcome(find_compatible_tau_u, low, high, tau, omega, True)
        return outcome(getattr(abstraction, check), low, high, tau)

    _with_cone_pass(monkeypatch)
    projections = _record_projections(monkeypatch)
    got = run()
    [projected] = projections
    assert None in projected and any(key is not None for key in projected)
    monkeypatch.undo()
    monkeypatch.setattr(transform, "_find_compatible", reference_find_compatible)
    monkeypatch.setattr(abstraction, "_find_compatible", reference_find_compatible)
    assert _report_bytes(got) == _report_bytes(run())
    assert got[1].counterexample["context"] == enumerate_contexts(low)[0]


@pytest.mark.parametrize("surjective", [False, True], ids=["any", "surjective"])
def test_a_high_class_whose_ids_differ_within_a_shared_member_is_dropped(monkeypatch, surjective):
    # Low X reads only U, so {T=0} and {T=1} share X's member: one column
    # of X's values. In the high model X = T where W = 1, so the class of
    # the four high contexts with W = 1 gives X the values 0 and 1 under
    # the two images. It must be dropped, although its first value alone
    # is one that the low cone gives: kept, it would take the key of the
    # low contexts with U = 0 from the class of W = 0 and U = 0, and the
    # witness would differ. Every low context still has a correspondent,
    # with W = 0, and the contexts with W = 1 are left unreachable.
    low = model_of([("U", (0, 1)), ("V", (0, 1))], [("X", (0, 1)), ("T", (0, 1))], {"X": "U", "T": "V"})
    high = model_of(
        [("U", (0, 1)), ("V", (0, 1)), ("W", (0, 1))],
        [("X", (0, 1)), ("T", (0, 1))],
        {"X": "ite(W == 1, T, U)", "T": "V"},
    )
    allowed = (Assignment(T=0), Assignment(T=1))
    low, high = low.with_allowed(allowed), high.with_allowed(allowed)

    def run():
        args = (low, high, StateMap.identity(low.signature), InterventionMap.identity(allowed), surjective)
        return _report_bytes(outcome(find_compatible_tau_u, *args))

    _with_cone_pass(monkeypatch)
    projections = _record_projections(monkeypatch)
    got = run()
    [projected] = projections
    assert projected.count(None) == 1 and len(projected) == 3
    monkeypatch.undo()
    monkeypatch.setattr(transform, "_find_compatible", reference_find_compatible)
    assert got == run()
    assert ('"verdict": false' in got[1]) == surjective


def test_a_model_whose_marginalized_equation_misses_goes_by_context(monkeypatch):
    # tau reads only X, so the components' solves never evaluate M, whose
    # table misses U = 2: by cone, the pass would report where solving
    # context by context raises. validate rejects the low model, so the
    # pass goes by context and raises the reference's error, even with the
    # cone columns selected.
    low = model_of(
        [("U", (0, 1, 2))], [("X", (0, 1, 2)), ("M", (0, 1))], {"X": "U", "M": "table(U)[(0) -> 0, (1) -> 1]"}
    )
    high = model_of([("U", (0, 1, 2))], [("X", (0, 1, 2))], {"X": "U"})
    i_low = enumerate_interventions(low)
    omega = InterventionMap.from_pairs([(i, Assignment({k: v for k, v in i.items() if k == "X"})) for i in i_low])
    tau = StateMap.from_exprs({"X": parse_expr("X")})
    args = (low.with_allowed(i_low), high, tau, omega)
    _with_cone_pass(monkeypatch)
    record = _record_columns(monkeypatch)
    got = outcome(find_compatible_tau_u, *args)
    assert [width for width, _ in record["low"]] == [len(i_low)]
    assert got == outcome(reference_find_compatible_tau_u, *args)
    assert got == (EvaluationError, "table over ('U',) has no entry for (2,)")


def _three_cones(x3: dict[tuple[int, int], int]):
    """X1 = U1, X2 = U2 with 1 sent to 2, and X3 = x3[(U3, X2)], with U3
    declared first, so that U3 = 1 first at context 9 and U3 = 2 at 18.
    Forcing X_k drops U_k from the cone: the 9 single-variable
    interventions, the allowed set, fall into 3 cones of 3. Unforced, X2
    is never 1, so an entry (u, 1) missing from x3 fails only X2 = 1."""
    table = ", ".join(f"({a}, {b}) -> {v}" for (a, b), v in sorted(x3.items()))
    model = model_of(
        [("U3", (0, 1, 2)), ("U1", (0, 1, 2)), ("U2", (0, 1, 2))],
        [("X1", (0, 1, 2)), ("X2", (0, 1, 2)), ("X3", (1, 0, 2))],
        {"X1": "U1", "X2": "table(U2)[(0) -> 0, (1) -> 2, (2) -> 2]", "X3": f"table(U3, X2)[{table}]"},
    )
    return model.with_allowed([i for i in enumerate_interventions(model) if len(i) == 1])


_SHIFT = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
_WITHOUT_1_1 = {k: v for k, v in _SHIFT.items() if k != (1, 1)}
_MISSING_1_1 = (EvaluationError, "table over ('U3', 'X2') has no entry for (1, 1)")


def _bad_image(state: str, problem: str):
    return (InputError, f"state map sends Assignment({state}) to {problem}")


# name: (low X3 table, high X3 table, tau's expressions or None for the
# identity, tau as a table of its images, the cone pass's outcome: a
# verdict and the index of its counterexample context, or an error; the
# reference's error when it differs, and the cone pass's low key width: a
# fused id per cone group, 5 (the members of X1, X2 and X3 have the cones
# (), (U1,), (U2,), (U3,) and (U3, U2)), or one id per intervention, 9,
# where validate rejects the low model, which then goes by context, or
# None where tau's table raises before any pass)
_MIXED_CASES = {
    "passes": (_SHIFT, _SHIFT, None, False, (True, None), None, 5),
    "misses at 0": (_SHIFT, {**_SHIFT, (0, 0): 1}, None, False, (False, 0), None, 5),
    "misses at 18": (_SHIFT, {**_SHIFT, (2, 0): 1}, None, False, (False, 18), None, 5),
    "falls back, misses before": (
        _WITHOUT_1_1, {**_SHIFT, (0, 0): 1}, None, False, (False, 0), _MISSING_1_1, 9
    ),
    "falls back, misses after": (_WITHOUT_1_1, {**_SHIFT, (2, 0): 1}, None, False, _MISSING_1_1, None, 9),
    "falls back, no miss": (_WITHOUT_1_1, _SHIFT, None, False, _MISSING_1_1, None, 9),
    # tau is tabulated before any pass, so a bad image names the first low
    # state in enumeration order (X3's domain starts at 1) that tau sends
    # to it, wherever the pass would meet it.
    "image out of its domain": (
        _SHIFT, _SHIFT, {"X1": "X1 * 2", "X2": "X2", "X3": "X3"}, False,
        _bad_image("X1=2, X2=0, X3=1", "out-of-domain value X1=4"), None, None,
    ),
    "image out of its domain, shared": (
        _SHIFT, _SHIFT, {"X1": "X1 * 2", "X2": "0", "X3": "0"}, False,
        _bad_image("X1=2, X2=0, X3=1", "out-of-domain value X1=4"), None, None,
    ),
    "image out of its domain, shared, by table": (
        _SHIFT, _SHIFT, {"X1": "X1 * 2", "X2": "0", "X3": "0"}, True,
        _bad_image("X1=2, X2=0, X3=1", "out-of-domain value X1=4"), None, None,
    ),
    "image without a variable": (
        _SHIFT, _SHIFT, {"X1": "X1", "X2": "X2"}, False,
        _bad_image("X1=0, X2=0, X3=1", "Assignment(X1=0, X2=0), which does not assign exactly the high endogenous variables"),
        None, None,
    ),
    "image out of its domain after the miss": (
        _SHIFT, _SHIFT, {"X1": "X1", "X2": "X2", "X3": "X3 * X1"}, False,
        _bad_image("X1=2, X2=0, X3=2", "out-of-domain value X3=4"), None, None,
    ),
}


@pytest.mark.parametrize("case", _MIXED_CASES)
def test_fused_groups_and_fallback_columns_give_the_by_context_reports(monkeypatch, case):
    # Cone groups of several members, read by both passes; where X3's low
    # table misses an entry, validate rejects the low model and the pass
    # goes by context even with the cone columns selected. The reference
    # solves every low context before it looks for a miss, so it raises
    # where a miss comes before the first error.
    low_x3, high_x3, exprs, by_table, expected, reference_error, key_width = _MIXED_CASES[case]
    low, high = _three_cones(low_x3), _three_cones(high_x3)
    contexts = enumerate_contexts(low)

    def fresh_args(surjective):
        # A new tau each time: a state map keeps the images it has given.
        if exprs is None:
            tau = StateMap.identity(low.signature)
        else:
            tau = StateMap.from_exprs({h: parse_expr(e) for h, e in exprs.items()})
            if by_table:
                tau = StateMap.from_table(tuple((s, tau.apply(s)) for s in enumerate_states(low)))
        return low, high, tau, InterventionMap.identity(low.allowed_interventions), surjective

    for surjective in (False, True):
        _with_cone_pass(monkeypatch, selected=False)
        by_context = _report_bytes(outcome(find_compatible_tau_u, *fresh_args(surjective)))
        _with_cone_pass(monkeypatch)
        record = _record_columns(monkeypatch)
        got = outcome(find_compatible_tau_u, *fresh_args(surjective))
        reference = _report_bytes(outcome(reference_find_compatible_tau_u, *fresh_args(surjective)))
        monkeypatch.undo()
        assert _report_bytes(got) == by_context
        assert reference == (by_context if reference_error is None else reference_error)
        assert [width for width, _ in record["low"]] == ([] if key_width is None else [key_width])
        if got[0] == "value":
            report = got[1]
            miss = None if report.verdict else contexts.index(report.counterexample["context"])
            assert (report.verdict, miss) == expected
        else:
            assert got == expected


@pytest.mark.parametrize("selected", [True, False], ids=["by-cone", "by-context"])
def test_a_witness_over_exogenous_names_out_of_name_order_is_the_reference(monkeypatch, selected):
    # U3 is declared first, so the pass gives the witness's entries out of
    # canonical order and the map sorts them, as the reference does.
    low = _three_cones(_SHIFT)
    _with_cone_pass(monkeypatch, selected)
    for surjective in (False, True):
        def args():
            tau, omega = StateMap.identity(low.signature), InterventionMap.identity(low.allowed_interventions)
            return low, low, tau, omega, surjective

        report = find_compatible_tau_u(*args())
        assert dumps(report_to_obj(report, True)) == dumps(report_to_obj(reference_find_compatible_tau_u(*args()), True))
        keys = [key for key, _ in report.witness.entries]
        assert keys == sorted(keys) != enumerate_contexts(low)


@pytest.mark.parametrize("selected", [True, False], ids=["by-cone", "by-context"])
def test_empty_intervention_lists_give_the_reference_reports(monkeypatch, selected):
    # No column at all: every low context matches every high context.
    small = model_of([("U", (0, 1))], [("X", (0, 1))], {"X": "U"})
    _with_cone_pass(monkeypatch, selected)
    search = transform._find_compatible
    for low, high in [(CHAIN, CHAIN), (small, CHAIN), (CHAIN, small)]:
        tau = random_state_map(random.Random(1), low, high)
        low, high = low.with_allowed(()), high.with_allowed(())
        for surjective in (False, True):
            args = (low, high, tau, InterventionMap.identity(()), surjective)
            expected = _report_bytes(outcome(reference_find_compatible_tau_u, *args))
            assert _report_bytes(outcome(find_compatible_tau_u, *args)) == expected
        args = (low, high, tau, InterventionMap.identity(()))
        got = _report_bytes(outcome(check_uniform, *args))
        monkeypatch.setattr(transform, "_find_compatible", reference_find_compatible)
        assert got == _report_bytes(outcome(check_uniform, *args))
        monkeypatch.setattr(transform, "_find_compatible", search)


# ---------------------------------------------------------------------------
# the low context stream


def _count_built_contexts(monkeypatch, sig):
    """Count the contexts of `sig` that the enumeration builds from now on;
    returns the one-element count."""
    built = [0]
    product = Assignment._product.__func__

    def counted(cls, decls, keys):
        for assignment in product(cls, decls, keys):
            built[0] += keys is sig.exo_keyset
            yield assignment

    monkeypatch.setattr(Assignment, "_product", classmethod(counted))
    return built


# By context: the uniform and tau-abstraction checks on voting-6-2-1. By
# cone: the strong check on voting-4-2-1.
@pytest.mark.parametrize(
    "pass_taken,seed",
    [("by context", seed) for seed in range(6)] + [("by cone", seed) for seed in range(8)],
    ids=[str(seed) for seed in range(6)] + [f"by-cone-{seed}" for seed in range(8)],
)
def test_a_refutation_builds_the_low_contexts_up_to_its_first_miss(monkeypatch, pass_taken, seed):
    # The pass reads the low contexts one at a time, by context or by
    # cone, so a miss at k has built exactly k + 1 of them.
    if pass_taken == "by context":
        bundle = build_voting(6, 2, 1)
        high = corrupt_one_table_entry(random.Random(seed), bundle.high)
        checks = [
            lambda: check_uniform(bundle.low, high, bundle.tau, bundle.omega),
            lambda: check_tau_abstraction(bundle.low, high, bundle.tau),
        ]
    else:
        bundle = build_voting(4, 2, 1)
        high = corrupt_one_table_entry(random.Random(seed), bundle.high)
        checks = [lambda: check_strong_abstraction(bundle.low, high, bundle.tau)]
    taken = _passes_taken(monkeypatch)
    built = _count_built_contexts(monkeypatch, bundle.low.signature)
    counts, reports = [], []
    for check in checks:
        built[0] = 0
        reports.append(check())
        counts.append(built[0])
    monkeypatch.undo()
    assert taken == [pass_taken] * len(checks)
    contexts = enumerate_contexts(bundle.low)
    for report, count in zip(reports, counts):
        assert count == contexts.index(report.counterexample["context"]) + 1


def test_a_passing_check_builds_each_low_context_once(monkeypatch):
    bundle = build_voting(6, 2, 1)
    built = _count_built_contexts(monkeypatch, bundle.low.signature)
    report = check_uniform(bundle.low, bundle.high, bundle.tau, bundle.omega)
    assert report.verdict and len(report.witness.entries) == built[0] == 8192


# Corruptions of voting-4-2-1 whose first miss is at context 0, 64, 224
# and 480 of 512, spread over the low context stream. When the pass read
# the contexts in blocks of 64, 128, 256, ..., each lay in another block,
# as the test's name still says.
@pytest.mark.parametrize("seed,miss", [(15, 0), (22, 64), (8, 224), (3, 480)])
def test_refutations_in_every_block_give_the_reference_reports(monkeypatch, seed, miss):
    bundle = build_voting(4, 2, 1)
    high = corrupt_one_table_entry(random.Random(seed), bundle.high)
    checks = [
        lambda: check_uniform(bundle.low, high, bundle.tau, bundle.omega),
        lambda: check_tau_abstraction(bundle.low, high, bundle.tau),
        lambda: check_strong_abstraction(bundle.low, high, bundle.tau),
    ]
    taken = _passes_taken(monkeypatch)
    got = [dumps(report_to_obj(check(), True)) for check in checks]
    assert taken == ["by context", "by context", "by cone"]
    monkeypatch.setattr(transform, "_find_compatible", reference_find_compatible)
    monkeypatch.setattr(abstraction, "_find_compatible", reference_find_compatible)
    assert got == [dumps(report_to_obj(check(), True)) for check in checks]
    context = check_uniform(bundle.low, high, bundle.tau, bundle.omega).counterexample["context"]
    assert enumerate_contexts(bundle.low).index(context) == miss


@pytest.mark.parametrize("selected", [True, False], ids=["by-cone", "by-context"])
def test_a_low_model_without_exogenous_variables_has_one_empty_context(monkeypatch, selected):
    low = model_of([], [("X", (0, 1)), ("Y", (0, 1))], {"X": "1", "Y": "X"})
    _with_cone_pass(monkeypatch, selected)
    assert enumerate_contexts(low) == [EMPTY]
    verdicts = []
    onto_chain = StateMap.from_exprs({"X1": parse_expr("X"), "X2": parse_expr("Y")})
    for high, tau in [(low, StateMap.identity(low.signature)), (CHAIN, onto_chain)]:
        args = (low.with_allowed((EMPTY,)), high.with_allowed((EMPTY,)), tau, InterventionMap.identity((EMPTY,)))
        for surjective in (False, True):
            expected = outcome(reference_find_compatible_tau_u, *args, surjective)
            assert _report_bytes(outcome(find_compatible_tau_u, *args, surjective)) == _report_bytes(expected)
            verdicts.append(expected[1].verdict)
    # One low context matches one of CHAIN's four but cannot cover them.
    assert verdicts == [True, True, True, False]


@pytest.mark.parametrize("cap", [511, 161], ids=["low-over", "both-over"])
def test_the_low_context_cap_is_raised_before_any_solve(monkeypatch, cap):
    # 512 low and 162 high contexts: the low space is refused first.
    solves = _count_kernel_calls(monkeypatch)
    bundle = build_voting(4, 2, 1)
    built = _count_built_contexts(monkeypatch, bundle.low.signature)
    monkeypatch.setenv(ENV_MAX_CONTEXTS, str(cap))
    message = f"^context space has 512 elements, exceeding the cap of {cap}$"
    for check in (
        lambda: check_uniform(bundle.low, bundle.high, bundle.tau, bundle.omega),
        lambda: find_compatible_tau_u(bundle.low, bundle.high, bundle.tau, bundle.omega),
        lambda: check_tau_abstraction(bundle.low, bundle.high, bundle.tau),
        lambda: check_strong_abstraction(bundle.low, bundle.high, bundle.tau),
    ):
        with pytest.raises(SizeCapExceeded, match=message):
            check()
    assert solves[0] == built[0] == 0


def test_each_check_enumerates_each_all_set_once(monkeypatch):
    # check_tau_abstraction enumerated the low set twice: once itself and
    # once more in the search; check_uniform too, in its omega gate.
    fwd, _, _ = build_chain_vs_independent()
    low, high = fwd.low.with_allowed(ALL), fwd.high.with_allowed(ALL)
    omega = InterventionMap.from_pairs(
        [(i, abstraction.derive_omega_tau(low, high, fwd.tau, i)) for i in enumerate_interventions(low)]
    )
    enumerated = []
    enumerate_all = interventions_module.enumerate_interventions

    def counted(model):
        enumerated.append(model)
        return enumerate_all(model)

    monkeypatch.setattr(interventions_module, "enumerate_interventions", counted)
    for check in (
        lambda: check_tau_abstraction(low, high, fwd.tau),
        lambda: check_uniform(low, high, fwd.tau, omega),
    ):
        enumerated.clear()
        check()
        assert sorted(map(id, enumerated)) == sorted([id(low), id(high)])


@pytest.mark.parametrize("use_check_compatible", [False, True], ids=["find", "check"])
@pytest.mark.parametrize(
    "image,reason",
    [
        ({"X": 7}, "intervention sets X to 7, outside its domain"),
        ({"U": 1}, "intervention sets non-endogenous variable U"),
        ({"Z": 0}, "intervention sets non-endogenous variable Z"),
    ],
    ids=["out-of-domain", "exogenous", "undeclared"],
)
def test_omega_images_are_checked_against_the_high_model(use_check_compatible, image, reason):
    # Each gave a verdict: the generated solver ignores forced names that
    # are not endogenous and does not check forced values.
    model = model_of([("U", (0, 1))], [("X", (0, 1))], {"X": "U"})
    low = model.with_allowed([EMPTY])
    tau = StateMap.identity(model.signature)
    omega = InterventionMap.from_pairs([(EMPTY, Assignment(image))])
    with pytest.raises(InputError, match=reason):
        if use_check_compatible:
            tau_u = ContextMap.from_table(tuple((u, u) for u in enumerate_contexts(model)))
            check_compatible(tau_u, tau, omega, low, model)
        else:
            find_compatible_tau_u(low, model, tau, omega)


def test_context_map_images_are_checked_against_the_high_model():
    # This gave "compatible": the generated solver does not check context
    # values, and solve_under checks only the context's variables.
    model = model_of([("U", (0, 1, 2))], [("X", (0, 1))], {"X": "U == 0"})
    tau = StateMap.identity(model.signature)
    omega = InterventionMap.from_pairs([(EMPTY, EMPTY)])
    tau_u = ContextMap.from_table(
        tuple((u, Assignment(U=5) if u["U"] == 1 else u) for u in enumerate_contexts(model))
    )
    with pytest.raises(InputError, match="context sets U to 5, outside its domain"):
        check_compatible(tau_u, tau, omega, model.with_allowed([EMPTY]), model)


@pytest.mark.parametrize("use_check_compatible", [False, True], ids=["find", "check"])
@pytest.mark.parametrize(
    "intervention,reason",
    [
        ({"Q": 1}, "intervention sets non-endogenous variable Q"),
        ({"RA1": 0}, "intervention sets non-endogenous variable RA1"),
        ({"A1": 7}, "intervention sets A1 to 7, outside its domain"),
    ],
    ids=["undeclared", "exogenous", "out-of-domain"],
)
def test_explicit_low_interventions_are_checked(use_check_compatible, intervention, reason):
    # The first two were ignored and the checks held; the third raised a
    # table miss from inside the solver.
    bundle = build_voting(4, 2, 1)
    low = bundle.low.with_allowed([Assignment(intervention)])
    omega = InterventionMap.from_pairs([(Assignment(intervention), EMPTY)])
    with pytest.raises(InputError, match=reason):
        if use_check_compatible:
            tau_u = find_compatible_tau_u(bundle.low, bundle.high, bundle.tau, bundle.omega).witness
            check_compatible(tau_u, bundle.tau, omega, low, bundle.high)
        else:
            find_compatible_tau_u(low, bundle.high, bundle.tau, omega)


# ---------------------------------------------------------------------------
# distribution-free checks

def test_every_candidate_context_map_fails_for_identity_omega():
    # Exhaustive refutation: with the identity intervention map between the
    # chain and the independent pair, no context map at all is compatible.
    _, _, ident = build_chain_vs_independent()
    import itertools

    lows = enumerate_contexts(ident.low)
    highs = enumerate_contexts(ident.high)
    for images in itertools.product(highs, repeat=len(lows)):
        tau_u = ContextMap.from_table(tuple(zip(lows, images)))
        report = check_compatible(tau_u, ident.tau, ident.omega, ident.low, ident.high)
        assert not report.verdict


def test_compatible_pixel_count_encoding():
    # The context map that encodes each pixel context's count pair is
    # compatible over the induced interventions of the restricted set.
    from cak.abstraction import derive_omega_tau
    from cak.corpus import build_pixel_grid

    b = build_pixel_grid(2, "two-counter")
    pairs = []
    i_low = []
    for i in b.low.allowed_interventions:
        img = derive_omega_tau(b.low, b.high, b.tau, i)
        if img is None:
            continue  # the empty intervention has no induced image here
        i_low.append(i)
        pairs.append((i, img))
    omega = InterventionMap.from_pairs(tuple(pairs))

    code_of = {}
    for c, decl in enumerate(b.high.signature.exogenous[0].domain):
        state = Assignment(
            TH=b.high.equation_map["TH"].mapping()[(decl,)],
            LH=b.high.equation_map["LH"].mapping()[(decl,)],
        )
        code_of[state] = decl
    table = []
    for u in enumerate_contexts(b.low):
        pair = Assignment(
            TH=u["U11"] + u["U12"], LH=u["U11"] + u["U21"]
        )
        table.append((u, Assignment(C=code_of[pair])))
    tau_u = ContextMap.from_table(tuple(table))
    report = check_compatible(tau_u, b.tau, omega, b.low.with_allowed(i_low), b.high)
    assert report.verdict
    assert len(i_low) == 24


def test_context_cap_from_env_reaches_the_uniform_check(monkeypatch):
    fwd, _, _ = build_chain_vs_independent()
    k = len(enumerate_contexts(fwd.low))
    enough = max(k, len(enumerate_contexts(fwd.high)))
    monkeypatch.setenv(ENV_MAX_CONTEXTS, str(k - 1))
    with pytest.raises(SizeCapExceeded, match=f"^context space has {k} elements, exceeding the cap of {k - 1}$"):
        check_uniform(fwd.low, fwd.high, fwd.tau, fwd.omega)
    monkeypatch.setenv(ENV_MAX_CONTEXTS, str(enough))
    assert check_uniform(fwd.low, fwd.high, fwd.tau, fwd.omega).verdict


def test_uniform_chain_bundles():
    fwd, rev, ident = build_chain_vs_independent()
    assert check_uniform(fwd.low, fwd.high, fwd.tau, fwd.omega).verdict
    assert check_uniform(rev.low, rev.high, rev.tau, rev.omega).verdict
    assert not check_uniform(ident.low, ident.high, ident.tau, ident.omega).verdict


def test_uniform_gated_extension_any_branch():
    for seed in (None, 1, 2):
        b = build_gated_extension(branch_seed=seed)
        assert check_uniform(b.low, b.high, b.tau, b.omega).verdict


def test_probe_identity():
    m, tau, omega = _identity_setup(CHAIN)
    ident = ContextMap.from_table(tuple((u, u) for u in enumerate_contexts(m)))
    report = uniform_distribution_probe(m, m, tau, omega, ident, n_samples=20, seed=3)
    assert report.verdict


def test_probe_chain_bundle_witness():
    fwd, _, _ = build_chain_vs_independent()
    found = find_compatible_tau_u(fwd.low, fwd.high, fwd.tau, fwd.omega)
    assert found.verdict
    report = uniform_distribution_probe(
        fwd.low, fwd.high, fwd.tau, fwd.omega, found.witness, n_samples=50, seed=5
    )
    assert report.verdict


def test_probe_flags_incompatible_map():
    _, _, ident = build_chain_vs_independent()
    # No compatible map exists; any candidate must fail the probe.
    some_high = enumerate_contexts(ident.high)[0]
    candidate = ContextMap.from_table(
        tuple((u, some_high) for u in enumerate_contexts(ident.low))
    )
    report = uniform_distribution_probe(
        ident.low, ident.high, ident.tau, ident.omega, candidate, n_samples=10, seed=7
    )
    assert not report.verdict
    assert "exact_failure" in report.counterexample


def test_sampled_distributions_are_exact_and_bounded():
    rng = random.Random(9)
    space = enumerate_contexts(CHAIN)
    for _ in range(50):
        d = sample_rational_dist(space, rng, max_denominator=64)
        assert d.total() == 1
        assert all(p.denominator <= 64 for _, p in d.entries)


# ---------------------------------------------------------------------------
# composition

def test_compose_with_identities():
    m, tau, omega = _identity_setup(CHAIN)
    tau2, omega2 = compose_transformations(tau, omega, tau, omega, m, m)
    for s in enumerate_states(m):
        assert tau2.apply(s) == s
    for i in enumerate_interventions(m):
        assert omega2.apply(i) == i


def test_compose_stacked_coarsenings_equals_direct_count():
    # Leg 1: four pixels to the pair of overlapping half-counts; leg 2:
    # count pair to the counters' total (the corner pixel weighs twice).
    # The composite must equal the one-step weighted count.
    from cak import parse_expr
    from cak.corpus import build_pixel_grid

    two = build_pixel_grid(2, "two-counter")
    leg2 = StateMap.from_exprs({"TOT": parse_expr("TH + LH")})
    composed, _ = compose_transformations(
        two.tau,
        InterventionMap.identity((EMPTY,)),
        leg2,
        InterventionMap.identity((EMPTY,)),
        two.low,
        two.high,
    )
    for s in enumerate_states(two.low):
        direct = 2 * s["X11"] + s["X12"] + s["X21"]
        assert composed.apply(s) == Assignment(TOT=direct)


def test_compose_rejects_broken_chain():
    m, tau, omega = _identity_setup(CHAIN)
    other = InterventionMap.identity((Assignment(X1=0),))
    with pytest.raises(InputError):
        compose_transformations(tau, omega, tau, other, m, m)


def test_composition_of_uniform_legs_is_uniform():
    from .util import random_uniform_chain

    rng = random.Random(13)
    for _ in range(15):
        low, mid, high, tau1, omega1, tau2, omega2 = random_uniform_chain(rng)
        tau_c, omega_c = compose_transformations(tau1, omega1, tau2, omega2, low, mid)
        assert check_uniform(low, high, tau_c, omega_c).verdict
        for s in enumerate_states(low):
            assert tau_c.apply(s) == tau2.apply(tau1.apply(s))
        for i in low.allowed_interventions:
            assert omega_c.apply(i) == omega2.apply(omega1.apply(i))
