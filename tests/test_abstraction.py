import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from cak import (
    Assignment,
    CausalModel,
    ContextMap,
    EMPTY,
    InputError,
    InterventionMap,
    Partition,
    RationalDist,
    SizeCapExceeded,
    Signature,
    StateMap,
    VariableDecl,
    check_compatible,
    check_constructive,
    check_exact,
    check_omega,
    check_strong_abstraction,
    check_tau_abstraction,
    check_uniform,
    compute_induced_sets,
    derive_component_maps,
    derive_omega_tau,
    enumerate_contexts,
    enumerate_interventions,
    enumerate_states,
    find_compatible_tau_u,
    parse_expr,
    rst,
    search_constructive_partition,
)
from cak.corpus import (
    all_bundles,
    build_disjunctive_merge,
    build_energy_discrete,
    build_gated_extension,
    build_linear_aggregate,
    build_pixel_grid,
    build_voting,
)
from cak import abstraction, transform
from cak.abstraction import MAX_SEARCH_LOW_VARS, _TauTable
from cak.errors import DEFAULT_MAX_CONTEXTS, ENV_MAX_CONTEXTS, ENV_MAX_INTERVENTIONS
from cak.expr import Lit, Var
from cak.maps import materialize_state_map
from cak.serialize import dumps, to_jsonable

from .test_model import CHAIN, THREE_BITS, model_of
from .util import (
    brute_force_constructive_partition,
    brute_force_omega_tau,
    outcome,
    random_constant_component_case,
    random_expr_state_map,
    random_factoring_case,
    random_model,
    random_state_map,
    random_transformation_case,
    reference_check_compatible,
    reference_check_exact,
    reference_check_uniform,
    reference_find_compatible,
    reference_find_compatible_tau_u,
    reference_induced_sets,
    reference_tau_table,
    sample_rational_dist,
    voting_natural_partition,
)


# ---------------------------------------------------------------------------
# restriction sets

def test_rst_full_assignment_is_singleton():
    decls = THREE_BITS.signature.endogenous
    full = Assignment(X1=0, X2=1, X3=0)
    assert rst(decls, full) == [full]


def test_rst_empty_assignment_is_everything():
    decls = THREE_BITS.signature.endogenous
    assert len(rst(decls, EMPTY)) == 8


def test_rst_partial_product_count():
    decls = THREE_BITS.signature.endogenous
    got = rst(decls, Assignment(X3=0))
    assert len(got) == 4
    assert all(s["X3"] == 0 for s in got)


def test_rst_rejects_foreign_variables():
    with pytest.raises(InputError):
        rst(THREE_BITS.signature.endogenous, Assignment(Q=0))


# ---------------------------------------------------------------------------
# induced intervention map

DM, DM_FORCED = build_disjunctive_merge()


def test_induced_image_of_reset_is_empty_intervention():
    img = derive_omega_tau(DM.low, DM.high, DM.tau, Assignment(X3=0))
    assert img == EMPTY


def test_induced_image_of_set_is_full_high_pair():
    img = derive_omega_tau(DM.low, DM.high, DM.tau, Assignment(X3=1))
    assert img == Assignment(Y1=1, Y2=1)


def test_induced_image_undefined_cases():
    # Images with three elements are never restriction sets.
    for i in (Assignment(X1=0, X2=0), Assignment(X1=0), Assignment(X2=0)):
        assert derive_omega_tau(DM.low, DM.high, DM.tau, i) is None


def test_induced_image_matches_brute_force_everywhere():
    low = DM.low.with_allowed("all")
    for i in enumerate_interventions(low):
        brute_force_omega_tau(low, DM.high, DM.tau, i)


def test_induced_sets_disjunctive_merge():
    low = DM.low.with_allowed("all")
    i_low, i_high, omega = compute_induced_sets(low, DM.high, DM.tau)
    assert len(i_low) == 24
    undefined = set(enumerate_interventions(low)) - set(i_low)
    assert undefined == {Assignment(X1=0), Assignment(X2=0), Assignment(X1=0, X2=0)}
    assert set(i_high) == set(enumerate_interventions(DM.high))
    assert len(i_high) == 9


def test_induced_sets_identity_tau():
    ident = StateMap.identity(THREE_BITS.signature)
    i_low, i_high, omega = compute_induced_sets(THREE_BITS, THREE_BITS, ident)
    everything = enumerate_interventions(THREE_BITS)
    assert list(i_low) == everything
    assert set(i_high) == set(everything)
    for i in everything:
        assert omega.apply(i) == i


def test_pixel_all_black_maps_to_full_counts():
    from cak import Assignment as A
    from cak import solve

    b = build_pixel_grid(2, "two-counter")
    context = A({u.name: 1 for u in b.low.signature.exogenous})
    state = solve(b.low, context)
    assert all(v == 1 for _, v in state.items_sorted)
    assert b.tau.apply(state) == A(TH=2, LH=2)


def test_induced_sets_pixel_two_counter_has_no_lone_counter():
    b = build_pixel_grid(2, "two-counter")
    _, i_high, _ = compute_induced_sets(b.low.with_allowed("all"), b.high, b.tau)
    assert i_high  # joint count settings are induced
    for img in i_high:
        assert set(img) not in ({"TH"}, {"LH"})


def test_voting_single_voter_not_induced():
    b = build_voting()
    assert derive_omega_tau(b.low, b.high, b.tau, Assignment(X1=1)) is None


# ---------------------------------------------------------------------------
# the hierarchy checks

def test_abstraction_fails_on_surjectivity_first():
    b = build_gated_extension()
    report = check_tau_abstraction(b.low, b.high, b.tau)
    assert not report.verdict
    assert report.detail.startswith("(a)")
    missing = report.counterexample["unreached_high_state"]
    assert missing["G"] == 0


def test_abstraction_fails_without_compatible_map():
    report = check_tau_abstraction(DM.low, DM.high, DM.tau)
    assert not report.verdict
    assert report.detail.startswith("(b)")


def test_abstraction_holds_on_forced_reset_set():
    report = check_tau_abstraction(DM_FORCED.low, DM_FORCED.high, DM_FORCED.tau)
    assert report.verdict
    tau_u = report.witness["tau_u"]
    # The compatible context map keeps the first two bits.
    for u, img in tau_u.entries:
        assert img == Assignment(W1=u["U1"], W2=u["U2"])


def test_abstraction_reports_uninduced_allowed_intervention():
    low = DM.low.with_allowed((EMPTY, Assignment(X1=0)))
    report = check_tau_abstraction(low, DM.high, DM.tau)
    assert not report.verdict
    assert report.detail.startswith("(c)")
    assert report.counterexample["intervention"] == Assignment(X1=0)


def test_abstraction_checks_high_set_equality():
    # Everything induced, compatible map exists, but the declared high set
    # disagrees with the induced image.
    ident = StateMap.identity(CHAIN.signature)
    low = CHAIN.with_allowed((EMPTY,))
    high = CHAIN.with_allowed((EMPTY, Assignment(X1=0)))
    report = check_tau_abstraction(low, high, ident)
    assert not report.verdict
    assert report.detail.startswith("(c)")
    assert Assignment(X1=0) in report.counterexample["missing_from_image"]


@pytest.mark.parametrize(
    "i_low, i_high, reason",
    [
        ([Assignment(X1=7)], None, "intervention sets X1 to 7, outside its domain"),
        ([Assignment(NOPE=1)], None, "intervention sets non-endogenous variable NOPE"),
        (None, [Assignment(Y1=7)], "intervention sets Y1 to 7, outside its domain"),
        (None, [Assignment(NOPE=1)], "intervention sets non-endogenous variable NOPE"),
    ],
    ids=["low-out-of-domain", "low-undeclared", "high-out-of-domain", "high-undeclared"],
)
def test_abstraction_rejects_ill_typed_explicit_interventions(i_low, i_high, reason):
    # The allowed sets of library-built models, which validate() alone
    # would flag: each raised a KeyError or gave a verdict.
    low = DM.low if i_low is None else DM.low.with_allowed(i_low)
    high = DM.high if i_high is None else DM.high.with_allowed(i_high)
    with pytest.raises(InputError, match=reason):
        check_tau_abstraction(low, high, DM.tau)


LINEAR = build_linear_aggregate(2)
LINEAR_CELLS = Partition((("XS", ("X1", "X2")), ("YS", ("Y",))))


def _entry_points(b, tau):
    """Every library call that takes tau with two models, on bundle `b`."""
    first_high = enumerate_contexts(b.high)[0]
    tau_u = ContextMap.from_table(tuple((u, first_high) for u in enumerate_contexts(b.low)))
    return {
        "materialize_state_map": lambda: materialize_state_map(tau, b.low.signature, b.high.signature),
        "derive_omega_tau": lambda: derive_omega_tau(b.low, b.high, tau, EMPTY),
        "compute_induced_sets": lambda: compute_induced_sets(b.low, b.high, tau),
        "check_exact": lambda: check_exact(b.low, b.low_dist, b.high, b.high_dist, tau, b.omega),
        "check_compatible": lambda: check_compatible(tau_u, tau, b.omega, b.low, b.high),
        "find_compatible_tau_u": lambda: find_compatible_tau_u(b.low, b.high, tau, b.omega),
        "check_uniform": lambda: check_uniform(b.low, b.high, tau, b.omega),
        "check_tau_abstraction": lambda: check_tau_abstraction(b.low, b.high, tau),
        "check_strong_abstraction": lambda: check_strong_abstraction(b.low, b.high, tau),
        "derive_component_maps": lambda: derive_component_maps(b.low, b.high, tau, LINEAR_CELLS),
        "check_constructive": lambda: check_constructive(b.low, b.high, tau, LINEAR_CELLS),
        "search_constructive_partition": lambda: search_constructive_partition(b.low, b.high, tau),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points(LINEAR, LINEAR.tau)))
def test_tau_reading_an_undeclared_variable_is_an_input_error(entry):
    # Each raised KeyError: 'Q' from the first evaluation of tau; only the
    # CLI tested what tau reads.
    tau = StateMap.from_exprs({"XS": parse_expr("X1 + Q"), "YS": parse_expr("Y")})
    with pytest.raises(InputError, match=re.escape("not low endogenous: ['Q']")):
        _entry_points(LINEAR, tau)[entry]()


@pytest.mark.parametrize(
    "check,side,intervention,reason",
    [
        pytest.param(check, side, intervention, reason, id=f"{check}-{side}-{kind}")
        for check in ("check_tau_abstraction", "check_uniform", "find_compatible_tau_u")
        for side, kind, intervention, reason in [
            ("low", "out-of-domain", {"X1": 7}, "intervention sets X1 to 7, outside its domain"),
            ("low", "undeclared", {"Z": 0}, "intervention sets non-endogenous variable Z"),
            ("high", "out-of-domain", {"XS": 7}, "intervention sets XS to 7, outside its domain"),
            ("high", "undeclared", {"Z": 0}, "intervention sets non-endogenous variable Z"),
        ]
        # The search reads the low allowed set and omega, not the high set.
        if not (check == "find_compatible_tau_u" and side == "high")
    ],
)
def test_allowed_sets_are_checked_against_their_models(check, side, intervention, reason):
    # Library-built models whose allowed sets validate() would flag: on
    # the tau-abstraction check the low one raised KeyError: (7, 0, 0) and
    # the undeclared high one gave verdict False at (c).
    b = LINEAR
    low, high = b.low, b.high
    if side == "low":
        low = low.with_allowed(low.allowed_interventions + (Assignment(intervention),))
    else:
        high = high.with_allowed(high.allowed_interventions + (Assignment(intervention),))
    run = {
        "check_tau_abstraction": lambda: check_tau_abstraction(low, high, b.tau),
        "check_uniform": lambda: check_uniform(low, high, b.tau, b.omega),
        "find_compatible_tau_u": lambda: find_compatible_tau_u(low, high, b.tau, b.omega),
    }[check]
    with pytest.raises(InputError, match=reason):
        run()


def test_the_search_checks_omega_images_before_the_cap_and_tau(monkeypatch):
    # find_compatible_tau_u checks each omega-image against the high model
    # before the low context cap and tau's table, since the checks that
    # hand the search their admitted images no longer have it check them;
    # its reference checks them first too. It checked them after both.
    b = LINEAR
    omega = InterventionMap.from_pairs(
        tuple((i, Assignment(XS=7) if k == 0 else image) for k, (i, image) in enumerate(b.omega.entries))
    )
    tau = StateMap.from_exprs({"XS": parse_expr("X1 + Q"), "YS": parse_expr("Y")})
    monkeypatch.setenv(ENV_MAX_CONTEXTS, "1")
    for search in (find_compatible_tau_u, reference_find_compatible_tau_u):
        with pytest.raises(InputError, match="intervention sets XS to 7, outside its domain"):
            search(b.low, b.high, tau, omega)


@pytest.mark.parametrize(
    "tau_exprs,partition,reason",
    [
        ({"XS": "X1 + X2"}, LINEAR_CELLS, "does not assign exactly the high endogenous variables"),
        (
            {"XS": "X1 + X2", "YS": "Y"},
            Partition((("XS", ("X1", "Z9")), ("YS", ("Y",))), ("X2",)),
            "cell for XS contains unknown low variable Z9",
        ),
    ],
    ids=["tau-without-YS", "unknown-Z9"],
)
def test_component_maps_check_tau_and_the_partition(tau_exprs, partition, reason):
    # Both raised a bare KeyError ('YS', 'Z9').
    tau = StateMap.from_exprs({h: parse_expr(e) for h, e in tau_exprs.items()})
    with pytest.raises(InputError, match=reason):
        derive_component_maps(LINEAR.low, LINEAR.high, tau, partition)


def test_strong_fails_for_pixel_two_counter_naming_a_lone_counter():
    b = build_pixel_grid(2, "two-counter")
    report = check_strong_abstraction(b.low, b.high, b.tau)
    assert not report.verdict
    single = report.counterexample["first_missing_single"]
    assert single is not None and set(single) in ({"TH"}, {"LH"})


def test_strong_holds_for_merged_pixel():
    b = build_pixel_grid(2, "merged")
    assert check_strong_abstraction(b.low, b.high, b.tau).verdict


def test_strong_fails_for_energy_on_the_abstraction_condition():
    b = build_energy_discrete()
    report = check_strong_abstraction(b.low, b.high, b.tau)
    assert not report.verdict
    assert "cover everything" in report.detail
    conflict = report.counterexample["conflict"]
    imgs = conflict["interventions"]
    assert any(len(i) == 0 for i in imgs) or any("M" in i for i in imgs)


def test_energy_mass_rescaling_is_invisible():
    b = build_energy_discrete()
    for m in (1, 2, 3, 4):
        assert derive_omega_tau(b.low, b.high, b.tau, Assignment(M=m)) == EMPTY


def test_strong_holds_for_voting():
    b = build_voting()
    assert check_strong_abstraction(b.low, b.high, b.tau).verdict


# ---------------------------------------------------------------------------
# constructive abstraction

def test_constructive_identity_with_singleton_cells():
    ident = StateMap.identity(THREE_BITS.signature)
    partition = Partition(tuple((n, (n,)) for n in THREE_BITS.signature.endo_names))
    report = check_constructive(THREE_BITS, THREE_BITS, ident, partition)
    assert report.verdict


def test_constructive_voting_natural_partition():
    b = build_voting()
    partition, comps = voting_natural_partition(b)
    assert dict(partition.cells)["G1"] == ("X1", "X2")
    assert dict(partition.cells)["G2"] == ("X3", "X4")
    report = check_constructive(b.low, b.high, b.tau, partition)
    assert report.verdict
    assert report.witness["components"] == comps


def test_constructive_rejects_non_factoring_partition():
    partition = Partition((("Y1", ("X1",)), ("Y2", ("X2",))), ("X3",))
    report = check_constructive(DM.low, DM.high, DM.tau, partition)
    assert not report.verdict
    assert "factor" in report.detail
    assert report.counterexample["high_var"] in ("Y1", "Y2")


def test_constructive_rejects_malformed_partitions():
    with pytest.raises(InputError):
        check_constructive(
            DM.low, DM.high, DM.tau, Partition((("Y1", ("X1",)),), ("X2",))
        )
    with pytest.raises(InputError):
        check_constructive(
            DM.low,
            DM.high,
            DM.tau,
            Partition((("Y1", ("X1", "X2")), ("Y2", ("X2", "X3"))), ()),
        )


def test_search_finds_singleton_partition_for_identity():
    ident = StateMap.identity(THREE_BITS.signature)
    found = search_constructive_partition(THREE_BITS, THREE_BITS, ident)
    assert found is not None
    partition, _ = found
    assert partition.cells == tuple((n, (n,)) for n in ("X1", "X2", "X3"))
    assert partition.marginal == ()


def test_search_merged_pixel_marginalizes_the_corner():
    b = build_pixel_grid(2, "merged")
    found = search_constructive_partition(b.low, b.high, b.tau)
    assert found is not None
    partition, comps = found
    assert dict(partition.cells)["TLH"] == ("X11", "X12", "X21")
    assert partition.marginal == ("X22",)
    assert dict(dict(comps.maps)["TLH"])[(1, 1, 0)] == 2


def test_search_returns_none_for_overlapping_supports():
    assert search_constructive_partition(DM.low, DM.high, DM.tau) is None


@pytest.mark.parametrize("seed", range(3))
def test_search_finds_a_partition_exactly_when_brute_force_does(seed):
    # The search tries one candidate partition; the oracle tries them all.
    rng = random.Random(seed)
    seen = set()
    for _ in range(120):
        kind, low, high, tau = random_factoring_case(rng)
        found = search_constructive_partition(low, high, tau)
        assert (found is None) == (brute_force_constructive_partition(low, high, tau) is None)
        if found is not None:
            report = check_constructive(low, high, tau, found[0])
            assert report.verdict and report.witness["components"] == found[1]
        seen.add((kind, found is not None))
    assert {("identity", True), ("marginal", True), ("factoring", True), ("factoring", False)} <= seen


@pytest.mark.parametrize("seed", range(2))
def test_search_with_a_constant_component_finds_a_partition_exactly_when_brute_force_does(monkeypatch, seed):
    # A constant high component K has an empty support, so the search
    # returns None before it builds a candidate partition or runs a strong
    # check. No partition passes: the intervention on K to its other value,
    # or to its only one, is induced by no low intervention.
    calls = []
    for name in ("_components", "_strong"):
        original = getattr(abstraction, name)
        monkeypatch.setattr(abstraction, name, lambda *args, f=original, n=name: calls.append(n) or f(*args))
    rng = random.Random(seed)
    kinds = set()
    for _ in range(100):
        kind, low, high, tau = random_constant_component_case(rng)
        assert search_constructive_partition(low, high, tau) is None
        assert calls == []
        assert brute_force_constructive_partition(low, high, tau) is None
        missing = check_strong_abstraction(low, high, tau).counterexample["missing_high_interventions"]
        assert any("K" in dict(h) for h in missing)
        calls.clear()
        kinds.add(kind)
    assert kinds == {"one-value", "multi-value"}


def test_search_respects_low_variable_cap():
    # The guard comes before any tau work: the empty tau table below is
    # never read past the limit, and raises its own error at the limit.
    def chain(n):
        names = [f"X{k}" for k in range(n)]
        eqs = {name: prev for prev, name in zip(["U", *names], names)}
        return model_of([("U", (0, 1))], [(name, (0, 1)) for name in names], eqs)

    assert MAX_SEARCH_LOW_VARS == 10
    high = chain(1)
    untouched = StateMap.from_table(())
    with pytest.raises(SizeCapExceeded, match="^low variable set has 11 elements, exceeding the cap of 10$"):
        search_constructive_partition(chain(11), high, untouched)
    with pytest.raises(InputError, match="undefined") as info:
        search_constructive_partition(chain(10), high, untouched)
    assert not isinstance(info.value, SizeCapExceeded)


def test_each_check_materializes_tau_once(monkeypatch):
    # One tau table serves every level a check runs: the strong check's
    # inner tau-abstraction, the constructive checks' component maps and
    # strong core read the table their caller built, and the layers that
    # apply tau apply the caller's map, building no second StateMap. Tau
    # walks the low states once, as value tuples, to build the table; no
    # check enumerates the low states as Assignments besides (part (a)
    # walks the high model's states, not a signature's).
    import cak.abstraction
    import cak.maps

    calls = []
    original = cak.maps.tabulate

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cak.maps, "tabulate", counted)
    monkeypatch.setattr(cak.abstraction, "tabulate", counted)
    built = []
    post_init = cak.maps.StateMap.__post_init__
    monkeypatch.setattr(cak.maps.StateMap, "__post_init__", lambda m: (built.append(m), post_init(m)))
    walks = []
    for module in (cak.maps, cak.abstraction):
        states = module.enumerate_states
        monkeypatch.setattr(
            module,
            "enumerate_states",
            lambda space, states=states: (walks.append(isinstance(space, Signature)), states(space))[1],
        )

    def count(check, *args):
        calls.clear()
        built.clear()
        walks.clear()
        result = check(*args)
        assert not built, check.__name__
        assert sum(walks) == 0, check.__name__
        return len(calls), result

    non_factoring = Partition((("Y1", ("X1",)), ("Y2", ("X2",))), ("X3",))
    for b in all_bundles():
        args = (b.low, b.high, b.tau)
        assert count(check_tau_abstraction, *args)[0] == 1, b.name
        assert count(check_strong_abstraction, *args)[0] == 1, b.name
        n, found = count(search_constructive_partition, *args)
        assert n == 1, b.name
        if found is not None:
            partition, comps = found
            assert count(check_constructive, *args, partition)[0] == 1, b.name
            assert count(derive_component_maps, *args, partition) == (1, (comps, None)), b.name
    assert count(check_constructive, DM.low, DM.high, DM.tau, non_factoring)[0] == 1
    n, (comps, failure) = count(derive_component_maps, DM.low, DM.high, DM.tau, non_factoring)
    assert n == 1 and comps is None and failure["high_var"] in ("Y1", "Y2")


# ---------------------------------------------------------------------------
# structural properties of the induced map

def _surjective(bundle):
    from cak.maps import materialize_state_map

    table = materialize_state_map(
        bundle.tau, bundle.low.signature, bundle.high.signature
    )
    return set(table.values()) == set(enumerate_states(bundle.high))


def test_surjective_tau_sends_empty_to_empty_and_fulls_to_fulls():
    for bundle in (DM, build_pixel_grid(2, "merged"), build_voting()):
        assert _surjective(bundle)
        low = bundle.low.with_allowed("all")
        assert derive_omega_tau(low, bundle.high, bundle.tau, EMPTY) == EMPTY
        for state in enumerate_states(low):
            img = derive_omega_tau(low, bundle.high, bundle.tau, state)
            assert img == bundle.tau.apply(state)


def test_induced_map_is_order_preserving_on_its_domain():
    for bundle in (DM, build_pixel_grid(2, "merged"), build_energy_discrete()):
        i_low_tau, i_high_tau, omega_tau = compute_induced_sets(bundle.low, bundle.high, bundle.tau)
        assert check_omega(omega_tau, i_low_tau, i_high_tau).verdict


def test_abstraction_implies_uniform_with_induced_map():
    # Passing the abstraction check guarantees the distribution-free check
    # with the induced intervention map.
    b = DM_FORCED
    report = check_tau_abstraction(b.low, b.high, b.tau)
    assert report.verdict
    omega_tau = report.witness["omega_tau"]
    high = b.high.with_allowed(tuple(dict.fromkeys(omega_tau.image())))
    assert check_uniform(b.low, high, b.tau, omega_tau).verdict


def test_induced_image_minimal_with_one_value_domains():
    # A variable whose domain has a single value is constant in every
    # restriction set; the canonical image leaves it out, so the empty
    # intervention still maps to the empty intervention.
    from cak import CausalModel, Signature, StateMap, VariableDecl, parse_expr

    low = CausalModel(
        Signature((VariableDecl("U", (0, 1)),), (VariableDecl("X", (0, 1)),)),
        (("X", parse_expr("U")),),
    )
    high = CausalModel(
        Signature(
            (VariableDecl("W", (0, 1)),),
            (VariableDecl("Y", (0, 1)), VariableDecl("Z", (5,))),
        ),
        (("Y", parse_expr("W")), ("Z", parse_expr("5"))),
    )
    tau = StateMap.from_exprs({"Y": parse_expr("X"), "Z": parse_expr("5")})
    got = brute_force_omega_tau(low, high, tau, Assignment(X=1))
    assert got == Assignment(Y=1)
    assert brute_force_omega_tau(low, high, tau, EMPTY) == EMPTY


def test_derive_omega_tau_brute_force_on_random_models():
    rng = random.Random(31)
    for _ in range(15):
        low = random_model(rng, max_endo=2, max_exo=1)
        high = random_model(rng, max_endo=2, max_exo=1)
        tau = random_state_map(rng, low, high)
        for i in enumerate_interventions(low):
            brute_force_omega_tau(low, high, tau, i)


def _with_constant(model, name, value):
    """`model` plus one endogenous variable whose whole domain is `value`."""
    sig = model.signature
    return CausalModel(
        Signature(sig.exogenous, sig.endogenous + (VariableDecl(name, (value,)),)),
        model.equations + ((name, Lit(value)),),
    )


def _coordinatewise_tau(rng, low, high):
    """A tau whose every high coordinate is a function of one or two low
    variables, onto its domain wherever they have enough joint values:
    restriction sets then often map onto product sets, and onto a strict
    subset of one wherever an intervention leaves too few values."""
    names, domains = low.signature.endo_names, low.signature.domains
    coords = {}
    for d in high.signature.endogenous:
        reads = rng.sample(names, rng.randint(1, min(2, len(names))))
        keys = list(itertools.product(*(domains[x] for x in reads)))
        outs = list(d.domain[: len(keys)]) + [rng.choice(d.domain) for _ in keys[len(d.domain) :]]
        rng.shuffle(outs)
        coords[d.name] = (reads, dict(zip(keys, outs)))
    return StateMap.from_table(
        tuple(
            (s, Assignment({h: f[tuple(s[x] for x in reads)] for h, (reads, f) in coords.items()}))
            for s in enumerate_states(low)
        )
    )


@pytest.mark.parametrize(
    "seed,low_domain,high_domain,constant",
    [
        (41, (0, 1, 2), (0, 1, 2), False),
        (42, (0, 1, 2), (0, 1), False),
        (43, (0, 1), (0, 1, 2), False),
        (44, (0, 1, 2), (0, 1, 2), True),
    ],
)
def test_derive_omega_tau_brute_force_beyond_binary_domains(seed, low_domain, high_domain, constant):
    # The induced map decides set equality by counting; with domains of
    # different sizes, and with a one-value high variable, the count must
    # still agree with the brute-force search over high interventions.
    rng = random.Random(seed)
    partial_images = undefined = 0
    for k in range(12):
        low = random_model(rng, max_endo=3, max_exo=1, domain=low_domain)
        high = random_model(rng, max_endo=3, max_exo=1, domain=high_domain)
        if constant:
            high = _with_constant(high, "K", 7)
        draw = random_state_map if k % 2 else _coordinatewise_tau
        tau = draw(rng, low, high)
        for i in enumerate_interventions(low):
            image = brute_force_omega_tau(low, high, tau, i)
            if image is None:
                undefined += 1
            elif 0 < len(image) < len(high.signature.endo_names) - constant:
                partial_images += 1
            if constant:
                assert image is None or "K" not in image
    assert partial_images and undefined


def _assert_lattice_matches_reference(low, high, tau):
    """Both forms of the induced sets, against one walk per low
    intervention: the same pairs, in the same order, with the images in
    the same order."""
    expected = reference_induced_sets(low, high, tau)
    assert _TauTable(low, high, tau).induced_sets() == expected
    i_low, i_high, omega = compute_induced_sets(low, high, tau)
    assert list(i_low) == [i for i, _ in expected[0]]
    assert i_high == expected[1]
    assert omega == InterventionMap.from_pairs(expected[0])
    return expected


def test_induced_sets_match_the_reference_on_random_models():
    rng = random.Random(47)
    undefined = partial = 0
    for k in range(24):
        domain = ((0, 1), (0, 1, 2))[k % 2]
        low = random_model(rng, max_endo=3, max_exo=1, domain=domain)
        high = random_model(rng, max_endo=3, max_exo=1, domain=((0, 1), (0, 1, 2))[k // 2 % 2])
        if k % 3 == 0:
            high = _with_constant(high, "K", 7)
        tau = (random_state_map if k % 4 < 2 else _coordinatewise_tau)(rng, low, high)
        defined, _ = _assert_lattice_matches_reference(low, high, tau)
        undefined += len(enumerate_interventions(low)) - len(defined)
        partial += sum(0 < len(img) < len(high.signature.endo_names) for _, img in defined)
    assert undefined and partial


@pytest.mark.parametrize("bundle", all_bundles(), ids=lambda b: b.name)
def test_induced_sets_match_the_reference_on_every_bundle(bundle):
    _assert_lattice_matches_reference(bundle.low, bundle.high, bundle.tau)


def test_induced_sets_match_the_reference_with_a_one_value_high_domain():
    low = model_of([("U", (0, 1, 2))], [("X", (0, 1, 2)), ("V", (0, 1))], {"X": "U", "V": "U == 1"})
    high = model_of([("W", (0, 1))], [("Y", (0, 1)), ("Z", (5,))], {"Y": "W", "Z": "5"})
    tau = StateMap.from_exprs({"Y": parse_expr("1 < X + V"), "Z": parse_expr("5")})
    defined, images = _assert_lattice_matches_reference(low, high, tau)
    assert EMPTY in images and all("Z" not in img for img in images)


def test_induced_map_answers_when_the_high_state_space_exceeds_the_caps():
    # 2**30 high states, more than the contexts cap, and tau reaches two of
    # them: the masks are over tau's images, so nothing is sized by the
    # high state space and only the checks that enumerate it refuse.
    low = model_of([("U", (0, 1))], [("X", (0, 1))], {"X": "U"})
    ys = [f"Y{k}" for k in range(30)]
    high = model_of([("W", (0, 1))], [(y, (0, 1)) for y in ys], dict.fromkeys(ys, "W"))
    tau = StateMap.from_exprs(dict.fromkeys(ys, Var("X")))
    assert 2 ** len(ys) > DEFAULT_MAX_CONTEXTS
    assert derive_omega_tau(low, high, tau, EMPTY) is None
    assert derive_omega_tau(low, high, tau, Assignment(X=1)) == Assignment(dict.fromkeys(ys, 1))
    i_low, i_high, _ = compute_induced_sets(low, high, tau)
    assert i_low == (Assignment(X=0), Assignment(X=1))
    assert i_high == tuple(Assignment(dict.fromkeys(ys, v)) for v in (0, 1))
    for check in (check_tau_abstraction, check_strong_abstraction):
        with pytest.raises(SizeCapExceeded):
            check(low, high, tau)


@pytest.mark.parametrize("bundle", [LINEAR, build_voting()], ids=lambda b: b.name)
def test_induced_sets_keep_the_intervention_cap_error(bundle, monkeypatch):
    # The cap is checked before the lattice is filled, with the error that
    # enumerating the low interventions raised.
    size = len(enumerate_interventions(bundle.low))
    assert len(enumerate_interventions(bundle.high)) < size
    monkeypatch.setenv(ENV_MAX_INTERVENTIONS, str(size - 1))
    message = f"^intervention space has {size} elements, exceeding the cap of {size - 1}$"
    for check in (check_strong_abstraction, search_constructive_partition, compute_induced_sets):
        with pytest.raises(SizeCapExceeded, match=message):
            check(bundle.low, bundle.high, bundle.tau)
    monkeypatch.setenv(ENV_MAX_INTERVENTIONS, str(size))
    assert check_strong_abstraction(bundle.low, bundle.high, bundle.tau).verdict


def _leaving_y_alone(b):
    """Bundle `b` with the low allowed set cut to the interventions that
    leave Y alone, the high one to their images, and all low mass on the
    first context. Solving then reaches only the low states with Y = X1 +
    X2 + LV1, and the first context only those with LV1 = 0."""
    i_low = [i for i in b.low.allowed_interventions if "Y" not in i]
    omega = InterventionMap.from_pairs([(i, b.omega.apply(i)) for i in i_low])
    return dataclasses.replace(
        b,
        low=b.low.with_allowed(i_low),
        high=b.high.with_allowed(list(dict.fromkeys(omega.apply(i) for i in i_low))),
        omega=omega,
        low_dist=RationalDist.point(enumerate_contexts(b.low)[0]),
    )


LINEAR_LEAVING_Y = _leaving_y_alone(LINEAR)


@pytest.mark.parametrize(
    "bundle,exprs,state,reason",
    [
        (
            LINEAR, {"XS": "X1 + X2"}, "X1=0, X2=0, Y=0",
            "to Assignment(XS=0), which does not assign exactly the high endogenous variables",
        ),
        (LINEAR, {"XS": "X1 + X2 + 9", "YS": "Y"}, "X1=0, X2=0, Y=0", "to out-of-domain value XS=9"),
        # Bad only on a low state that no allowed intervention reaches.
        (
            LINEAR_LEAVING_Y, {"XS": "X1 + X2", "YS": "ite(X1 + X2 == 2 && Y == 0, 9, Y)"}, "X1=1, X2=1, Y=0",
            "to out-of-domain value YS=9",
        ),
        # Sending the first state to YS = 1 makes the first low context miss
        # (and differ under omega and tau_u); the bad state comes with LV1 = 1.
        (
            LINEAR_LEAVING_Y, {"XS": "X1 + X2", "YS": "ite(X1 + X2 + Y == 0, 1, ite(X1 + X2 + Y == 5, 9, Y))"},
            "X1=1, X2=1, Y=3", "to out-of-domain value YS=9",
        ),
    ],
    ids=["without-YS", "out-of-domain", "unreached", "past-the-first-miss"],
)
@pytest.mark.parametrize("backing", ["exprs", "table"])
@pytest.mark.parametrize("entry", sorted(_entry_points(LINEAR, LINEAR.tau)))
def test_tau_images_that_are_not_high_states_are_input_errors(entry, backing, bundle, exprs, state, reason):
    # check_uniform, find_compatible_tau_u, check_exact and check_compatible
    # returned False ("has no corresponding high context", "interventional
    # distributions differ"), or True where no pass reached the bad state;
    # the tau-level checks raised. Every entry point now checks tau on every
    # low state first and names the first bad one in enumeration order.
    tau = StateMap.from_exprs({h: parse_expr(e) for h, e in exprs.items()})
    if backing == "table":
        tau = StateMap.from_table(tuple((s, tau.apply(s)) for s in enumerate_states(bundle.low)))
    with pytest.raises(InputError, match=re.escape(f"state map sends Assignment({state}) {reason}")):
        _entry_points(bundle, tau)[entry]()


def _outcome_bytes(fn, *args):
    kind, value = outcome(fn, *args)
    return (kind, dumps(to_jsonable(value))) if kind == "value" else (kind, value)


@pytest.mark.parametrize("columns", ["natural", "by-cone"])
@given(st.integers(0, 2**32))
def test_tau_taking_checks_match_their_references(columns, seed):
    # random_expr_state_map's images often leave the high domains, and its
    # tables may miss the entry a low state needs, on states that a check's
    # pass may or may not reach. Every check gives its reference's report,
    # or raises its error, which checks tau on every low state first. The
    # tau-level checks' reference swaps in the reference table and search.
    # The profile pass builds its columns as their expected work picks, or
    # by cone whatever the sizes, so that the high classes are matched in
    # the low key space of fused cone groups.
    rng = random.Random(seed)
    low, high, _, omega = random_transformation_case(rng)
    tau = random_expr_state_map(rng, low, high)
    high_contexts = enumerate_contexts(high)
    tau_u = ContextMap.from_table(tuple((u, rng.choice(high_contexts)) for u in enumerate_contexts(low)))
    d_low, d_high = (sample_rational_dist(enumerate_contexts(m), rng) for m in (low, high))
    pairs = [
        (find_compatible_tau_u, reference_find_compatible_tau_u, (low, high, tau, omega, rng.random() < 0.5)),
        (check_uniform, reference_check_uniform, (low, high, tau, omega)),
        (check_compatible, reference_check_compatible, (tau_u, tau, omega, low, high)),
        (check_exact, reference_check_exact, (low, d_low, high, d_high, tau, omega)),
    ]
    tau_level = (check_tau_abstraction, check_strong_abstraction)
    with pytest.MonkeyPatch.context() as patch:
        if columns == "by-cone":
            patch.setattr(transform, "_columns_pay", lambda *args: True)
        for check, reference, args in pairs:
            assert _outcome_bytes(check, *args) == _outcome_bytes(reference, *args), check.__name__
        got = [_outcome_bytes(check, low, high, tau) for check in tau_level]
        patch.setattr(abstraction, "tabulate", reference_tau_table)
        patch.setattr(abstraction, "_find_compatible", reference_find_compatible)
        assert got == [_outcome_bytes(check, low, high, tau) for check in tau_level]


def test_tau_oracle_draws_reach_the_component_path(monkeypatch):
    # The by-cone run of the oracle above holds the columns per tau
    # component to the references only on draws whose two models validate
    # and whose tau tabulates: the others go by context, or raise before
    # any pass. Of the first 200 draws, 59 build the cone columns, each of
    # the four shapes of tau's components (one or more components, each of
    # one or more high variables) among them, with both verdicts.
    built = []
    by_cone = transform._columns_by_cone
    monkeypatch.setattr(transform, "_columns_by_cone", lambda *args: (built.append(1), by_cone(*args))[1])
    monkeypatch.setattr(transform, "_columns_pay", lambda *args: True)
    reached, shapes, verdicts = 0, set(), set()
    for seed in range(200):
        rng = random.Random(seed)
        low, high, _, omega = random_transformation_case(rng)
        tau = random_expr_state_map(rng, low, high)
        built.clear()
        kind, report = outcome(find_compatible_tau_u, low, high, tau, omega)
        if built:
            assert low._valid and high._valid and kind == "value"
            reached += 1
            comps = transform._components(tau, low, high)
            shapes.add((len(comps) > 1, max(len(names) for names, _ in comps) > 1))
            verdicts.add(report.verdict)
        else:
            assert kind != "value" or not (low._valid and high._valid)
    assert reached / 200 >= 0.25
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}
    assert verdicts == {True, False}


@pytest.mark.parametrize("bundle", all_bundles(), ids=lambda b: b.name)
def test_tau_level_checks_agree_on_expressions_and_their_table(bundle):
    # The checks apply the caller's map after materializing it, so a table
    # and the expressions it was built from give the same reports.
    table = StateMap.from_table(
        materialize_state_map(bundle.tau, bundle.low.signature, bundle.high.signature).items()
    )
    for check in (check_tau_abstraction, check_strong_abstraction, search_constructive_partition):
        by_exprs, by_table = (outcome(check, bundle.low, bundle.high, tau) for tau in (bundle.tau, table))
        assert by_exprs[0] == "value"
        assert dumps(to_jsonable(by_exprs[1])) == dumps(to_jsonable(by_table[1]))
