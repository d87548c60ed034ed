import itertools
import random

import pytest

from cak import (
    Assignment,
    CausalModel,
    EMPTY,
    InputError,
    Partition,
    Signature,
    StateMap,
    VariableDecl,
    check_constructive,
    check_omega,
    check_strong_abstraction,
    check_tau_abstraction,
    check_uniform,
    compute_induced_sets,
    derive_component_maps,
    derive_omega_tau,
    enumerate_interventions,
    enumerate_states,
    rst,
    search_constructive_partition,
)
from cak.corpus import (
    all_bundles,
    build_disjunctive_merge,
    build_energy_discrete,
    build_gated_extension,
    build_pixel_grid,
    build_voting,
)
from cak.expr import Lit
from cak.maps import materialize_state_map
from cak.serialize import dumps, to_jsonable

from .test_model import CHAIN, THREE_BITS
from .util import brute_force_omega_tau, outcome, random_model, random_state_map, voting_natural_partition


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
    i_low = (EMPTY,)
    i_high = (EMPTY, Assignment(X1=0))
    report = check_tau_abstraction(CHAIN, CHAIN, ident, i_low, i_high)
    assert not report.verdict
    assert report.detail.startswith("(c)")
    assert Assignment(X1=0) in report.counterexample["missing_from_image"]


@pytest.mark.parametrize(
    "i_low, i_high",
    [
        ([Assignment(X1=7)], None),
        ([Assignment(NOPE=1)], None),
        (None, [Assignment(Y1=7)]),
        (None, [Assignment(NOPE=1)]),
    ],
    ids=["low-out-of-domain", "low-undeclared", "high-out-of-domain", "high-undeclared"],
)
def test_abstraction_rejects_ill_typed_explicit_interventions(i_low, i_high):
    with pytest.raises(InputError, match="intervention sets"):
        check_tau_abstraction(DM.low, DM.high, DM.tau, i_low, i_high)


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
    report = check_constructive(b.low, b.high, b.tau, partition, comps)
    assert report.verdict


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


def test_wrong_component_map_is_reported():
    ident = StateMap.identity(CHAIN.signature)
    partition = Partition((("X1", ("X1",)), ("X2", ("X2",))))
    good, _ = derive_component_maps(CHAIN, CHAIN, ident, partition)
    tables = {h: good.table(h) for h, _ in partition.cells}
    tables["X1"][(0,)] = 1  # corrupt one entry
    from cak import ComponentMaps

    bad = ComponentMaps.from_tables(tables)
    report = check_constructive(CHAIN, CHAIN, ident, partition, bad)
    assert not report.verdict
    assert "disagrees" in report.detail


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
    assert comps.table("TLH")[(1, 1, 0)] == 2


def test_search_returns_none_for_overlapping_supports():
    assert search_constructive_partition(DM.low, DM.high, DM.tau) is None


def test_search_respects_low_variable_cap():
    from cak import SizeCapExceeded

    b = build_pixel_grid(2, "merged")
    with pytest.raises(SizeCapExceeded):
        search_constructive_partition(b.low, b.high, b.tau, max_low_vars=3)


def test_each_check_materializes_tau_once(monkeypatch):
    # One tau table serves every level a check runs: the strong check's
    # inner tau-abstraction and the constructive search's strong core
    # read the table their caller built, and the layers that apply tau
    # apply the caller's map, building no second StateMap.
    import cak.abstraction
    import cak.maps

    calls = []
    original = cak.maps.materialize_state_map

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cak.maps, "materialize_state_map", counted)
    monkeypatch.setattr(cak.abstraction, "materialize_state_map", counted)
    built = []
    post_init = cak.maps.StateMap.__post_init__
    monkeypatch.setattr(cak.maps.StateMap, "__post_init__", lambda m: (built.append(m), post_init(m)))

    def count(check, *args):
        calls.clear()
        built.clear()
        result = check(*args)
        assert not built, check.__name__
        return len(calls), result

    non_factoring = Partition((("Y1", ("X1",)), ("Y2", ("X2",))), ("X3",))
    for b in all_bundles():
        args = (b.low, b.high, b.tau)
        assert count(check_tau_abstraction, *args)[0] == 1, b.name
        assert count(check_strong_abstraction, *args)[0] == 1, b.name
        n, found = count(search_constructive_partition, *args)
        assert n == 1, b.name
        if found is not None:
            assert count(check_constructive, *args, *found)[0] == 1, b.name
    assert count(check_constructive, DM.low, DM.high, DM.tau, non_factoring)[0] == 1


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
