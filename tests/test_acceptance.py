"""Acceptance criteria, one test per criterion, each with its runtime bound.

Two sub-assertions are marked strict-xfail because they are arithmetically
unattainable (see the test docstrings); everything else must pass. The
conftest hook prints one line per criterion at the end of the run.
"""

import random
import time

import pytest

from cak import (
    ALL,
    Assignment,
    EMPTY,
    RationalDist,
    check_exact,
    check_omega,
    check_strong_abstraction,
    check_tau_abstraction,
    check_uev,
    check_uniform,
    compose_transformations,
    compute_induced_sets,
    derive_omega_tau,
    enumerate_contexts,
    enumerate_interventions,
    enumerate_states,
    equivalent,
    find_compatible_tau_u,
    search_constructive_partition,
    to_uev,
)
from cak.corpus import (
    all_bundles,
    build_chain_vs_independent,
    build_disjunctive_merge,
    build_gated_extension,
    build_pixel_grid,
    build_unrelated_pair,
    build_voting,
)
from cak.maps import materialize_state_map

from .util import (
    random_model,
    random_transformation_case,
    random_uniform_chain,
    uniform_distribution_probe,
    voting_natural_partition,
)


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"exceeded the {self.seconds}s budget: {elapsed:.1f}s"


def test_criterion_1_unrelated_pair_separation():
    """Exact transformation holds in both directions, the distribution-free
    check fails in both directions."""
    budget = Budget(1.0)
    for bundle in build_unrelated_pair():
        exact = check_exact(
            bundle.low, bundle.low_dist, bundle.high, bundle.high_dist, bundle.tau, bundle.omega
        )
        assert exact.verdict, bundle.name
        uniform = check_uniform(bundle.low, bundle.high, bundle.tau, bundle.omega)
        assert not uniform.verdict, bundle.name
    budget.check()


def test_criterion_2_chain_vs_independent_separation():
    """Uniform with the joint intervention maps in both directions, not
    uniform with the identity map, and not an abstraction."""
    budget = Budget(1.0)
    fwd, rev, ident = build_chain_vs_independent()
    assert check_uniform(fwd.low, fwd.high, fwd.tau, fwd.omega).verdict
    assert check_uniform(rev.low, rev.high, rev.tau, rev.omega).verdict
    assert not check_uniform(ident.low, ident.high, ident.tau, ident.omega).verdict
    abstraction = check_tau_abstraction(fwd.low, fwd.high, fwd.tau)
    assert not abstraction.verdict
    budget.check()


def test_criterion_3_gated_extension_randomized_branches():
    """Ten seeded randomizations of the gate-off behaviour: uniform holds
    and the abstraction check fails on surjectivity every time."""
    budget = Budget(5.0)
    for seed in range(10):
        bundle = build_gated_extension(branch_seed=seed)
        assert check_uniform(bundle.low, bundle.high, bundle.tau, bundle.omega).verdict, seed
        report = check_tau_abstraction(bundle.low, bundle.high, bundle.tau)
        assert not report.verdict and report.detail.startswith("(a)"), seed
    budget.check()


def test_criterion_4_disjunctive_merge_induced_sets():
    """Induced sets and the abstraction verdicts for the disjunctive merge:
    all 9 high interventions are induced; the abstraction check fails on
    the full induced low set and passes on the forced-reset set."""
    budget = Budget(5.0)
    main, forced = build_disjunctive_merge()
    low_all = main.low.with_allowed(ALL)
    i_low, i_high, _ = compute_induced_sets(low_all, main.high, main.tau)
    assert set(i_high) == set(enumerate_interventions(main.high))
    assert len(i_high) == 9
    # Honest count: 24 of 27 (see the xfail below for the recorded claim).
    assert len(i_low) == 24
    undefined = set(enumerate_interventions(low_all)) - set(i_low)
    assert Assignment(X1=0, X2=0) in undefined

    report = check_tau_abstraction(main.low, main.high, main.tau)
    assert not report.verdict
    report = check_tau_abstraction(forced.low, forced.high, forced.tau)
    assert report.verdict
    budget.check()


@pytest.mark.xfail(
    strict=True,
    reason=(
        "recorded claim: exactly one low intervention, the pair setting both "
        "merged bits to 0, lacks an induced image (26 of 27 defined). "
        "Arithmetically impossible: the image of X1<-0 (likewise X2<-0) under "
        "(x1 or x3, x2 or x3) has three elements, and restriction sets over "
        "two binary variables have size 1, 2 or 4, so those two lone "
        "interventions are undefined as well and the defined count is 24."
    ),
)
def test_criterion_4_recorded_induced_count():
    main, _ = build_disjunctive_merge()
    low_all = main.low.with_allowed(ALL)
    i_low, _, _ = compute_induced_sets(low_all, main.high, main.tau)
    undefined = set(enumerate_interventions(low_all)) - set(i_low)
    assert undefined == {Assignment(X1=0, X2=0)}
    assert len(i_low) == 26


def test_criterion_5_pixel_grid_hierarchy():
    """Two-counter variant is not strong, with a lone counter intervention
    named; merged variant is strong and constructive with the searched
    partition."""
    budget = Budget(30.0)
    two = build_pixel_grid(2, "two-counter")
    strong = check_strong_abstraction(two.low, two.high, two.tau)
    assert not strong.verdict
    single = strong.counterexample["first_missing_single"]
    assert single is not None and set(single) in ({"TH"}, {"LH"})

    merged = build_pixel_grid(2, "merged")
    assert check_strong_abstraction(merged.low, merged.high, merged.tau).verdict
    found = search_constructive_partition(merged.low, merged.high, merged.tau)
    assert found is not None
    partition, _ = found
    assert dict(partition.cells)["TLH"] == ("X11", "X12", "X21")
    assert partition.marginal == ("X22",)
    budget.check()


@pytest.mark.xfail(
    strict=True,
    reason=(
        "recorded claim: the two-counter variant is an abstraction under the "
        "restricted low intervention set. Impossible in the product state "
        "space: with overlapping counters the pair (0, max) is never in the "
        "state map's image, so surjectivity onto the count product fails, "
        "and the empty intervention's image (the whole image of the map) is "
        "then not a restriction set either. Dropping the overlap instead "
        "makes every lone counter intervention induced, contradicting the "
        "not-strong verdict. No instantiation satisfies both claims."
    ),
)
def test_criterion_5_recorded_two_counter_abstraction():
    two = build_pixel_grid(2, "two-counter")
    report = check_tau_abstraction(two.low, two.high, two.tau)
    assert report.verdict


def test_criterion_6_voting_uniform_and_constructive():
    """Uniform on ad-only interventions; constructive with the natural
    partition when every intervention is on the table."""
    budget = Budget(60.0)
    bundle = build_voting(4, 2, 1)
    assert check_uniform(bundle.low, bundle.high, bundle.tau, bundle.omega).verdict
    from cak import check_constructive

    partition, comps = voting_natural_partition(bundle)
    report = check_constructive(bundle.low, bundle.high, bundle.tau, partition)
    assert report.verdict
    assert report.witness["components"] == comps
    budget.check()


def test_criterion_7_private_noise_rewiring_property():
    """On 100 random small models with random rational distributions, the
    rewired model has private exogenous inputs and is equivalent over the
    full intervention space, with exact rational equality throughout."""
    budget = Budget(120.0)
    rng = random.Random(20_240_817)
    for case in range(100):
        model = random_model(rng, max_endo=3, max_exo=2)
        space = enumerate_contexts(model)
        weights = {u: rng.randint(0, 6) for u in space}
        if not any(weights.values()):
            weights[space[0]] = 1
        dist = RationalDist.from_weights(weights)
        rewired, new_dist = to_uev(model, dist)
        assert check_uev(rewired).verdict, f"case {case}"
        assert equivalent(model, dist, rewired, new_dist).verdict, f"case {case}"
    budget.check()


def test_criterion_8_compatible_witness_iff_probe():
    """On 100 random transformation setups, the finite witness search
    succeeds exactly when sampled distributions can always be matched:
    a found witness passes a 25-distribution probe, and a failed search
    yields a point-mass distribution that no high-side distribution can
    match (checked over every vertex of the high simplex)."""
    budget = Budget(300.0)
    rng = random.Random(31_337)
    successes = failures = 0
    for case in range(100):
        low, high, tau, omega = random_transformation_case(
            rng, force_success=(case % 3 == 0)
        )
        report = find_compatible_tau_u(low, high, tau, omega)
        if report.verdict:
            successes += 1
            probe = uniform_distribution_probe(
                low, high, tau, omega, report.witness, n_samples=25, seed=case
            )
            assert probe.verdict, f"case {case}: witness failed the probe"
        else:
            failures += 1
            u_l = Assignment(report.counterexample["context"])
            d_low = RationalDist.point(u_l)
            for u_h in enumerate_contexts(high):
                vertex = RationalDist.point(u_h)
                exact = check_exact(low, d_low, high, vertex, tau, omega)
                assert not exact.verdict, (
                    f"case {case}: vertex {dict(u_h)} matches the point mass, "
                    "contradicting the failed witness search"
                )
    assert successes >= 20 and failures >= 20, (successes, failures)
    budget.check()


def test_criterion_9_composition_closure():
    """50 random two-leg chains that each pass the distribution-free check
    compose into a transformation that passes it too."""
    budget = Budget(120.0)
    rng = random.Random(271_828)
    for case in range(50):
        low, mid, high, tau1, omega1, tau2, omega2 = random_uniform_chain(rng)
        tau_c, omega_c = compose_transformations(tau1, omega1, tau2, omega2, low, mid)
        assert check_uniform(low, high, tau_c, omega_c).verdict, f"case {case}"
    budget.check()


def test_criterion_10_induced_map_structure_and_hierarchy():
    """For every corpus state map that is surjective: the empty intervention
    and full settings induce themselves and their images, and the induced
    map preserves the order exhaustively. Across the whole corpus, the
    hierarchy is monotone: constructive implies strong implies abstraction
    on the induced sets implies distribution-free with the induced map."""
    budget = Budget(300.0)
    for bundle in all_bundles():
        low_all = bundle.low.with_allowed(ALL)
        table = materialize_state_map(
            bundle.tau, bundle.low.signature, bundle.high.signature
        )
        surjective = set(table.values()) == set(enumerate_states(bundle.high))
        if surjective:
            assert derive_omega_tau(low_all, bundle.high, bundle.tau, EMPTY) == EMPTY, bundle.name
            for state in enumerate_states(low_all):
                img = derive_omega_tau(low_all, bundle.high, bundle.tau, state)
                assert img == bundle.tau.apply(state), bundle.name
            i_low_tau, i_high_tau, omega_tau = compute_induced_sets(low_all, bundle.high, bundle.tau)
            assert check_omega(omega_tau, i_low_tau, i_high_tau).verdict, bundle.name

        constructive = search_constructive_partition(low_all, bundle.high, bundle.tau)
        strong = check_strong_abstraction(low_all, bundle.high, bundle.tau)
        if constructive is not None:
            assert strong.verdict, bundle.name
        if strong.verdict:
            i_low, i_high, omega_tau = compute_induced_sets(low_all, bundle.high, bundle.tau)
            low, high = bundle.low.with_allowed(i_low), bundle.high.with_allowed(i_high)
            assert check_tau_abstraction(low, high, bundle.tau).verdict, bundle.name
            assert check_uniform(low, high, bundle.tau, omega_tau).verdict, bundle.name
    budget.check()
