import random

import pytest

from cak import (
    Assignment,
    EMPTY,
    InputError,
    InterventionMap,
    RationalDist,
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
from cak import transform
from cak.abstraction import check_tau_abstraction
from cak.corpus import build_voting
from cak.maps import ContextMap
from cak.serialize import dumps, report_to_obj
from cak.transform import _match_high_side

from . import util
from .test_model import CHAIN, model_of
from .util import (
    corrupt_one_table_entry,
    reference_correspondents,
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
    report = find_compatible_tau_u(
        main.low, main.high, main.tau, omega_tau, i_low=i_low
    )
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


def test_matcher_follows_a_3000_step_augmenting_path():
    # Low i accepts high i+1, then high i. Taking the highs from 1 upwards
    # gives low i-1 to high i, so high 0 displaces every earlier match.
    n = 3000
    lows = list(range(n))
    highs = list(range(1, n)) + [0]
    cands = {i: ([i + 1] if i + 1 < n else []) + [i] for i in lows}
    matched = _match_high_side(lows, highs, cands)
    assert matched == {i: i for i in lows}


def test_matcher_agrees_with_recursive_reference():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(300):
        lows = list(range(rng.randint(1, 12)))
        highs = [f"h{j}" for j in range(rng.randint(1, 10))]
        rng.shuffle(highs)
        cands = {
            u_l: rng.sample(highs, rng.randint(0, len(highs))) for u_l in lows
        }
        got = _match_high_side(lows, highs, cands)
        assert got == reference_match_high_side(lows, highs, cands)
        outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", range(4))
def test_streamed_profile_pass_stops_at_the_first_unmatched_context(monkeypatch, seed):
    bundle = build_voting(4, 2, 1)
    high = corrupt_one_table_entry(random.Random(seed), bundle.high)
    low_solves = []

    def counted(model, context, intervention):
        low_solves.append(model is bundle.low)
        return solve_under(model, context, intervention)

    def full_pass(*args):
        low_contexts, high_contexts, table = reference_correspondents(*args)
        return low_contexts, high_contexts, table.__getitem__

    solve_under = transform.solve_under
    monkeypatch.setattr(transform, "solve_under", counted)
    monkeypatch.setattr(util, "solve_under", counted)
    checks = [
        lambda: check_uniform(bundle.low, high, bundle.tau, bundle.omega),
        lambda: check_tau_abstraction(bundle.low, high, bundle.tau),
    ]
    streamed = []
    for check in checks:
        streamed.append((check(), sum(low_solves)))
        low_solves.clear()
    monkeypatch.setattr(transform, "_correspondents", full_pass)
    for check, (report, solves) in zip(checks, streamed):
        reference = check()
        assert not report.verdict and report.counterexample["context"]
        assert dumps(report_to_obj(report, True)) == dumps(report_to_obj(reference, True))
        assert solves < sum(low_solves)
        low_solves.clear()


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
    report = check_compatible(tau_u, b.tau, omega, b.low, b.high, i_low=i_low)
    assert report.verdict
    assert len(i_low) == 24


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
