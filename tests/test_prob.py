import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cak import (
    Assignment,
    EMPTY,
    InputError,
    RationalDist,
    SizeCapExceeded,
    StateMap,
    check_exact,
    check_uev,
    enumerate_contexts,
    enumerate_interventions,
    enumerate_states,
    equivalent,
    interventional_dist,
    parse_expr,
    push_to_states,
    solve,
    tau_pushforward,
    to_uev,
)
from cak import transform
from cak.errors import ENV_MAX_CONTEXTS
from cak.maps import ContextMap
from cak.model import check_context
from cak.prob import check_distribution
from cak.serialize import dumps, report_to_obj

from .test_model import CHAIN, THREE_BITS, model_of
from .util import (
    outcome,
    random_expr_model,
    random_intervention,
    random_model,
    random_state_map,
    random_transformation_case,
    reference_equivalent,
    reference_interventional_dist,
    reference_tau_pushforward,
)


# ---------------------------------------------------------------------------
# distribution invariants

def test_masses_must_sum_to_one():
    with pytest.raises(InputError):
        RationalDist(((Assignment(U=0), Fraction(1, 2)),))


def test_negative_mass_rejected():
    with pytest.raises(InputError):
        RationalDist(
            ((Assignment(U=0), Fraction(3, 2)), (Assignment(U=1), Fraction(-1, 2)))
        )


def test_duplicate_support_rejected():
    with pytest.raises(InputError):
        RationalDist(
            ((Assignment(U=0), Fraction(1, 2)), (Assignment(U=0), Fraction(1, 2)))
        )


def test_distribution_shares_its_keys():
    keys = enumerate_contexts(CHAIN)
    d = RationalDist.uniform(keys)
    assert {id(k) for k, _ in d.entries} == {id(k) for k in keys}
    assert RationalDist.point(keys[0]).entries[0][0] is keys[0]


def test_zero_entries_do_not_affect_equality():
    d1 = RationalDist(((Assignment(U=0), Fraction(1)), (Assignment(U=1), Fraction(0))))
    d2 = RationalDist.point(Assignment(U=0))
    assert d1 == d2 and hash(d1) == hash(d2)


def test_mixture_is_exact():
    d1 = RationalDist.point(Assignment(U=0))
    d2 = RationalDist.point(Assignment(U=1))
    mix = d1.mixed(d2, Fraction(1, 3))
    assert mix.mass(Assignment(U=0)) == Fraction(1, 3)
    assert mix.mass(Assignment(U=1)) == Fraction(2, 3)
    assert mix.total() == 1


def test_messages_never_print_past_the_int_digit_limit():
    # str() of these raises ValueError past 4,300 digits.
    u = Assignment(U=0)
    with pytest.raises(InputError, match="mixture weight a fraction with a 16610-bit numerator"):
        RationalDist.point(u).mixed(RationalDist.point(u), Fraction(10**5000))
    with pytest.raises(InputError, match="negative probability a fraction with a 16610-bit numerator"):
        RationalDist(((u, Fraction(-(10**5000))), (Assignment(U=1), Fraction(10**5000 + 1))))
    with pytest.raises(InputError, match="probabilities sum to a fraction with a "):
        RationalDist(((u, Fraction(1, 10**3000 + 1)), (Assignment(U=1), Fraction(1, 10**3000 + 3))))
    with pytest.raises(InputError, match="probabilities sum to 1/2, not 1"):
        RationalDist(((u, Fraction(1, 2)),))


# ---------------------------------------------------------------------------
# pushforwards

def test_point_mass_pushes_to_solution():
    u = Assignment(U1=1, U2=0)
    got = push_to_states(CHAIN, RationalDist.point(u))
    assert got == RationalDist.point(solve(CHAIN, u))


def test_uniform_contexts_chain():
    # Oracle: enumerate the four contexts by hand. X1 = U1 and X2 = X1, so
    # the state is (0,0) for U1=0 and (1,1) for U1=1, each from two contexts.
    d = RationalDist.uniform(enumerate_contexts(CHAIN))
    got = push_to_states(CHAIN, d)
    assert got.mass(Assignment(X1=0, X2=0)) == Fraction(1, 2)
    assert got.mass(Assignment(X1=1, X2=1)) == Fraction(1, 2)
    assert len(got.support()) == 2


def test_interventional_empty_equals_push():
    rng = random.Random(11)
    for _ in range(10):
        m = random_model(rng)
        space = enumerate_contexts(m)
        d = RationalDist.uniform(space)
        assert interventional_dist(m, d, EMPTY) == push_to_states(m, d)


def test_interventional_chain_forced():
    d = RationalDist.uniform(enumerate_contexts(CHAIN))
    got = interventional_dist(CHAIN, d, Assignment(X1=1))
    assert got == RationalDist.point(Assignment(X1=1, X2=1))


def test_interventional_product_masses():
    # Independent bit priors with Pr(Ui=0) = a, b, c; forcing X3 to 0 makes
    # the all-zero state exactly as likely as U1=0 and U2=0 together.
    a, b, c = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    entries = []
    for u1, u2, u3 in itertools.product((0, 1), repeat=3):
        p = (
            (a if u1 == 0 else 1 - a)
            * (b if u2 == 0 else 1 - b)
            * (c if u3 == 0 else 1 - c)
        )
        entries.append((Assignment(U1=u1, U2=u2, U3=u3), p))
    d = RationalDist(tuple(entries))
    got = interventional_dist(THREE_BITS, d, Assignment(X3=0))
    assert got.mass(Assignment(X1=0, X2=0, X3=0)) == a * b


DISJUNCTIVE_TAU = StateMap.from_exprs(
    {"Y1": parse_expr("X1 || X3"), "Y2": parse_expr("X2 || X3")}
)


def test_tau_pushforward_identity_and_constant():
    sd = push_to_states(CHAIN, RationalDist.uniform(enumerate_contexts(CHAIN)))
    ident = StateMap.identity(CHAIN.signature)
    assert tau_pushforward(ident, sd) == sd
    const = StateMap.from_table(
        tuple((s, Assignment(Y=0)) for s in enumerate_states(CHAIN))
    )
    assert tau_pushforward(const, sd) == RationalDist.point(Assignment(Y=0))


def test_tau_pushforward_disjunctive_counts():
    # Oracle first: count preimages of each image over all 8 states.
    counts = {}
    for x1, x2, x3 in itertools.product((0, 1), repeat=3):
        img = (x1 | x3, x2 | x3)
        counts[img] = counts.get(img, 0) + 1
    assert counts == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 5}

    sd = RationalDist.uniform(enumerate_states(THREE_BITS))
    got = tau_pushforward(DISJUNCTIVE_TAU, sd)
    for (y1, y2), n in counts.items():
        assert got.mass(Assignment(Y1=y1, Y2=y2)) == Fraction(n, 8)


@given(st.integers(0, 10_000), st.integers(0, 63))
def test_pushforward_preserves_mass_and_mixtures(seed, numer):
    rng = random.Random(seed)
    m = random_model(rng)
    high = random_model(rng)
    states = enumerate_states(m)
    tau = StateMap.from_table(
        tuple((s, rng.choice(enumerate_states(high))) for s in states)
    )
    space = enumerate_contexts(m)
    d1 = push_to_states(m, RationalDist.uniform(space))
    d2 = push_to_states(m, RationalDist.point(rng.choice(space)))
    lam = Fraction(numer, 64)
    mixed_then_pushed = tau_pushforward(tau, d1.mixed(d2, lam))
    pushed_then_mixed = tau_pushforward(tau, d1).mixed(tau_pushforward(tau, d2), lam)
    assert mixed_then_pushed == pushed_then_mixed
    assert mixed_then_pushed.total() == 1


def test_context_pushforward():
    cm = ContextMap.from_table(
        tuple((u, Assignment(W=u["U1"])) for u in enumerate_contexts(CHAIN))
    )
    d = RationalDist.uniform(enumerate_contexts(CHAIN))
    got = tau_pushforward(cm, d)
    assert got.mass(Assignment(W=0)) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# equivalence

def test_equivalent_reflexive():
    d = RationalDist.uniform(enumerate_contexts(CHAIN))
    assert equivalent(CHAIN, d, CHAIN, d).verdict


def test_chain_vs_independent_not_equivalent():
    indep = model_of(
        [("U1", (0, 1)), ("U2", (0, 1))],
        [("X1", (0, 1)), ("X2", (0, 1))],
        {"X1": "U1", "X2": "U2"},
    )
    d = RationalDist.uniform(enumerate_contexts(CHAIN))
    report = equivalent(CHAIN, d, indep, d)
    assert not report.verdict
    # Profiles run over the full intervention space, the empty one first.
    assert report.counterexample["interventions"] == tuple(enumerate_interventions(CHAIN))
    profile = report.counterexample["profile"]
    assert profile[:3] == (Assignment(X1=0, X2=0), Assignment(X1=0, X2=0), Assignment(X1=0, X2=1))
    assert report.counterexample["mass_left"] == 0
    assert report.counterexample["mass_right"] == Fraction(1, 4)


def test_equivalent_requires_matching_endogenous():
    other = model_of([("U", (0, 1))], [("Z", (0, 1))], {"Z": "U"})
    d1 = RationalDist.uniform(enumerate_contexts(CHAIN))
    d2 = RationalDist.uniform(enumerate_contexts(other))
    with pytest.raises(InputError):
        equivalent(CHAIN, d1, other, d2)


# ---------------------------------------------------------------------------
# private-noise rewiring

def test_rewire_shared_exogenous():
    m = model_of(
        [("U", (0, 1))],
        [("X1", (0, 1)), ("X2", (0, 1))],
        {"X1": "U", "X2": "U"},
    )
    d = RationalDist((
        (Assignment(U=0), Fraction(2, 5)),
        (Assignment(U=1), Fraction(3, 5)),
    ))
    m2, d2 = to_uev(m, d)
    assert [v.name for v in m2.signature.exogenous] == ["U_X1", "U_X2"]
    assert all(v.domain == (0, 1) for v in m2.signature.exogenous)
    assert d2.mass(Assignment(U_X1=0, U_X2=0)) == Fraction(2, 5)
    assert d2.mass(Assignment(U_X1=1, U_X2=1)) == Fraction(3, 5)
    assert d2.mass(Assignment(U_X1=0, U_X2=1)) == 0
    assert check_uev(m2).verdict
    assert equivalent(m, d, m2, d2).verdict


def test_rewire_preserves_interventional_behaviour():
    d = RationalDist.uniform(enumerate_contexts(THREE_BITS))
    m2, d2 = to_uev(THREE_BITS, d)
    for i in enumerate_interventions(THREE_BITS):
        assert interventional_dist(THREE_BITS, d, i) == interventional_dist(m2, d2, i)


def test_rewire_random_models_property():
    rng = random.Random(2024)
    for k in range(25):
        m = random_model(rng)
        space = enumerate_contexts(m)
        weights = {u: rng.randint(0, 4) for u in space}
        if not any(weights.values()):
            weights[space[0]] = 1
        d = RationalDist.from_weights(weights)
        m2, d2 = to_uev(m, d)
        assert check_uev(m2).verdict, f"case {k}"
        assert equivalent(m, d, m2, d2).verdict, f"case {k}"


def test_rewire_refuses_a_context_space_past_the_cap(monkeypatch):
    d = RationalDist.uniform(enumerate_contexts(THREE_BITS))
    k = len(enumerate_contexts(THREE_BITS))
    monkeypatch.setenv(ENV_MAX_CONTEXTS, str(k))
    assert to_uev(THREE_BITS, d)[0].signature.exo_names
    monkeypatch.setenv(ENV_MAX_CONTEXTS, str(k - 1))
    with pytest.raises(SizeCapExceeded, match=f"context space has {k} elements, exceeding the cap of {k - 1}"):
        to_uev(THREE_BITS, d)


def test_rewire_handles_tables_touching_exogenous():
    m = model_of(
        [("U", (0, 1)), ("V", (0, 1))],
        [("X1", (0, 1)), ("X2", (0, 1))],
        {"X1": "table(U, X2)[(0, 0) -> 0, (0, 1) -> 1, (1, 0) -> 1, (1, 1) -> 0]",
         "X2": "V"},
    )
    d = RationalDist.uniform(enumerate_contexts(m))
    m2, d2 = to_uev(m, d)
    assert check_uev(m2).verdict
    assert equivalent(m, d, m2, d2).verdict


# ---------------------------------------------------------------------------
# integer sums against the one-Fraction-per-term reference

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def mixed_dist(rng, keys):
    """A distribution over a random subset of `keys` whose masses have
    coprime denominators, some of them zero; about half the keys are
    rebuilt from a dict in reversed insertion order, so they share
    nothing with the enumerated ones."""
    chosen = rng.sample(list(keys), rng.randint(1, len(keys)))
    chosen = [k if rng.random() < 0.5 else Assignment(dict(reversed(list(k.items())))) for k in chosen]
    weights = [Fraction(rng.choice((0, 0, 1, 2, 5)), rng.choice(PRIMES)) for _ in chosen]
    if not any(weights):
        weights[0] = Fraction(1, 3)
    total = sum(weights)
    return RationalDist(tuple((k, w / total) for k, w in zip(chosen, weights)))


def result(outcome_):
    # A distribution's entries, in order, or the exception's type and message.
    kind, value = outcome_
    return (kind, value.entries) if kind == "value" else outcome_


def report(outcome_):
    kind, value = outcome_
    return (kind, dumps(report_to_obj(value, True))) if kind == "value" else outcome_


def test_integer_sums_match_the_fraction_reference():
    rng = random.Random(7)
    for trial in range(80):
        model = random_model(rng) if trial % 2 else random_expr_model(rng)
        d = mixed_dist(rng, enumerate_contexts(model))
        for i in [EMPTY] + [random_intervention(rng, model) for _ in range(3)]:
            got = outcome(interventional_dist, model, d, i)
            assert result(got) == result(outcome(reference_interventional_dist, model, d, i))
            if got[0] == "value":
                assert all(model._states[k._values] is k for k, _ in got[1].entries)
        got = outcome(push_to_states, model, d)
        assert result(got) == result(outcome(reference_interventional_dist, model, d, EMPTY))
        d2 = mixed_dist(rng, enumerate_contexts(model))
        assert report(outcome(equivalent, model, d, model, d2)) == report(
            outcome(reference_equivalent, model, d, model, d2)
        )
        if trial % 2:
            high = random_model(rng)
            tau = random_state_map(rng, model, high)
            states = mixed_dist(rng, enumerate_states(model))
            assert tau_pushforward(tau, states).entries == reference_tau_pushforward(tau, states).entries
            uev, d_uev = to_uev(model, d)
            assert report(outcome(equivalent, model, d, uev, d_uev)) == report(
                outcome(reference_equivalent, model, d, uev, d_uev)
            )


@pytest.mark.parametrize("force_success", [False, True])
def test_exact_check_matches_the_fraction_reference(monkeypatch, force_success):
    rng = random.Random(8)
    for _ in range(40):
        low, high, tau, omega = random_transformation_case(rng, force_success)
        d_low = mixed_dist(rng, enumerate_contexts(low))
        d_high = d_low if force_success else mixed_dist(rng, enumerate_contexts(high))
        got = report(outcome(check_exact, low, d_low, high, d_high, tau, omega))
        with monkeypatch.context() as patch:
            patch.setattr(transform, "interventional_dist", reference_interventional_dist)
            patch.setattr(transform, "tau_pushforward", reference_tau_pushforward)
            want = report(outcome(check_exact, low, d_low, high, d_high, tau, omega))
        assert got == want
        if force_success:
            assert '"verdict": true' in got[1]


LEAVES_DOMAIN = model_of([("U", (0, 1, 2))], [("X", (0, 1))], {"X": "U + 1"})


@pytest.mark.parametrize(
    "entries,error",
    [
        # U=1 solves to X=2.
        ({(("U", 0),): Fraction(1, 3), (("U", 1),): Fraction(2, 3)}, "produced 2, outside its domain"),
        # The second context has the wrong keys; the third also leaves the domain.
        (
            {(("U", 0),): Fraction(1, 3), (("U", 0), ("V", 1)): Fraction(1, 5), (("U", 2),): Fraction(7, 15)},
            "context must assign exactly the exogenous variables",
        ),
    ],
    ids=["out-of-domain", "wrong-keys"],
)
def test_interventional_dist_raises_what_the_reference_raises(entries, error):
    d = RationalDist(tuple((Assignment(dict(items)), p) for items, p in entries.items()))
    got = outcome(interventional_dist, LEAVES_DOMAIN, d, EMPTY)
    assert got == outcome(reference_interventional_dist, LEAVES_DOMAIN, d, EMPTY)
    assert got[0] != "value" and error in got[1]


def test_check_distribution_raises_the_first_entrys_error():
    # Entries out of the domain or with the wrong keys, in any mix: the
    # error is the one a check_context loop in entry order raises first.
    rng = random.Random(9)
    for _ in range(200):
        model = random_model(rng, domain=(0, 1, 2))
        keys = list(enumerate_contexts(model))
        for _ in range(rng.randint(0, 2)):
            u = dict(rng.choice(keys))
            name = rng.choice(sorted(u))
            if rng.random() < 0.5:
                u[name] = rng.choice((-1, 3))
            else:
                del u[name]
                u[rng.choice((name + "x", "A"))] = 0
            keys.append(Assignment(u))
        d = mixed_dist(rng, dict.fromkeys(keys))
        assert list(d.entries) == sorted(d.entries, key=lambda e: e[0])

        def reference():
            for context, _ in d.entries:
                check_context(model, context)

        assert outcome(check_distribution, model, d) == outcome(reference)


def test_bad_contexts_with_zero_mass_are_skipped():
    good = ((Assignment(U=0), Fraction(1)),)
    bad = ((Assignment(U=1), Fraction(0)), (Assignment(U=5), Fraction(0)), (Assignment(W=0), Fraction(0)))
    d = RationalDist(good + bad)
    got = interventional_dist(LEAVES_DOMAIN, d, EMPTY)
    assert got.entries == reference_interventional_dist(LEAVES_DOMAIN, d, EMPTY).entries
    assert got.entries == ((Assignment(X=1), Fraction(1)),)


@pytest.mark.parametrize("value", [True, 1.0], ids=["True", "1.0"])
def test_a_distribution_refuses_values_that_only_equal_an_int(value):
    # interventional_dist solves its contexts' values as given, so a
    # context U=True gave X=True and was cached under the values of U=1:
    # a later solve of U=1 then gave X=True too.
    m = model_of([("U", (0, 1))], [("X", (0, 1))], {"X": "U"})
    with pytest.raises(InputError, match=f"distribution entry Assignment\\(U={value}\\) has a value {value} that is not an int"):
        interventional_dist(m, RationalDist(((Assignment(U=value), Fraction(1)),)), EMPTY)
    state = solve(m, Assignment(U=1))
    assert state == Assignment(X=1) and type(state["X"]) is int
