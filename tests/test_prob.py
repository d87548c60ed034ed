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
    StateMap,
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
from cak.maps import ContextMap

from .test_model import CHAIN, THREE_BITS, model_of
from .util import random_model


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


def test_chain_vs_independent_not_equivalent_without_interventions():
    indep = model_of(
        [("U1", (0, 1)), ("U2", (0, 1))],
        [("X1", (0, 1)), ("X2", (0, 1))],
        {"X1": "U1", "X2": "U2"},
    )
    d = RationalDist.uniform(enumerate_contexts(CHAIN))
    report = equivalent(CHAIN, d, indep, d, interventions=(EMPTY,))
    assert not report.verdict
    profile = report.counterexample["profile"]
    assert profile == (Assignment(X1=0, X2=0),)
    assert report.counterexample["mass_left"] == Fraction(1, 2)
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
