import itertools
import random

import pytest

from cak import (
    Assignment,
    EMPTY,
    InputError,
    InterventionMap,
    SizeCapExceeded,
    check_omega,
    enumerate_contexts,
    enumerate_interventions,
    natural_leq,
    natural_lt,
)
from cak.errors import ENV_MAX_CONTEXTS, ENV_MAX_INTERVENTIONS

from .test_model import CHAIN, THREE_BITS, model_of
from .util import random_model

ONE_BIT = model_of([("U", (0, 1))], [("X", (0, 1))], {"X": "U"})


def test_enumerate_one_binary_variable():
    got = enumerate_interventions(ONE_BIT)
    assert got == [EMPTY, Assignment(X=0), Assignment(X=1)]


def test_enumerate_counts():
    assert len(enumerate_interventions(THREE_BITS)) == 27
    pixel_like = model_of(
        [(f"U{i}", (0, 1)) for i in range(4)],
        [(f"X{i}", (0, 1)) for i in range(4)],
        {f"X{i}": f"U{i}" for i in range(4)},
    )
    assert len(enumerate_interventions(pixel_like)) == 81


def test_enumerate_size_matches_closed_form():
    rng = random.Random(7)
    for _ in range(20):
        m = random_model(rng, max_endo=3, max_exo=1, domain=(0, 1, 2))
        expected = 1
        for d in m.signature.endogenous:
            expected *= len(d.domain) + 1
        assert len(enumerate_interventions(m)) == expected


def test_enumerate_cap(monkeypatch):
    monkeypatch.setenv(ENV_MAX_INTERVENTIONS, "26")
    with pytest.raises(SizeCapExceeded):
        enumerate_interventions(THREE_BITS)
    monkeypatch.setenv(ENV_MAX_INTERVENTIONS, "27")
    assert len(enumerate_interventions(THREE_BITS)) == 27


def test_enumerate_cap_from_env(monkeypatch):
    monkeypatch.setenv(ENV_MAX_INTERVENTIONS, "5")
    with pytest.raises(SizeCapExceeded):
        enumerate_interventions(THREE_BITS)
    monkeypatch.setenv(ENV_MAX_INTERVENTIONS, "not-a-number")
    with pytest.raises(InputError):
        enumerate_interventions(THREE_BITS)


@pytest.mark.parametrize(
    "name,enumerate",
    [(ENV_MAX_INTERVENTIONS, enumerate_interventions), (ENV_MAX_CONTEXTS, enumerate_contexts)],
    ids=["interventions", "contexts"],
)
@pytest.mark.parametrize("raw", ["0", "-1"])
def test_nonpositive_cap_is_an_input_error(monkeypatch, name, enumerate, raw):
    monkeypatch.setenv(name, raw)
    with pytest.raises(InputError, match=f"{name} must be positive, got {raw}") as info:
        enumerate(THREE_BITS)
    assert not isinstance(info.value, SizeCapExceeded)


def test_natural_order_basics():
    assert natural_leq(EMPTY, Assignment(X1=0))
    assert natural_leq(Assignment(X1=0), Assignment(X1=0, X2=1))
    assert not natural_leq(Assignment(X1=0), Assignment(X1=1, X2=1))
    assert not natural_lt(Assignment(X1=0), Assignment(X1=0))


def test_natural_order_poset_laws_exhaustive():
    space = enumerate_interventions(CHAIN)
    for i in space:
        assert natural_leq(i, i)
    for i1, i2 in itertools.permutations(space, 2):
        if natural_leq(i1, i2) and natural_leq(i2, i1):
            assert i1 == i2
    for i1, i2, i3 in itertools.product(space, repeat=3):
        if natural_leq(i1, i2) and natural_leq(i2, i3):
            assert natural_leq(i1, i3)


def test_check_omega_identity():
    space = enumerate_interventions(CHAIN)
    report = check_omega(InterventionMap.identity(space), space, space)
    assert report.verdict


def test_check_omega_joint_map_between_antichains():
    i_low = (Assignment(X1=0), Assignment(X1=1))
    i_high = (Assignment(X1=0, X2=0), Assignment(X1=1, X2=1))
    omega = InterventionMap.from_pairs(tuple(zip(i_low, i_high)))
    report = check_omega(omega, i_low, i_high)
    assert report.verdict


def test_check_omega_not_surjective():
    i_low = (EMPTY,)
    i_high = (EMPTY, Assignment(X1=0))
    omega = InterventionMap.from_pairs(((EMPTY, EMPTY),))
    report = check_omega(omega, i_low, i_high)
    assert not report.verdict
    assert report.counterexample["unreached"] == (Assignment(X1=0),)


def test_check_omega_collapse_of_comparable_pair_is_monotone():
    # A strictly growing low pair may map to a single high intervention:
    # monotonicity permits equal images, only order reversals fail.
    i_low = (EMPTY, Assignment(X1=0), Assignment(X1=0, X2=0))
    high = Assignment(X1=0)
    omega = InterventionMap.from_pairs(
        ((EMPTY, EMPTY), (Assignment(X1=0), high), (Assignment(X1=0, X2=0), high))
    )
    report = check_omega(omega, i_low, (EMPTY, high))
    assert report.verdict


def test_check_omega_order_reversal_fails():
    i_low = (Assignment(X1=0), Assignment(X1=0, X2=0))
    omega = InterventionMap.from_pairs(
        ((Assignment(X1=0), Assignment(X1=0, X2=0)), (Assignment(X1=0, X2=0), Assignment(X1=0)))
    )
    report = check_omega(omega, i_low, (Assignment(X1=0), Assignment(X1=0, X2=0)))
    assert not report.verdict
    assert report.counterexample["order_violations"]


def test_check_omega_outside_high_set_is_input_error():
    omega = InterventionMap.from_pairs(((EMPTY, Assignment(X1=0)),))
    with pytest.raises(InputError):
        check_omega(omega, (EMPTY,), (EMPTY,))


def test_check_omega_partial_map_is_input_error():
    omega = InterventionMap.from_pairs(((EMPTY, EMPTY),))
    with pytest.raises(InputError):
        check_omega(omega, (EMPTY, Assignment(X1=0)), (EMPTY,))


def test_intervention_map_rejects_duplicates():
    with pytest.raises(InputError):
        InterventionMap.from_pairs(((EMPTY, EMPTY), (EMPTY, Assignment(X1=0))))
