import itertools
import random

import pytest
from hypothesis import given, strategies as st

from cak import (
    Assignment,
    EMPTY,
    InputError,
    InterventionMap,
    Signature,
    SizeCapExceeded,
    VariableDecl,
    check_omega,
    enumerate_contexts,
    enumerate_interventions,
    natural_leq,
    natural_lt,
)
from cak.errors import ENV_MAX_CONTEXTS, ENV_MAX_INTERVENTIONS
from cak.serialize import assignment_to_obj, dumps, to_jsonable

from .test_model import CHAIN, THREE_BITS, model_of
from .util import outcome, random_model, reference_check_omega

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


def _omega_case(rng: random.Random):
    """A low and a high intervention list and an intervention map between
    them. The low list repeats interventions, some as equal but distinct
    objects, may hold the empty one and sub-assignments of others, and is
    an antichain when drawn at one size. The map is a projection, which
    preserves order, or drawn at random, and may miss a low intervention
    or land outside the high list. The high list holds every image in it
    and may hold more, some of them twice."""
    low_names = rng.sample(["A", "B", "C", "D"], rng.randint(1, 4))
    high_names = ["H1", "H2", "H3"][: rng.randint(1, 3)]

    def draw(names, size=None):
        chosen = rng.sample(names, rng.randint(0, len(names)) if size is None else size)
        return Assignment({n: rng.randint(0, 1) for n in chosen})

    size = rng.randint(0, len(low_names)) if rng.random() < 0.25 else None
    pool = [draw(low_names, size) for _ in range(rng.randint(1, 6))]
    if size is None:  # sub-assignments of some, so that more pairs compare
        pool += [Assignment(rng.sample(i.items_sorted, rng.randint(0, len(i)))) for i in pool if rng.random() < 0.5]
        if rng.random() < 0.5:
            pool.append(EMPTY)
    low = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
    low = [Assignment(dict(i)) if rng.random() < 0.3 else i for i in low]
    if rng.random() < 0.5:
        rename = dict(zip(low_names, high_names))
        table = {i._items: Assignment({rename[n]: v for n, v in i.items_sorted if n in rename}) for i in pool}
    else:
        table = {i._items: draw(high_names) for i in pool}
    high = list(dict.fromkeys(table.values())) + [draw(high_names) for _ in range(rng.randint(0, 2))]
    rng.shuffle(high)
    if rng.random() < 0.1:
        del table[rng.choice(sorted(table))]
    if table and rng.random() < 0.1:
        table[rng.choice(sorted(table))] = Assignment(Z=1)
    omega = InterventionMap.from_pairs(tuple((Assignment(items), image) for items, image in table.items()))
    return omega, low, high


def _report_bytes(fn, *args):
    kind, value = outcome(fn, *args)
    return (kind, dumps(to_jsonable(value))) if kind == "value" else (kind, value)


@given(st.integers(0, 2**32))
def test_check_omega_matches_the_pairwise_reference(seed):
    # check_omega finds the comparable pairs by looking up each low
    # intervention's sub-assignments; the reference compares every pair.
    # Whole reports agree byte for byte, or both raise the same error.
    omega, low, high = _omega_case(random.Random(seed))
    assert _report_bytes(check_omega, omega, low, high) == _report_bytes(reference_check_omega, omega, low, high)


def test_omega_case_draws_reach_every_kind_of_report():
    # Of the first 200 draws of the oracle above, some hold, some break
    # order with a repeated low intervention, some miss a high one, and
    # some raise for a partial map and for an image outside the high list.
    seen = set()
    for seed in range(200):
        omega, low, high = _omega_case(random.Random(seed))
        kind, report = outcome(check_omega, omega, low, high)
        if kind != "value":
            seen.add("undefined" if "undefined" in report else "outside")
        elif report.verdict:
            seen.add("holds")
        else:
            violations = report.counterexample["order_violations"]
            if any(low.count(i2) > 1 for _, i2 in violations):
                seen.add("repeated violation")
            if report.counterexample["unreached"]:
                seen.add("unreached")
    assert seen == {"holds", "repeated violation", "unreached", "undefined", "outside"}


@given(st.integers(0, 2**32))
def test_enumerated_interventions_match_the_eager_build(seed):
    # enumerate_interventions builds once what the interventions that set
    # the same variables share, and each one's dict and hash on first use.
    # Read in any order, each is what Assignment({...}) builds from its
    # options, also with names declared out of name order.
    rng = random.Random(seed)
    names = rng.sample(["A", "B", "C", "X1", "X2", "Y", "_z", "b"], rng.randint(0, 4))
    decls = tuple(VariableDecl(n, tuple(rng.sample(range(-2, 4), rng.randint(1, 3)))) for n in names)
    sig = Signature((VariableDecl("U", (0,)),), decls)
    options = [(None, *d.domain) for d in decls]
    eager = [Assignment({n: v for n, v in zip(names, combo) if v is not None}) for combo in itertools.product(*options)]
    got = enumerate_interventions(sig)
    assert len(got) == len(eager)
    reads = [
        lambda a: list(a),
        lambda a: a._items,
        lambda a: a._values,
        hash,
        repr,
        lambda a: list(assignment_to_obj(a).items()),
        lambda a: [(n in a, a.get(n)) for n in names],
        lambda a: [a[n] for n in a],
    ]
    for lazy, built in zip(got, eager):
        rng.shuffle(reads)
        assert [read(lazy) for read in reads] == [read(built) for read in reads]
        assert lazy == built and len(lazy) == len(built)
