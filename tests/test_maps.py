import random

import pytest
from hypothesis import given, strategies as st

from cak import (
    Assignment,
    ContextMap,
    InputError,
    InterventionMap,
    StateMap,
    enumerate_states,
    materialize_state_map,
    parse_expr,
)
from cak.errors import EvaluationError
from cak.maps import compose_state_maps
from cak.serialize import (
    context_map_from_obj,
    dumps,
    intervention_map_from_obj,
    state_map_from_obj,
    to_jsonable,
)

from .test_model import CHAIN, THREE_BITS, model_of
from .util import random_assignment_pairs


def test_table_map_application_and_totality():
    states = enumerate_states(CHAIN)
    tau = StateMap.from_table(tuple((s, s) for s in states))
    assert tau.apply(states[0]) == states[0]
    partial = StateMap.from_table(tuple((s, s) for s in states[:2]))
    with pytest.raises(InputError):
        materialize_state_map(partial, CHAIN.signature, CHAIN.signature)


def test_expr_map_application():
    tau = StateMap.from_exprs({"N": parse_expr("X1 + X2 + X3")})
    assert tau.apply(Assignment(X1=1, X2=0, X3=1)) == Assignment(N=2)


def test_expr_map_keeps_one_image_per_state():
    exprs = {"N": parse_expr("X1 + X2 + X3"), "P": parse_expr("table(X1)[(0) -> 5]")}
    tau = StateMap.from_exprs(exprs)
    state = Assignment(X1=0, X2=1, X3=1)
    image = tau.apply(state)
    assert image == Assignment(N=2, P=5) == StateMap.from_exprs(exprs).apply(state)
    # An equal state, built in another order, gets the very same object.
    assert tau.apply(Assignment(X3=1, X2=1, X1=0)) is image
    # A failed evaluation is not remembered: it fails every time.
    miss = Assignment(X1=1, X2=0, X3=0)
    for _ in range(2):
        with pytest.raises(EvaluationError, match="no entry"):
            tau.apply(miss)


def test_materialize_rejects_out_of_domain_images():
    high = model_of([("W", (0, 1))], [("N", (0, 1))], {"N": "W"})
    tau = StateMap.from_exprs({"N": parse_expr("X1 + X2 + X3")})
    with pytest.raises(InputError):
        materialize_state_map(tau, THREE_BITS.signature, high.signature)


def test_materialize_rejects_wrong_variable_set():
    tau = StateMap.from_exprs({"WRONG": parse_expr("X1")})
    high = model_of([("W", (0, 1))], [("N", (0, 1))], {"N": "W"})
    with pytest.raises(InputError):
        materialize_state_map(tau, CHAIN.signature, high.signature)


def test_identity_map():
    ident = StateMap.identity(CHAIN.signature)
    for s in enumerate_states(CHAIN):
        assert ident.apply(s) == s


def test_compose_state_maps_pointwise():
    counter = model_of([("W", (0, 1, 2, 3))], [("N", (0, 1, 2, 3))], {"N": "W"})
    parity = model_of([("W", (0, 1))], [("P", (0, 1))], {"P": "W"})
    count = StateMap.from_exprs({"N": parse_expr("X1 + X2 + X3")})
    mod2 = StateMap.from_exprs(
        {"P": parse_expr("table(N)[(0) -> 0, (1) -> 1, (2) -> 0, (3) -> 1]")}
    )
    composed = compose_state_maps(
        count, mod2, THREE_BITS.signature, counter.signature
    )
    for s in enumerate_states(THREE_BITS):
        assert composed.apply(s) == mod2.apply(count.apply(s))


def test_context_map_total_lookup():
    cm = ContextMap.from_table(((Assignment(U=0), Assignment(W=1)),))
    assert cm.apply(Assignment(U=0)) == Assignment(W=1)
    with pytest.raises(InputError):
        cm.apply(Assignment(U=1))


def test_state_map_needs_exactly_one_backing():
    with pytest.raises(InputError):
        StateMap()
    with pytest.raises(InputError):
        StateMap(entries=(), exprs=())


@pytest.mark.parametrize(
    "cls, kind, from_obj",
    [
        (ContextMap, "context map", context_map_from_obj),
        (InterventionMap, "intervention map", intervention_map_from_obj),
        (StateMap, "state map", state_map_from_obj),
    ],
    ids=["ContextMap", "InterventionMap", "StateMap"],
)
@given(st.integers(0, 10_000))
def test_finite_map_table_properties(cls, kind, from_obj, seed):
    rng = random.Random(seed)
    pairs = random_assignment_pairs(rng)
    m = cls(tuple(pairs))

    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert cls(tuple(shuffled)).entries == m.entries

    expected = dict(pairs)
    assert {k: m.apply(k) for k in expected} == expected
    assert m.image() == tuple(dict.fromkeys(v for _, v in m.entries))

    if pairs:
        key = rng.choice(pairs)[0]
        with pytest.raises(InputError, match=f"duplicate {kind} entry"):
            cls(tuple(pairs) + ((Assignment(key), Assignment()),))

    obj = to_jsonable(m)
    back = from_obj(obj)
    assert back == m
    assert dumps(to_jsonable(back)) == dumps(obj)

    given_pairs = {k: (k, v) for k, v in pairs}
    for key, value in m.entries:
        src, dst = given_pairs[key]
        assert key is src and value is dst
