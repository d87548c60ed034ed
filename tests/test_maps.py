import random

import pytest
from hypothesis import given, strategies as st

from cak import (
    EMPTY,
    Assignment,
    ContextMap,
    InputError,
    InterventionMap,
    StateMap,
    check_strong_abstraction,
    check_tau_abstraction,
    derive_omega_tau,
    enumerate_states,
    materialize_state_map,
    parse_expr,
)
from cak.abstraction import _TauTable
from cak.corpus import all_bundles, build_voting, get_bundle
from cak.errors import EvaluationError
from cak.maps import compose_state_maps, tabulate
from cak.serialize import (
    context_map_from_obj,
    dumps,
    intervention_map_from_obj,
    state_map_from_obj,
    to_jsonable,
)

from .test_model import CHAIN, THREE_BITS, model_of
from .util import (
    outcome,
    random_assignment_pairs,
    random_expr_state_map,
    random_model,
    random_state_map,
    reference_finite_map_entries,
    reference_tau_apply,
    reference_tau_table,
)


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


def test_an_expression_map_interns_its_images():
    # Equal images of different states are one object, and the table that
    # tabulate builds holds the objects that apply returns.
    b = build_voting(4, 2, 1)
    table = tabulate(b.tau, b.low.signature, b.high.signature)
    assert len({*map(id, table.values())}) == len(set(table.values())) < len(table)
    for state, image in zip(enumerate_states(b.low), table.values()):
        assert b.tau.apply(state) is image
    assert b.tau.apply(Assignment(enumerate_states(b.low)[0])) is next(iter(table.values()))


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


def test_a_state_map_has_one_expression_per_high_variable():
    # The profile pass reads each high variable's value from its one
    # expression, so a second one for a name is refused.
    x, one = parse_expr("X"), parse_expr("1")
    with pytest.raises(InputError, match="^state map has more than one expression for Y$"):
        StateMap(exprs=(("Y", x), ("Z", x), ("Y", one)))


@pytest.mark.parametrize("name", ["TH", "H"])
def test_a_state_map_reads_a_dict_of_expressions_as_its_items(name):
    tau = StateMap(exprs={name: parse_expr("X")})
    assert tau == StateMap.from_exprs({name: parse_expr("X")})
    assert tau.exprs == ((name, parse_expr("X")),)
    assert tau.apply(Assignment(X=1)) == Assignment({name: 1})


@pytest.mark.parametrize("cls", [ContextMap, InterventionMap, StateMap])
def test_a_finite_map_reads_a_dict_as_its_entries(cls):
    pairs = {Assignment(U=1): Assignment(V=0), Assignment(U=0): Assignment(V=1)}
    table = cls(pairs)
    assert table == cls.from_pairs(pairs.items())
    assert table.apply(Assignment(U=1)) == Assignment(V=0)


def test_the_image_of_an_expression_map_is_an_input_error():
    tau = StateMap.from_exprs({"N": parse_expr("X1 + X2")})
    with pytest.raises(InputError, match="^an expression-backed state map's image depends on the low states"):
        tau.image()
    counter = model_of([("W", (0, 1, 2))], [("N", (0, 1, 2))], {"N": "W"})
    table = StateMap(materialize_state_map(tau, CHAIN.signature, counter.signature))
    assert table.image() == (Assignment(N=0), Assignment(N=1), Assignment(N=2))


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


@pytest.mark.parametrize("cls", [ContextMap, InterventionMap, StateMap])
@pytest.mark.parametrize("seed", range(25))
def test_finite_map_entries_match_a_reference_sort(cls, seed):
    # Entries that arrive in canonical order, as pair tuples of Assignments,
    # are kept without a sort; every other order, a repeated key, a
    # plain-dict key and a pair given as a list take the sort.
    rng = random.Random(seed)
    pairs = sorted(random_assignment_pairs(rng), key=lambda pair: pair[0].items_sorted)
    cases = {
        "canonical": pairs,
        "reversed": pairs[::-1],
        "shuffled": rng.sample(pairs, len(pairs)),
        "plain-dict keys": [(dict(k), v) for k, v in pairs],
        "list pairs": [[k, v] for k, v in pairs],
    }
    if pairs:
        k = rng.randrange(len(pairs))
        again = (Assignment(pairs[k][0]), Assignment())
        cases["adjacent duplicate"] = pairs[: k + 1] + [again] + pairs[k + 1:]
        cases["distant duplicate"] = pairs + [(Assignment(pairs[0][0]), Assignment())]
    for name, entries in cases.items():
        got = outcome(lambda e: cls(e).entries, tuple(entries))
        assert got == outcome(reference_finite_map_entries, cls.kind, entries), name
        if got[0] == "value":  # every Assignment given is kept, not copied
            given = {id(x) for pair in entries for x in pair if isinstance(x, Assignment)}
            assert {id(x) for pair in got[1] for x in pair} >= given, name


# ---------------------------------------------------------------------------
# The generated tau and the tau table against the slow semantics

def _fresh(tau: StateMap) -> StateMap:
    # A copy with no images kept and no kernel built yet.
    return StateMap(tau.entries, tau.exprs)


def _table(low, high, tau):
    return list(_TauTable(low, high, tau).by_values.items())


def _materialized(low, high, tau):
    names = low.signature.endo_names
    table = materialize_state_map(tau, low.signature, high.signature)
    return [(tuple(s[n] for n in names), image) for s, image in table.items()]


def _reference(low, high, tau):
    return list(reference_tau_table(tau, low.signature, high.signature).items())


@pytest.mark.parametrize("seed", range(60))
def test_tau_matches_the_reference_on_random_models(seed):
    rng = random.Random(seed)
    low, high = random_model(rng), random_model(rng)
    maps = (random_state_map(rng, low, high), random_expr_state_map(rng, low, high), StateMap.identity(low.signature))
    for tau in maps:
        expected = outcome(_reference, low, high, tau)
        assert outcome(_table, low, high, _fresh(tau)) == expected
        assert outcome(_materialized, low, high, _fresh(tau)) == expected
        for state in enumerate_states(low):
            assert outcome(tau.apply, state) == outcome(reference_tau_apply, tau, state)
            # A state lacking a variable, as an intervention is.
            partial = Assignment(state.items_sorted[1:])
            assert outcome(tau.apply, partial) == outcome(reference_tau_apply, tau, partial)


@pytest.mark.parametrize("name", [b.name for b in all_bundles()])
def test_tau_matches_the_reference_on_every_bundle(name):
    b = get_bundle(name)
    tau = _fresh(b.tau)
    assert _table(b.low, b.high, tau) == _reference(b.low, b.high, b.tau)
    for state in enumerate_states(b.low):
        assert tau.apply(state) == reference_tau_apply(b.tau, state)


WIDE = model_of([("W", (0, 1, 2, 3))], [("N", (0, 1, 2, 3))], {"N": "W"})


def test_tau_errors_match_the_reference():
    def expect(tau, kind, message):
        reference = outcome(_reference, THREE_BITS, WIDE, tau)
        assert reference == (kind, message)
        assert outcome(_table, THREE_BITS, WIDE, _fresh(tau)) == reference
        assert outcome(_materialized, THREE_BITS, WIDE, _fresh(tau)) == reference

    # A table expression missing an entry, first needed at an interior state.
    partial = StateMap.from_exprs({"N": parse_expr("table(X1, X2)[(0, 0) -> 0, (1, 0) -> 1, (1, 1) -> 2]")})
    expect(partial, EvaluationError, "table over ('X1', 'X2') has no entry for (0, 1)")
    # A bad image before a missing entry is named first, and the reverse.
    bad_first = "table(X1, X2)[(0, 0) -> 0, (0, 1) -> 7, (1, 0) -> 1]"
    expect(
        StateMap.from_exprs({"N": parse_expr(bad_first)}),
        InputError,
        "state map sends Assignment(X1=0, X2=1, X3=0) to out-of-domain value N=7",
    )
    missing_first = "table(X1, X2)[(0, 0) -> 0, (1, 0) -> 1, (1, 1) -> 7]"
    expect(StateMap.from_exprs({"N": parse_expr(missing_first)}), EvaluationError, "table over ('X1', 'X2') has no entry for (0, 1)")
    # A table map missing a row, with and without a bad image before it.
    states = enumerate_states(THREE_BITS)
    rows = [(s, Assignment(N=k % 4)) for k, s in enumerate(states)]
    expect(StateMap.from_table(rows[:5] + rows[6:]), InputError, f"state map is undefined on {states[5]!r}")
    rows[2] = (states[2], Assignment(N=9))
    expect(StateMap.from_table(rows[:5] + rows[6:]), InputError, f"state map sends {states[2]!r} to out-of-domain value N=9")

    # Two expressions failing at one state: the first in name order raises.
    both = StateMap.from_exprs({"N": parse_expr("table(X2)[(1) -> 0]"), "M": parse_expr("table(X1)[(1) -> 0]")})
    expect(both, EvaluationError, "table over ('X1',) has no entry for (0,)")
    assert outcome(both.apply, states[0]) == (EvaluationError, "table over ('X1',) has no entry for (0,)")

    # Applying tau to a state lacking a variable it reads.
    tau = StateMap.from_exprs({"M": parse_expr("X1"), "N": parse_expr("X1 + X3")})
    short = Assignment(X1=1, X2=0)
    assert outcome(tau.apply, short) == outcome(reference_tau_apply, tau, short) == (KeyError, "'X3'")


def test_an_interior_bad_image_is_named_by_every_check():
    # States 3, 5 and 7 have images outside N's domain; state 3 is named.
    tau = StateMap.from_exprs({"N": parse_expr("X1 + 2 * X2 + 3 * X3")})
    message = "state map sends Assignment(X1=0, X2=1, X3=1) to out-of-domain value N=5"
    assert outcome(_reference, THREE_BITS, WIDE, tau) == (InputError, message)
    for check in (check_tau_abstraction, check_strong_abstraction):
        assert outcome(check, THREE_BITS, WIDE, _fresh(tau)) == (InputError, message)
    assert outcome(derive_omega_tau, THREE_BITS, WIDE, _fresh(tau), EMPTY) == (InputError, message)
