import itertools
import random

import pytest
from hypothesis import given, strategies as st

from cak import (
    And,
    Assignment,
    CausalFormula,
    CausalModel,
    CyclicModelError,
    EMPTY,
    Event,
    InputError,
    Not,
    Or,
    Signature,
    VariableDecl,
    apply_intervention,
    check_uev,
    dependency_order,
    enumerate_contexts,
    enumerate_states,
    eval_formula,
    parse_expr,
    solve,
    solve_under,
    validate,
)
from cak.corpus import build_gated_extension
from cak.model import iter_contexts

from .util import (
    outcome,
    random_expr_model,
    random_intervention,
    random_model,
    reference_solve_under,
)


def model_of(exo, endo, eqs, allowed="all"):
    return CausalModel(
        Signature(
            tuple(VariableDecl(n, tuple(d)) for n, d in exo),
            tuple(VariableDecl(n, tuple(d)) for n, d in endo),
        ),
        tuple((n, parse_expr(s)) for n, s in eqs.items()),
        allowed,
    )


CHAIN = model_of(
    [("U1", (0, 1)), ("U2", (0, 1))],
    [("X1", (0, 1)), ("X2", (0, 1))],
    {"X1": "U1", "X2": "X1"},
)

THREE_BITS = model_of(
    [("U1", (0, 1)), ("U2", (0, 1)), ("U3", (0, 1))],
    [("X1", (0, 1)), ("X2", (0, 1)), ("X3", (0, 1))],
    {"X1": "U1", "X2": "U2", "X3": "U3"},
)


# ---------------------------------------------------------------------------
# validate

def test_validate_reports_smallest_cycle():
    m = model_of(
        [("U", (0, 1))],
        [("X1", (0, 1)), ("X2", (0, 1))],
        {"X1": "X2", "X2": "X1"},
    )
    diags = validate(m)
    assert len(diags) == 1 and diags[0].kind == "cycle"
    assert "X1" in diags[0].message and "X2" in diags[0].message
    with pytest.raises(CyclicModelError):
        dependency_order(m)


def test_validate_out_of_domain_with_witness():
    m = model_of([("U", (0, 1))], [("X", (0, 1))], {"X": "U + 1"})
    diags = validate(m)
    assert [d.kind for d in diags] == ["out-of-domain"]
    assert diags[0].witness == Assignment(U=1)


def test_validate_clean_model():
    assert validate(THREE_BITS) == []


def test_validate_unknown_reference():
    m = model_of([("U", (0, 1))], [("X", (0, 1))], {"X": "Z"})
    assert [d.kind for d in validate(m)] == ["unknown-variable"]


def test_validate_bad_interventions():
    m = model_of(
        [("U", (0, 1))],
        [("X", (0, 1))],
        {"X": "U"},
        allowed=(Assignment(X=7), Assignment(U=0)),
    )
    kinds = [d.kind for d in validate(m)]
    assert kinds == ["bad-intervention", "bad-intervention"]


def test_table_gap_reported_as_out_of_domain():
    m = model_of([("U", (0, 1))], [("X", (0, 1))], {"X": "table(U)[(0) -> 1]"})
    diags = validate(m)
    assert diags and all(d.kind == "out-of-domain" for d in diags)


# ---------------------------------------------------------------------------
# solving

def test_solve_chain():
    assert solve(CHAIN, Assignment(U1=1, U2=0)) == Assignment(X1=1, X2=1)


def test_solve_under_overrides_upstream():
    got = solve_under(CHAIN, Assignment(U1=0, U2=0), Assignment(X1=1))
    assert got == Assignment(X1=1, X2=1)


def test_three_bit_intervention():
    got = solve_under(THREE_BITS, Assignment(U1=0, U2=0, U3=1), Assignment(X3=0))
    assert got == Assignment(X1=0, X2=0, X3=0)


def test_solve_rejects_malformed_context():
    with pytest.raises(InputError):
        solve(CHAIN, Assignment(U1=1))
    with pytest.raises(InputError):
        solve(CHAIN, Assignment(U1=1, WRONG=0))


def test_empty_intervention_is_solve():
    for u in enumerate_contexts(CHAIN):
        assert solve_under(CHAIN, u, EMPTY) == solve(CHAIN, u)


@given(st.integers(0, 10_000), st.data())
def test_full_intervention_forces_the_state(seed, data):
    rng = random.Random(seed)
    m = random_model(rng)
    u = data.draw(st.sampled_from(enumerate_contexts(m)))
    v = data.draw(st.sampled_from(enumerate_states(m)))
    assert solve_under(m, u, v) == v


@given(st.integers(0, 10_000))
def test_solve_under_matches_apply_intervention(seed):
    rng = random.Random(seed)
    m = random_model(rng)
    state = rng.choice(enumerate_states(m))
    names = rng.sample(m.signature.endo_names, rng.randint(0, len(m.signature.endo_names)))
    i = Assignment({n: state[n] for n in names})
    for u in enumerate_contexts(m):
        assert solve_under(m, u, i) == solve(apply_intervention(m, i), u)


def test_intervention_composition_disjoint():
    i1, i2 = Assignment(X1=1), Assignment(X3=0)
    once = apply_intervention(apply_intervention(THREE_BITS, i1), i2)
    joint = apply_intervention(THREE_BITS, Assignment(X1=1, X3=0))
    assert once.equations == joint.equations


def test_apply_intervention_identity_and_full():
    assert apply_intervention(CHAIN, EMPTY) is CHAIN
    full = apply_intervention(CHAIN, Assignment(X1=0, X2=1))
    for u in enumerate_contexts(CHAIN):
        assert solve(full, u) == Assignment(X1=0, X2=1)


def test_solution_ignores_declaration_order():
    reordered = CausalModel(
        Signature(
            tuple(reversed(CHAIN.signature.exogenous)),
            tuple(reversed(CHAIN.signature.endogenous)),
        ),
        CHAIN.equations,
        "all",
    )
    for u in enumerate_contexts(CHAIN):
        assert solve(reordered, u) == solve(CHAIN, u)


# ---------------------------------------------------------------------------
# formulas

def test_formula_with_prefix():
    f = CausalFormula(Assignment(X1=0), Event("X2", 0))
    assert eval_formula(CHAIN, Assignment(U1=1, U2=0), f) is True


def test_formula_tautology():
    body = Or((Event("X1", 1), Not(Event("X1", 1))))
    for u in enumerate_contexts(CHAIN):
        assert eval_formula(CHAIN, u, CausalFormula(Assignment(X2=0), body))


def test_formula_three_bits_conjunction():
    f = CausalFormula(EMPTY, And((Event("X1", 1), Not(Event("X2", 1)))))
    assert eval_formula(THREE_BITS, Assignment(U1=1, U2=0, U3=0), f) is True


def test_formula_unknown_variable():
    with pytest.raises(InputError):
        eval_formula(CHAIN, Assignment(U1=0, U2=0), CausalFormula(EMPTY, Event("Q", 1)))


@given(st.integers(0, 5_000))
def test_conjunction_distributes_over_shared_prefix(seed):
    rng = random.Random(seed)
    m = random_model(rng)
    u = rng.choice(enumerate_contexts(m))
    var = m.signature.endogenous[0]
    e1, e2 = Event(var.name, var.domain[0]), Event(var.name, var.domain[-1])
    prefix = EMPTY
    both = eval_formula(m, u, CausalFormula(prefix, And((e1, e2))))
    split = eval_formula(m, u, CausalFormula(prefix, e1)) and eval_formula(
        m, u, CausalFormula(prefix, e2)
    )
    assert both == split


# ---------------------------------------------------------------------------
# dependency order

def test_dependency_order_chain():
    assert dependency_order(CHAIN) == ["X1", "X2"]


def test_dependency_order_exogenous_only_is_declaration_order():
    assert dependency_order(THREE_BITS) == ["X1", "X2", "X3"]


def test_dependency_order_gate_first():
    gated = build_gated_extension().high
    order = dependency_order(gated)
    assert order[0] == "G"


# ---------------------------------------------------------------------------
# private exogenous inputs

def test_uev_holds_for_chain_with_spare():
    report = check_uev(CHAIN)
    assert report.verdict
    assert report.witness == {"X1": "U1", "X2": "U2"}


def test_uev_fails_on_shared_exogenous():
    m = model_of(
        [("U", (0, 1)), ("V", (0, 1))],
        [("X1", (0, 1)), ("X2", (0, 1))],
        {"X1": "U", "X2": "U"},
    )
    report = check_uev(m)
    assert not report.verdict
    assert report.counterexample["shared"] == "U"


def test_uev_fails_on_double_dependence():
    m = model_of(
        [("U", (0, 1)), ("V", (0, 1))],
        [("X", (0, 1))],
        {"X": "U && V"},
    )
    report = check_uev(m)
    assert not report.verdict
    assert set(report.counterexample["exogenous"]) == {"U", "V"}


def test_uev_fails_when_no_spare_left():
    m = model_of(
        [("U", (0, 1))],
        [("X1", (0, 1)), ("X2", (0, 1))],
        {"X1": "U", "X2": "1"},
    )
    report = check_uev(m)
    assert not report.verdict
    assert report.counterexample["unassigned"] == ("X2",)


def test_uev_ignores_vacuous_reference():
    # X2 references U syntactically but the equation never varies with it.
    m = model_of(
        [("U", (0, 1)), ("V", (0, 1))],
        [("X1", (0, 1)), ("X2", (0, 1))],
        {"X1": "U", "X2": "U * 0"},
    )
    assert check_uev(m).verdict


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_contexts_declaration_lexicographic():
    got = enumerate_contexts(CHAIN)
    assert got[:2] == [Assignment(U1=0, U2=0), Assignment(U1=0, U2=1)]
    assert len(got) == 4


def test_enumerate_states_size():
    assert len(enumerate_states(THREE_BITS)) == 8


def test_enumerated_assignments_keep_declaration_order_and_share_key_sets():
    # Declared out of name order, so the name-ordered items are a reordering.
    sig = Signature(
        (VariableDecl("V", (0, 1, 2)), VariableDecl("U", (0, 1)), VariableDecl("W", (3,))),
        (VariableDecl("Y", (0, 1)), VariableDecl("X", (2, 0)), VariableDecl("Z", (1,))),
    )
    model = CausalModel(sig, (("Y", parse_expr("U")), ("X", parse_expr("0")), ("Z", parse_expr("1"))))
    assert model._exo_keyset is sig.exo_keyset
    for space, decls, keys in (
        (enumerate_contexts(sig), sig.exogenous, sig.exo_keyset),
        (enumerate_states(model), sig.endogenous, sig.endo_keyset),
    ):
        names = tuple(d.name for d in decls)
        assert [tuple(dict(a).values()) for a in space] == list(
            itertools.product(*(d.domain for d in decls))
        )
        for a in space:
            assert tuple(a) == tuple(dict(a)) == names
            rebuilt = Assignment(dict(a))
            assert a == rebuilt and hash(a) == hash(rebuilt)
            assert not a < rebuilt and not rebuilt < a
            assert a.items_sorted == rebuilt.items_sorted
            assert a._values == rebuilt._values == tuple(v for _, v in a.items_sorted)
            assert a._keys is keys


def _unsorted_decls(rng: random.Random, names: list[str]) -> tuple[VariableDecl, ...]:
    """Declarations of `names` out of name order, each over a domain of one
    to three values in random order."""
    names = rng.sample(names, len(names))
    if names == sorted(names):
        names.reverse()
    return tuple(VariableDecl(n, tuple(rng.sample(range(-1, 4), rng.randint(1, 3)))) for n in names)


# What a caller can read of an assignment, each compared with an assignment
# built from its pairs; "==" and "<" compare it with every such assignment.
_ASSIGNMENT_VIEWS = {
    "==": lambda a, refs, names: [(a == r, a != r) for r in refs],
    "hash": lambda a, refs, names: hash(a),
    "<": lambda a, refs, names: [(a < r, r < a) for r in refs],
    "iteration": lambda a, refs, names: list(a),
    "dict": lambda a, refs, names: list(dict(a).items()),
    "repr": lambda a, refs, names: repr(a),
    "get": lambda a, refs, names: [(a.get(n), a.get(n, "none")) for n in names],
    "in": lambda a, refs, names: [n in a for n in names],
    "len": lambda a, refs, names: len(a),
}


@pytest.mark.parametrize("seed", range(12))
def test_enumerated_assignments_read_as_assignments_built_from_their_pairs(seed):
    # An enumerated context or state builds its dict on first use. Whatever
    # is read of it first, and everything read after, matches an Assignment
    # built from its declaration-order pairs.
    rng = random.Random(seed)
    pool = ["A", "B", "Q", "U", "V", "W", "X", "Z"]
    exo_names = rng.sample(pool, rng.randint(2, 4))
    endo_names = rng.sample([n for n in pool if n not in exo_names], rng.randint(2, 4))
    sig = Signature(_unsorted_decls(rng, exo_names), _unsorted_decls(rng, endo_names))
    names = pool + ["a", "missing"]
    for space, decls in (
        (lambda: iter_contexts(sig), sig.exogenous),
        (lambda: enumerate_contexts(sig), sig.exogenous),
        (lambda: enumerate_states(sig), sig.endogenous),
    ):
        names_in_order = [d.name for d in decls]
        refs = [Assignment(zip(names_in_order, values)) for values in itertools.product(*(d.domain for d in decls))]
        for view in _ASSIGNMENT_VIEWS.values():
            fresh = list(space())
            assert all(a._dict is None and a._hash is None for a in fresh)  # built on first use
            assert [view(a, refs, names) for a in fresh] == [view(r, refs, names) for r in refs]
            for other in _ASSIGNMENT_VIEWS.values():
                assert [other(a, refs, names) for a in fresh] == [other(r, refs, names) for r in refs]


@given(st.integers(0, 2**32))
def test_solve_under_matches_reference_on_every_kind_of_context(seed):
    rng = random.Random(seed)
    base = random_expr_model(rng)
    # Reversed declarations: context values reach the solver in name order.
    sig = Signature(base.signature.exogenous[::-1], base.signature.endogenous[::-1])
    model = CausalModel(sig, base.equations)
    interventions = [EMPTY] + [random_intervention(rng, model) for _ in range(3)]
    for u in enumerate_contexts(model):
        pairs = list(u.items())
        rng.shuffle(pairs)
        for context in (u, Assignment(dict(u)), Assignment(pairs)):
            for i in interventions:
                expected = outcome(reference_solve_under, model, context, i)
                assert outcome(solve_under, model, context, i) == expected


# ---------------------------------------------------------------------------
# cones

CHAIN3 = model_of(
    [("U1", (0, 1)), ("U2", (0, 1)), ("U3", (0, 1))],
    [("X1", (0, 1)), ("X2", (0, 1)), ("X3", (0, 1))],
    {"X1": "U1", "X2": "X1 || U2", "X3": "X2 && U3"},
)


def test_forcing_a_chain_drops_the_exogenous_variables_upstream():
    def cone(*names):
        return CHAIN3.cone(frozenset(names))

    assert cone() == ("U1", "U2", "U3")
    assert cone("X1") == ("U2", "U3")
    assert cone("X1", "X2") == ("U3",)
    assert cone("X2") == ("U1", "U3")  # X1 is still solved and reads U1
    assert cone("X1", "X2", "X3") == ()
    assert cone("X3", "Q") == ("U1", "U2")  # names outside the model change nothing


def test_cone_keeps_one_value_domains_and_skips_undeclared_names():
    # Declaration order, not name order; Z is declared nowhere.
    m = model_of(
        [("U2", (0, 1)), ("U1", (5,))],
        [("X1", (0, 1)), ("X2", (0, 1))],
        {"X1": "U1 - 5 + U2", "X2": "Z"},
    )
    assert m.cone(frozenset()) == ("U2", "U1")
    assert m.cone(frozenset({"X1"})) == ()
    assert m.cone(frozenset({"X2"})) == ("U2", "U1")
    for u in enumerate_contexts(m):
        assert outcome(solve_under, m, u, EMPTY) == (KeyError, "'Z'")


@given(st.integers(0, 2**32))
def test_contexts_that_agree_on_the_cone_solve_alike(seed):
    rng = random.Random(seed)
    model = random_expr_model(rng) if seed % 2 else random_model(rng, max_exo=3)
    for i in [EMPTY] + [random_intervention(rng, model) for _ in range(3)]:
        cone = model.cone(i._keys)
        by_point: dict[tuple, set] = {}
        for u in enumerate_contexts(model):
            result = outcome(solve_under, model, u, i)
            by_point.setdefault(tuple(u[n] for n in cone), set()).add(result)
        assert all(len(results) == 1 for results in by_point.values())
