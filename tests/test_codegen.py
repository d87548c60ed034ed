"""The generated evaluator and the generated model solver, checked against
the closure interpreter they replaced (tests/util.py), plus the process-wide
cache of generated code and the safety of hostile variable names."""

import builtins
import importlib
import itertools
import pkgutil
import random
import sys

import pytest
from hypothesis import given, strategies as st

import cak
from cak import (
    Assignment,
    CausalModel,
    EMPTY,
    Signature,
    StateMap,
    VariableDecl,
    enumerate_contexts,
    parse_expr,
    solve_under,
)
from cak.errors import EvaluationError, ParseError
from cak.expr import Binary, Ite, Lit, Table, Unary, Var, _levels, _tuple_kernel, compile_expr
from cak.model import _kernel, validate

from .util import (
    BINARY_OPS,
    outcome,
    random_expr,
    random_expr_model,
    random_intervention,
    reference_eval,
    reference_solve_under,
    reference_tau_apply,
)


def _model(exo, endo, equations):
    return CausalModel(
        Signature(
            tuple(VariableDecl(n, d) for n, d in exo),
            tuple(VariableDecl(n, d) for n, d in endo),
        ),
        tuple(equations),
    )


def unchained(fn, *args):
    """outcome(fn, *args), asserting that an error it raises has no other
    exception chained to it: the fast function leaves its handler before
    the exact variant raises."""
    try:
        return ("value", fn(*args))
    except Exception as exc:
        assert exc.__context__ is None and exc.__cause__ is None
        return type(exc), str(exc)


def test_random_expr_draws_every_node_kind():
    rng = random.Random(0)
    seen = set()

    def walk(e):
        seen.add((type(e).__name__, getattr(e, "op", None)))
        if isinstance(e, Table):
            seen.add(("Table", len(e.vars)))
        for child in (getattr(e, f, None) for f in ("arg", "left", "right", "cond", "then", "other")):
            if child is not None:
                walk(child)

    for _ in range(300):
        walk(random_expr(rng, ["A", "B", "C"], depth=3))
    expected = {("Lit", None), ("Var", None), ("Ite", None), ("Table", None)}
    expected |= {("Unary", op) for op in ("-", "!")} | {("Binary", op) for op in BINARY_OPS}
    expected |= {("Table", width) for width in (1, 2, 3)}
    assert expected <= seen


@given(st.integers(0, 2**32))
def test_generated_evaluator_matches_reference(seed):
    rng = random.Random(seed)
    expr = random_expr(rng, ["A", "B", "C"], depth=4)
    fn = compile_expr(expr)
    for combo in itertools.product((-1, 0, 1, 2), repeat=3):
        env = dict(zip("ABC", combo))
        assert unchained(fn, env) == outcome(reference_eval, expr, env)
    partial = {"A": 1, "C": 0}  # B is missing: a KeyError, if B is read
    assert unchained(fn, partial) == outcome(reference_eval, expr, partial)


@given(st.integers(0, 2**32))
def test_generated_solver_matches_reference(seed):
    rng = random.Random(seed)
    model = random_expr_model(rng)
    interventions = [EMPTY] + [random_intervention(rng, model) for _ in range(3)]
    for u, i in itertools.product(enumerate_contexts(model), interventions):
        expected = outcome(reference_solve_under, model, u, i)
        assert unchained(solve_under, model, u, i) == expected
        # The kernel itself, on value tuples: context values, forced values
        # and state values all in name order.
        kernel = model.solver(i._keys)
        context_values = tuple(u[n] for n in sorted(model.signature.exo_names))
        forced = tuple(i[n] for n in sorted(i))
        got = unchained(kernel, context_values, forced)
        if expected[0] == "value":
            state = expected[1]
            expected = ("value", tuple(state[n] for n in sorted(state)))
        assert got == expected


@pytest.mark.parametrize(
    "source,expected",
    [
        ("ite(A == 1, 5, table(A)[(0) -> 1])", 5),
        ("ite(A == 0, table(A)[(0) -> 1], 2)", 2),
        ("A == 0 && table(A)[(0) -> 1]", 0),
        ("A == 1 || table(A)[(0) -> 1]", 1),
    ],
)
def test_untaken_branch_with_missing_table_entry_is_not_evaluated(source, expected):
    # table(A) has no entry for A = 1, which every case below runs with.
    expr = parse_expr(source)
    env = {"A": 1}
    assert compile_expr(expr)(env) == expected == reference_eval(expr, env)
    model = _model([("A", (0, 1))], [("X", (0, 1, 2, 5))], [("X", expr)])
    u = Assignment(A=1)
    assert solve_under(model, u, EMPTY) == Assignment(X=expected)
    assert reference_solve_under(model, u, EMPTY) == Assignment(X=expected)


def test_taken_branch_with_missing_table_entry_raises():
    expr = parse_expr("ite(A == 1, table(A)[(0) -> 1], 5)")
    with pytest.raises(EvaluationError, match=r"table over \('A',\) has no entry for \(1,\)"):
        compile_expr(expr)({"A": 1})
    assert outcome(compile_expr(expr), {"A": 1}) == outcome(reference_eval, expr, {"A": 1})


# A table over A in (0, 1, 2) and B, C in (0, 1), read one variable at a
# time. It lists no key with A = 2, none with (A, B) = (1, 1) and not
# (0, 0, 1), so a read misses at the first, the middle or the last
# variable. (0, 1, 0) is listed twice, and the later entry wins.
_MISSING = Table(
    ("A", "B", "C"),
    (((0, 0, 0), 1), ((0, 1, 0), 0), ((0, 1, 1), 1), ((1, 0, 0), 0), ((1, 0, 1), 1), ((0, 1, 0), 1)),
)
_READS = {
    "hit": (0, 0, 0),
    "duplicate entry": (0, 1, 0),
    "miss at the first variable": (2, 0, 1),
    "miss at the middle variable": (1, 1, 0),
    "miss at the last variable": (0, 0, 1),
    "first value outside the domain": (5, 0, 0),
    "middle value outside the domain": (0, -1, 1),
    "last value outside the domain": (1, 0, 9),
}


@pytest.mark.parametrize("values", list(_READS.values()), ids=list(_READS))
def test_a_table_read_that_misses_at_any_variable_raises_as_the_reference(values):
    env = dict(zip("ABC", values))
    expected = outcome(reference_eval, _MISSING, env)
    assert unchained(compile_expr(_MISSING), env) == expected
    if values in ((0, 0, 0), (0, 1, 0)):
        assert expected == ("value", 1)
    else:
        assert expected == (EvaluationError, f"table over ('A', 'B', 'C') has no entry for {values}")

    # A model reads the table from its context; every value of X is in
    # its domain. Solving does not check the context's values.
    model = _model([("A", (0, 1, 2)), ("B", (0, 1)), ("C", (0, 1))], [("X", (0, 1))], [("X", _MISSING)])
    u = Assignment(env)
    solved = outcome(reference_solve_under, model, u, EMPTY)
    assert unchained(solve_under, model, u, EMPTY) == solved
    assert solved[0] is EvaluationError or solved == ("value", Assignment(X=expected[1]))
    kernel = unchained(model.solver(frozenset()), u._values, ())
    assert kernel == (("value", (solved[1]["X"],)) if solved[0] == "value" else solved)

    # An expression tau reads it from a low state.
    tau = StateMap.from_exprs({"H": Table(("X1", "X2", "X3"), _MISSING.entries)})
    state = Assignment(zip(("X1", "X2", "X3"), values))
    image = outcome(reference_tau_apply, tau, state)
    assert unchained(tau.apply, state) == image
    assert image[0] is EvaluationError or image == ("value", Assignment(H=expected[1]))
    got = unchained(tau._kernel(state._keys), state._values)
    assert got == (("value", (image[1]["H"],)) if image[0] == "value" else image)


@pytest.mark.parametrize("values", [(0, 0), (2, 0), (0, 1), (2, 1)])
def test_an_undeclared_name_in_a_table_raises_its_key_error_before_a_miss(values):
    # Z is declared nowhere, so reading it raises KeyError('Z') whether or
    # not the value read before it has an entry.
    expr = Table(("A", "Z", "B"), (((0, 0, 0), 1),))
    env = dict(zip("AB", values))
    assert unchained(compile_expr(expr), env) == outcome(reference_eval, expr, env) == (KeyError, "'Z'")
    model = _model([("A", (0, 1, 2)), ("B", (0, 1))], [("X", (0, 1))], [("X", expr)])
    u = Assignment(env)
    got = unchained(solve_under, model, u, EMPTY)
    assert got == outcome(reference_solve_under, model, u, EMPTY) == (KeyError, "'Z'")
    tau = StateMap.from_exprs({"H": Table(("X1", "Z", "X2"), expr.entries)})
    state = Assignment(X1=values[0], X2=values[1])
    assert unchained(tau.apply, state) == outcome(reference_tau_apply, tau, state) == (KeyError, "'Z'")


def test_only_a_table_with_an_entry_outside_the_domain_gets_a_domain_test():
    def domain_tests(model):
        solve = model.solver(frozenset())
        return sum(isinstance(v, frozenset) for v in solve.__globals__.values())

    inside = _model([("U", (0, 1))], [("X", (0, 1))], [("X", parse_expr("table(U)[(0) -> 1, (1) -> 0]"))])
    outside = _model([("U", (0, 1))], [("X", (0, 1))], [("X", parse_expr("table(U)[(0) -> 1, (1) -> 2]"))])
    assert domain_tests(inside) == 0 and domain_tests(outside) == 1
    assert solve_under(inside, Assignment(U=1), EMPTY) == Assignment(X=0)
    assert solve_under(outside, Assignment(U=0), EMPTY) == Assignment(X=1)
    with pytest.raises(EvaluationError, match="equation for X produced 2, outside its domain") as exc:
        solve_under(outside, Assignment(U=1), EMPTY)
    assert exc.value.__context__ is None
    for model in (inside, outside):
        for u in enumerate_contexts(model):
            assert outcome(solve_under, model, u, EMPTY) == outcome(reference_solve_under, model, u, EMPTY)


def test_out_of_domain_output_raises_and_forced_values_are_not_checked():
    model = _model(
        [("U", (0, 1))],
        [("X", (0, 1)), ("Y", (0, 1))],
        [("X", parse_expr("U + 1")), ("Y", parse_expr("X"))],
    )
    with pytest.raises(EvaluationError, match="equation for X produced 2, outside its domain"):
        solve_under(model, Assignment(U=1), EMPTY)
    assert solve_under(model, Assignment(U=0), EMPTY) == Assignment(X=1, Y=1)
    # A forced value is taken as given; the equations it feeds are checked.
    with pytest.raises(EvaluationError, match="equation for Y produced 7, outside its domain"):
        solve_under(model, Assignment(U=1), Assignment(X=7))
    assert solve_under(model, Assignment(U=1), Assignment(X=7, Y=0)) == Assignment(X=7, Y=0)
    for u in enumerate_contexts(model):
        for i in (EMPTY, Assignment(X=7), Assignment(X=7, Y=0)):
            assert outcome(solve_under, model, u, i) == outcome(reference_solve_under, model, u, i)


def test_intervention_on_a_non_endogenous_variable_is_ignored():
    model = _model([("U", (0, 1))], [("X", (0, 1))], [("X", parse_expr("U"))])
    for i in (Assignment(U=0), Assignment(Z=1), Assignment(U=0, Z=1)):
        for u in enumerate_contexts(model):
            assert solve_under(model, u, i) == solve_under(model, u, EMPTY)
            assert solve_under(model, u, i) == reference_solve_under(model, u, i)


def test_context_key_set_is_checked():
    model = _model([("U", (0, 1))], [("X", (0, 1))], [("X", parse_expr("U"))])
    for bad in (Assignment(), Assignment(U=0, V=1), Assignment(V=1)):
        got = outcome(solve_under, model, bad, EMPTY)
        assert got == outcome(reference_solve_under, model, bad, EMPTY)
        assert "context must assign exactly the exogenous variables" in got[1]


_NESTINGS = {
    "comparison chain": lambda e: Binary("==", e, Var("A")),
    "ite in the cond position": lambda e: Ite(e, Lit(1), Lit(0)),
    "right-nested subtraction": lambda e: Binary("-", Var("A"), e),
}


def _nested(kind, depth):
    e = Var("A")
    for _ in range(depth):
        e = _NESTINGS[kind](e)
    return e


@pytest.mark.parametrize("kind", list(_NESTINGS))
def test_nesting_past_the_parenthesis_limit_raises_syntax_error(kind):
    # Each level nests one parenthesized sub-expression in the generated
    # code; CPython compiles at most 200 of them.
    model = _model([("A", (0, 1))], [("X", tuple(range(-200, 202)))], [("X", _nested(kind, 200))])
    assert compile_expr(_nested(kind, 200))({"A": 1}) == reference_eval(_nested(kind, 200), {"A": 1})
    assert solve_under(model, Assignment(A=1), EMPTY) == reference_solve_under(model, Assignment(A=1), EMPTY)
    too_deep = _nested(kind, 201)
    with pytest.raises(SyntaxError, match="too many nested parentheses"):
        compile_expr(too_deep)
    with pytest.raises(SyntaxError, match="too many nested parentheses"):
        validate(_model([("A", (0, 1))], [("X", (0, 1))], [("X", too_deep)]))
    # From text, only a comparison chain could get there, since the parser
    # reads it in a loop; parse_expr refuses the tree as too deep.
    if kind == "comparison chain":
        with pytest.raises(ParseError, match="202 levels deep"):
            parse_expr(" == ".join(["A"] * 202))


def test_equal_equations_with_different_domains_keep_their_own_checks():
    equations = [("X", parse_expr("U + 1"))]
    wide = _model([("U", (0, 1))], [("X", (0, 1, 2))], equations)
    narrow = _model([("U", (0, 1))], [("X", (0, 1))], equations)
    for _ in range(2):
        assert solve_under(wide, Assignment(U=1), EMPTY) == Assignment(X=2)
        with pytest.raises(EvaluationError, match="equation for X produced 2"):
            solve_under(narrow, Assignment(U=1), EMPTY)
    assert wide.solver(frozenset()) is not narrow.solver(frozenset())


def test_structurally_equal_models_share_generated_code():
    model = _model([("U", (0, 1))], [("X", (0, 1))], [("X", parse_expr("U"))])
    copy = model.with_allowed((EMPTY, Assignment(X=1)))
    rebuilt = _model([("U", (0, 1))], [("X", (0, 1))], [("X", parse_expr("U"))])
    for names in (frozenset(), frozenset({"X"})):
        assert copy.solver(names) is model.solver(names)
        assert rebuilt.solver(names) is model.solver(names)
    assert model.solver(frozenset()) is not model.solver(frozenset({"X"}))


def test_equal_solutions_of_one_model_are_one_object():
    model = _model([("U", (0, 1, 2))], [("X", (0, 1))], [("X", parse_expr("ite(U == 0, 0, 1)"))])
    zero, one, also_one = (solve_under(model, Assignment(U=u), EMPTY) for u in (0, 1, 2))
    assert one is also_one and zero is not one and zero == Assignment(X=0)
    assert solve_under(model, Assignment(U=0), Assignment(X=1)) is one
    # Out of the domain, a forced value is kept as given.
    assert solve_under(model, Assignment(U=0), Assignment(X=7)) == Assignment(X=7)
    copy = model.with_allowed((EMPTY,))
    assert solve_under(copy, Assignment(U=1), EMPTY) == one
    assert solve_under(copy, Assignment(U=1), EMPTY) is one


def test_caches_of_generated_code_stay_within_their_bounds():
    caches = (_kernel, _tuple_kernel, _levels, compile_expr)
    bound = _kernel.cache_info().maxsize
    assert bound is not None and all(c.cache_info().maxsize is not None for c in caches)
    for k in range(bound + 20):
        model = _model([("U", (0,))], [("X", (k,))], [("X", Lit(k))])
        assert solve_under(model, Assignment(U=0), EMPTY) == Assignment(X=k)
        assert compile_expr(Binary("+", Var("A"), Lit(k)))({"A": 1}) == k + 1
        assert compile_expr(Table(("A",), (((1,), k),)))({"A": 1}) == k
        tau = StateMap.from_exprs({"H": Binary("+", Var("X"), Lit(k))})
        assert tau.apply(Assignment(X=1)) == Assignment(H=k + 1)
    for cache in caches:
        assert cache.cache_info().currsize <= cache.cache_info().maxsize
    # An evicted structure is generated again, with the same result.
    first = _model([("U", (0,))], [("X", (0,))], [("X", Lit(0))])
    assert solve_under(first, Assignment(U=0), EMPTY) == Assignment(X=0)


def test_every_lru_cache_in_cak_has_a_bound():
    # A cache keyed by models, tables or expressions keeps each key alive,
    # so an unbounded one grows with every distinct model a process checks.
    for info in pkgutil.iter_modules(cak.__path__):
        importlib.import_module(f"cak.{info.name}")
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "cak" or name.startswith("cak."):
            spaces = [vars(module), *(vars(c) for c in vars(module).values() if isinstance(c, type))]
            for space in spaces:
                for attr, value in space.items():
                    if hasattr(value, "cache_parameters"):
                        caches[f"{name}.{attr}"] = value.cache_parameters()["maxsize"]
    assert {"cak.expr.variables", "cak.expr._levels", "cak.expr._tuple_kernel", "cak.model._kernel"} <= set(caches)
    assert [name for name, bound in caches.items() if bound is None] == []


_PAYLOAD = "__import__('builtins').__dict__.__setitem__('cak_injected', 1)"
_HOSTILE = [
    f"a) or {_PAYLOAD} or (a",
    f"a] or {_PAYLOAD} or env[a",
    f"a')] or {_PAYLOAD} or env[('a",
    f"a\n{_PAYLOAD}\n",
]


@pytest.mark.parametrize("name", _HOSTILE)
def test_hostile_variable_names_never_run(name):
    exprs = [
        Var(name),
        Table((name,), (((0,), 7),)),
        Ite(Var(name), Unary("-", Var(name)), Binary("||", Var(name), Lit(0))),
    ]
    for expr in exprs:
        for env in ({}, {name: 0}, {name: 1}):
            assert outcome(compile_expr(expr), env) == outcome(reference_eval, expr, env)
    assert compile_expr(Var(name))({name: 3}) == 3
    with pytest.raises(ParseError, match="a literal must be an int"):
        Lit(_PAYLOAD)

    # Var names are not validated: an equation may read an undeclared one.
    model = _model([("U", (0, 1))], [("X", (0, 1))], [("X", Var(name))])
    for i in (EMPTY, Assignment({name: 1}), Assignment(X=1)):
        for u in enumerate_contexts(model):
            got = outcome(solve_under, model, u, i)
            assert got == outcome(reference_solve_under, model, u, i)
    assert outcome(solve_under, model, Assignment(U=0), EMPTY) == (KeyError, repr(name))
    assert "cak_injected" not in vars(builtins)
