import re

import pytest
from hypothesis import given, strategies as st

from cak.errors import EvaluationError, ParseError
from cak.expr import (
    MAX_DEPTH,
    Binary,
    Ite,
    Lit,
    Table,
    Unary,
    Var,
    evaluate,
    parse_expr,
    to_source,
    variables,
)


@pytest.mark.parametrize(
    "source,env,expected",
    [
        ("1 + 2 * 3", {}, 7),
        ("(1 + 2) * 3", {}, 9),
        ("2 - 3 - 1", {}, -2),
        ("-X + 1", {"X": 5}, -4),
        ("!0", {}, 1),
        ("!3", {}, 0),
        ("1 == 1", {}, 1),
        ("2 < 1", {}, 0),
        ("1 <= 1", {}, 1),
        ("1 && 0", {}, 0),
        ("2 && 3", {}, 1),
        ("0 || 2", {}, 1),
        ("0 || 0 && 1", {}, 0),  # && binds tighter than ||
        ("1 == 1 && 0 == 0", {}, 1),  # comparisons bind tighter than &&
        ("ite(X == 1, 10, 20)", {"X": 1}, 10),
        ("ite(X == 1, 10, 20)", {"X": 0}, 20),
        ("U + 1", {"U": 1}, 2),
        ("X1 || X3", {"X1": 0, "X3": 1}, 1),
    ],
)
def test_eval(source, env, expected):
    assert evaluate(parse_expr(source), env) == expected


def test_table_parse_and_eval():
    e = parse_expr("table(A, B)[(0, 0) -> 0, (0, 1) -> 1, (1, 0) -> 1, (1, 1) -> 0]")
    assert isinstance(e, Table)
    assert variables(e) == {"A", "B"}
    assert evaluate(e, {"A": 1, "B": 0}) == 1
    assert evaluate(e, {"A": 1, "B": 1}) == 0


def test_table_single_variable_and_negatives():
    e = parse_expr("table(C)[(0) -> -2, (1) -> 3]")
    assert evaluate(e, {"C": 0}) == -2
    assert evaluate(e, {"C": 1}) == 3


def test_table_missing_entry_raises():
    e = parse_expr("table(A)[(0) -> 1]")
    with pytest.raises(EvaluationError):
        evaluate(e, {"A": 1})


@pytest.mark.parametrize(
    "bad",
    [
        "1 +",
        "(1",
        "ite(1, 2)",
        "table(A)[(0) -> 1, (0) -> 2]",  # duplicate entry
        "table(A)[(0, 1) -> 1]",  # arity mismatch
        "foo bar",
        "1 @ 2",
        "table()[() -> 1]",
        "table(A)[(0) -> x]",  # non-integer output
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expr(bad)


@pytest.mark.parametrize("value", [True, 1.0, "1"], ids=repr)
def test_a_literal_is_exactly_an_int(value):
    # True and 1.0 equal 1, so the caches keyed by value would merge them
    # with it; "1" is no number at all.
    with pytest.raises(ParseError, match=f"a literal must be an int, got {re.escape(repr(value))}$"):
        Lit(value)


@pytest.mark.parametrize(
    "nest,value",
    [
        (lambda n: " == ".join(["A"] * n), 1),
        (lambda n: " + ".join(["A"] * n), MAX_DEPTH),
        (lambda n: "ite(" * (n - 1) + "A" + ", 1, 0)" * (n - 1), 1),
        (lambda n: "-" * (n - 1) + "A", (-1) ** (MAX_DEPTH - 1)),
    ],
    ids=["comparison chain", "sum", "ite in the cond position", "negations"],
)
def test_parse_accepts_trees_up_to_the_depth_bound(nest, value):
    assert evaluate(parse_expr(nest(MAX_DEPTH)), {"A": 1}) == value
    with pytest.raises(ParseError, match=f"{MAX_DEPTH + 1} levels deep"):
        parse_expr(nest(MAX_DEPTH + 1))


def test_variables_collects_all_references():
    e = parse_expr("ite(A == 1, B + C, table(D)[(0) -> 1, (1) -> 0])")
    assert variables(e) == {"A", "B", "C", "D"}


_LEAVES = st.one_of(
    st.integers(min_value=0, max_value=9).map(Lit),
    st.sampled_from(["A", "B", "C"]).map(Var),
)


def _exprs(children):
    ops = st.sampled_from(["+", "-", "*", "==", "<", "<=", "&&", "||"])
    return st.one_of(
        st.tuples(ops, children, children).map(lambda t: Binary(*t)),
        st.tuples(st.sampled_from(["-", "!"]), children).map(lambda t: Unary(*t)),
        st.tuples(children, children, children).map(lambda t: Ite(*t)),
        st.builds(
            lambda out0, out1: Table.from_mapping(("A",), {(0,): out0, (1,): out1}),
            st.integers(-5, 5),
            st.integers(-5, 5),
        ),
    )


expr_trees = st.recursive(_LEAVES, _exprs, max_leaves=12)


@given(expr_trees)
def test_source_round_trip(tree):
    assert parse_expr(to_source(tree)) == tree


@given(expr_trees, st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_round_trip_preserves_semantics(tree, a, b, c):
    env = {"A": a, "B": b, "C": c}
    reparsed = parse_expr(to_source(tree))
    assert evaluate(reparsed, env) == evaluate(tree, env)
