"""Expression trees for structural equations, plus a small text grammar.

Grammar (binding weakest to tightest; the binary levels are the ranks of
`_PRECEDENCE`, which the parser and the writer share):

    expr    := or
    or      := and ("||" and)*
    and     := cmp ("&&" cmp)*
    cmp     := add (("==" | "<=" | "<") add)*
    add     := mul (("+" | "-") mul)*
    mul     := unary ("*" unary)*
    unary   := ("!" | "-") unary | atom
    atom    := INT | "(" "-" INT ")" | IDENT | "(" expr ")"
             | "ite" "(" expr "," expr "," expr ")"
             | "table" "(" IDENT ("," IDENT)* ")"
               "[" entry ("," entry)* "]"
    entry   := "(" INT ("," INT)* ")" "->" INT

Booleans are integers: comparisons and logical operators yield 0 or 1, and
any nonzero value counts as true.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Mapping

from .errors import EvaluationError, ParseError


class Expr:
    """Base class for expression nodes. Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Lit(Expr):
    value: int

    def __post_init__(self):
        # Exactly an int: True or 1.0 would equal 1 in every cache keyed
        # by value, and a solution could then hold True where the
        # equation gives 1.
        if type(self.value) is not int:
            raise ParseError(f"a literal must be an int, got {self.value!r}")


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-" or "!"
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # one of + - * == < <= && ||
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ite(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(frozen=True)
class Table(Expr):
    """Explicit lookup table over the listed variables.

    `entries` maps one value tuple (aligned with `vars`) to an output; it
    must cover every combination that can occur, which `validate` checks
    against the declared domains.
    """

    vars: tuple[str, ...]
    entries: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        if not self.vars:
            raise ParseError("a table must read at least one variable; use a literal instead")
        for key, _ in self.entries:
            if len(key) != len(self.vars):
                raise ParseError(
                    f"table entry {key} has {len(key)} values for {len(self.vars)} variables"
                )

    @staticmethod
    def from_mapping(variables, mapping) -> "Table":
        entries = tuple(sorted((tuple(k), v) for k, v in dict(mapping).items()))
        return Table(tuple(variables), entries)

    def mapping(self) -> dict[tuple[int, ...], int]:
        return dict(self.entries)


@lru_cache(maxsize=1024)
def variables(expr: Expr) -> frozenset[str]:
    """All variable names referenced by `expr`."""
    if isinstance(expr, Lit):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Unary):
        return variables(expr.arg)
    if isinstance(expr, Binary):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Ite):
        return variables(expr.cond) | variables(expr.then) | variables(expr.other)
    if isinstance(expr, Table):
        return frozenset(expr.vars)
    raise TypeError(f"not an expression: {expr!r}")


class _TableLookup(dict):
    """One level of a table's entries in the exact variant of generated
    code: the entries whose keys start with the values `prefix`. A value
    it lacks gives an empty level, so the rest of the key is still read
    in order, and the last level raises the table's EvaluationError for
    the whole key, as one flat lookup of the key did."""

    __slots__ = ("names", "prefix")

    def __init__(self, names: tuple[str, ...], prefix: tuple):
        self.names, self.prefix = names, prefix

    def __missing__(self, value):
        key = self.prefix + (value,)
        if len(key) < len(self.names):
            return _TableLookup(self.names, key)
        raise EvaluationError(f"table over {self.names} has no entry for {key}")


def _nest(entries, level: Callable[[tuple], dict]) -> dict:
    """`entries` as nested dicts, one level per key position, each made by
    `level(prefix)`. A later entry for a key wins, as in `dict(entries)`."""
    top = level(())
    for key, out in entries:
        node = top
        for k in range(1, len(key)):
            if key[k - 1] not in node:
                node[key[k - 1]] = level(key[:k])
            node = node[key[k - 1]]
        node[key[-1]] = out
    return top


@lru_cache(maxsize=1024)
def _levels(table: Table) -> dict:
    """`table`'s entries as nested plain dicts, which generated code reads
    one variable at a time. Every generated function that reads an equal
    table shares them; nothing changes them."""
    return _nest(table.entries, lambda prefix: {})


class _NeverRaised(Exception):
    """What the exact variant of generated code catches: nothing."""


# Binding strength of the generated Python: 0 conditional expression,
# 1 or, 2 and, 3 not, 4 comparison, 6 + -, 7 *, 8 unary minus, 9 atom.
_ARITH = {"+": 6, "-": 6, "*": 7}
_LOGIC = {"&&": ("and", 2), "||": ("or", 1)}
_COMPARE = ("==", "<", "<=")


class Emitter:
    """Writes expressions as Python source for one generated function.

    `load(name)` returns the source that reads a variable. Every other
    value the source needs (tables, names for messages, helpers) becomes a
    global of the generated code through `const`, so no variable name or
    message text is ever written into the source. Booleans are 0/1
    integers and `ite`, `&&` and `||` stay lazy.

    A table is read one variable at a time, `_c1[x0][x7]`, from nested
    plain dicts. `tables` maps each table's constant to its `Table`, from
    which `generate` binds the same name to `_TableLookup` levels in the
    exact variant that runs when a read misses.
    """

    def __init__(self, load: Callable[[str], str]):
        self.load = load
        self.consts: dict[str, object] = {}
        self.tables: dict[str, Table] = {}

    def const(self, value: object) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    def value(self, expr: Expr, prec: int = 0) -> str:
        """Source of `expr`'s value, binding at least as tightly as `prec`."""
        src, own = self._value(expr)
        return f"({src})" if own < prec else src

    def cond(self, expr: Expr, prec: int = 0) -> str:
        """Source of whether `expr` is true (nonzero), as a Python bool."""
        src, own = self._cond(expr)
        return f"({src})" if own < prec else src

    def _value(self, e: Expr) -> tuple[str, int]:
        if isinstance(e, Lit):
            return repr(e.value), 8 if e.value < 0 else 9
        if isinstance(e, Var):
            return self.load(e.name), 9
        if isinstance(e, Ite):
            then, other = self.value(e.then, 1), self.value(e.other)
            return f"{then} if {self.cond(e.cond, 1)} else {other}", 0
        if isinstance(e, Table):
            table = self.const(_levels(e))
            self.tables[table] = e
            return table + "".join(f"[{self.load(n)}]" for n in e.vars), 9
        if isinstance(e, Unary):
            if e.op == "-":
                return "-" + self.value(e.arg, 8), 8
            if e.op == "!":
                return f"0 if {self.cond(e.arg, 1)} else 1", 0
            raise ParseError(f"unknown unary operator {e.op!r}")
        if isinstance(e, Binary):
            if e.op in _ARITH:
                # A left-associative chain is written flat, not recursively.
                prec, rights = _ARITH[e.op], []
                while isinstance(e, Binary) and _ARITH.get(e.op) == prec:
                    rights.append(f" {e.op} {self.value(e.right, prec + 1)}")
                    e = e.left
                return self.value(e, prec) + "".join(reversed(rights)), prec
            if e.op in _LOGIC or e.op in _COMPARE:
                return f"1 if {self.cond(e, 1)} else 0", 0
            raise ParseError(f"unknown binary operator {e.op!r}")
        raise TypeError(f"not an expression: {e!r}")

    def _cond(self, e: Expr) -> tuple[str, int]:
        if isinstance(e, Unary) and e.op == "!":
            return "not " + self.cond(e.arg, 3), 3
        if isinstance(e, Binary) and e.op in _LOGIC:
            (word, prec), op, rights = _LOGIC[e.op], e.op, []
            while isinstance(e, Binary) and e.op == op:  # flat, as above
                rights.append(f" {word} {self.cond(e.right, prec + 1)}")
                e = e.left
            return self.cond(e, prec) + "".join(reversed(rights)), prec
        if isinstance(e, Binary) and e.op in _COMPARE:
            return f"{self.value(e.left, 5)} {e.op} {self.value(e.right, 5)}", 4
        return self.value(e, 5) + " != 0", 4


def generate(name: str, args: str, lines: list[str], emitter: Emitter) -> Callable:
    """Compile `def name(args)` from body lines, the way stdlib namedtuple
    builds `__new__`: the emitter's constants are the globals of the
    generated code, which sees no builtins. The function is taken out of
    its namespace, so the two do not form a reference cycle.

    The body must end in `return`. When it reads a table, the one source
    runs in two namespaces. The fast function reads plain dicts with its
    body in a `try`; on a `KeyError` (a table read that misses, or an
    undeclared name) it leaves the handler and returns what the exact
    variant gives. The exact variant reads `_TableLookup` levels and
    catches nothing, so it raises the table's EvaluationError, or the
    `KeyError(name)`, with no exception chained to it. It is built on the
    first miss, since most functions never miss."""
    body = "".join(f"  {line}\n" for line in lines)
    if not emitter.tables:
        return _run(compile(f"def {name}({args}):\n{body}", "<generated>", "exec"), name, emitter.consts)
    source = f"def {name}({args}):\n try:\n{body} except _miss:\n  pass\n return _exact({args})\n"
    code = compile(source, "<generated>", "exec")
    consts, tables, variant = emitter.consts, emitter.tables, []

    def exact(*values):
        if not variant:
            levels = {k: _nest(t.entries, partial(_TableLookup, t.vars)) for k, t in tables.items()}
            variant.append(_run(code, name, {**consts, **levels, "_miss": _NeverRaised}))
        return variant[0](*values)

    return _run(code, name, {**consts, "_miss": KeyError, "_exact": exact})


def _run(code, name: str, consts: dict[str, object]) -> Callable:
    namespace = {"__builtins__": {}, **consts}
    exec(code, namespace)
    return namespace.pop(name)


def _positional(local: Mapping[str, str]) -> Emitter:
    """An Emitter that reads each name in `local` from the Python local it
    maps to. Any other name is read from an empty dict, so it raises
    KeyError(name), as reading it from an env did."""
    emitter = Emitter(lambda n: local.get(n) or f"{emitter.const({})}[{emitter.const(n)}]")
    return emitter


@lru_cache(maxsize=1024)
def _tuple_kernel(exprs: tuple[Expr, ...], names: tuple[str, ...]) -> Callable[[tuple], tuple]:
    """Generated `evaluate(values) -> outputs`: the value of each of
    `exprs`, in order, over the values of the variables `names`, passed as
    one tuple in that order. The parentheses around the outputs take the
    place of the subscript that reading an env adds to each variable, so
    an expression nests as deep here as in `evaluate`: past CPython's
    parenthesis limit, both raise SyntaxError."""
    emitter = _positional({n: f"x{k}" for k, n in enumerate(names)})
    lines = ["".join(f"x{k}, " for k in range(len(names))) + "= s"] if names else []
    lines.append("return (" + "".join(emitter.value(e) + ", " for e in exprs) + ")")
    return generate("evaluate", "s", lines, emitter)


@lru_cache(maxsize=1024)
def compile_expr(expr: Expr) -> Callable[[Mapping[str, int]], int]:
    """Generate a function evaluating `expr` over an environment."""
    emitter = Emitter(lambda name: f"env[{emitter.const(name)}]")
    return generate("evaluate", "env", ["return " + emitter.value(expr)], emitter)


def evaluate(expr: Expr, env: Mapping[str, int]) -> int:
    return compile_expr(expr)(env)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>->|==|<=|&&|\|\||[()\[\],+\-*<!]))"
)

_KEYWORDS = {"ite", "table"}

# Binding strength of each binary operator, 1 the weakest. The parser reads
# by this table and to_source writes by it; unary operators bind tighter.
_PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "<": 3, "<=": 3, "+": 4, "-": 4, "*": 5}
_TIGHTEST = max(_PRECEDENCE.values())


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, text = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, got {text or 'end of input'!r} in {self.text!r}")

    def parse(self) -> Expr:
        expr = self.binary()
        if self.peek() != ("end", ""):
            raise ParseError(f"trailing input at token {self.peek()[1]!r} in {self.text!r}")
        return expr

    def binary(self, level: int = 1) -> Expr:
        """A left-associative chain of the operators that `_PRECEDENCE`
        ranks at `level`. Its operands bind more tightly; each is parsed
        by a direct call, so every level costs one frame."""
        tighter = level < _TIGHTEST
        node = self.binary(level + 1) if tighter else self.unary_expr()
        while _PRECEDENCE.get(self.peek()[1]) == level:
            op = self.next()[1]
            node = Binary(op, node, self.binary(level + 1) if tighter else self.unary_expr())
        return node

    def unary_expr(self) -> Expr:
        kind, text = self.peek()
        if kind == "op" and text in ("-", "!"):
            self.next()
            return Unary(text, self.unary_expr())
        return self.atom()

    def atom(self) -> Expr:
        kind, text = self.next()
        if kind == "int":
            return Lit(int(text))
        if kind == "ident":
            if text == "ite":
                self.expect("(")
                cond = self.binary()
                self.expect(",")
                then = self.binary()
                self.expect(",")
                other = self.binary()
                self.expect(")")
                return Ite(cond, then, other)
            if text == "table":
                return self.table()
            return Var(text)
        if (kind, text) == ("op", "("):
            sign, number, close = (self.tokens[self.pos : self.pos + 3] + [None] * 3)[:3]
            if sign == ("op", "-") and number[0] == "int" and close == ("op", ")"):
                self.pos += 3  # a negative literal, as to_source writes one
                return Lit(-int(number[1]))
            node = self.binary()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {text or 'end of input'!r} in {self.text!r}")

    def table(self) -> Expr:
        self.expect("(")
        names = [self._ident()]
        while self.peek() == ("op", ","):
            self.next()
            names.append(self._ident())
        self.expect(")")
        self.expect("[")
        entries = {}
        while True:
            key = self._int_tuple()
            self.expect("->")
            out = self._signed_int()
            if key in entries:
                raise ParseError(f"duplicate table entry for {key}")
            entries[key] = out
            kind, text = self.next()
            if (kind, text) == ("op", "]"):
                break
            if (kind, text) != ("op", ","):
                raise ParseError(f"expected ',' or ']' in table, got {text!r}")
        return Table.from_mapping(names, entries)

    def _ident(self) -> str:
        kind, text = self.next()
        if kind != "ident" or text in _KEYWORDS:
            raise ParseError(f"expected identifier, got {text!r}")
        return text

    def _int_tuple(self) -> tuple[int, ...]:
        self.expect("(")
        values = [self._signed_int()]
        while self.peek() == ("op", ","):
            self.next()
            values.append(self._signed_int())
        self.expect(")")
        return tuple(values)

    def _signed_int(self) -> int:
        kind, text = self.next()
        neg = False
        if (kind, text) == ("op", "-"):
            neg = True
            kind, text = self.next()
        if kind != "int":
            raise ParseError(f"expected integer, got {text!r}")
        return -int(text) if neg else int(text)


# The deepest tree parse_expr accepts. Generated code nests up to one
# parenthesized sub-expression per level, and CPython compiles at most 200
# (a chain of 201 comparisons fails); the recursive walkers take a few
# frames per level. Every bundled model stays below 10 levels.
MAX_DEPTH = 100


def _depth(expr: Expr) -> int:
    """Levels on the longest root-to-leaf path, counted with a stack."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        e, level = stack.pop()
        deepest = max(deepest, level)
        if isinstance(e, Unary):
            stack.append((e.arg, level + 1))
        elif isinstance(e, Binary):
            stack += ((e.left, level + 1), (e.right, level + 1))
        elif isinstance(e, Ite):
            stack += ((e.cond, level + 1), (e.then, level + 1), (e.other, level + 1))
    return deepest


def parse_expr(text: str) -> Expr:
    """Parse the equation grammar into an expression tree at most
    MAX_DEPTH levels deep."""
    try:
        expr = _Parser(text).parse()
    except RecursionError:
        raise ParseError("expression nests too deeply to parse") from None
    depth = _depth(expr)
    if depth > MAX_DEPTH:
        raise ParseError(f"expression is {depth} levels deep; at most {MAX_DEPTH} are allowed")
    return expr


# ---------------------------------------------------------------------------
# Writing

def to_source(expr: Expr) -> str:
    """Render an expression back to grammar text. parse_expr inverts this."""
    return _render(expr, 0)


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Lit):
        return str(expr.value) if expr.value >= 0 else f"(-{-expr.value})"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Unary):
        return f"{expr.op}{_render(expr.arg, _TIGHTEST + 1)}"
    if isinstance(expr, Binary):
        prec = _PRECEDENCE[expr.op]
        text = f"{_render(expr.left, prec)} {expr.op} {_render(expr.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, Ite):
        parts = (_render(expr.cond, 0), _render(expr.then, 0), _render(expr.other, 0))
        return "ite({}, {}, {})".format(*parts)
    if isinstance(expr, Table):
        entries = ", ".join(
            "({}) -> {}".format(", ".join(str(v) for v in key), out)
            for key, out in expr.entries
        )
        return "table({})[{}]".format(", ".join(expr.vars), entries)
    raise TypeError(f"not an expression: {expr!r}")
