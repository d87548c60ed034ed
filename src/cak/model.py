"""Finite-domain recursive causal models: signatures, assignments, solving,
interventions as a semantic operator, causal formulas, and diagnostics.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Union

from .errors import (
    CyclicModelError,
    EvaluationError,
    InputError,
    SizeCapExceeded,
    contexts_cap,
)
from .expr import Emitter, Expr, Table, compile_expr, generate, variables
from .report import CheckReport

ALL = "all"


@dataclass(frozen=True)
class VariableDecl:
    """A named variable ranging over a non-empty ordered list of integers."""

    name: str
    domain: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        if not self.name or not self.name.replace("_", "a").isalnum() or self.name[0].isdigit():
            raise InputError(f"invalid variable name {self.name!r}")
        if len(self.domain) == 0:
            raise InputError(f"variable {self.name} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise InputError(f"variable {self.name} has duplicate domain values")


@dataclass(frozen=True)
class Signature:
    """Exogenous and endogenous variable declarations."""

    exogenous: tuple[VariableDecl, ...]
    endogenous: tuple[VariableDecl, ...]

    def __post_init__(self):
        object.__setattr__(self, "exogenous", tuple(self.exogenous))
        object.__setattr__(self, "endogenous", tuple(self.endogenous))
        names = [d.name for d in self.exogenous + self.endogenous]
        if len(set(names)) != len(names):
            raise InputError("variable names must be unique across the signature")

    @cached_property
    def domains(self) -> dict[str, tuple[int, ...]]:
        return {d.name: d.domain for d in self.exogenous + self.endogenous}

    @cached_property
    def exo_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.exogenous)

    @cached_property
    def endo_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.endogenous)

    @cached_property
    def exo_keyset(self) -> frozenset[str]:
        """The key set every enumerated context shares."""
        return frozenset(self.exo_names)

    @cached_property
    def endo_keyset(self) -> frozenset[str]:
        """The key set every enumerated state shares."""
        return frozenset(self.endo_names)


class Assignment(Mapping[str, int]):
    """Immutable variable-to-value map with a canonical (name-sorted) form.

    Used for contexts (total over exogenous), endogenous states (total over
    endogenous) and interventions (partial over endogenous); totality is
    checked by the operations that require it. Iteration follows insertion
    order; `_items` and `_values` follow name order.

    An enumerated context or state (`_product`) holds only its items,
    values and key set; its dict and hash are built on first use, which
    the profile pass never makes.
    """

    __slots__ = ("_items", "_values", "_dict", "_hash", "_keys", "_order")

    def __init__(self, mapping: Union[Mapping[str, int], Iterable[tuple[str, int]]] = (), **values: int):
        pairs = dict(mapping)
        pairs.update(values)
        items = tuple(sorted(pairs.items()))
        self._items = items
        self._values = tuple([v for _, v in items])
        self._dict = pairs
        self._hash = hash(items)
        self._keys = frozenset(pairs)

    @classmethod
    def _from_sorted_items(
        cls, items: tuple[tuple[str, int], ...], values: tuple[int, ...] | None = None
    ) -> "Assignment":
        # Fast path for callers that already hold name-sorted pairs (and,
        # optionally, their values).
        self = object.__new__(cls)
        self._items = items
        self._values = tuple([v for _, v in items]) if values is None else values
        self._dict = dict(items)
        self._hash = hash(items)
        self._keys = frozenset(self._dict)
        return self

    @classmethod
    def _product(cls, decls: "tuple[VariableDecl, ...]", keys: frozenset[str]) -> "Iterator[Assignment]":
        # Every total assignment of `decls`, lazily, in declaration-order
        # lexicographic order, all sharing the key set `keys`, one
        # (name, value) pair per value and the reordering of their items
        # into declaration order.
        names = [d.name for d in decls]
        pick = _to_name_order(names)
        order = _to_name_order(sorted(range(len(names)), key=names.__getitem__))
        pairs = itertools.product(*(tuple((d.name, v) for v in d.domain) for d in decls))
        values = itertools.product(*(d.domain for d in decls))
        new = object.__new__
        for combo, vals in zip(pairs, values):
            self = new(cls)
            self._items = pick(combo)
            self._values = pick(vals)
            self._keys = keys
            self._order = order
            self._dict = self._hash = None
            yield self

    def _filled(self) -> dict:
        # The dict of a `_product` assignment, built on its first read.
        self._dict = pairs = dict(self._order(self._items))
        return pairs

    @property
    def items_sorted(self) -> tuple[tuple[str, int], ...]:
        return self._items

    # The lazy slots hold None until first use. Neither a `__getattr__`,
    # which would slow every attribute read of the type, nor a caught
    # AttributeError, which costs a caller that reads every context more
    # than building the dict did, fills them.
    def __getitem__(self, name: str) -> int:
        pairs = self._dict
        return (self._filled() if pairs is None else pairs)[name]

    def __iter__(self) -> Iterator[str]:
        pairs = self._dict
        return iter(self._filled() if pairs is None else pairs)

    def __contains__(self, name) -> bool:
        pairs = self._dict
        return name in (self._filled() if pairs is None else pairs)

    def get(self, name, default=None):
        pairs = self._dict
        return (self._filled() if pairs is None else pairs).get(name, default)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            self._hash = h = hash(self._items)
        return h

    def __eq__(self, other) -> bool:
        if isinstance(other, Assignment):
            return self._items == other._items
        return NotImplemented

    def __lt__(self, other: "Assignment") -> bool:
        return self._items < other._items

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self._items)
        return f"Assignment({body})"


EMPTY = Assignment()


def _to_name_order(names: list) -> Callable[[tuple], tuple]:
    """Reorders a tuple in the order of `names` into name order (sorted
    order, for keys that are not names)."""
    # Out of order means two or more names, so itemgetter returns a tuple;
    # `tuple` returns a tuple as it is.
    order = sorted(range(len(names)), key=names.__getitem__)
    return itemgetter(*order) if names != sorted(names) else tuple


def _shared(mapping) -> Assignment:
    # Assignments are immutable, so containers share them instead of copying.
    return mapping if isinstance(mapping, Assignment) else Assignment(mapping)


@dataclass(frozen=True)
class CausalModel:
    """A finite causal model: signature, one equation per endogenous
    variable, and a set of allowed interventions (the string ``"all"``
    meaning every partial endogenous assignment, including the empty one).
    """

    signature: Signature
    equations: tuple[tuple[str, Expr], ...]
    allowed_interventions: Union[str, tuple[Assignment, ...]] = ALL

    def __post_init__(self):
        eqs = dict(self.equations)
        endo = self.signature.endo_names
        missing = [n for n in endo if n not in eqs]
        extra = [n for n in eqs if n not in endo]
        if missing:
            raise InputError(f"missing equations for {missing}")
        if extra:
            raise InputError(f"equations given for non-endogenous variables {extra}")
        object.__setattr__(self, "equations", tuple((n, eqs[n]) for n in endo))
        if isinstance(self.allowed_interventions, str):
            if self.allowed_interventions != ALL:
                raise InputError(
                    f"allowed_interventions must be {ALL!r} or a list, got {self.allowed_interventions!r}"
                )
        else:
            object.__setattr__(
                self,
                "allowed_interventions",
                tuple(_shared(i) for i in self.allowed_interventions),
            )

    @cached_property
    def equation_map(self) -> dict[str, Expr]:
        return dict(self.equations)

    @cached_property
    def order(self) -> tuple[str, ...]:
        return tuple(dependency_order(self))

    @cached_property
    def _endo_sorted(self) -> tuple[str, ...]:
        return tuple(sorted(self.signature.endo_names))

    @cached_property
    def _exo_keyset(self) -> frozenset[str]:
        return self.signature.exo_keyset

    @cached_property
    def _states(self) -> dict[tuple[int, ...], Assignment]:
        # solve_under's results by state values: building an Assignment
        # per solve cost more than the solve. One entry per distinct solution.
        return {}

    @cached_property
    def _kernels(self) -> dict[frozenset[str], Callable]:
        return {}

    @cached_property
    def _checked_allowed(self) -> tuple[Assignment, ...]:
        # An explicit allowed set, each intervention checked; a failed
        # check is not kept, so it fails again on every call.
        for i in self.allowed_interventions:
            check_intervention(self, i)
        return self.allowed_interventions

    @cached_property
    def _cones(self) -> dict[frozenset[str], tuple[str, ...]]:
        return {}

    def cone(self, names: frozenset[str]) -> tuple[str, ...]:
        """The exogenous variables, in declaration order, that a solution
        under an intervention on `names` can depend on: those read by the
        equation of an endogenous variable outside `names` (in the
        submodel the others are constants). Every such variable is part
        of the solution, so the endogenous ones it reads add nothing."""
        cone = self._cones.get(names)
        if cone is None:
            read = set().union(*[variables(e) for n, e in self.equations if n not in names])
            cone = self._cones[names] = tuple([n for n in self.signature.exo_names if n in read])
        return cone

    def solver(self, names: frozenset[str]) -> Callable[[tuple, tuple], tuple]:
        """Generated `solve(context_values, forced_values) -> state_values`
        for interventions on `names`: context values, forced values and
        state values all in name order, as in `Assignment._values`.
        Forced values of names that are not endogenous are ignored."""
        kernel = self._kernels.get(names)
        if kernel is None:
            kernel = self._kernels[names] = _kernel(self.signature, self.equations, self.order, names)
        return kernel

    def with_allowed(self, interventions) -> "CausalModel":
        """Copy of this model with a different allowed-intervention set. It
        solves as this model does, so the two share their generated solvers,
        cones and solutions."""
        copy = CausalModel(self.signature, self.equations, interventions)
        copy.__dict__.update(_kernels=self._kernels, _cones=self._cones, _states=self._states)
        return copy


def dependency_order(model: CausalModel) -> list[str]:
    """Topological order of the endogenous variables.

    The static dependency graph has an edge Y -> X whenever Y appears in
    X's equation. Ties are broken by declaration order, so the result is
    deterministic. Raises CyclicModelError on a cycle.
    """
    endo = model.signature.endo_names
    endo_set = set(endo)
    parents = {
        name: sorted(variables(expr) & endo_set) for name, expr in model.equations
    }
    remaining = dict(parents)
    done: set[str] = set()
    order: list[str] = []
    while remaining:
        ready = [n for n in endo if n in remaining and all(p in done for p in remaining[n])]
        if not ready:
            raise CyclicModelError(_find_cycle(remaining))
        for name in ready:
            order.append(name)
            done.add(name)
            del remaining[name]
    return order


def _find_cycle(parents: dict[str, list[str]]) -> tuple[str, ...]:
    # Every node left has a parent that is also left, so walking parent
    # links must revisit a node.
    start = next(iter(parents))
    seen: list[str] = []
    node = start
    while node not in seen:
        seen.append(node)
        node = next(p for p in parents[node] if p in parents)
    cycle = seen[seen.index(node):] + [node]
    return tuple(reversed(cycle))


@dataclass(frozen=True)
class Diagnostic:
    kind: str  # cycle | unknown-variable | out-of-domain | bad-intervention
    message: str
    subject: str = ""
    witness: Assignment | None = None


def validate(model: CausalModel) -> list[Diagnostic]:
    """All model-level invariant violations; empty list means valid.

    Checks acyclicity, that equations reference only declared variables,
    that every equation output stays inside the declared domain for every
    combination of referenced-variable values, and that each listed
    allowed intervention is well-typed.
    """
    sig = model.signature
    diags: list[Diagnostic] = []
    known = set(sig.domains)
    for name, expr in model.equations:
        for ref in sorted(variables(expr)):
            if ref not in known:
                diags.append(
                    Diagnostic(
                        "unknown-variable",
                        f"equation for {name} references undeclared variable {ref}",
                        subject=name,
                    )
                )
    if any(d.kind == "unknown-variable" for d in diags):
        return diags

    try:
        dependency_order(model)
    except CyclicModelError as exc:
        diags.append(Diagnostic("cycle", str(exc), subject=exc.path[0]))
        return diags

    for name, expr in model.equations:
        domain = set(sig.domains[name])
        refs = sorted(variables(expr))
        fn = compile_expr(expr)
        for combo in itertools.product(*(sig.domains[r] for r in refs)):
            env = dict(zip(refs, combo))
            try:
                value = fn(env)
            except EvaluationError as exc:
                diags.append(
                    Diagnostic("out-of-domain", f"equation for {name}: {exc}", name, Assignment(env))
                )
                continue
            if value not in domain:
                diags.append(
                    Diagnostic(
                        "out-of-domain",
                        f"equation for {name} yields {value} outside its domain",
                        subject=name,
                        witness=Assignment(env),
                    )
                )

    if not isinstance(model.allowed_interventions, str):
        endo = set(sig.endo_names)
        for iv in model.allowed_interventions:
            for var, value in iv.items_sorted:
                if var not in endo:
                    diags.append(
                        Diagnostic(
                            "bad-intervention",
                            f"intervention sets non-endogenous variable {var}",
                            subject=var,
                            witness=iv,
                        )
                    )
                elif value not in sig.domains[var]:
                    diags.append(
                        Diagnostic(
                            "bad-intervention",
                            f"intervention sets {var} to {value}, outside its domain",
                            subject=var,
                            witness=iv,
                        )
                    )
    return diags


def check_context(model: CausalModel, context: Assignment) -> None:
    sig = model.signature
    if set(context) != set(sig.exo_names):
        raise InputError(
            f"context must assign exactly the exogenous variables {sig.exo_names}, got {sorted(context)}"
        )
    for name, value in context.items_sorted:
        if value not in sig.domains[name]:
            raise InputError(f"context sets {name} to {value}, outside its domain")


def check_intervention(model: CausalModel, intervention: Assignment) -> None:
    sig = model.signature
    for name, value in intervention.items_sorted:
        if name not in sig.endo_keyset:
            raise InputError(f"intervention sets non-endogenous variable {name}")
        if value not in sig.domains[name]:
            raise InputError(f"intervention sets {name} to {value}, outside its domain")


def apply_intervention(model: CausalModel, intervention: Assignment) -> CausalModel:
    """Model with each intervened variable's equation replaced by the
    constant; everything else, including the allowed set, is unchanged."""
    check_intervention(model, intervention)
    if len(intervention) == 0:
        return model
    from .expr import Lit

    new_eqs = tuple(
        (name, Lit(intervention[name]) if name in intervention else expr)
        for name, expr in model.equations
    )
    return CausalModel(model.signature, new_eqs, model.allowed_interventions)


def solve(model: CausalModel, context: Assignment) -> Assignment:
    """The unique simultaneous solution of the equations in `context`."""
    return solve_under(model, context, EMPTY)


def solve_under(model: CausalModel, context: Assignment, intervention: Assignment) -> Assignment:
    """Solution after forcing the intervened variables to their constants.

    Equivalent to solve(apply_intervention(model, intervention), context)
    but without rebuilding the model. The model is assumed valid; an
    out-of-domain equation output raises EvaluationError rather than
    being clamped. Equal solutions of one model are the same object.
    It checks the context's variables, not their values: an out-of-domain
    value may give a solution rather than an error, so a caller holding a
    context from outside the library calls check_context first, as
    `cak solve` does.
    """
    keys = context._keys
    if keys is not model._exo_keyset and keys != model._exo_keyset:
        check_context(model, context)
    solve = model._kernels.get(intervention._keys) or model.solver(intervention._keys)
    try:
        state = solve(context._values, intervention._values)
    except KeyError:
        check_context(model, context)  # raises with a precise message
        raise
    out = model._states.get(state)
    if out is None:
        out = Assignment._from_sorted_items(tuple(zip(model._endo_sorted, state)), values=state)
        model._states[state] = out
    return out


def solve_column(
    model: CausalModel, contexts: Iterable[Assignment], intervention: Assignment
) -> Iterator[tuple[int, ...]]:
    """The state values (`Assignment._values`) of solve_under(model, u,
    intervention) for each context u, in order, with solve_under's checks
    and errors, but no Assignment per solve; `state_of` gives one."""
    exo = model._exo_keyset
    solve = model._kernels.get(intervention._keys) or model.solver(intervention._keys)
    forced = intervention._values
    for context in contexts:
        keys = context._keys
        if keys is not exo and keys != exo:
            check_context(model, context)
        try:
            yield solve(context._values, forced)
        except KeyError:
            check_context(model, context)  # raises with a precise message
            raise


def state_of(model: CausalModel, values: tuple[int, ...]) -> Assignment:
    """The state with these values, the same object solve_under returns.
    solve_under does the same lookup inline, without the call."""
    out = model._states.get(values)
    if out is None:
        out = Assignment._from_sorted_items(tuple(zip(model._endo_sorted, values)), values=values)
        model._states[values] = out
    return out


def _outside(name: str, value: int):
    raise EvaluationError(f"equation for {name} produced {value}, outside its domain")


@lru_cache(maxsize=1024)
def _kernel(sig: Signature, equations, order: tuple[str, ...], forced: frozenset[str]) -> Callable:
    """Straight-line solve for one model structure and one set of
    intervened names; see CausalModel.solver. Each variable is a
    positional local; names reach the code only as its globals' values."""
    local = {n: f"x{k}" for k, n in enumerate(sig.exo_names + sig.endo_names)}
    # An undeclared name raises KeyError(name), as reading it from a dict did.
    emitter = Emitter(lambda n: local.get(n) or f"{emitter.const({})}[{emitter.const(n)}]")
    outside = emitter.const(_outside)
    # Every equation is emitted, so a malformed one fails under any intervention.
    sources = {name: emitter.value(expr) for name, expr in equations}
    # A table read that succeeds returns one of the table's entries, so a
    # table whose entries all lie in the domain needs no domain test.
    in_domain = {
        name for name, e in equations
        if isinstance(e, Table) and all(out in sig.domains[name] for _, out in e.entries)
    }
    slot = {n: k for k, n in enumerate(sorted(forced))}
    lines = ["".join(local[n] + ", " for n in sorted(sig.exo_names)) + "= u"] if sig.exo_names else []
    for name in order:
        x = local[name]
        if name in slot:
            lines.append(f"{x} = f[{slot[name]}]")
            continue
        lines.append(f"{x} = {sources[name]}")
        if name not in in_domain:
            domain, label = emitter.const(frozenset(sig.domains[name])), emitter.const(name)
            lines.append(f"if {x} not in {domain}: {outside}({label}, {x})")
    lines.append("return (" + "".join(local[n] + ", " for n in sorted(sig.endo_names)) + ")")
    return generate("solve", "u, f", lines, emitter)


# ---------------------------------------------------------------------------
# Causal formulas

class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Event(Formula):
    """Primitive event: the named endogenous variable takes the value."""

    var: str
    value: int


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    args: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Or(Formula):
    args: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class CausalFormula:
    """An intervention prefix (possibly empty) over a Boolean body."""

    prefix: Assignment
    body: Formula


def _holds(body: Formula, state: Assignment, model: CausalModel) -> bool:
    if isinstance(body, Event):
        if body.var not in set(model.signature.endo_names):
            raise InputError(f"formula references unknown endogenous variable {body.var}")
        return state[body.var] == body.value
    if isinstance(body, Not):
        return not _holds(body.arg, state, model)
    if isinstance(body, And):
        return all(_holds(a, state, model) for a in body.args)
    if isinstance(body, Or):
        return any(_holds(a, state, model) for a in body.args)
    raise TypeError(f"not a formula: {body!r}")


def eval_formula(model: CausalModel, context: Assignment, formula: CausalFormula) -> bool:
    """Truth of the formula's body in the solution under its prefix."""
    state = solve_under(model, context, formula.prefix)
    return _holds(formula.body, state, model)


# ---------------------------------------------------------------------------
# Enumeration helpers

def enumerate_contexts(model_or_sig) -> list[Assignment]:
    """Every context, in declaration-order lexicographic order."""
    return list(iter_contexts(model_or_sig))


def iter_contexts(model_or_sig) -> Iterator[Assignment]:
    """The contexts of enumerate_contexts, built one at a time as they are
    read. The size cap is checked on the call, before the first is built."""
    sig = getattr(model_or_sig, "signature", model_or_sig)
    return _enumerate_total(sig.exogenous, sig.exo_keyset, "context space")


def enumerate_states(model_or_sig) -> list[Assignment]:
    """Every total endogenous state, in declaration-order lexicographic order."""
    sig = getattr(model_or_sig, "signature", model_or_sig)
    return list(_enumerate_total(sig.endogenous, sig.endo_keyset, "endogenous state space"))


def _enumerate_total(decls: tuple[VariableDecl, ...], keys: frozenset[str], what: str) -> Iterator[Assignment]:
    size = 1
    for d in decls:
        size *= len(d.domain)
    limit = contexts_cap()
    if size > limit:
        raise SizeCapExceeded(what, size, limit)
    return Assignment._product(decls, keys)


# ---------------------------------------------------------------------------
# Unique exogenous parents

def check_uev(model: CausalModel) -> CheckReport:
    """Whether each endogenous variable can be assigned a private exogenous
    input variable.

    The exogenous support of an equation is determined semantically: an
    exogenous variable counts only if changing its value, with the
    equation's other referenced variables held fixed at some combination,
    changes the equation's output. The check passes when every equation
    has at most one exogenous variable in its support, no two equations
    share the same supporting variable, and enough unused exogenous
    variables remain to serve the equations with empty support.
    """
    sig = model.signature
    exo = set(sig.exo_names)
    supports: dict[str, list[str]] = {}
    for name, expr in model.equations:
        refs = sorted(variables(expr))
        exo_refs = [r for r in refs if r in exo]
        support = []
        fn = compile_expr(expr)
        for u in exo_refs:
            others = [r for r in refs if r != u]
            dom_u = sig.domains[u]
            affected = False
            for combo in itertools.product(*(sig.domains[r] for r in others)):
                env = dict(zip(others, combo))
                seen = set()
                for value in dom_u:
                    env[u] = value
                    seen.add(fn(env))
                    if len(seen) > 1:
                        affected = True
                        break
                if affected:
                    break
            if affected:
                support.append(u)
        supports[name] = support

    for name in sig.endo_names:
        if len(supports[name]) > 1:
            return CheckReport(
                False,
                detail=f"{name} depends on multiple exogenous variables",
                counterexample={"variable": name, "exogenous": tuple(supports[name])},
            )
    forced: dict[str, str] = {}
    for name in sig.endo_names:
        if supports[name]:
            u = supports[name][0]
            if u in forced.values():
                other = next(v for v, w in forced.items() if w == u)
                return CheckReport(
                    False,
                    detail=f"{other} and {name} share exogenous variable {u}",
                    counterexample={"variables": (other, name), "shared": u},
                )
            forced[name] = u
    unforced = [n for n in sig.endo_names if n not in forced]
    spare = [u for u in sig.exo_names if u not in forced.values()]
    if len(unforced) > len(spare):
        return CheckReport(
            False,
            detail="not enough exogenous variables to assign private inputs to "
            + ", ".join(unforced),
            counterexample={"unassigned": tuple(unforced), "available": tuple(spare)},
        )
    assignment = dict(forced)
    for name, u in zip(unforced, spare):
        assignment[name] = u
    return CheckReport(True, detail="uev holds", witness=assignment)
