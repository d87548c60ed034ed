"""Exact-rational probability over contexts and endogenous states.

Distributions are finite-support with Fraction masses summing to exactly 1;
no floating point enters any check, so distribution equality is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping

from .errors import InputError
from .interventions import enumerate_interventions
from .maps import FiniteMap
from .model import (
    EMPTY,
    Assignment,
    CausalModel,
    Signature,
    VariableDecl,
    _shared,
    check_context,
    check_intervention,
    enumerate_contexts,
    solve_column,
    solve_under,
    state_of,
)
from .expr import Expr, Table, Var
from .report import CheckReport


@dataclass(frozen=True)
class RationalDist:
    """Finite-support distribution with exact rational masses.

    Keys are assignments (contexts or endogenous states). Entries with
    zero mass are permitted and ignored by equality. Entries are sorted by
    key. Beside them the distribution keeps an integer view, in entry
    order: entry k's mass is `_nums[k] / _den`, where `_den` is the lcm
    of the entry denominators. Sums run on that view, so each sum builds
    one Fraction per distinct result instead of one per term.
    """

    entries: tuple[tuple[Assignment, Fraction], ...]
    _den: int = field(init=False, repr=False, compare=False)
    _nums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = []
        seen = set()
        for key, p in self.entries:
            key = _shared(key)
            if type(p) is not Fraction:
                p = Fraction(p)
            if p.numerator < 0:
                raise InputError(f"negative probability {_show(p)} for {key!r}")
            if key in seen:
                raise InputError(f"duplicate distribution entry for {key!r}")
            seen.add(key)
            rows.append((key._items, key, p))
        # Keys are distinct, so the sort never compares past `_items`, the
        # order Assignment.__lt__ gives.
        rows.sort()
        den = lcm(*{p.denominator for _, _, p in rows})
        nums = tuple([p.numerator * (den // p.denominator) for _, _, p in rows])
        total = sum(nums)
        if total != den:
            raise InputError(f"probabilities sum to {_show(Fraction(total, den))}, not 1")
        object.__setattr__(self, "entries", tuple([(key, p) for _, key, p in rows]))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)

    @staticmethod
    def _from_numerators(masses: Mapping[Assignment, int], den: int) -> "RationalDist":
        # One Fraction per key: masses[key] / den.
        return RationalDist(tuple([(k, Fraction(n, den)) for k, n in masses.items()]))

    @staticmethod
    def point(key: Assignment) -> "RationalDist":
        return RationalDist(((key, Fraction(1)),))

    @staticmethod
    def uniform(keys: Iterable[Assignment]) -> "RationalDist":
        keys = list(keys)
        if not keys:
            raise InputError("uniform distribution needs a non-empty support")
        p = Fraction(1, len(keys))
        return RationalDist(tuple((k, p) for k in keys))

    @staticmethod
    def from_weights(weights: Mapping[Assignment, int | Fraction]) -> "RationalDist":
        fractions = [Fraction(w) for w in weights.values()]
        den = lcm(*{w.denominator for w in fractions})
        nums = [w.numerator * (den // w.denominator) for w in fractions]
        total = sum(nums)
        if total <= 0:
            raise InputError("weights must have a positive sum")
        # w / (total / den) == (w * den) / total
        return RationalDist._from_numerators(dict(zip(weights, nums)), total)

    @cached_property
    def _nonzero(self) -> dict[Assignment, Fraction]:
        return {k: p for (k, p), n in zip(self.entries, self._nums) if n}

    def mass(self, key: Assignment) -> Fraction:
        return self._nonzero.get(_shared(key), Fraction(0))

    def support(self) -> tuple[Assignment, ...]:
        return tuple(self._nonzero)

    def total(self) -> Fraction:
        return Fraction(sum(self._nums), self._den)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalDist):
            return self._nonzero == other._nonzero
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._nonzero.items())))

    def mixed(self, other: "RationalDist", weight: Fraction) -> "RationalDist":
        """Convex combination: weight * self + (1 - weight) * other."""
        weight = Fraction(weight)
        if not 0 <= weight <= 1:
            raise InputError(f"mixture weight {_show(weight)} outside [0, 1]")
        # Over the denominator weight.denominator * self._den * other._den.
        a, b = weight.numerator, weight.denominator
        left, right = a * other._den, (b - a) * self._den
        out: dict[Assignment, int] = {}
        for k, n in zip(self._nonzero, filter(None, self._nums)):
            out[k] = out.get(k, 0) + left * n
        for k, n in zip(other._nonzero, filter(None, other._nums)):
            out[k] = out.get(k, 0) + right * n
        return RationalDist._from_numerators(out, b * self._den * other._den)


def _show(p: Fraction) -> str:
    """`p` as text, or, past Python's limit on the digits of an int it
    will print, its size."""
    try:
        return str(p)
    except ValueError:
        return (
            f"a fraction with a {p.numerator.bit_length()}-bit numerator"
            f" and a {p.denominator.bit_length()}-bit denominator"
        )


def check_distribution(model: CausalModel, d: RationalDist) -> None:
    """Raise check_context's error for the first entry whose key is not a
    context of `model`, zero-mass entries included."""
    exo = model._exo_keyset
    contexts = [key for key, _ in d.entries]
    # A set compares its members by identity before equality.
    ok = set(map(attrgetter("_keys"), contexts)) == {exo}
    if ok:
        domains = model.signature.domains
        # One column of values per exogenous variable, in name order.
        columns = zip(*map(attrgetter("_values"), contexts))
        ok = all(set(col).issubset(domains[n]) for n, col in zip(sorted(exo), columns))
    if not ok:
        for context in contexts:
            check_context(model, context)


def push_to_states(model: CausalModel, d: RationalDist) -> RationalDist:
    """View a context distribution as a distribution on endogenous states:
    each state receives the exact sum of the masses of the contexts that
    solve to it."""
    return interventional_dist(model, d, EMPTY)


def interventional_dist(model: CausalModel, d: RationalDist, intervention: Assignment) -> RationalDist:
    """Distribution of the solution under the intervention, with contexts
    drawn from `d`. Contexts with zero mass are neither solved nor
    checked."""
    check_intervention(model, intervention)
    contexts = map(itemgetter(0), compress(d.entries, d._nums))
    out: dict[tuple[int, ...], int] = {}
    for state, n in zip(solve_column(model, contexts, intervention), filter(None, d._nums)):
        out[state] = out.get(state, 0) + n
    return RationalDist._from_numerators({state_of(model, s): n for s, n in out.items()}, d._den)


def tau_pushforward(tau: FiniteMap, d: RationalDist) -> RationalDist:
    """Image of a distribution under a finite map (a state map on state
    distributions, a context map on context distributions);
    mass-preserving."""
    out: dict[Assignment, int] = {}
    for (key, _), n in zip(d.entries, d._nums):
        image = tau.apply(key)
        out[image] = out.get(image, 0) + n
    return RationalDist._from_numerators(out, d._den)


def equivalent(
    m1: CausalModel,
    d1: RationalDist,
    m2: CausalModel,
    d2: RationalDist,
    interventions: Iterable[Assignment] | None = None,
    cap: int | None = None,
) -> CheckReport:
    """Whether the two probabilistic models give every causal formula the
    same probability, for formulas whose prefixes lie in `interventions`
    (default: the full intervention space, size-guarded).

    Decided by comparing the pushforwards of the two context distributions
    under the response-profile map u -> (solution under each listed
    intervention). Profile-distribution equality is stronger than
    per-formula equality and implies it, including for Boolean
    combinations across prefixes.
    """
    s1, s2 = m1.signature, m2.signature
    if s1.endo_names != s2.endo_names or any(
        s1.domains[n] != s2.domains[n] for n in s1.endo_names
    ):
        raise InputError("models must share endogenous variables and domains")
    if interventions is None:
        interventions = enumerate_interventions(m1, cap)
    ilist = list(interventions)

    def profile_dist(model: CausalModel, d: RationalDist) -> dict[tuple, Fraction]:
        out: dict[tuple, int] = {}
        for (context, _), n in zip(compress(d.entries, d._nums), filter(None, d._nums)):
            profile = tuple(solve_under(model, context, i) for i in ilist)
            out[profile] = out.get(profile, 0) + n
        return {profile: Fraction(n, d._den) for profile, n in out.items()}

    p1 = profile_dist(m1, d1)
    p2 = profile_dist(m2, d2)
    if p1 == p2:
        return CheckReport(True, detail=f"equivalent over {len(ilist)} interventions")
    for profile in sorted(set(p1) | set(p2)):
        a = p1.get(profile, Fraction(0))
        b = p2.get(profile, Fraction(0))
        if a != b:
            return CheckReport(
                False,
                detail="response-profile masses differ",
                counterexample={
                    "profile": profile,
                    "interventions": tuple(ilist),
                    "mass_left": a,
                    "mass_right": b,
                },
            )
    raise AssertionError("unreachable")


def to_uev(model: CausalModel, d: RationalDist, cap: int | None = None) -> tuple[CausalModel, RationalDist]:
    """Rewire a model so each endogenous variable reads a private exogenous
    variable, preserving every causal formula's probability.

    Each fresh exogenous variable ranges over integer codes of the
    original contexts (0..K-1 in declaration-order lexicographic context
    order). The equation for the i-th endogenous variable decodes only its
    own private variable, and the output distribution puts the original
    mass of each context on the corresponding diagonal code vector.
    """
    check_distribution(model, d)
    sig = model.signature
    contexts = enumerate_contexts(model, cap)
    k = len(contexts)
    codes = tuple(range(k))
    code_of = {c: i for i, c in enumerate(contexts)}

    taken = set(sig.domains)
    private: dict[str, str] = {}
    for name in sig.endo_names:
        fresh = f"U_{name}"
        while fresh in taken:
            fresh += "_"
        taken.add(fresh)
        private[name] = fresh

    new_exo = tuple(VariableDecl(private[n], codes) for n in sig.endo_names)
    new_sig = Signature(new_exo, sig.endogenous)

    exo_names = set(sig.exo_names)
    new_eqs = []
    for name, expr in model.equations:
        decoder_cache: dict[str, Expr] = {}

        def decode(exo_var: str, owner: str = name) -> Expr:
            if exo_var not in decoder_cache:
                decoder_cache[exo_var] = Table.from_mapping(
                    (private[owner],),
                    {(i,): contexts[i][exo_var] for i in codes},
                )
            return decoder_cache[exo_var]

        new_eqs.append((name, _substitute_exo(expr, exo_names, decode)))

    new_model = CausalModel(new_sig, tuple(new_eqs), model.allowed_interventions)
    diag_names = [private[n] for n in sig.endo_names]
    new_entries = []
    for context, p in d.entries:
        code = code_of[context]
        new_entries.append((Assignment({v: code for v in diag_names}), p))
    return new_model, RationalDist(tuple(new_entries))


def _substitute_exo(expr: Expr, exo_names: set[str], decode) -> Expr:
    from .expr import Binary, Ite, Lit, Unary

    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, Var):
        return decode(expr.name) if expr.name in exo_names else expr
    if isinstance(expr, Unary):
        return Unary(expr.op, _substitute_exo(expr.arg, exo_names, decode))
    if isinstance(expr, Binary):
        return Binary(
            expr.op,
            _substitute_exo(expr.left, exo_names, decode),
            _substitute_exo(expr.right, exo_names, decode),
        )
    if isinstance(expr, Ite):
        return Ite(
            _substitute_exo(expr.cond, exo_names, decode),
            _substitute_exo(expr.then, exo_names, decode),
            _substitute_exo(expr.other, exo_names, decode),
        )
    if isinstance(expr, Table):
        if not (set(expr.vars) & exo_names):
            return expr
        # A table may mix exogenous and endogenous inputs; rebuild it as a
        # nested conditional so each exogenous read goes through its decoder.
        return _table_to_ite(expr, exo_names, decode)
    raise TypeError(f"not an expression: {expr!r}")


def _table_to_ite(table: Table, exo_names: set[str], decode) -> Expr:
    from .expr import Binary, Ite, Lit

    def ref(var: str) -> Expr:
        return decode(var) if var in exo_names else Var(var)

    entries = list(table.entries)
    result: Expr = Lit(entries[-1][1])
    for key, out in reversed(entries[:-1]):
        cond: Expr | None = None
        for var, value in zip(table.vars, key):
            eq = Binary("==", ref(var), Lit(value))
            cond = eq if cond is None else Binary("&&", cond, eq)
        result = Ite(cond, Lit(out), result)
    return result
