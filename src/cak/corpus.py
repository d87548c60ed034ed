"""Executable example bundles: small models, maps, and the verdicts each
hierarchy check is expected to produce on them. The bundles double as the
regression anchor set for the checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import InputError
from .expr import Table, parse_expr
from .maps import ContextMap, InterventionMap, StateMap
from .model import ALL, EMPTY, Assignment, CausalModel, Signature, VariableDecl
from .prob import RationalDist, tau_pushforward
from .report import CheckReport


@dataclass(frozen=True)
class ExpectedVerdict:
    check: str  # exact | uniform | tau_abstraction | strong | constructive
    verdict: bool
    source: str  # "anchor" (documented behaviour) or "derived" (recomputed here)


@dataclass(frozen=True)
class ExampleBundle:
    name: str
    description: str
    low: CausalModel
    high: CausalModel
    tau: StateMap
    omega: InterventionMap | None = None
    low_dist: RationalDist | None = None
    high_dist: RationalDist | None = None
    expected: tuple[ExpectedVerdict, ...] = ()
    notes: str = ""


def _decl(name: str, *domain: int) -> VariableDecl:
    return VariableDecl(name, tuple(domain))


def _binary(name: str) -> VariableDecl:
    return VariableDecl(name, (0, 1))


def _model(exo, endo, equations, allowed=ALL) -> CausalModel:
    eqs = tuple(
        (name, parse_expr(src) if isinstance(src, str) else src)
        for name, src in equations.items()
    )
    return CausalModel(Signature(tuple(exo), tuple(endo)), eqs, allowed)


def evaluate_bundle(bundle: ExampleBundle) -> dict[str, CheckReport]:
    """Run every check the bundle declares an expectation for."""
    from .abstraction import (
        check_strong_abstraction,
        check_tau_abstraction,
        search_constructive_partition,
    )
    from .transform import check_exact, check_uniform

    out: dict[str, CheckReport] = {}
    for exp in bundle.expected:
        if exp.check == "exact":
            out[exp.check] = check_exact(
                bundle.low,
                bundle.low_dist,
                bundle.high,
                bundle.high_dist,
                bundle.tau,
                bundle.omega,
            )
        elif exp.check == "uniform":
            out[exp.check] = check_uniform(
                bundle.low, bundle.high, bundle.tau, bundle.omega
            )
        elif exp.check == "tau_abstraction":
            out[exp.check] = check_tau_abstraction(bundle.low, bundle.high, bundle.tau)
        elif exp.check == "strong":
            out[exp.check] = check_strong_abstraction(bundle.low, bundle.high, bundle.tau)
        elif exp.check == "constructive":
            found = search_constructive_partition(bundle.low, bundle.high, bundle.tau)
            out[exp.check] = CheckReport(
                found is not None,
                detail="constructive partition found" if found else "no constructive partition",
                witness={"partition": found[0], "components": found[1]} if found else None,
            )
        else:
            raise InputError(f"unknown check {exp.check!r} in bundle {bundle.name}")
    return out


# ---------------------------------------------------------------------------
# Two unrelated single-variable models

def build_unrelated_pair() -> tuple[ExampleBundle, ExampleBundle]:
    """Two single-variable models with nothing in common. Point-mass
    distributions make each an exact transformation of the other, but the
    distribution-free check refuses both directions: each state map sends
    the low state not in the support to a high state no context can
    produce, so one low context has no counterpart.
    """
    m_a = _model(
        [_binary("AU")], [_decl("AX", 0, 1, 2)], {"AX": "AU"}, allowed=(EMPTY,)
    )
    m_b = _model(
        [_binary("BW")], [_decl("BY", 0, 1, 2)], {"BY": "1 - BW"}, allowed=(EMPTY,)
    )
    d_a = RationalDist.point(Assignment(AU=1))  # solves to AX=1
    d_b = RationalDist.point(Assignment(BW=0))  # solves to BY=1

    tau_ab = StateMap.from_exprs({"BY": parse_expr("table(AX)[(0) -> 2, (1) -> 1, (2) -> 2]")})
    tau_ba = StateMap.from_exprs({"AX": parse_expr("table(BY)[(0) -> 2, (1) -> 1, (2) -> 2]")})
    omega = InterventionMap.from_pairs(((EMPTY, EMPTY),))
    expected = (
        ExpectedVerdict("exact", True, "anchor"),
        ExpectedVerdict("uniform", False, "anchor"),
    )
    fwd = ExampleBundle(
        "unrelated-pair-forward",
        "exact via rigged point masses; distribution-free check fails",
        m_a,
        m_b,
        tau_ab,
        omega=omega,
        low_dist=d_a,
        high_dist=d_b,
        expected=expected,
        notes="value 2 of each endogenous domain is unreachable, which is what"
        " the distribution-free refusal hinges on",
    )
    rev = ExampleBundle(
        "unrelated-pair-reverse",
        "the same pair with the roles swapped",
        m_b,
        m_a,
        tau_ba,
        omega=omega,
        low_dist=d_b,
        high_dist=d_a,
        expected=expected,
        notes=fwd.notes,
    )
    return fwd, rev


# ---------------------------------------------------------------------------
# A two-variable chain vs. two independent variables

def _chain_model() -> CausalModel:
    return _model(
        [_binary("U1"), _binary("U2")],
        [_binary("X1"), _binary("X2")],
        {"X1": "U1", "X2": "X1"},
        allowed=(Assignment(X1=0), Assignment(X1=1)),
    )


def _independent_model() -> CausalModel:
    return _model(
        [_binary("U1"), _binary("U2")],
        [_binary("X1"), _binary("X2")],
        {"X1": "U1", "X2": "U2"},
        allowed=(Assignment(X1=0, X2=0), Assignment(X1=1, X2=1)),
    )


def build_chain_vs_independent() -> tuple[ExampleBundle, ExampleBundle, ExampleBundle]:
    """A chain (X2 copies X1) against an independent pair, with the identity
    state map. Joint-intervention maps make the distribution-free check
    pass in both directions, yet forcing the intervention map to be the
    identity (as the identity state map induces) breaks it, and the
    abstraction check fails accordingly.
    """
    chain = _chain_model()
    indep = _independent_model()
    identity_tau = StateMap.identity(chain.signature)
    omega_fwd = InterventionMap.from_pairs(
        tuple(
            (Assignment(X1=x), Assignment(X1=x, X2=x)) for x in (0, 1)
        )
    )
    omega_rev = InterventionMap.from_pairs(
        tuple(
            (Assignment(X1=x, X2=x), Assignment(X1=x)) for x in (0, 1)
        )
    )
    fwd = ExampleBundle(
        "chain-vs-independent",
        "uniform with the joint intervention map; not an abstraction",
        chain,
        indep,
        identity_tau,
        omega=omega_fwd,
        expected=(
            ExpectedVerdict("uniform", True, "anchor"),
            ExpectedVerdict("tau_abstraction", False, "anchor"),
            ExpectedVerdict("strong", False, "derived"),
        ),
    )
    rev = ExampleBundle(
        "chain-vs-independent-reverse",
        "the reverse direction, also uniform with its joint map",
        indep,
        chain,
        identity_tau,
        omega=omega_rev,
        expected=(ExpectedVerdict("uniform", True, "anchor"),),
    )
    ident = ExampleBundle(
        "chain-vs-independent-identity-omega",
        "identity intervention map: the distribution-free check fails",
        chain,
        indep.with_allowed((Assignment(X1=0), Assignment(X1=1))),
        identity_tau,
        omega=InterventionMap.identity((Assignment(X1=0), Assignment(X1=1))),
        expected=(ExpectedVerdict("uniform", False, "anchor"),),
    )
    return fwd, rev, ident


# ---------------------------------------------------------------------------
# Gating extension: high model with an extra master-switch variable

def build_gated_extension(branch_seed: int | None = None) -> ExampleBundle:
    """Extend the chain model with a gate: a fresh high endogenous variable G,
    driven by its own exogenous input, feeds every other equation. With
    G=1 the high model replays the chain; with G=0 every equation returns a
    fixed constant profile (all zeros by default, seeded-random with
    `branch_seed`). Embedding low states at G=1 passes the
    distribution-free check no matter what the G=0 branch does, but the
    embedding misses every G=0 state, so the abstraction check fails on
    surjectivity.
    """
    low = _chain_model()
    sig = low.signature
    rng = random.Random(branch_seed)
    constants = {}
    for d in sig.endogenous:
        constants[d.name] = rng.choice(d.domain) if branch_seed is not None else d.domain[0]

    exo = (_binary("UG"),) + sig.exogenous
    endo = (_binary("G"),) + sig.endogenous
    equations: dict[str, object] = {"G": parse_expr("UG")}
    from .expr import Binary, Ite, Lit, Var

    for name, expr in low.equations:
        gate = Binary("==", Var("G"), Lit(1))
        equations[name] = Ite(gate, expr, Lit(constants[name]))
    high = CausalModel(
        Signature(exo, endo),
        tuple(equations.items()),
        low.allowed_interventions,
    )
    tau_exprs = {"G": parse_expr("1")}
    for d in sig.endogenous:
        tau_exprs[d.name] = parse_expr(d.name)
    tau = StateMap.from_exprs(tau_exprs)
    allowed = low.allowed_interventions
    omega = InterventionMap.identity(
        allowed if not isinstance(allowed, str) else ()
    )
    return ExampleBundle(
        "gated-extension",
        "high model hides arbitrary behaviour behind a gate the embedding never opens",
        low,
        high,
        tau,
        omega=omega,
        expected=(
            ExpectedVerdict("uniform", True, "anchor"),
            ExpectedVerdict("tau_abstraction", False, "anchor"),
            ExpectedVerdict("strong", False, "derived"),
        ),
        notes=f"gate-off constants: {constants}",
    )


# ---------------------------------------------------------------------------
# Three bits merged into two by disjunction

def build_disjunctive_merge() -> tuple[ExampleBundle, ExampleBundle]:
    """Three independent bits abstracted to (X1 or X3, X2 or X3).

    The induced intervention map is undefined exactly on X1<-0, X2<-0 and
    (X1,X2)<-(0,0), whose images have three elements and so are never
    restriction sets; the remaining 24 low interventions cover all 9 high
    interventions. Both X3<-0 and the empty intervention induce the empty
    high intervention while forcing different required high states on some
    context, so no compatible context map exists for the full induced set;
    restricting the low set to interventions that contain X3<-0 removes
    the clash and the abstraction check passes.
    """
    low_all = _model(
        [_binary("U1"), _binary("U2"), _binary("U3")],
        [_binary("X1"), _binary("X2"), _binary("X3")],
        {"X1": "U1", "X2": "U2", "X3": "U3"},
    )
    high = _model(
        [_binary("W1"), _binary("W2")],
        [_binary("Y1"), _binary("Y2")],
        {"Y1": "W1", "Y2": "W2"},
    )
    tau = StateMap.from_exprs(
        {"Y1": parse_expr("X1 || X3"), "Y2": parse_expr("X2 || X3")}
    )
    from .abstraction import compute_induced_sets
    from .interventions import enumerate_interventions

    i_low_tau, i_high_tau, _ = compute_induced_sets(low_all, high, tau)
    main = ExampleBundle(
        "disjunctive-merge",
        "abstraction fails on the full induced intervention set",
        low_all.with_allowed(i_low_tau),
        high.with_allowed(i_high_tau),
        tau,
        expected=(
            ExpectedVerdict("tau_abstraction", False, "anchor"),
            ExpectedVerdict("strong", False, "anchor"),
            ExpectedVerdict("constructive", False, "derived"),
        ),
    )
    forced = tuple(
        i
        for i in enumerate_interventions(low_all)
        if i.get("X3") == 0
    )
    variant = ExampleBundle(
        "disjunctive-merge-forced-reset",
        "restricting to interventions that force X3 to 0 makes it an abstraction",
        low_all.with_allowed(forced),
        high.with_allowed(tuple(enumerate_interventions(high))),
        tau,
        expected=(ExpectedVerdict("tau_abstraction", True, "anchor"),),
    )
    return main, variant


# ---------------------------------------------------------------------------
# Pixel grids

def _pixel_low(n: int) -> CausalModel:
    exo = []
    endo = []
    equations = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            exo.append(_binary(f"U{i}{j}"))
            endo.append(_binary(f"X{i}{j}"))
            equations[f"X{i}{j}"] = f"U{i}{j}"
    return _model(exo, endo, equations)


def _counted_pixels(n: int) -> tuple[list[str], list[str]]:
    top = [f"X{i}{j}" for i in range(1, n // 2 + 1) for j in range(1, n + 1)]
    left = [f"X{i}{j}" for i in range(1, n + 1) for j in range(1, n // 2 + 1)]
    return top, left


def build_pixel_grid(n: int = 2, variant: str = "two-counter") -> ExampleBundle:
    """An n-by-n grid of independent pixels (n even).

    two-counter: the high model reports how many pixels are black in the
    top half and in the left half, with a single exogenous variable
    ranging over the jointly achievable count pairs. No low intervention
    induces a lone top-count or left-count intervention, so the strong
    check fails naming one. Because the two counters share the corner
    block, their jointly achievable pairs do not fill the product of the
    two count ranges, so the abstraction check also fails on
    surjectivity; see the bundle notes.

    merged: a single high variable counts black pixels in the union of the
    top half and left half; this one is a strong and constructive
    abstraction.
    """
    if n % 2 != 0 or n < 2:
        raise InputError("grid side must be even and at least 2")
    low = _pixel_low(n)
    top, left = _counted_pixels(n)
    half = len(top)
    if variant == "two-counter":
        overlap = sorted(set(top) & set(left))
        pairs = []
        for m in range(half + 1):
            for m2 in range(half + 1):
                if abs(m - m2) <= half - len(overlap):
                    pairs.append((m, m2))
        codes = tuple(range(len(pairs)))
        high = _model(
            [VariableDecl("C", codes)],
            [_decl("TH", *range(half + 1)), _decl("LH", *range(half + 1))],
            {
                "TH": Table.from_mapping(("C",), {(c,): pairs[c][0] for c in codes}),
                "LH": Table.from_mapping(("C",), {(c,): pairs[c][1] for c in codes}),
            },
        )
        tau = StateMap.from_exprs(
            {
                "TH": parse_expr(" + ".join(top)),
                "LH": parse_expr(" + ".join(left)),
            }
        )
        rest = [v for v in low.signature.endo_names if v not in set(top) | set(left)]
        restricted = [EMPTY]
        fixed = sorted(set(top) | set(left))
        for combo in itertools.product((0, 1), repeat=len(fixed)):
            base = dict(zip(fixed, combo))
            for tail in itertools.product((None, 0, 1), repeat=len(rest)):
                extra = {v: t for v, t in zip(rest, tail) if t is not None}
                restricted.append(Assignment({**base, **extra}))
        achievable = tuple(
            Assignment(TH=m, LH=m2) for (m, m2) in pairs
        )
        return ExampleBundle(
            "pixel2-two-counter" if n == 2 else f"pixel{n}-two-counter",
            "overlapping half-counts; not strong, and not surjective onto the count product",
            low.with_allowed(tuple(restricted)),
            high.with_allowed((EMPTY,) + achievable),
            tau,
            expected=(
                ExpectedVerdict("strong", False, "anchor"),
                ExpectedVerdict("tau_abstraction", False, "derived"),
                ExpectedVerdict("constructive", False, "derived"),
            ),
            notes="count pairs with |top - left| > half-overlap are not in the"
            " image of the state map, so surjectivity onto the product of the"
            " two count domains is impossible for any overlapping pair of"
            " counters",
        )
    if variant == "merged":
        union = sorted(set(top) | set(left), key=low.signature.endo_names.index)
        high = _model(
            [_decl("W0", *range(len(union) + 1))],
            [_decl("TLH", *range(len(union) + 1))],
            {"TLH": "W0"},
        )
        tau = StateMap.from_exprs({"TLH": parse_expr(" + ".join(union))})
        return ExampleBundle(
            "pixel2-merged" if n == 2 else f"pixel{n}-merged",
            "single union count; strong and constructive",
            low,
            high,
            tau,
            expected=(
                ExpectedVerdict("strong", True, "anchor"),
                ExpectedVerdict("constructive", True, "anchor"),
            ),
        )
    raise InputError(f"unknown pixel variant {variant!r}")


# ---------------------------------------------------------------------------
# Voting

def build_voting(n_voters: int = 4, n_groups: int = 2, n_ads: int = 1) -> ExampleBundle:
    """Voters respond to ad settings through per-voter response functions;
    the high model aggregates each group's votes into a sum with its own
    group-level response function, and replaces the vote total by a strict
    majority bit. Allowed interventions touch only the ads. The group map
    is distribution-free correct, and with all interventions on the table
    it is a strong, constructive abstraction.
    """
    if n_voters % n_groups != 0:
        raise InputError("group size must divide the number of voters")
    group_size = n_voters // n_groups
    settings = list(itertools.product((0, 1), repeat=n_ads))
    n_settings = len(settings)

    # Low: voter response functions encoded base-2 over ad settings.
    exo = [
        _decl(f"R{v}", *range(2 ** n_settings)) for v in range(1, n_voters + 1)
    ]
    exo += [_binary(f"RA{a}") for a in range(1, n_ads + 1)]
    endo = [_binary(f"A{a}") for a in range(1, n_ads + 1)]
    endo += [_binary(f"X{v}") for v in range(1, n_voters + 1)]
    endo.append(_decl("T", *range(n_voters + 1)))
    equations: dict[str, object] = {
        f"A{a}": f"RA{a}" for a in range(1, n_ads + 1)
    }
    ad_vars = tuple(f"A{a}" for a in range(1, n_ads + 1))
    for v in range(1, n_voters + 1):
        entries = {}
        for code in range(2 ** n_settings):
            bits = [(code >> (n_settings - 1 - k)) & 1 for k in range(n_settings)]
            for k, setting in enumerate(settings):
                entries[(code, *setting)] = bits[k]
        equations[f"X{v}"] = Table.from_mapping((f"R{v}", *ad_vars), entries)
    equations["T"] = " + ".join(f"X{v}" for v in range(1, n_voters + 1))
    low = _model(exo, endo, equations)

    # High: group response functions encoded base-(group_size+1).
    gbase = group_size + 1
    hexo = [
        _decl(f"GR{g}", *range(gbase ** n_settings)) for g in range(1, n_groups + 1)
    ]
    hexo += [_binary(f"HRA{a}") for a in range(1, n_ads + 1)]
    hendo = [_binary(f"A{a}") for a in range(1, n_ads + 1)]
    hendo += [_decl(f"G{g}", *range(gbase)) for g in range(1, n_groups + 1)]
    hendo.append(_binary("W"))
    hequations: dict[str, object] = {
        f"A{a}": f"HRA{a}" for a in range(1, n_ads + 1)
    }
    for g in range(1, n_groups + 1):
        entries = {}
        for code in range(gbase ** n_settings):
            digits = []
            rest = code
            for _ in range(n_settings):
                digits.append(rest % gbase)
                rest //= gbase
            digits.reverse()
            for k, setting in enumerate(settings):
                entries[(code, *setting)] = digits[k]
        hequations[f"G{g}"] = Table.from_mapping((f"GR{g}", *ad_vars), entries)
    total = " + ".join(f"G{g}" for g in range(1, n_groups + 1))
    hequations["W"] = f"ite({n_voters // 2} < {total}, 1, 0)"
    high = _model(hexo, hendo, hequations)

    tau_exprs: dict[str, object] = {f"A{a}": parse_expr(f"A{a}") for a in range(1, n_ads + 1)}
    for g in range(1, n_groups + 1):
        members = range((g - 1) * group_size + 1, g * group_size + 1)
        tau_exprs[f"G{g}"] = parse_expr(" + ".join(f"X{v}" for v in members))
    tau_exprs["W"] = parse_expr(f"ite({n_voters // 2} < T, 1, 0)")
    tau = StateMap.from_exprs(tau_exprs)

    ad_interventions = [EMPTY]
    for combo in itertools.product((None, 0, 1), repeat=n_ads):
        iv = {f"A{a + 1}": c for a, c in enumerate(combo) if c is not None}
        if iv:
            ad_interventions.append(Assignment(iv))
    omega = InterventionMap.identity(tuple(ad_interventions))
    return ExampleBundle(
        f"voting-{n_voters}-{n_groups}-{n_ads}",
        "group aggregation of voters with ad-only allowed interventions",
        low.with_allowed(tuple(ad_interventions)),
        high.with_allowed(tuple(ad_interventions)),
        tau,
        omega=omega,
        expected=(
            ExpectedVerdict("uniform", True, "derived"),
            ExpectedVerdict("strong", True, "derived"),
            ExpectedVerdict("constructive", True, "derived"),
        ),
    )


# ---------------------------------------------------------------------------
# Discretized continuous-flavoured bundles (labelled: not scale-exact)

def build_energy_discrete() -> ExampleBundle:
    """A mass/velocity/height model abstracted to two product-form
    quantities, discretized with arithmetic modulo 5 so that scaling by
    any nonzero mass permutes the value space. Intervening on the mass
    alone induces the empty high intervention even though contexts
    disagree about the products, so the strong check fails on its
    abstraction condition. A deliberately discretized stand-in for a
    continuous original; the verdicts, not the numbers, are the point.
    """
    low = _model(
        [_decl("UV", 0, 1, 2, 3, 4), _decl("UH", 0, 1, 2, 3, 4), _decl("UM", 1, 2, 3, 4)],
        [_decl("V", 0, 1, 2, 3, 4), _decl("H", 0, 1, 2, 3, 4), _decl("M", 1, 2, 3, 4)],
        {"V": "UV", "H": "UH", "M": "UM"},
    )
    high = _model(
        [_decl("UK", 0, 1, 2, 3, 4), _decl("UP", 0, 1, 2, 3, 4)],
        [_decl("K", 0, 1, 2, 3, 4), _decl("P", 0, 1, 2, 3, 4)],
        {"K": "UK", "P": "UP"},
    )
    kin = Table.from_mapping(
        ("M", "V"), {(m, v): (m * v) % 5 for m in (1, 2, 3, 4) for v in range(5)}
    )
    pot = Table.from_mapping(
        ("M", "H"), {(m, h): (m * h) % 5 for m in (1, 2, 3, 4) for h in range(5)}
    )
    tau = StateMap.from_exprs({"K": kin, "P": pot})
    return ExampleBundle(
        "energy-mod5",
        "mass rescaling is invisible to the induced intervention map",
        low,
        high,
        tau,
        expected=(ExpectedVerdict("strong", False, "anchor"),),
        notes="discretized stand-in for a continuous original",
    )


def build_linear_aggregate(n_micro: int = 2) -> ExampleBundle:
    """Micro variables feeding a noisy linear response, abstracted to their
    sum (sums rather than means, to stay integral). Allowed interventions
    set all micro variables at once, the response, both, or nothing; the
    induced map is defined on exactly that set. Strong and constructive.
    """
    micro = [f"X{i}" for i in range(1, n_micro + 1)]
    low = _model(
        [_binary(f"LU{i}") for i in range(1, n_micro + 1)] + [_binary("LV1")],
        [_binary(m) for m in micro] + [_decl("Y", *range(n_micro + 2))],
        {
            **{m: f"LU{i}" for i, m in enumerate(micro, start=1)},
            "Y": " + ".join(micro) + " + LV1",
        },
    )
    high = _model(
        [_decl("HU", *range(n_micro + 1)), _binary("HV")],
        [_decl("XS", *range(n_micro + 1)), _decl("YS", *range(n_micro + 2))],
        {"XS": "HU", "YS": "XS + HV"},
    )
    tau = StateMap.from_exprs(
        {"XS": parse_expr(" + ".join(micro)), "YS": parse_expr("Y")}
    )
    micro_settings = list(itertools.product((0, 1), repeat=n_micro))
    i_low = [EMPTY]
    i_low += [Assignment(dict(zip(micro, c))) for c in micro_settings]
    i_low += [Assignment(Y=y) for y in range(n_micro + 2)]
    i_low += [
        Assignment({**dict(zip(micro, c)), "Y": y})
        for c in micro_settings
        for y in range(n_micro + 2)
    ]
    omega_pairs = []
    for i in i_low:
        img = {}
        if all(m in i for m in micro):
            img["XS"] = sum(i[m] for m in micro)
        if "Y" in i:
            img["YS"] = i["Y"]
        omega_pairs.append((i, Assignment(img)))
    omega = InterventionMap.from_pairs(tuple(omega_pairs))
    i_high = tuple(dict.fromkeys(img for _, img in omega_pairs))

    from .model import enumerate_contexts

    d_low = RationalDist.uniform(enumerate_contexts(low))
    tau_u = ContextMap.from_table(
        tuple(
            (
                u,
                Assignment(
                    HU=sum(u[f"LU{i}"] for i in range(1, n_micro + 1)), HV=u["LV1"]
                ),
            )
            for u in enumerate_contexts(low)
        )
    )
    d_high = tau_pushforward(tau_u, d_low)
    return ExampleBundle(
        "linear-sum",
        "micro variables aggregated into their sum, with a noisy response",
        low.with_allowed(tuple(i_low)),
        high.with_allowed(i_high),
        tau,
        omega=omega,
        low_dist=d_low,
        high_dist=d_high,
        expected=(
            ExpectedVerdict("exact", True, "derived"),
            ExpectedVerdict("uniform", True, "derived"),
            ExpectedVerdict("strong", True, "derived"),
            ExpectedVerdict("constructive", True, "derived"),
        ),
        notes="sums instead of averages keep every domain integral",
    )


# ---------------------------------------------------------------------------
# Registry

def all_bundles() -> tuple[ExampleBundle, ...]:
    fwd, rev = build_unrelated_pair()
    c_fwd, c_rev, c_ident = build_chain_vs_independent()
    dm, dm_forced = build_disjunctive_merge()
    return (
        fwd,
        rev,
        c_fwd,
        c_rev,
        c_ident,
        build_gated_extension(),
        dm,
        dm_forced,
        build_pixel_grid(2, "two-counter"),
        build_pixel_grid(2, "merged"),
        build_voting(4, 2, 1),
        build_energy_discrete(),
        build_linear_aggregate(2),
    )


def get_bundle(name: str) -> ExampleBundle:
    for bundle in all_bundles():
        if bundle.name == name:
            return bundle
    raise InputError(f"no corpus bundle named {name!r}")
