"""Seeded workload generators.

Each generator takes the imported `cak` package and a random generator
seeded by the run's seed and the pass number, and returns the operations
of one pass: one verdict each, with the verdict it must give and a semantic
check of its witness or counterexample. The program receives only the
generated models, maps and distributions. The runner shuffles each pass's
operations with the same generator.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench") / ".work"
EMIT = WORK / "emit"

# The two voting bundles of the wide-contexts and refuted workloads:
# 6 voters, 1 ad, 8,192 low contexts, and 512 or 1,458 high contexts.
VOTING = ((6, 2, 1), (6, 3, 1))


@dataclass
class Op:
    """One check. `run` returns its result, `report` turns a result into
    the report whose verdict and digest are gated, and `verify` returns the
    problems a semantic re-check finds (run once per id, since equal digests
    mean equal reports). `run_inprocess` replaces `run` in traced passes."""

    id: str
    run: Callable[[], Any]
    expect: bool
    report: Callable[[Any], dict]
    verify: Callable[[Any], list[str]]
    run_inprocess: Callable[[], Any] | None = None


def _report_obj(cak, result) -> dict:
    return cak.serialize.report_to_obj(result, include_witness=True)


def _no_check(result) -> list[str]:
    return []


def _compatible(cak, low, high, tau, omega, witness) -> list[str]:
    """A uniform witness must be a context map compatible with tau."""
    found = cak.transform.check_compatible(witness, tau, omega, low, high)
    return [] if found.verdict else [f"witness is not compatible: {found.detail}"]


def warm(cak, pairs) -> None:
    """Fill each model's and map's lazy caches: solve every model once and
    apply every state map once, so that a pass times the checks alone."""
    for low, high, tau in pairs:
        state = cak.model.solve(low, cak.model.enumerate_contexts(low)[0])
        cak.model.solve(high, cak.model.enumerate_contexts(high)[0])
        tau.apply(state)


# ---------------------------------------------------------------------------
# corpus-sweep


def corpus_sweep(cak, rng: random.Random) -> list[Op]:
    """Every (bundle, expected check) of the corpus."""
    pairs = [(b, e) for b in cak.corpus.all_bundles() for e in b.expected]
    warm(cak, {b.name: (b.low, b.high, b.tau) for b, _ in pairs}.values())
    return [_corpus_op(cak, b, e) for b, e in pairs]


def _corpus_op(cak, bundle, exp) -> Op:
    single = dataclasses.replace(bundle, expected=(exp,))

    def run():
        return cak.corpus.evaluate_bundle(single)[exp.check]

    def verify(result) -> list[str]:
        if exp.check == "uniform" and result.verdict:
            return _compatible(
                cak, bundle.low, bundle.high, bundle.tau, bundle.omega, result.witness
            )
        return []

    return Op(
        f"corpus/{bundle.name}/{exp.check}",
        run,
        exp.verdict,
        lambda r: _report_obj(cak, r),
        verify,
    )


# ---------------------------------------------------------------------------
# Voting construction, computed here without the library's search


def group_code(context, n_voters: int, n_groups: int, n_ads: int) -> dict[str, int]:
    """The high context the voting construction assigns to a low one: each
    group's code holds, per ad setting, the sum of its voters' bits in base
    (group size + 1), most significant setting first; the ads copy over.
    A voter's response holds one bit per setting in the same order, so the
    code is the sum of the group's responses read as digits in that base."""
    size = n_voters // n_groups
    digits = [int(format(r, "b"), size + 1) for r in range(2 ** 2**n_ads)]
    out = {f"HRA{a}": context[f"RA{a}"] for a in range(1, n_ads + 1)}
    for g in range(n_groups):
        voters = range(g * size + 1, (g + 1) * size + 1)
        out[f"GR{g + 1}"] = sum(digits[context[f"R{v}"]] for v in voters)
    return out


def voting_dists(cak, bundle, shape, rng: random.Random):
    """A full-support low distribution with seeded integer weights, and the
    high distribution the voting construction pushes it to."""
    weights = {u: rng.randint(1, 64) for u in cak.model.enumerate_contexts(bundle.low)}
    total = sum(weights.values())
    high: dict[Any, int] = {}
    for u, w in weights.items():
        key = cak.model.Assignment(group_code(u, *shape))
        high[key] = high.get(key, 0) + w
    d_low = cak.prob.RationalDist(tuple((u, Fraction(w, total)) for u, w in weights.items()))
    d_high = cak.prob.RationalDist(tuple((h, Fraction(w, total)) for h, w in high.items()))
    return d_low, d_high


# ---------------------------------------------------------------------------
# wide-contexts


def wide_contexts(cak, rng: random.Random) -> list[Op]:
    """check_uniform and check_exact on each voting bundle; both hold by
    construction."""
    ops = []
    for shape in VOTING:
        b = cak.corpus.build_voting(*shape)
        for model in (b.low, b.high):
            if cak.model.validate(model):
                raise RuntimeError(f"{b.name} does not validate")
        d_low, d_high = voting_dists(cak, b, shape, rng)
        warm(cak, [(b.low, b.high, b.tau)])
        ops.append(
            Op(
                f"wide/{b.name}/uniform",
                lambda b=b: cak.transform.check_uniform(b.low, b.high, b.tau, b.omega),
                True,
                lambda r: _report_obj(cak, r),
                lambda r, b=b: _compatible(cak, b.low, b.high, b.tau, b.omega, r.witness),
            )
        )
        ops.append(
            Op(
                f"wide/{b.name}/exact",
                lambda b=b, dl=d_low, dh=d_high: cak.transform.check_exact(
                    b.low, dl, b.high, dh, b.tau, b.omega
                ),
                True,
                lambda r: _report_obj(cak, r),
                _no_check,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# refuted


@dataclass(frozen=True)
class Corruption:
    """Entry (code, setting) of group g's response table set to `value`."""

    shape: tuple[int, int, int]
    group: int
    key: tuple[int, ...]
    value: int

    @property
    def id(self) -> str:
        n, g, a = self.shape
        key = "-".join(map(str, self.key))
        return f"voting-{n}-{g}-{a}/G{self.group}/{key}/{self.value}"


def corruptions(cak, shape) -> list[Corruption]:
    """Every single-entry change of a group table of the voting bundle.

    Group codes and group profiles are in one-to-one correspondence, and
    every profile is reached by some low context. Changing one entry of
    code c's row makes it equal another code's row, so no high context
    produces c's original profile and the low contexts with that profile
    have no correspondent: every check below fails."""
    high = cak.corpus.build_voting(*shape).high
    out = []
    for g in range(1, shape[1] + 1):
        table = high.equation_map[f"G{g}"]
        domain = high.signature.domains[f"G{g}"]
        for key, old in table.entries:
            out.extend(Corruption(shape, g, key, v) for v in domain if v != old)
    return out


def corrupt(cak, bundle, c: Corruption):
    """The bundle's high model with the corruption applied; it must
    validate."""
    name = f"G{c.group}"
    table = bundle.high.equation_map[name]
    mapping = table.mapping()
    mapping[c.key] = c.value
    equations = dict(bundle.high.equations)
    equations[name] = cak.expr.Table.from_mapping(table.vars, mapping)
    high = cak.model.CausalModel(
        bundle.high.signature, tuple(equations.items()), bundle.high.allowed_interventions
    )
    problems = cak.model.validate(high)
    if problems:
        raise RuntimeError(f"corruption {c.id} gives an invalid model: {problems}")
    return high


def refuted(cak, rng: random.Random) -> list[Op]:
    """One drawn corruption of each voting bundle, checked with
    check_uniform and check_tau_abstraction. Each pass draws anew, so a run
    covers many corruptions."""
    return refuted_ops(cak, [rng.choice(corruptions(cak, shape)) for shape in VOTING])


def refuted_ops(cak, picks: list[Corruption]) -> list[Op]:
    bundles = {shape: cak.corpus.build_voting(*shape) for shape in {c.shape for c in picks}}
    ops = []
    for c in picks:
        b = bundles[c.shape]
        high = corrupt(cak, b, c)
        warm(cak, [(b.low, high, b.tau)])
        verify = _refutation_check(cak, b, high, c)
        ops.append(
            Op(
                f"refuted/{c.id}/uniform",
                lambda b=b, h=high: cak.transform.check_uniform(b.low, h, b.tau, b.omega),
                False,
                lambda r: _report_obj(cak, r),
                verify,
            )
        )
        ops.append(
            Op(
                f"refuted/{c.id}/tau_abstraction",
                lambda b=b, h=high: cak.abstraction.check_tau_abstraction(b.low, h, b.tau),
                False,
                lambda r: _report_obj(cak, r),
                verify,
            )
        )
    return ops


def _refutation_check(cak, bundle, high, c: Corruption):
    """The counterexample context must have the corrupted code's original
    group profile, and, by brute force over every high context, no high
    context may share its abstracted response profile. The bundle's omega
    is the identity on the ad interventions, which is also the map they
    induce."""
    n_voters, n_groups, n_ads = c.shape
    base = n_voters // n_groups + 1
    settings = list(itertools.product((0, 1), repeat=n_ads))
    original = bundle.high.equation_map[f"G{c.group}"].mapping()
    row = [original[(c.key[0], *s)] for s in settings]
    want_code = 0
    for digit in row:
        want_code = want_code * base + digit
    interventions = bundle.low.allowed_interventions
    solve = cak.model.solve_under

    def verify(result) -> list[str]:
        context = (result.counterexample or {}).get("context")
        if context is None:
            return ["no counterexample context"]
        problems = []
        if group_code(context, *c.shape)[f"GR{c.group}"] != want_code:
            problems.append(f"counterexample {dict(context)} is not on the corrupted profile")
        profile = tuple(bundle.tau.apply(solve(bundle.low, context, i)) for i in interventions)
        for u in cak.model.enumerate_contexts(high):
            if tuple(solve(high, u, bundle.omega.apply(i)) for i in interventions) == profile:
                problems.append(f"high context {dict(u)} corresponds to {dict(context)}")
                break
        return problems

    return verify


# ---------------------------------------------------------------------------
# cli-check

# Already in corpus-sweep, and 3-4 s each as subprocesses.
CLI_SKIP = {("voting-4-2-1", "strong"), ("voting-4-2-1", "constructive")}
CLI_KIND = {"tau_abstraction": "abstraction"}


def emit_corpus(cak) -> None:
    """`cak corpus emit` every bundle into the work directory."""
    for bundle in cak.corpus.all_bundles():
        code, _ = cli_inprocess(
            cak, ["corpus", "emit", bundle.name, "--out-dir", str(EMIT), "--quiet"]
        )
        if code != 0:
            raise RuntimeError(f"corpus emit {bundle.name} exited {code}")


def cli_inprocess(cak, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cak.cli.main(argv)
    return code, out.getvalue()


def cli_subprocess(argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "cak.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout


def cli_argv(bundle, check: str) -> list[str]:
    def path(stem: str) -> str:
        return str(EMIT / f"{bundle.name}.{stem}.json")

    kind = CLI_KIND.get(check, check)
    argv = ["check", kind, path("low"), path("high"), "--tau", path("tau")]
    if kind in ("exact", "uniform"):
        argv += ["--omega", path("omega")]
    if kind == "exact":
        argv += ["--dists", path("low_dist"), path("high_dist")]
    return argv + ["--witness", "--quiet"]


def cli_report(result) -> dict:
    """The JSON report without its timing and its path-keyed inputs, with
    the exit code."""
    obj = json.loads(result[1])
    obj.pop("timing_ms", None)
    obj.pop("inputs", None)
    obj["exit_code"] = result[0]
    return obj


def cli_check(cak, rng: random.Random) -> list[Op]:
    """One `cak check <kind> ... --witness --quiet` per expected check."""
    emit_corpus(cak)
    pairs = [
        (b, e)
        for b in cak.corpus.all_bundles()
        for e in b.expected
        if (b.name, e.check) not in CLI_SKIP
    ]
    return [_cli_op(cak, b, e) for b, e in pairs]


def _cli_op(cak, bundle, exp) -> Op:
    argv = cli_argv(bundle, exp.check)
    want = 0 if exp.verdict else 1

    def verify(result) -> list[str]:
        problems = []
        if result[0] != want:
            problems.append(f"exit code {result[0]}, expected {want}")
        if exp.check == "uniform" and exp.verdict:
            obj = cak.serialize.loads(result[1])
            witness = cak.serialize.context_map_from_obj(obj.get("witness"))
            problems += _compatible(
                cak, bundle.low, bundle.high, bundle.tau, bundle.omega, witness
            )
        return problems

    return Op(
        f"cli/{bundle.name}/{exp.check}",
        lambda: cli_subprocess(argv),
        exp.verdict,
        cli_report,
        verify,
        run_inprocess=lambda: cli_inprocess(cak, argv),
    )


@dataclass(frozen=True)
class Workload:
    generate: Callable[[Any, random.Random], list[Op]]
    subprocesses: bool  # its checks run in child processes


WORKLOADS = {
    "corpus-sweep": Workload(corpus_sweep, False),
    "wide-contexts": Workload(wide_contexts, False),
    "refuted": Workload(refuted, False),
    "cli-check": Workload(cli_check, True),
}
