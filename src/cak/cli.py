"""Command-line front end.

Machine-readable JSON reports go to stdout, human summaries to stderr
(suppressed by --quiet). Exit codes: 0 the check holds (or the command
succeeded), 1 the check fails, 2 any library error (a CakError). Reports
are byte-identical across runs for identical inputs except for the
timing_ms field.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import time
from pathlib import Path

from . import serialize
from .abstraction import (
    check_constructive,
    check_strong_abstraction,
    check_tau_abstraction,
    compute_induced_sets,
    derive_omega_tau,
    search_constructive_partition,
)
from .corpus import all_bundles, get_bundle
from .errors import ENV_MAX_CONTEXTS, ENV_MAX_INTERVENTIONS, CakError, InputError
from .errors import contexts_cap, interventions_cap
from .maps import tabulate
from .model import EMPTY, _enumerate_total, check_context, check_intervention, solve_under
from .prob import equivalent, to_uev
from .report import CheckReport
from .transform import check_exact, check_uniform

CHECK_KINDS = ("exact", "uniform", "abstraction", "strong", "constructive")
MAX_DIAGNOSTICS = 5


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load(path: str):
    return serialize.loads(Path(path).read_text(encoding="utf-8"))


def _load_model(path: str):
    model = serialize.model_from_obj(_load(path))
    diagnostics = model._diagnostics  # kept on the model, so no check validates it again
    if diagnostics:
        # One per offending value can run to millions; the first few say it.
        shown = "; ".join(d.message for d in diagnostics[:MAX_DIAGNOSTICS])
        more = len(diagnostics) - MAX_DIAGNOSTICS
        raise InputError(
            f"{path} is not a valid model: {shown}" + (f"; … and {more} more" if more > 0 else "")
        )
    return model


def _load_tau(path: str, low, high):
    """The state map in `path`, checked to read only low variables and to
    send every low state to a high state, so that a malformed map exits 2
    before any check runs."""
    tau = serialize.state_map_from_obj(_load(path))
    sig = low.signature
    _enumerate_total(sig.endogenous, sig.endo_keyset, "endogenous state space")  # the cap goes first
    try:
        tabulate(tau, sig, high.signature)
    except CakError as exc:
        raise InputError(f"{path} is not a valid state map: {exc}") from None
    return tau


def _emit(report: dict, started: float, quiet: bool, summary: str) -> None:
    report["timing_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    sys.stdout.write(serialize.dumps(report))
    if not quiet:
        print(summary, file=sys.stderr)


def _cmd_solve(args) -> int:
    started = time.monotonic()
    model = _load_model(args.model)
    context = serialize.assignment_from_obj(serialize.loads(args.context))
    intervention = (
        serialize.assignment_from_obj(serialize.loads(args.intervene))
        if args.intervene
        else EMPTY
    )
    check_context(model, context)
    check_intervention(model, intervention)
    state = solve_under(model, context, intervention)
    report = {
        "command": "solve",
        "inputs": {args.model: _digest(args.model)},
        "state": serialize.assignment_to_obj(state),
    }
    summary = " ".join(f"{k}={v}" for k, v in state.items_sorted)
    _emit(report, started, args.quiet, summary)
    return 0


def _run_check(args) -> CheckReport:
    low = _load_model(args.low)
    high = _load_model(args.high)
    tau = _load_tau(args.tau, low, high)
    kind = args.kind
    if kind == "exact":
        if not args.omega or not args.dists:
            raise InputError("exact needs --omega and --dists LOW HIGH")
        omega = serialize.intervention_map_from_obj(_load(args.omega))
        d_low = serialize.dist_from_obj(_load(args.dists[0]))
        d_high = serialize.dist_from_obj(_load(args.dists[1]))
        return check_exact(low, d_low, high, d_high, tau, omega)
    if kind == "uniform":
        if not args.omega:
            raise InputError("uniform needs --omega")
        omega = serialize.intervention_map_from_obj(_load(args.omega))
        return check_uniform(low, high, tau, omega)
    if kind == "abstraction":
        return check_tau_abstraction(low, high, tau)
    if kind == "strong":
        return check_strong_abstraction(low, high, tau)
    if kind == "constructive":
        if args.partition:
            partition = serialize.partition_from_obj(
                _load(args.partition), high.signature
            )
            return check_constructive(low, high, tau, partition)
        found = search_constructive_partition(low, high, tau)
        if found is None:
            return CheckReport(False, detail="no constructive partition exists")
        return CheckReport(
            True,
            detail="constructive partition found",
            witness={"partition": found[0], "components": found[1]},
        )
    raise InputError(f"unknown check kind {kind!r}")


def _cmd_check(args) -> int:
    started = time.monotonic()
    result = _run_check(args)
    inputs = {args.low: _digest(args.low), args.high: _digest(args.high), args.tau: _digest(args.tau)}
    if args.omega:
        inputs[args.omega] = _digest(args.omega)
    if args.partition:
        inputs[args.partition] = _digest(args.partition)
    if args.dists:
        for p in args.dists:
            inputs[p] = _digest(p)
    report = {
        "command": f"check {args.kind}",
        "inputs": inputs,
        **serialize.report_to_obj(result, include_witness=args.witness),
    }
    verdict_word = "holds" if result.verdict else "fails"
    _emit(report, started, args.quiet, f"{args.kind} {verdict_word}: {result.detail}")
    return 0 if result.verdict else 1


def _cmd_derive_omega(args) -> int:
    started = time.monotonic()
    low = _load_model(args.low)
    high = _load_model(args.high)
    tau = _load_tau(args.tau, low, high)
    inputs = {args.low: _digest(args.low), args.high: _digest(args.high), args.tau: _digest(args.tau)}
    if args.intervention:
        intervention = serialize.assignment_from_obj(serialize.loads(args.intervention))
        image = derive_omega_tau(low, high, tau, intervention)
        report = {
            "command": "derive-omega",
            "inputs": inputs,
            "intervention": serialize.assignment_to_obj(intervention),
            "defined": image is not None,
            "image": serialize.assignment_to_obj(image) if image is not None else None,
        }
        summary = (
            "undefined"
            if image is None
            else (" ".join(f"{k}={v}" for k, v in image.items_sorted) or "(empty intervention)")
        )
    else:
        i_low_tau, i_high_tau, omega_tau = compute_induced_sets(low, high, tau)
        report = {
            "command": "derive-omega",
            "inputs": inputs,
            "induced_low": [serialize.assignment_to_obj(i) for i in i_low_tau],
            "induced_high": [serialize.assignment_to_obj(i) for i in i_high_tau],
            "omega_tau": serialize.intervention_map_to_obj(omega_tau),
        }
        summary = f"{len(i_low_tau)} low interventions induced, {len(i_high_tau)} high images"
    _emit(report, started, args.quiet, summary)
    return 0


def _cmd_to_uev(args) -> int:
    started = time.monotonic()
    model = _load_model(args.model)
    dist = serialize.dist_from_obj(_load(args.dist))
    new_model, new_dist = to_uev(model, dist)
    out_model = args.out_model or args.model + ".uev.json"
    out_dist = args.out_dist or args.dist + ".uev.json"
    Path(out_model).write_text(serialize.dumps(serialize.model_to_obj(new_model)), encoding="utf-8")
    Path(out_dist).write_text(serialize.dumps(serialize.dist_to_obj(new_dist)), encoding="utf-8")
    equiv = equivalent(model, dist, new_model, new_dist)
    report = {
        "command": "to-uev",
        "inputs": {args.model: _digest(args.model), args.dist: _digest(args.dist)},
        "outputs": {"model": out_model, "distribution": out_dist},
        "equivalent": equiv.verdict,
        "detail": equiv.detail,
    }
    _emit(
        report,
        started,
        args.quiet,
        f"wrote {out_model} and {out_dist}; equivalence {'OK' if equiv.verdict else 'FAILED'}",
    )
    return 0 if equiv.verdict else 1


def _cmd_corpus(args) -> int:
    started = time.monotonic()
    if args.action == "list":
        rows = [
            {
                "name": b.name,
                "description": b.description,
                "expected": [
                    {"check": e.check, "verdict": e.verdict, "source": e.source}
                    for e in b.expected
                ],
            }
            for b in all_bundles()
        ]
        _emit(
            {"command": "corpus list", "inputs": {}, "bundles": rows},
            started,
            args.quiet,
            f"{len(rows)} bundles",
        )
        return 0
    bundle = get_bundle(args.name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for stem, obj in serialize.bundle_to_objs(bundle).items():
        path = out_dir / f"{bundle.name}.{stem}.json"
        path.write_text(serialize.dumps(obj), encoding="utf-8")
        written[stem] = str(path)
    _emit(
        {"command": "corpus emit", "inputs": {}, "bundle": bundle.name, "outputs": written},
        started,
        args.quiet,
        f"emitted {len(written)} files to {out_dir}",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cak",
        description="Check abstraction relations between finite causal models with exact arithmetic.",
    )
    parser.add_argument("--max-interventions", type=int, default=None)
    parser.add_argument("--max-contexts", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a model in a context, optionally under an intervention")
    p.add_argument("model")
    p.add_argument("--context", required=True, help='JSON, e.g. \'{"U1": 1}\'')
    p.add_argument("--intervene", default=None, help='JSON, e.g. \'{"X1": 0}\'')
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="run one of the hierarchy checks")
    p.add_argument("kind", choices=CHECK_KINDS)
    p.add_argument("low")
    p.add_argument("high")
    p.add_argument("--tau", required=True)
    p.add_argument("--omega", default=None)
    p.add_argument("--dists", nargs=2, default=None, metavar=("LOW_DIST", "HIGH_DIST"))
    p.add_argument("--partition", default=None)
    p.add_argument("--witness", action="store_true", help="include the witness in the report")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("derive-omega", help="induced intervention map of a state map")
    p.add_argument("low")
    p.add_argument("high")
    p.add_argument("--tau", required=True)
    p.add_argument("--intervention", default=None, help="JSON; omit for the full table")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_derive_omega)

    p = sub.add_parser("to-uev", help="rewire a model so every endogenous variable has a private exogenous input")
    p.add_argument("model")
    p.add_argument("--dist", required=True)
    p.add_argument("--out-model", default=None)
    p.add_argument("--out-dist", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_to_uev)

    p = sub.add_parser("corpus", help="list or emit the bundled examples")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_corpus)
    return parser


@contextlib.contextmanager
def _caps(args):
    """The --max-* flags as environment caps for one invocation; the
    previous environment is restored afterwards."""
    caps = {ENV_MAX_INTERVENTIONS: args.max_interventions, ENV_MAX_CONTEXTS: args.max_contexts}
    saved = {name: os.environ.get(name) for name, value in caps.items() if value is not None}
    os.environ.update({name: str(caps[name]) for name in saved})
    try:
        yield
    finally:
        for name, old in saved.items():
            if old is None:
                del os.environ[name]
            else:
                os.environ[name] = old


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "corpus" and args.action == "emit" and not args.name:
        parser.error("corpus emit needs a bundle name")
    with _caps(args):
        try:
            # Read once here, so a bad flag exits 2 on every command.
            interventions_cap()
            contexts_cap()
            return args.func(args)
        except CakError as exc:
            sys.stdout.write(serialize.dumps({"command": args.command, "error": str(exc)}))
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
