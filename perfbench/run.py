"""Run one benchmark workload against the library in ./src and print its
metrics, with every verdict checked.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` the per-layer metrics of a traced
pass. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The set-up (a fresh
import and input generation) is repeated before and after the passes and
its median reported. After one untimed warm-up pass, a run measures whole
passes over the workload's checks, at least three, and as many as end
within `--seconds` of the run's start, set-ups included. Passes take the
usable CPUs in turn. Every pass gets freshly generated inputs, equal for
equal seeds, so no pass reuses objects a previous pass filled caches on.
perfbench/README.md describes the workloads, the metrics and the
correctness gate.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import GcClock, Target, Tracer  # noqa: E402
from workloads import ROOT, WORK, WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"
N_SETUP = 3
SETUP_SECONDS = 1.5
MIN_PASSES = 3
IMPORT_PROBES = 5
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "verdict_ms_p50": "ms",
    "verdict_ms_p80": "ms",
}


def _verdict(report) -> float:
    return 1.0 if report.verdict else 0.0


TARGETS = [
    Target("model", "solve_under"),
    Target("model", "enumerate_contexts"),
    Target("model", "validate"),
    Target("maps", "StateMap.apply"),
    Target("maps", "materialize_state_map"),
    Target("transform", "find_compatible_tau_u", _verdict),
    Target("transform", "check_uniform"),
    Target("transform", "check_exact"),
    Target("abstraction", "derive_omega_tau", lambda image: float(image is not None)),
    Target("abstraction", "compute_induced_sets"),
    Target("abstraction", "check_tau_abstraction"),
    Target("abstraction", "check_strong_abstraction"),
    Target("abstraction", "search_constructive_partition"),
    Target("abstraction", "derive_component_maps"),
    Target("interventions", "enumerate_interventions", len),
    Target("interventions", "check_omega"),
    Target("prob", "interventional_dist"),
    Target("prob", "tau_pushforward"),
    Target("serialize", "model_from_obj"),
    Target("serialize", "state_map_from_obj"),
    Target("serialize", "report_to_obj"),
    Target("serialize", "dumps", len),
    Target("expr", "parse_expr"),
    Target("expr", "compile_expr"),
    Target("cli", "main"),
    Target("corpus", "all_bundles"),
]

# Per-layer metrics: <module>.<function>.<stat>, from the traced pass.
# `items` and `bytes` sum the traced call's measure; a ratio divides it
# by the calls. corpus.all_bundles.self_s comes from a traced set-up.
PER_LAYER = {
    "model.solve_under.calls": "count",
    "model.solve_under.self_s": "s",
    "model.enumerate_contexts.self_s": "s",
    "maps.StateMap.apply.calls": "count",
    "maps.StateMap.apply.self_s": "s",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "transform.find_compatible_tau_u.calls": "count",
    "transform.find_compatible_tau_u.self_s": "s",
    "transform.find_compatible_tau_u.witness_ratio": "ratio",
    "transform.check_uniform.self_s": "s",
    "abstraction.derive_omega_tau.calls": "count",
    "abstraction.derive_omega_tau.self_s": "s",
    "abstraction.derive_omega_tau.defined_ratio": "ratio",
    "abstraction.compute_induced_sets.self_s": "s",
    "abstraction.check_tau_abstraction.calls": "count",
    "abstraction.check_strong_abstraction.calls": "count",
    "abstraction.check_strong_abstraction.self_s": "s",
    "abstraction.search_constructive_partition.self_s": "s",
    "abstraction.derive_component_maps.self_s": "s",
    "interventions.enumerate_interventions.items": "count",
    "interventions.enumerate_interventions.self_s": "s",
    "interventions.check_omega.self_s": "s",
    "maps.materialize_state_map.calls": "count",
    "maps.materialize_state_map.self_s": "s",
    "prob.interventional_dist.calls": "count",
    "prob.interventional_dist.self_s": "s",
    "prob.tau_pushforward.self_s": "s",
    "transform.check_exact.self_s": "s",
    "serialize.model_from_obj.self_s": "s",
    "serialize.state_map_from_obj.self_s": "s",
    "serialize.report_to_obj.self_s": "s",
    "serialize.dumps.self_s": "s",
    "serialize.dumps.bytes": "B",
    "model.validate.self_s": "s",
    "expr.parse_expr.calls": "count",
    "expr.parse_expr.self_s": "s",
    "expr.compile_expr.calls": "count",
    "cli.main.self_s": "s",
    "cli.startup_s": "s",
    "cli.import_s": "s",
    "corpus.all_bundles.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def host() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"cpu {cpu}"
    )


def fresh_import():
    """Import the library anew, as a process that starts would."""
    for name in [n for n in sys.modules if n == "cak" or n.startswith("cak.")]:
        del sys.modules[name]
    cak = importlib.import_module("cak")
    for sub in ("cli", "corpus", "serialize", "transform", "abstraction", "prob"):
        importlib.import_module(f"cak.{sub}")
    return cak


def digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Gate:
    """Checks every result: its verdict, its report digest against the
    reference, and once per check the semantic re-check of its witness or
    counterexample. With `record`, it stores each digest instead of
    comparing it."""

    def __init__(self, digests: dict[str, str], record: bool = False):
        self.digests = digests
        self.record = record
        self.verified: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def check(self, op, result) -> None:
        self.attempted += 1
        if isinstance(result, BaseException):
            problems = [f"raised {result!r}"]
        else:
            problems = self._problems(op, result)
        if problems:
            self.failed += 1
            print(f"FAILED {op.id}: {'; '.join(problems)}", file=sys.stderr)

    def _problems(self, op, result) -> list[str]:
        problems = []
        try:
            report = op.report(result)
            if report.get("verdict") is not op.expect:
                problems.append(f"verdict {report.get('verdict')!r}, expected {op.expect}")
            found = digest(report)
            if self.record:
                self.digests[op.id] = found
            elif self.digests.get(op.id) != found:
                problems.append(f"report digest {found} differs from the reference")
            if op.id not in self.verified:
                problems += op.verify(result)
                self.verified.add(op.id)
        except Exception as exc:  # a malformed result is a failed check
            problems.append(f"checking raised {exc!r}")
        return problems


def run_pass(ops, inprocess: bool, gate: Gate, tracer=None, gc_clock=None):
    """Run every op once and time each; check the results afterwards.
    Each check starts after a full garbage collection, so that garbage the
    checks before it left does not land in its time, whatever the order.
    Returns the summed time of the checks and the latency of each check
    that completed, by id."""
    results = []
    latencies = {}
    wall = 0.0
    clock = time.perf_counter
    for index, op in enumerate(ops):
        run = op.run_inprocess if inprocess and op.run_inprocess else op.run
        gc.collect()
        with gc_clock or contextlib.nullcontext():
            if tracer is not None:
                tracer.item = index
                tracer.active = True
            start = clock()
            try:
                result = run()
            except Exception as exc:
                result = exc
            elapsed = clock() - start
            if tracer is not None:
                tracer.active = False
        wall += elapsed
        if not isinstance(result, Exception):
            latencies[op.id] = elapsed
        results.append(result)
    for op, result in zip(ops, results):
        gate.check(op, result)
    return wall, latencies


def quantile(samples: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: a weighted mean of
    all order statistics, with Beta(q(n+1), (1-q)(n+1)) weights. A single
    order statistic jumps from one check to the next where the checks'
    latencies leave a gap, as the corpus checks do around their median."""
    xs = sorted(samples)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's
    continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    ) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -((a + m) * (a + b + m) * x) / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0)


def pass_ops(cak, workload, seed: int, number: int):
    """A pass's checks on freshly generated inputs, drawn and shuffled by
    the seed and the pass number: a small check runs slower right after a
    large one has freed its memory, so one fixed order would tie the
    small checks' latencies to the seed."""
    rng = random.Random(f"{seed}/{number}")
    ops = workload.generate(cak, rng)
    rng.shuffle(ops)
    return ops


def warm_up(cak, workload, seed: int, gate: Gate) -> None:
    """One untimed pass, so that the interpreter has specialised the code
    the checks run before the timed passes. Inputs are regenerated for
    every pass, so it fills no cache a timed pass could reuse; start-up
    work that a new process repeats shows in `cli-check`."""
    wall, _ = run_pass(pass_ops(cak, workload, seed, -1), False, gate)
    print(f"warm-up pass: {wall:.4f} s")


def use_cpu(number: int) -> None:
    """Run on the number-th usable CPU, in turn. The host's other tenants
    slow each CPU by their own amount, for seconds to minutes at a time;
    passes and set-ups that take the CPUs in turn sample all of them, so a
    run's figures do not rest on the one CPU the scheduler first chose."""
    os.sched_setaffinity(0, {CPUS[number % len(CPUS)]})


def measure(cak, workload, seed: int, deadline: float, gate: Gate) -> dict[str, float]:
    """One warm-up pass, then timed passes, each on the next CPU, while the
    next one would still end by `deadline` (a `time.perf_counter` value),
    and at least MIN_PASSES of them. The passes' mean time is reported:
    the host's speed changes from one stretch of seconds to the next, and
    a median of a few passes jumps with the stretch it lands in."""
    warm_up(cak, workload, seed, gate)
    walls: list[float] = []
    latencies: list[float] = []
    longest = 0.0
    while len(walls) < MIN_PASSES or time.perf_counter() + longest <= deadline:
        start = time.perf_counter()
        use_cpu(len(walls))
        wall, lat = run_pass(pass_ops(cak, workload, seed, len(walls)), False, gate)
        longest = max(longest, time.perf_counter() - start)
        walls.append(wall)
        latencies.extend(lat.values())
    who = resource.RUSAGE_CHILDREN if workload.subprocesses else resource.RUSAGE_SELF
    p80 = quantile(latencies, 80)
    print(
        f"{len(walls)} passes; {len(latencies)} verdict latencies,"
        f" {sum(x > p80 for x in latencies)} above p80"
    )
    return {
        "wall_s": statistics.fmean(walls),
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
        "verdict_ms_p50": quantile(latencies, 50) * 1000.0,
        "verdict_ms_p80": p80 * 1000.0,
    }


def import_seconds() -> float:
    """Median time of `import cak.cli` in a new interpreter."""
    code = "import time; t = time.perf_counter(); import cak.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def traced(cak, workload, seed: int, deadline: float, gate: Gate, spans_path: Path):
    """Alternate untraced passes (garbage collection timed) and traced
    passes, after a traced set-up. Checks run in-process here; for
    `cli-check` one subprocess pass gives the start-up cost they add.
    Every pass runs freshly generated inputs of pass 0, so that counts
    repeat between passes and runs even where a workload draws its inputs
    per pass. Per-layer values come from the traced pass with the median
    wall time."""
    out: dict[str, float] = {"cli.import_s": import_seconds(), "cli.startup_s": 0.0}
    if workload.subprocesses:
        sub = list(run_pass(pass_ops(cak, workload, seed, 0), False, gate)[1].values())
    tracer = Tracer(TARGETS)
    tracer.install()
    try:
        tracer.active = True
        pass_ops(cak, workload, seed, -1)
        tracer.active = False
    finally:
        tracer.uninstall()
    setup_summary = tracer.summary()
    warm_up(cak, workload, seed, gate)

    gc_clock = GcClock()
    walls, inproc, passes = [], [], []
    longest = 0.0
    while not passes or time.perf_counter() + longest <= deadline:
        start = time.perf_counter()
        use_cpu(len(passes))
        wall, lat = run_pass(pass_ops(cak, workload, seed, 0), True, gate, gc_clock=gc_clock)
        walls.append(wall)
        inproc.extend(lat.values())
        ops = pass_ops(cak, workload, seed, 0)
        tracer.clear()
        tracer.install()
        try:
            wall, _ = run_pass(ops, True, gate, tracer)
        finally:
            tracer.uninstall()
        passes.append((wall, tracer.summary()))
        longest = max(longest, time.perf_counter() - start)
    tracer.write(spans_path, [op.id for op in ops])

    if workload.subprocesses:
        out["cli.startup_s"] = statistics.median(sub) - statistics.median(inproc)
    out["runtime.gc_s"] = gc_clock.seconds / len(walls)
    out["runtime.gc_collections"] = gc_clock.collections / len(walls)
    for _, summary in passes[1:]:
        for name, row in summary.items():
            if row["calls"] != passes[0][1][name]["calls"]:
                print(f"warning: {name} calls differ between traced passes", file=sys.stderr)
    passes.sort(key=lambda p: p[0])
    traced_wall, summary = passes[(len(passes) - 1) // 2]
    for metric in PER_LAYER:
        func, stat = metric.rsplit(".", 1)
        if metric in out or func not in summary:
            continue
        row = summary[func]
        if stat in ("calls", "self_s"):
            out[metric] = row[stat]
        elif stat in ("items", "bytes"):
            out[metric] = row["value"]
        else:
            out[metric] = row["value"] / row["calls"] if row["calls"] else 0.0
    out["corpus.all_bundles.self_s"] = setup_summary["corpus.all_bundles"]["self_s"]
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = statistics.median(walls)
    out["trace.overhead_s"] = traced_wall - out["trace.untraced_wall_s"]

    self_total = sum(row["self_s"] for row in summary.values())
    print(
        f"tracing overhead: {out['trace.overhead_s']:.4f} s (traced wall_s"
        f" {traced_wall:.4f} s - untraced wall_s {out['trace.untraced_wall_s']:.4f} s;"
        f" {len(passes)} of each)"
    )
    print(
        f"self_s summed over every traced function: {self_total:.4f} s of the traced"
        f" pass's {traced_wall:.4f} s; spans written to {spans_path}"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # String hashing, and with it the layout of every dict and set the
        # library keys by variable name, changes with the interpreter's
        # hash seed. Derive it from the seed, for the command subprocesses
        # too: a run is reproducible, and ten seeds measure ten layouts.
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    if not (ROOT / "src" / "cak" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'cak'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    print(f"host: {host()}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")

    def set_ups():
        """Set up at least N_SETUP times and for SETUP_SECONDS, each time
        on the next CPU; return the last import and every set-up's time."""
        times = []
        began = time.perf_counter()
        while len(times) < N_SETUP or time.perf_counter() - began < SETUP_SECONDS:
            use_cpu(len(times))
            start = time.perf_counter()
            cak = fresh_import()
            pass_ops(cak, workload, args.seed, -1)
            times.append(time.perf_counter() - start)
        return cak, times

    # The run, set-ups included, takes about --seconds: its passes stop
    # where the set-ups still to come would overrun it.
    deadline = time.perf_counter() + args.seconds
    cak, setups = set_ups()
    gate = Gate(digests)
    if args.trace:
        spans = WORK / f"spans-{args.workload}.tsv"
        values = traced(cak, workload, args.seed, deadline, gate, spans)
        units = PER_LAYER
    else:
        reserve = max(SETUP_SECONDS, N_SETUP * max(setups))
        values = measure(cak, workload, args.seed, deadline - reserve, gate)
        # Set-ups again after the passes: the host's speed drifts, and the
        # median then spans the run, not its first seconds.
        setups += set_ups()[1]
        print(f"{len(setups)} set-ups")
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END

    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]} {unit}")
    print(f"ops {gate.attempted}, ops_failed {gate.failed}")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
