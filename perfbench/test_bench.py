"""Tests of the benchmark itself: self-time arithmetic, patching, and that
every generator yields valid inputs with the verdict it promises.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cak  # noqa: E402
import cak.abstraction  # noqa: E402,F401
import cak.cli  # noqa: E402,F401
import cak.serialize  # noqa: E402,F401
from run import DIGESTS, pass_ops, quantile  # noqa: E402
from tracing import Target, Tracer, summarize  # noqa: E402
from workloads import (  # noqa: E402
    ROOT,
    VOTING,
    WORKLOADS,
    corpus_sweep,
    corruptions,
    cli_check,
    refuted,
    wide_contexts,
)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    names = ["a", "b", "c", "d"]
    kind = [0, 1, 2, 3]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    value = [0.0, 2.0, 0.0, 5.0]
    out = summarize(names, kind, start, end, parent, value)
    assert {n: out[n]["self_s"] for n in names} == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert sum(r["self_s"] for r in out.values()) == 10.0
    assert out["d"]["value"] == 5.0 and out["b"]["calls"] == 1


def test_self_times_sum_over_repeated_names():
    names = ["f", "g"]
    out = summarize(names, [0, 1, 1], [0.0, 1.0, 3.0], [6.0, 2.0, 5.0], [-1, 0, 0], [0, 0, 0])
    assert out["g"] == {"calls": 2, "self_s": 3.0, "value": 0.0}
    assert out["f"]["self_s"] == 3.0


def test_harrell_davis_quantile():
    assert quantile([2.0] * 7, 80) == pytest.approx(2.0)
    assert quantile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)
    # scipy.stats.mstats.hdquantiles gives the same value.
    assert quantile([1.0, 2.0, 3.0, 10.0], 50) == pytest.approx(3.2595099853)
    # A gap between two clusters: the estimate moves smoothly with the
    # cluster sizes instead of jumping from one cluster to the other.
    low, high = [1.0] * 14, [2.0] * 15
    assert 1.4 < quantile(low + high, 50) < 1.6
    assert quantile(low + high + [2.0], 50) > quantile(low + high, 50)


def test_tracer_patches_every_binding_and_restores_them():
    original = cak.model.solve_under
    bundle = cak.corpus.build_voting(4, 2, 1)
    tracer = Tracer(
        [
            Target("model", "solve_under"),
            Target("maps", "StateMap.apply"),
            Target("transform", "check_uniform", lambda r: float(r.verdict)),
        ]
    )
    tracer.install()
    try:
        assert cak.transform.solve_under is not original
        assert cak.solve_under is cak.model.solve_under
        tracer.active = True
        report = cak.transform.check_uniform(bundle.low, bundle.high, bundle.tau, bundle.omega)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert cak.transform.solve_under is original and cak.solve_under is original
    assert report.verdict
    out = tracer.summary()
    # 512 low and 162 high contexts, 3 interventions each.
    assert out["model.solve_under"]["calls"] == (512 + 162) * 3
    assert out["maps.StateMap.apply"]["calls"] == 512 * 3
    assert out["transform.check_uniform"] == {
        "calls": 1,
        "self_s": pytest.approx(out["transform.check_uniform"]["self_s"]),
        "value": 1.0,
    }
    outer = tracer.end[0] - tracer.start[0]
    assert sum(r["self_s"] for r in out.values()) == pytest.approx(outer)
    assert all(p == 0 for p in tracer.parent[1:])


def test_pass_order_is_a_seeded_permutation_of_the_corpus_checks():
    workload = WORKLOADS["corpus-sweep"]
    first = [op.id for op in pass_ops(cak, workload, 1, 0)]
    assert first == [op.id for op in pass_ops(cak, workload, 1, 0)]
    assert first != [op.id for op in pass_ops(cak, workload, 1, 1)]
    assert first != [op.id for op in pass_ops(cak, workload, 2, 0)]
    assert sorted(first) == sorted(op.id for op in corpus_sweep(cak, random.Random(1)))
    assert len(first) == len(set(first)) == 29


@pytest.mark.parametrize("seed", [0, 7])
def test_refuted_corruptions_validate_and_fail_both_checks(seed):
    ops = refuted(cak, random.Random(seed))
    assert len(ops) == 4 and len({op.id for op in ops}) == 4
    assert sorted(op.id.split("/")[1] for op in ops) == ["voting-6-2-1"] * 2 + ["voting-6-3-1"] * 2
    for op in ops:
        result = op.run()
        assert result.verdict is False
        assert op.verify(result) == []


def test_refuted_draws_depend_on_the_seed_and_the_pass():
    workload = WORKLOADS["refuted"]

    def drawn(seed, number):
        return {op.id for op in pass_ops(cak, workload, seed, number)}

    assert drawn(1, 0) == drawn(1, 0)
    assert drawn(1, 0) != drawn(2, 0)
    assert drawn(1, 0) != drawn(1, 1)


def test_every_corruption_gives_a_valid_model():
    from workloads import corrupt

    for shape in VOTING:
        bundle = cak.corpus.build_voting(*shape)
        for c in corruptions(cak, shape)[::17]:
            assert cak.validate(corrupt(cak, bundle, c)) == []


def test_wide_contexts_checks_hold_by_construction():
    ops = wide_contexts(cak, random.Random(3))
    assert sorted(op.id.rsplit("/", 1)[1] for op in ops) == ["exact"] * 2 + ["uniform"] * 2
    for op in ops:
        result = op.run()
        assert result.verdict is True
        assert op.verify(result) == []


def test_cli_check_commands_give_the_expected_exit_codes(monkeypatch):
    monkeypatch.chdir(ROOT)
    ops = cli_check(cak, random.Random(5))
    assert len(ops) == 27
    ids = {op.id for op in ops}
    assert not ids & {"cli/voting-4-2-1/strong", "cli/voting-4-2-1/constructive"}
    small = [op for op in ops if "voting" not in op.id][:6]
    for op in small:
        result = op.run_inprocess()
        assert result[0] == (0 if op.expect else 1)
        assert op.report(result)["verdict"] is op.expect
        assert op.verify(result) == []


def test_reference_digests_cover_every_check_a_seed_can_draw(monkeypatch):
    monkeypatch.chdir(ROOT)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    rng = random.Random(0)
    ids = {op.id for op in corpus_sweep(cak, rng) + wide_contexts(cak, rng) + cli_check(cak, rng)}
    for shape in VOTING:
        for c in corruptions(cak, shape):
            ids |= {f"refuted/{c.id}/uniform", f"refuted/{c.id}/tau_abstraction"}
    assert ids == set(digests)
