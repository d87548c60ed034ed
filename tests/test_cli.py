import hashlib
import json
import time
from pathlib import Path

import pytest

from cak import InterventionMap, StateMap, enumerate_interventions, enumerate_states, model, transform
from cak import cli
from cak.cli import main
from cak.corpus import all_bundles, get_bundle
from cak.errors import ENV_MAX_INTERVENTIONS
from cak.serialize import (
    assignment_to_obj,
    bundle_to_objs,
    dist_from_obj,
    dumps,
    intervention_map_to_obj,
    loads,
    model_from_obj,
    state_map_to_obj,
)

from .util import reference_induced_sets


@pytest.fixture()
def emitted(tmp_path):
    """Write one bundle's artifacts to disk and return their paths."""

    def _emit(name):
        bundle = get_bundle(name)
        paths = {}
        for stem, obj in bundle_to_objs(bundle).items():
            p = tmp_path / f"{name}.{stem}.json"
            p.write_text(dumps(obj), encoding="utf-8")
            paths[stem] = str(p)
        return paths

    return _emit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    return code, out, captured.err


def test_solve_reports_state(capsys, emitted):
    paths = emitted("chain-vs-independent")
    code, out, err = run(capsys, "solve", paths["low"], "--context", '{"U1": 1, "U2": 0}')
    assert code == 0
    assert out["state"] == {"X1": 1, "X2": 1}
    assert "X1=1" in err


def test_solve_with_intervention(capsys, emitted):
    paths = emitted("disjunctive-merge")
    code, out, _ = run(
        capsys,
        "solve",
        paths["low"],
        "--context",
        '{"U1": 0, "U2": 0, "U3": 1}',
        "--intervene",
        '{"X3": 0}',
    )
    assert code == 0
    assert out["state"] == {"X1": 0, "X2": 0, "X3": 0}


def test_solve_full_intervention_echoes_values(capsys, emitted):
    paths = emitted("chain-vs-independent")
    code, out, _ = run(
        capsys,
        "solve",
        paths["low"],
        "--context",
        '{"U1": 0, "U2": 0}',
        "--intervene",
        '{"X1": 1, "X2": 0}',
    )
    assert code == 0
    assert out["state"] == {"X1": 1, "X2": 0}


def test_solve_bad_context_exits_2(capsys, emitted):
    paths = emitted("chain-vs-independent")
    code, out, err = run(capsys, "solve", paths["low"], "--context", '{"U1": 1}')
    assert code == 2
    assert "error" in out


def test_solve_out_of_domain_value_exits_2(capsys, emitted):
    paths = emitted("chain-vs-independent")
    code, out, _ = run(capsys, "solve", paths["low"], "--context", '{"U1": 7, "U2": 0}')
    assert code == 2
    assert "outside its domain" in out["error"]


@pytest.mark.parametrize(
    "equation,message",
    [
        ("(" * 150 + "U" + ")" * 150, "nests too deeply to parse"),
        (" == ".join(["U"] * 202), "202 levels deep"),
        (" + ".join(["U"] * 1200), "1200 levels deep"),
    ],
    ids=["150 parentheses", "202-operand comparison chain", "1200-operand sum"],
)
def test_deeply_nested_equation_exits_2(capsys, tmp_path, equation, message):
    path = tmp_path / "deep.json"
    model = {
        "exogenous": [{"name": "U", "domain": [0, 1]}],
        "endogenous": [{"name": "X", "domain": [0, 1], "equation": equation}],
    }
    path.write_text(dumps(model), encoding="utf-8")
    code, out, _ = run(capsys, "solve", str(path), "--context", '{"U": 1}')
    assert code == 2
    assert message in out["error"]


def test_invalid_model_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        dumps(
            {
                "exogenous": [{"name": "U", "domain": [0, 1]}],
                "endogenous": [
                    {"name": "X1", "domain": [0, 1], "equation": "X2"},
                    {"name": "X2", "domain": [0, 1], "equation": "X1"},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "solve", str(bad), "--context", '{"U": 0}')
    assert code == 2
    assert "cycle" in out["error"]


def test_check_uniform_exit_codes(capsys, emitted):
    good = emitted("chain-vs-independent")
    code, out, _ = run(
        capsys, "check", "uniform", good["low"], good["high"], "--tau", good["tau"], "--omega", good["omega"]
    )
    assert code == 0 and out["verdict"] is True

    bad = emitted("chain-vs-independent-identity-omega")
    code, out, _ = run(
        capsys, "check", "uniform", bad["low"], bad["high"], "--tau", bad["tau"], "--omega", bad["omega"]
    )
    assert code == 1 and out["verdict"] is False
    assert "counterexample" in out


def test_check_exact_requires_inputs(capsys, emitted):
    paths = emitted("unrelated-pair-forward")
    code, out, _ = run(capsys, "check", "exact", paths["low"], paths["high"], "--tau", paths["tau"])
    assert code == 2
    code, out, _ = run(
        capsys,
        "check",
        "exact",
        paths["low"],
        paths["high"],
        "--tau",
        paths["tau"],
        "--omega",
        paths["omega"],
        "--dists",
        paths["low_dist"],
        paths["high_dist"],
    )
    assert code == 0 and out["verdict"] is True


def test_check_abstraction_surjectivity_failure(capsys, emitted):
    paths = emitted("gated-extension")
    code, out, _ = run(capsys, "check", "abstraction", paths["low"], paths["high"], "--tau", paths["tau"])
    assert code == 1
    assert out["detail"].startswith("(a)")
    assert out["counterexample"]["unreached_high_state"]["G"] == 0


def test_check_strong_pixel_counterexample(capsys, emitted):
    paths = emitted("pixel2-two-counter")
    code, out, _ = run(capsys, "check", "strong", paths["low"], paths["high"], "--tau", paths["tau"])
    assert code == 1
    single = out["counterexample"]["first_missing_single"]
    assert set(single) in ({"TH"}, {"LH"})


def test_check_strong_validates_each_model_once(capsys, emitted, monkeypatch):
    # The loader validated each model, and the profile pass, which builds
    # its columns by cone on pixel2-merged only for models that validate,
    # ran validate on both again. The diagnostics are now kept on the model.
    validated, by_cone = [], []
    validate, columns_by_cone = model.validate, transform._columns_by_cone

    def counted(m):
        validated.append(m)
        return validate(m)

    monkeypatch.setattr(model, "validate", counted)
    monkeypatch.setattr(cli, "validate", counted, raising=False)  # a loader binding it by name counts too
    monkeypatch.setattr(transform, "_columns_by_cone", lambda *args: (by_cone.append(1), columns_by_cone(*args))[1])
    paths = emitted("pixel2-merged")
    code, out, _ = run(capsys, "check", "strong", paths["low"], paths["high"], "--tau", paths["tau"])
    assert code == 0 and out["verdict"] is True
    assert by_cone
    assert len(validated) == 2 and validated[0] is not validated[1]


def test_check_constructive_with_searched_partition_and_witness(capsys, emitted):
    paths = emitted("pixel2-merged")
    code, out, _ = run(
        capsys, "check", "constructive", paths["low"], paths["high"], "--tau", paths["tau"], "--witness"
    )
    assert code == 0
    assert out["witness"]["partition"]["cells"]["TLH"] == ["X11", "X12", "X21"]
    assert out["witness"]["partition"]["marginal"] == ["X22"]


def test_check_constructive_with_explicit_partition(capsys, emitted, tmp_path):
    from cak.corpus import build_voting
    from cak.serialize import partition_to_obj

    from .util import voting_natural_partition

    paths = emitted("voting-4-2-1")
    partition, _ = voting_natural_partition(build_voting())
    ppath = tmp_path / "partition.json"
    ppath.write_text(dumps(partition_to_obj(partition)), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "check",
        "constructive",
        paths["low"],
        paths["high"],
        "--tau",
        paths["tau"],
        "--partition",
        str(ppath),
    )
    assert code == 0 and out["verdict"] is True


def test_derive_omega_single_and_table(capsys, emitted):
    paths = emitted("disjunctive-merge")
    code, out, err = run(
        capsys,
        "derive-omega",
        paths["low"],
        paths["high"],
        "--tau",
        paths["tau"],
        "--intervention",
        '{"X3": 0}',
    )
    assert code == 0
    assert out["defined"] is True and out["image"] == {}

    code, out, _ = run(
        capsys,
        "derive-omega",
        paths["low"],
        paths["high"],
        "--tau",
        paths["tau"],
        "--intervention",
        '{"X1": 0, "X2": 0}',
    )
    assert code == 0
    assert out["defined"] is False and out["image"] is None

    code, out, _ = run(capsys, "derive-omega", paths["low"], paths["high"], "--tau", paths["tau"])
    assert code == 0
    assert len(out["induced_low"]) == 24
    assert len(out["induced_high"]) == 9


def test_to_uev_writes_equivalent_model(capsys, emitted, tmp_path):
    paths = emitted("unrelated-pair-forward")
    out_model = tmp_path / "m.uev.json"
    out_dist = tmp_path / "d.uev.json"
    code, out, err = run(
        capsys,
        "to-uev",
        paths["low"],
        "--dist",
        paths["low_dist"],
        "--out-model",
        str(out_model),
        "--out-dist",
        str(out_dist),
    )
    assert code == 0
    assert out["equivalent"] is True
    model = model_from_obj(loads(out_model.read_text(encoding="utf-8")))
    dist = dist_from_obj(loads(out_dist.read_text(encoding="utf-8")))
    from cak import check_uev

    assert check_uev(model).verdict
    assert dist.total() == 1


def test_corpus_list_and_emit(capsys, tmp_path):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    names = [row["name"] for row in out["bundles"]]
    assert "voting-4-2-1" in names and "disjunctive-merge" in names

    code, out, _ = run(capsys, "corpus", "emit", "chain-vs-independent", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "chain-vs-independent.low.json").exists()


def test_reports_are_byte_stable_apart_from_timing(capsys, emitted):
    paths = emitted("chain-vs-independent")
    argv = ["check", "uniform", paths["low"], paths["high"], "--tau", paths["tau"], "--omega", paths["omega"], "--quiet"]
    _, first, err1 = run(capsys, *argv)
    _, second, err2 = run(capsys, *argv)
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second
    assert err1 == "" and err2 == ""


def test_size_cap_flag_exits_2(capsys, emitted):
    paths = emitted("disjunctive-merge")
    code, out, _ = run(
        capsys,
        "--max-interventions",
        "5",
        "derive-omega",
        paths["low"],
        paths["high"],
        "--tau",
        paths["tau"],
    )
    assert code == 2
    assert "cap" in out["error"]


def test_size_cap_flag_applies_to_one_call(capsys, emitted):
    import os

    from cak.errors import ENV_MAX_INTERVENTIONS

    before = os.environ.get(ENV_MAX_INTERVENTIONS)
    paths = emitted("disjunctive-merge")
    argv = ["derive-omega", paths["low"], paths["high"], "--tau", paths["tau"]]
    code, _, _ = run(capsys, "--max-interventions", "2", *argv)
    assert code == 2
    assert os.environ.get(ENV_MAX_INTERVENTIONS) == before
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(out["induced_low"]) == 24


@pytest.mark.parametrize(
    "flag,value,command",
    [("--max-interventions", "-5", "check"), ("--max-contexts", "0", "solve")],
    ids=["interventions-check", "contexts-solve"],
)
def test_nonpositive_cap_flag_exits_2_on_every_command(capsys, emitted, flag, value, command):
    # Both exited 0 with a normal report: neither command read the cap it set.
    import os

    from cak.model import enumerate_contexts
    from cak.serialize import assignment_to_obj

    paths = emitted("voting-4-2-1")
    if command == "check":
        argv = ["check", "abstraction", paths["low"], paths["high"], "--tau", paths["tau"]]
    else:
        context = enumerate_contexts(get_bundle("voting-4-2-1").low)[0]
        argv = ["solve", paths["low"], "--context", dumps(assignment_to_obj(context))]
    before = dict(os.environ)
    code, out, _ = run(capsys, flag, value, *argv)
    assert code == 2
    assert f"must be positive, got {value}" in out["error"]
    assert dict(os.environ) == before
    assert run(capsys, *argv)[0] == 0


def _write_tau(tmp_path, exprs):
    path = tmp_path / "tau.json"
    path.write_text(dumps({"exprs": exprs}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("kind", ["strong", "uniform"])
def test_tau_undefined_on_a_low_state_exits_2(capsys, emitted, tmp_path, kind):
    paths = emitted("chain-vs-independent")
    tau = _write_tau(tmp_path, {"X1": "table(X1)[(0) -> 0]", "X2": "X2"})
    code, out, _ = run(
        capsys, "check", kind, paths["low"], paths["high"], "--tau", tau, "--omega", paths["omega"]
    )
    assert code == 2
    assert "no entry" in out["error"]


def test_tau_reading_an_undeclared_variable_exits_2(capsys, emitted, tmp_path):
    paths = emitted("chain-vs-independent")
    tau = _write_tau(tmp_path, {"X1": "Q", "X2": "X2"})
    code, out, _ = run(capsys, "check", "strong", paths["low"], paths["high"], "--tau", tau)
    assert code == 2
    assert "['Q']" in out["error"]


def test_tau_load_check_reports_the_state_space_cap_before_an_unknown_read(capsys, emitted, tmp_path):
    # The load check sizes the low state space first, so the cap, not the
    # read of the undeclared Q, is the error; without the cap it is the read.
    paths = emitted("linear-sum")
    tau = _write_tau(tmp_path, {"XS": "X1 + Q", "YS": "Y"})
    argv = ["check", "abstraction", paths["low"], paths["high"], "--tau", tau]
    code, out, _ = run(capsys, "--max-contexts", "2", *argv)
    assert code == 2
    assert out["error"] == "endogenous state space has 16 elements, exceeding the cap of 2"
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out["error"].startswith(f"{tau} is not a valid state map: ")
    assert "['Q']" in out["error"]


def test_check_abstraction_names_the_first_low_state_with_a_bad_image(capsys, emitted, tmp_path):
    paths = emitted("linear-sum")
    tau = _write_tau(tmp_path, {"XS": "X1 + X2", "YS": "Y + X2"})
    code, out, _ = run(capsys, "check", "abstraction", paths["low"], paths["high"], "--tau", tau)
    assert code == 2
    assert out["error"] == (
        f"{tau} is not a valid state map: "
        "state map sends Assignment(X1=0, X2=1, Y=3) to out-of-domain value YS=4"
    )


def test_check_abstraction_names_the_first_low_state_a_table_misses(capsys, emitted, tmp_path):
    paths = emitted("linear-sum")
    bundle = get_bundle("linear-sum")
    rows = [(s, bundle.tau.apply(s)) for k, s in enumerate(enumerate_states(bundle.low)) if k != 6]
    tau = tmp_path / "tau.json"
    tau.write_text(dumps(state_map_to_obj(StateMap.from_table(rows))), encoding="utf-8")
    code, out, _ = run(capsys, "check", "abstraction", paths["low"], paths["high"], "--tau", str(tau))
    assert code == 2
    assert out["error"] == (
        f"{tau} is not a valid state map: state map is undefined on Assignment(X1=0, X2=1, Y=2)"
    )


@pytest.mark.parametrize("name", [b.name for b in all_bundles()])
def test_derive_omega_table_matches_the_reference_on_every_bundle(capsys, emitted, name):
    # The digest gate covers only check reports; this pins the order of
    # induced_low and induced_high.
    paths = emitted(name)
    bundle = get_bundle(name)
    defined, images = reference_induced_sets(bundle.low, bundle.high, bundle.tau)
    files = [paths["low"], paths["high"], paths["tau"]]
    expected = {
        "command": "derive-omega",
        "inputs": {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in files},
        "induced_low": [assignment_to_obj(i) for i, _ in defined],
        "induced_high": [assignment_to_obj(j) for j in images],
        "omega_tau": intervention_map_to_obj(InterventionMap.from_pairs(defined)),
    }
    code, out, _ = run(capsys, "derive-omega", paths["low"], paths["high"], "--tau", paths["tau"])
    assert code == 0
    out.pop("timing_ms")
    assert out == expected


def test_derive_omega_keeps_the_intervention_cap_error(capsys, emitted, monkeypatch):
    paths = emitted("voting-4-2-1")
    size = len(enumerate_interventions(get_bundle("voting-4-2-1").low))
    monkeypatch.setenv(ENV_MAX_INTERVENTIONS, str(size - 1))
    code, out, _ = run(capsys, "derive-omega", paths["low"], paths["high"], "--tau", paths["tau"])
    assert code == 2
    assert out["error"] == f"intervention space has {size} elements, exceeding the cap of {size - 1}"


def test_derive_omega_rejects_an_out_of_domain_intervention(capsys, emitted):
    paths = emitted("disjunctive-merge")
    code, out, _ = run(
        capsys,
        "derive-omega",
        paths["low"],
        paths["high"],
        "--tau",
        paths["tau"],
        "--intervention",
        '{"X1": 7}',
    )
    assert code == 2
    assert "outside its domain" in out["error"]


@pytest.mark.parametrize("kind", ["uniform", "exact"])
@pytest.mark.parametrize(
    "exprs,reason",
    [
        ({"XS": "X1 + X2 + 5", "YS": "Y"}, "out-of-domain value XS="),
        ({"XS": "X1 + X2"}, "does not assign exactly the high endogenous variables"),
    ],
)
def test_ill_typed_tau_exits_2_naming_its_file(capsys, emitted, tmp_path, kind, exprs, reason):
    # Without the check at load, both maps ran the check and exited 1.
    paths = emitted("linear-sum")
    tau = _write_tau(tmp_path, exprs)
    argv = ["check", kind, paths["low"], paths["high"], "--tau", tau, "--omega", paths["omega"]]
    argv += ["--dists", paths["low_dist"], paths["high_dist"]]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out["error"].startswith(f"{tau} is not a valid state map: ")
    assert reason in out["error"]
    # The bundle's own map passes the same load check.
    argv[argv.index(tau)] = paths["tau"]
    assert run(capsys, *argv)[0] == 0


def _write_dist(tmp_path, path, edit):
    rows = loads(Path(path).read_text(encoding="utf-8"))
    edit(rows)
    out = tmp_path / "edited.dist.json"
    out.write_text(dumps(rows), encoding="utf-8")
    return str(out)


@pytest.mark.parametrize(
    "context,reason",
    [
        ({"LU1": 5, "LU2": 0, "LV1": 0}, "context sets LU1 to 5, outside its domain"),
        ({"LU1": 0, "LU2": 0}, "context must assign exactly the exogenous variables"),
    ],
    ids=["out-of-domain", "missing-LV1"],
)
def test_to_uev_rejects_a_context_outside_the_model(capsys, emitted, tmp_path, context, reason):
    # Before, both raised KeyError inside to_uev and exited 1, though the
    # entry has no mass.
    paths = emitted("linear-sum")
    dist = _write_dist(tmp_path, paths["low_dist"], lambda rows: rows.append({"context": context, "p": "0"}))
    code, out, _ = run(capsys, "to-uev", paths["low"], "--dist", dist, "--out-model", str(tmp_path / "m.json"))
    assert code == 2
    assert reason in out["error"]


def _set_masses(*masses):
    def edit(rows):
        for row, p in zip(rows, masses):
            row["p"] = p

    return edit


@pytest.mark.parametrize(
    "masses,reason",
    [
        # Formatting the "sum to" message hit Python's int-to-text limit.
        (("1e5000",), "more than 4300 digits"),
        # Fraction() alone spent about 12 s here.
        (("1e10000000",), "more than 4300 digits"),
        (("1/" + str(10**3000 + 1), "1/" + str(10**3000 + 3)), "probabilities sum to a fraction with a "),
    ],
    ids=["1e5000", "1e10000000", "two-3001-digit-denominators"],
)
def test_masses_past_the_digit_limit_exit_2_quickly(capsys, emitted, tmp_path, masses, reason):
    paths = emitted("linear-sum")
    dist = _write_dist(tmp_path, paths["low_dist"], _set_masses(*masses))
    argv = ["check", "exact", paths["low"], paths["high"], "--tau", paths["tau"], "--omega", paths["omega"]]
    started = time.monotonic()
    code, out, _ = run(capsys, *argv, "--dists", dist, paths["high_dist"])
    assert time.monotonic() - started < 1
    assert code == 2
    assert reason in out["error"]


def test_json_integer_past_the_digit_limit_exits_2(capsys, emitted, tmp_path):
    paths = emitted("linear-sum")
    dist = tmp_path / "huge.dist.json"
    dist.write_text('[{"context": {"LU1": 0, "LU2": 0, "LV1": 0}, "p": 1' + "0" * 5000 + "}]")
    argv = ["check", "exact", paths["low"], paths["high"], "--tau", paths["tau"], "--omega", paths["omega"]]
    code, out, _ = run(capsys, *argv, "--dists", str(dist), paths["high_dist"])
    assert code == 2
    assert out["error"].startswith("bad JSON: ")


@pytest.mark.parametrize("where", ["model", "context"])
def test_json_nested_past_the_parser_depth_limit_exits_2(capsys, emitted, tmp_path, where):
    # The parser raises RecursionError at about 1,000 levels; a traceback
    # would exit 1, which means only that a check fails.
    deep = "[" * 100_000 + "]" * 100_000
    model, context = emitted("chain-vs-independent")["low"], '{"U1": 1, "U2": 0}'
    if where == "model":
        model = tmp_path / "deep.json"
        model.write_text(deep)
    else:
        context = deep
    code, out, _ = run(capsys, "solve", str(model), "--context", context)
    assert code == 2
    assert out["command"] == "solve"
    assert out["error"].startswith("bad JSON: ")


def _set(key, value, decl=None):
    """An edit setting `key` of the model, or of its exogenous
    declaration number `decl`, to `value`."""

    def edit(obj):
        (obj if decl is None else obj["exogenous"][decl])[key] = value

    return edit


@pytest.mark.parametrize(
    "doc,edit,reason",
    [
        ("partition", lambda p: p.__setitem__("cells", []), "partition cells must be a JSON object"),
        ("partition", lambda p: p["cells"].__setitem__("XS", 5), "partition cell for XS must be a JSON array"),
        ("partition", lambda p: p.__setitem__("marginal", 5), "partition marginal must be a JSON array"),
        ("tau", lambda t: t.__setitem__("exprs", []), "state map exprs must be a JSON object"),
        ("low", _set("exogenous", 5), "exogenous must be a JSON array"),
        ("low", _set("domain", 5, decl=0), "domain of LU1 must be a JSON array"),
        ("low", _set("domain", None, decl=0), "domain of LU1 must be a JSON array"),
        ("low", _set("domain", [[0], [1]], decl=0), "domain of LU1 must list integers"),
        ("low", _set("domain", [True, False], decl=0), "domain of LU1 must list integers"),
        ("low", _set("allowed_interventions", 5), "allowed_interventions must be a JSON array"),
    ],
    ids=[
        "cells-list", "cell-5", "marginal-5", "exprs-list", "exogenous-5",
        "domain-5", "domain-null", "domain-nested", "domain-bools", "allowed-5",
    ],
)
def test_malformed_document_shape_exits_2(capsys, emitted, tmp_path, doc, edit, reason):
    # All but the boolean domain crashed with a traceback and exit 1; the
    # boolean domain was accepted.
    paths = emitted("linear-sum")
    docs = {stem: loads(Path(paths[stem]).read_text(encoding="utf-8")) for stem in ("low", "tau")}
    docs["partition"] = {"cells": {"XS": ["X1", "X2"], "YS": ["Y"]}, "marginal": []}
    edit(docs[doc])
    for stem, obj in docs.items():
        paths[stem] = str(tmp_path / f"edited.{stem}.json")
        (tmp_path / f"edited.{stem}.json").write_text(dumps(obj), encoding="utf-8")
    argv = ["check", "constructive", paths["low"], paths["high"], "--tau", paths["tau"]]
    code, out, _ = run(capsys, *argv, "--partition", paths["partition"])
    assert code == 2
    assert reason in out["error"]


def test_invalid_model_error_names_the_first_diagnostics_and_a_count(capsys, emitted, tmp_path):
    # Every value of LU1 past the first two sends X1 outside its domain;
    # the message used to list all of them (4.9 MB at 10**5 values).
    paths = emitted("linear-sum")
    low = loads(Path(paths["low"]).read_text(encoding="utf-8"))
    low["exogenous"][0]["domain"] = list(range(10**5))
    path = tmp_path / "wide.low.json"
    path.write_text(dumps(low), encoding="utf-8")
    argv = ["check", "constructive", str(path), paths["high"], "--tau", paths["tau"]]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert len(out["error"]) < 4096
    assert out["error"].count("outside its domain") == 5
    assert out["error"].endswith(" more")
