from fractions import Fraction

import pytest

from cak import Assignment, InputError, enumerate_contexts, solve
from cak.corpus import all_bundles
from cak.serialize import (
    assignment_from_obj,
    assignment_to_obj,
    bundle_to_objs,
    context_map_from_obj,
    context_map_to_obj,
    dist_from_obj,
    dist_to_obj,
    dumps,
    fraction_from_str,
    fraction_to_str,
    intervention_map_from_obj,
    intervention_map_to_obj,
    loads,
    model_from_obj,
    model_to_obj,
    partition_from_obj,
    partition_to_obj,
    state_map_from_obj,
    state_map_to_obj,
)


def test_fraction_round_trip():
    for f in (Fraction(1, 3), Fraction(0), Fraction(7, 1), Fraction(22, 64)):
        assert fraction_from_str(fraction_to_str(f)) == f
    with pytest.raises(InputError):
        fraction_from_str("1/0")
    with pytest.raises(InputError):
        fraction_from_str("nope")


def test_assignment_round_trip():
    a = Assignment(X2=1, X1=0)
    assert assignment_from_obj(assignment_to_obj(a)) == a
    assert assignment_to_obj(a) == {"X1": 0, "X2": 1}
    with pytest.raises(InputError):
        assignment_from_obj({"X": True})
    with pytest.raises(InputError):
        assignment_from_obj({"X": "1"})


def test_model_round_trip_for_every_bundle():
    for b in all_bundles():
        for model in (b.low, b.high):
            again = model_from_obj(loads(dumps(model_to_obj(model))))
            assert again.signature == model.signature, b.name
            assert again.allowed_interventions == model.allowed_interventions
            for u in enumerate_contexts(model):
                assert solve(again, u) == solve(model, u), b.name


def test_model_round_trip_random_models():
    import random

    from .util import random_model

    rng = random.Random(77)
    for _ in range(15):
        model = random_model(rng, domain=(0, 1, 2))
        again = model_from_obj(loads(dumps(model_to_obj(model))))
        assert again.equations == model.equations
        for u in enumerate_contexts(model):
            assert solve(again, u) == solve(model, u)


def test_state_map_round_trip_both_backings():
    for b in all_bundles():
        again = state_map_from_obj(loads(dumps(state_map_to_obj(b.tau))))
        from cak import enumerate_states

        for s in enumerate_states(b.low):
            assert again.apply(s) == b.tau.apply(s), b.name


def test_distribution_round_trip_bit_exact():
    for b in all_bundles():
        if b.low_dist is None:
            continue
        again = dist_from_obj(loads(dumps(dist_to_obj(b.low_dist))))
        assert again == b.low_dist


def test_intervention_map_round_trip():
    for b in all_bundles():
        if b.omega is None:
            continue
        again = intervention_map_from_obj(loads(dumps(intervention_map_to_obj(b.omega))))
        assert again == b.omega


def test_context_map_round_trip():
    cm_obj = {"table": [{"from": {"U": 0}, "to": {"W": 1}}, {"from": {"U": 1}, "to": {"W": 0}}]}
    cm = context_map_from_obj(cm_obj)
    assert context_map_to_obj(cm) == {
        "table": [
            {"from": {"U": 0}, "to": {"W": 1}},
            {"from": {"U": 1}, "to": {"W": 0}},
        ]
    }


def test_partition_round_trip_orders_by_high_signature():
    from cak.corpus import build_voting

    from .util import voting_natural_partition

    b = build_voting()
    partition, _ = voting_natural_partition(b)
    obj = partition_to_obj(partition)
    again = partition_from_obj(obj, b.high.signature)
    assert again == partition
    with pytest.raises(InputError):
        partition_from_obj({"cells": {"WRONG": ["X1"]}}, b.high.signature)


def test_bundle_emission_contains_all_parts():
    for b in all_bundles():
        objs = bundle_to_objs(b)
        assert {"low", "high", "tau"} <= set(objs)
        if b.omega is not None:
            assert "omega" in objs


def test_model_document_errors():
    with pytest.raises(InputError):
        model_from_obj([])
    with pytest.raises(InputError):
        model_from_obj({"endogenous": [{"name": "X", "domain": [0, 1]}]})
    with pytest.raises(InputError):
        loads("{not json")



def test_map_table_rows_must_be_from_to_objects():
    for rows in ({"from": {}, "to": {}}, [{"from": {"U": 0}}], [["U", 0]]):
        for parse, doc in (
            (state_map_from_obj, {"table": rows}),
            (context_map_from_obj, {"table": rows}),
            (intervention_map_from_obj, rows),
        ):
            with pytest.raises(InputError):
                parse(doc)
