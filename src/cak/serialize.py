"""JSON forms of every model artifact.

Formats:
  model           {"exogenous": [{"name", "domain"}], "endogenous":
                   [{"name", "domain", "equation"}],
                   "allowed_interventions": "all" | [{var: value, ...}]}
  assignment      {"X1": 1, ...}        (empty object = empty intervention)
  distribution    [{"context": {...}, "p": "1/3"}, ...]
  state map       {"table": [{"from": {...}, "to": {...}}]}
                  or {"exprs": {"HighVar": "expr over low vars"}}
  context map     {"table": [{"from": {...}, "to": {...}}]}
  intervention map [{"from": {...}, "to": {...}}]
  partition       {"cells": {"G1": ["X1", "X2"], ...}, "marginal": [...]}

Probabilities are serialized as exact "p/q" strings.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .abstraction import ComponentMaps, Partition
from .corpus import ExampleBundle
from .errors import InputError
from .expr import parse_expr, to_source
from .maps import ContextMap, FiniteMap, InterventionMap, StateMap
from .model import ALL, Assignment, CausalModel, Diagnostic, Signature, VariableDecl
from .prob import RationalDist
from .report import CheckReport


def fraction_to_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# Python converts ints of at most 4,300 digits to and from text by
# default; a mass's numerator and denominator are held to the same size.
MAX_MASS_DIGITS = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def fraction_from_str(text: str) -> Fraction:
    # Fraction("1e10000000") spends seconds building 10**10000000 before
    # anything can refuse it, so the size is read from the text first: the
    # longest part between "/" and the exponent, plus the exponent.
    found = _EXPONENT.search(text)
    exponent = found.group(1).replace("_", "").lstrip("0") if found else ""
    mantissa = text[: found.start()] if found else text
    if len(exponent) > 9 or max(map(len, mantissa.split("/", 1))) + int(exponent or 0) > MAX_MASS_DIGITS:
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise InputError(f"bad probability {shown!r}: more than {MAX_MASS_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad probability {text!r}: {exc}") from exc


def _array(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON array")
    return value


def assignment_to_obj(a: Assignment) -> dict[str, int]:
    return {k: v for k, v in a.items_sorted}


def assignment_from_obj(obj: Any) -> Assignment:
    if not isinstance(obj, dict):
        raise InputError(f"expected an object of variable assignments, got {obj!r}")
    out = {}
    for k, v in obj.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"assignment value for {k!r} must be an integer, got {v!r}")
        out[str(k)] = v
    return Assignment(out)


def model_to_obj(model: CausalModel) -> dict:
    sig = model.signature
    eqs = model.equation_map
    obj: dict[str, Any] = {
        "exogenous": [
            {"name": d.name, "domain": list(d.domain)} for d in sig.exogenous
        ],
        "endogenous": [
            {"name": d.name, "domain": list(d.domain), "equation": to_source(eqs[d.name])}
            for d in sig.endogenous
        ],
    }
    if isinstance(model.allowed_interventions, str):
        obj["allowed_interventions"] = ALL
    else:
        obj["allowed_interventions"] = [
            assignment_to_obj(i) for i in model.allowed_interventions
        ]
    return obj


def _decl_from_obj(obj: Any, need_equation: bool) -> tuple[VariableDecl, str | None]:
    if not isinstance(obj, dict) or "name" not in obj or "domain" not in obj:
        raise InputError(f"variable declaration needs 'name' and 'domain': {obj!r}")
    name = str(obj["name"])
    domain = _array(obj["domain"], f"domain of {name}")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in domain):
        raise InputError(f"domain of {name} must list integers, got {domain!r}")
    decl = VariableDecl(name, tuple(domain))
    if need_equation:
        if "equation" not in obj:
            raise InputError(f"endogenous variable {decl.name} needs an 'equation'")
        return decl, str(obj["equation"])
    return decl, None


def model_from_obj(obj: Any) -> CausalModel:
    if not isinstance(obj, dict):
        raise InputError("model document must be a JSON object")
    exo = [_decl_from_obj(o, False)[0] for o in _array(obj.get("exogenous", []), "exogenous")]
    endo_pairs = [_decl_from_obj(o, True) for o in _array(obj.get("endogenous", []), "endogenous")]
    endo = [d for d, _ in endo_pairs]
    equations = tuple((d.name, parse_expr(src)) for d, src in endo_pairs)
    allowed_obj = obj.get("allowed_interventions", ALL)
    if isinstance(allowed_obj, str):
        allowed: Any = allowed_obj
    else:
        allowed = tuple(assignment_from_obj(o) for o in _array(allowed_obj, "allowed_interventions"))
    return CausalModel(Signature(tuple(exo), tuple(endo)), equations, allowed)


def dist_to_obj(d: RationalDist) -> list[dict]:
    return [
        {"context": assignment_to_obj(k), "p": fraction_to_str(p)}
        for k, p in d.entries
    ]


def dist_from_obj(obj: Any) -> RationalDist:
    entries = []
    for row in _array(obj, "distribution document"):
        if not isinstance(row, dict) or "context" not in row or "p" not in row:
            raise InputError(f"distribution entry needs 'context' and 'p': {row!r}")
        entries.append((assignment_from_obj(row["context"]), fraction_from_str(str(row["p"]))))
    return RationalDist(tuple(entries))


def _rows_to_obj(m: FiniteMap) -> list[dict]:
    return [{"from": assignment_to_obj(a), "to": assignment_to_obj(b)} for a, b in m.entries]


def _rows_from_obj(rows: Any, what: str) -> tuple[tuple[Assignment, Assignment], ...]:
    pairs = []
    for row in _array(rows, f"{what} table"):
        if not isinstance(row, dict) or "from" not in row or "to" not in row:
            raise InputError(f"{what} entry needs 'from' and 'to': {row!r}")
        pairs.append((assignment_from_obj(row["from"]), assignment_from_obj(row["to"])))
    return tuple(pairs)


def state_map_to_obj(tau: StateMap) -> dict:
    if tau.entries is not None:
        return {"table": _rows_to_obj(tau)}
    return {"exprs": {name: to_source(e) for name, e in tau.exprs}}


def state_map_from_obj(obj: Any) -> StateMap:
    if not isinstance(obj, dict):
        raise InputError("state map document must be a JSON object")
    if "table" in obj:
        return StateMap.from_table(_rows_from_obj(obj["table"], "state map"))
    if "exprs" in obj:
        if not isinstance(obj["exprs"], dict):
            raise InputError("state map exprs must be a JSON object")
        return StateMap.from_exprs(
            {str(name): parse_expr(str(src)) for name, src in obj["exprs"].items()}
        )
    raise InputError("state map document needs a 'table' or 'exprs' field")


def context_map_to_obj(tau_u: ContextMap) -> dict:
    return {"table": _rows_to_obj(tau_u)}


def context_map_from_obj(obj: Any) -> ContextMap:
    if not isinstance(obj, dict) or "table" not in obj:
        raise InputError("context map document needs a 'table' field")
    return ContextMap.from_table(_rows_from_obj(obj["table"], "context map"))


def intervention_map_to_obj(omega: InterventionMap) -> list[dict]:
    return _rows_to_obj(omega)


def intervention_map_from_obj(obj: Any) -> InterventionMap:
    _array(obj, "intervention map document")
    return InterventionMap.from_pairs(_rows_from_obj(obj, "intervention map"))


def partition_to_obj(partition: Partition) -> dict:
    return {
        "cells": {h: list(vs) for h, vs in partition.cells},
        "marginal": list(partition.marginal),
    }


def partition_from_obj(obj: Any, high: Signature | None = None) -> Partition:
    if not isinstance(obj, dict) or "cells" not in obj:
        raise InputError("partition document needs a 'cells' field")
    if not isinstance(obj["cells"], dict):
        raise InputError("partition cells must be a JSON object")
    cells = {
        str(h): tuple(str(v) for v in _array(vs, f"partition cell for {h}"))
        for h, vs in obj["cells"].items()
    }
    if high is not None:
        ordered = []
        for d in high.endogenous:
            if d.name not in cells:
                raise InputError(f"partition has no cell for high variable {d.name}")
            ordered.append((d.name, cells[d.name]))
        if len(cells) != len(ordered):
            extra = set(cells) - {n for n, _ in ordered}
            raise InputError(f"partition has cells for unknown variables {sorted(extra)}")
    else:
        ordered = list(cells.items())
    marginal = tuple(str(v) for v in _array(obj.get("marginal", []), "partition marginal"))
    return Partition(tuple(ordered), marginal)


def diagnostic_to_obj(d: Diagnostic) -> dict:
    obj: dict[str, Any] = {"kind": d.kind, "message": d.message}
    if d.subject:
        obj["subject"] = d.subject
    if d.witness is not None:
        obj["witness"] = assignment_to_obj(d.witness)
    return obj


def to_jsonable(value: Any) -> Any:
    """Recursively convert library objects into plain JSON values."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    if isinstance(value, Assignment):
        return assignment_to_obj(value)
    if isinstance(value, RationalDist):
        return dist_to_obj(value)
    if isinstance(value, StateMap):
        return state_map_to_obj(value)
    if isinstance(value, ContextMap):
        return context_map_to_obj(value)
    if isinstance(value, InterventionMap):
        return intervention_map_to_obj(value)
    if isinstance(value, Partition):
        return partition_to_obj(value)
    if isinstance(value, ComponentMaps):
        return {
            h: [{"cell_values": list(k), "value": v} for k, v in entries]
            for h, entries in value.maps
        }
    if isinstance(value, CausalModel):
        return model_to_obj(value)
    if isinstance(value, Diagnostic):
        return diagnostic_to_obj(value)
    if isinstance(value, CheckReport):
        return report_to_obj(value, include_witness=True)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise InputError(f"cannot serialize {type(value).__name__}")


def report_to_obj(report: CheckReport, include_witness: bool = False) -> dict:
    obj: dict[str, Any] = {"verdict": report.verdict, "detail": report.detail}
    if report.counterexample is not None:
        obj["counterexample"] = to_jsonable(report.counterexample)
    if include_witness and report.witness is not None:
        obj["witness"] = to_jsonable(report.witness)
    return obj


def bundle_to_objs(bundle: ExampleBundle) -> dict[str, Any]:
    """All of a bundle's artifacts as JSON documents keyed by file stem."""
    out: dict[str, Any] = {
        "low": model_to_obj(bundle.low),
        "high": model_to_obj(bundle.high),
        "tau": state_map_to_obj(bundle.tau),
    }
    if bundle.omega is not None:
        out["omega"] = intervention_map_to_obj(bundle.omega)
    if bundle.low_dist is not None:
        out["low_dist"] = dist_to_obj(bundle.low_dist)
    if bundle.high_dist is not None:
        out["high_dist"] = dist_to_obj(bundle.high_dist)
    return out


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # also an int literal past Python's digit limit
        raise InputError(f"bad JSON: {exc}") from exc
