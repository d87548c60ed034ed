"""The benchmark in perfbench/ traces library functions by their names in
`perfbench/run.py`'s TARGETS. A renamed or removed function would fail only
in a traced benchmark run; this test makes it fail here, and checks that
the tracer puts every binding back."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_run():
    path = list(sys.path)  # run.py puts perfbench/ first on the path
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = path
    return run


def _resolve(target):
    owner = importlib.import_module(f"cak.{target.module}")
    for part in target.attr.split("."):
        owner = getattr(owner, part)
    return owner


def _bindings() -> dict[tuple[str, str], object]:
    """Every module-level binding of every loaded cak module, and every
    attribute of the classes defined there."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "cak" and not name.startswith("cak."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, bound in vars(value).items():
                    out[(name, f"{attr}.{member}")] = bound
    return out


def test_every_traced_binding_exists_and_is_restored():
    run = _load_run()
    originals = [_resolve(target) for target in run.TARGETS]
    before = _bindings()
    tracer = run.Tracer(run.TARGETS)
    tracer.install()
    try:
        for target, original in zip(run.TARGETS, originals):
            assert _resolve(target) is not original, f"{target.name} was not replaced"
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
