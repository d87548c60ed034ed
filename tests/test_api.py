import inspect

import cak

# Parameters that restate what a check's models, tau or partition already
# determine (explicit allowed sets, supplied component maps) or that set a
# size cap per call. Allowed sets come from the models (`with_allowed`
# restricts them), component maps from tau, and caps from the environment.
RESTATING = {"i_low", "i_high", "interventions", "comps", "cap", "max_low_vars"}


def test_no_public_callable_takes_a_restating_parameter():
    found = {}
    for name in cak.__all__:
        obj = getattr(cak, name)
        if not callable(obj):
            continue
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            obj = obj.__init__  # builtin exception classes have no signature of their own
        declared = RESTATING & set(inspect.signature(obj).parameters)
        if declared:
            found[name] = sorted(declared)
    assert found == {}
