import pytest

from cak import check_tau_abstraction, check_uniform, validate
from cak.corpus import all_bundles, evaluate_bundle, get_bundle
from cak.errors import InputError


@pytest.fixture(scope="module")
def bundle_results():
    return {b.name: (b, evaluate_bundle(b)) for b in all_bundles()}


def test_bundle_names_unique():
    names = [b.name for b in all_bundles()]
    assert len(names) == len(set(names))


def test_all_bundle_models_validate():
    for b in all_bundles():
        assert validate(b.low) == [], b.name
        assert validate(b.high) == [], b.name


def test_expected_verdicts_reproduce(bundle_results):
    for name, (bundle, results) in bundle_results.items():
        for exp in bundle.expected:
            got = results[exp.check].verdict
            assert got == exp.verdict, (
                f"{name}: {exp.check} produced {got}, recorded {exp.verdict} ({exp.source})"
            )


def test_every_expectation_carries_provenance():
    for b in all_bundles():
        assert b.expected, b.name
        for exp in b.expected:
            assert exp.source in ("anchor", "derived")


def test_hierarchy_monotonicity_across_corpus(bundle_results):
    """Constructive implies strong implies abstraction-on-induced-sets
    implies distribution-free with the induced map, on every bundle."""
    from cak.abstraction import compute_induced_sets

    for name, (b, results) in bundle_results.items():
        constructive = results.get("constructive")
        strong = results.get("strong")
        if constructive is not None and constructive.verdict:
            assert strong is None or strong.verdict, name
        if strong is not None and strong.verdict:
            i_low, i_high, omega_tau = compute_induced_sets(
                b.low.with_allowed("all"), b.high, b.tau
            )
            low, high = b.low.with_allowed(i_low), b.high.with_allowed(i_high)
            assert check_tau_abstraction(low, high, b.tau).verdict, name
            assert check_uniform(low, high, b.tau, omega_tau).verdict, name


def test_get_bundle_round_trip():
    assert get_bundle("voting-4-2-1").name == "voting-4-2-1"
    with pytest.raises(InputError):
        get_bundle("no-such-bundle")


def test_gated_extension_notes_record_branch_constants():
    from cak.corpus import build_gated_extension

    b0 = build_gated_extension()
    b1 = build_gated_extension(branch_seed=123)
    assert "constants" in b0.notes
    assert b0.low.equations == b1.low.equations
    assert b0.high.signature == b1.high.signature
