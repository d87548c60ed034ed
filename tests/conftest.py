from hypothesis import HealthCheck, settings

settings.register_profile(
    "cak",
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("cak")
# Ten times the examples, for CI's run of the generated-code oracle tests:
# `pytest tests/test_codegen.py --hypothesis-profile=ci`.
settings.register_profile("ci", parent=settings.get_profile("cak"), max_examples=400)

_STATUS_WORDS = {
    "passed": "PASS ",
    "failed": "FAIL ",
    "xfailed": "XFAIL",
    "xpassed": "XPASS",
    "error": "ERROR",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of a run."""
    rows = []
    for status, word in _STATUS_WORDS.items():
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", "call") == "call":
                rows.append((nodeid.split("::")[-1], word))
    if not rows:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, word in sorted(rows):
        terminalreporter.write_line(f"{word} {name}")
