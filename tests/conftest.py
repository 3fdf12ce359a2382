import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Fixed example sequence and no example database, so runs are repeatable.
    settings.register_profile("decegy", derandomize=True, database=None, deadline=None)
    settings.load_profile("decegy")

_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _acceptance_results:
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {name}")
