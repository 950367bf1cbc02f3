"""Shared fixtures and the acceptance-criteria summary hook."""

import pytest

from foldruns import (
    EndRelationOracle,
    RunLengthOracle,
    StartRelationOracle,
    build_tt,
    infer_automaton,
)

ACCEPTANCE_RESULTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, title): one acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        num, title = marker.args
        ACCEPTANCE_RESULTS[num] = (
            title,
            "PASS" if report.passed else "FAIL",
            report.duration,
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        title, verdict, duration = ACCEPTANCE_RESULTS[num]
        terminalreporter.write_line(
            f"{num:2d}. {title:<62s} {verdict} ({duration:.1f}s)"
        )


# machines inferred once per session at a depth that keeps module tests quick;
# the depth-10 acceptance criterion does its own timed inference
@pytest.fixture(scope="session")
def sp_machine():
    return infer_automaton(StartRelationOracle(), sample_depth=8, test_depth=5)


@pytest.fixture(scope="session")
def ep_machine():
    return infer_automaton(EndRelationOracle(), sample_depth=8, test_depth=5)


@pytest.fixture(scope="session")
def rl_machine():
    return infer_automaton(RunLengthOracle(), sample_depth=8, test_depth=5)


@pytest.fixture(scope="session")
def tt_machine():
    return build_tt(sample_depth=10, test_depth=6)
