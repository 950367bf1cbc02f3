"""Shared fixtures, the family reader and the acceptance-criteria summary hook."""

import numpy as np
import pytest

from foldruns import (
    EndRelationOracle,
    RunLengthOracle,
    StartRelationOracle,
    build_tt,
    infer_automaton,
)
from foldruns.foldcore import code_matrix
from foldruns.runs import _run_blocks

ACCEPTANCE_RESULTS = {}


def family_runs(t):
    """(codes, run lengths, run ends) of every code of length t, the blocks joined.

    Row r of each matrix belongs to row r of code_matrix(t); lengths and
    ends are int32, as _run_blocks yields them.
    """
    codes = code_matrix(t)
    blocks = list(_run_blocks(codes))
    return (
        codes,
        np.concatenate([lengths for _, _, lengths in blocks]),
        np.concatenate([ends for _, ends, _ in blocks]),
    )


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
    return infer_automaton(StartRelationOracle(), sample_depth=8)


@pytest.fixture(scope="session")
def ep_machine():
    return infer_automaton(EndRelationOracle(), sample_depth=8)


@pytest.fixture(scope="session")
def rl_machine():
    return infer_automaton(RunLengthOracle(), sample_depth=8)


@pytest.fixture(scope="session")
def tt_machine():
    return build_tt(sample_depth=10)
