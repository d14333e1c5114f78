"""Shared pytest wiring: collects acceptance-criterion verdict lines."""

import sys
import time

import pytest

# set before any test module imports sqreparam: the suite leaves no
# __pycache__ in src/, whose bytecode would make later imports of this
# checkout faster than a fresh one
sys.dont_write_bytecode = True

_T0 = time.perf_counter()

# test_acceptance.py appends one "PASS criterion N: ..." line per criterion
ACCEPTANCE_LINES = []


def record_criterion(line):
    ACCEPTANCE_LINES.append(line)


@pytest.fixture
def record():
    return record_criterion


@pytest.fixture
def suite_start():
    return _T0


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.perf_counter() - _T0
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"suite total: {elapsed:.1f}s (budget 120s)")
