"""Shared pytest hooks: echo the acceptance verdicts after the run, and start
every test with no parse of fig9's to reuse."""

import pytest

from rpmix import experiments


@pytest.fixture(autouse=True)
def no_reused_parse():
    # Tests write files of equal bytes, so a parse kept from an earlier test
    # would spare a later one the read it checks.
    experiments._PARSED.clear()


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    if not test_acceptance.VERDICTS:
        return
    terminalreporter.section("acceptance verdicts")
    for line in sorted(test_acceptance.VERDICTS):
        terminalreporter.write_line(line)
