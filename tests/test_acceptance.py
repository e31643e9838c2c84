"""End-to-end acceptance checks.

Each case runs one criterion of `criteria.py` at its Tier-1 seed (set 0 of
`criteria.CRITERIA`), prints its PASS/FAIL line and then asserts, so the
suite result matches the printed lines. The print goes to
`sys.__stdout__`, whose file descriptor pytest's default capture still
takes: the line shows live only under `-s`, and otherwise under
"Captured stdout call" (`-rA`). The verdicts reach the terminal in every
mode through the end-of-run summary of `conftest.pytest_terminal_summary`.
These are the slow, statistical checks; the fast per-module oracles live
in the other test files.
"""

import sys

import pytest

import criteria

pytestmark = pytest.mark.slow


VERDICTS = []


@pytest.mark.parametrize("num", criteria.CRITERIA)
def test_criterion(num):
    _, ok, _, line = criteria.run(num)
    # Recorded for the end-of-run summary (see conftest.py) because pytest's
    # capture also swallows direct writes to the terminal.
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line
