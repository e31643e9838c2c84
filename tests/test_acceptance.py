"""End-to-end acceptance checks.

Each case runs one criterion of `criteria.py` at its Tier-1 seed (set 0 of
`criteria.CRITERIA`), prints its PASS/FAIL line (bypassing capture so the
verdicts always appear in the terminal) and then asserts, so the suite
result matches the printed lines. These are the slow, statistical checks;
the fast per-module oracles live in the other test files.
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
